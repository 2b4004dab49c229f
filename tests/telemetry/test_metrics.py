"""Metric primitives: counters, gauges, histograms, registry state,
cross-process merging, bucket quantiles, and Prometheus text exposition."""

import sys
import threading

import pytest

from repro.telemetry import metrics as m


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = m.Counter()
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_noop_counter_stays_zero(self):
        m.NOOP_COUNTER.inc()
        m.NOOP_COUNTER.inc(100)
        assert m.NOOP_COUNTER.value == 0


class TestConcurrentExactness:
    def test_counters_and_histograms_lose_nothing_under_threads(self):
        """Serving counts rely on ``Counter.inc`` without a lock: 8 threads
        x 200k increments, racing histogram observers, must sum exactly."""
        counter = m.Counter()
        hist = m.Histogram(bounds=(1.0, 2.0, 4.0))
        n_threads, per_thread, observations = 8, 200_000, 20_000

        def increment():
            for _ in range(per_thread):
                counter.inc()

        def observe():
            for k in range(observations):
                hist.observe(k % 5)

        threads = [threading.Thread(target=increment) for _ in range(n_threads)]
        threads += [threading.Thread(target=observe) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.value == n_threads * per_thread
        state = hist.state()
        assert state["count"] == sum(state["counts"]) == 4 * observations
        assert state["counts"] == [32_000, 16_000, 32_000, 0]
        assert state["sum"] == 4 * sum(k % 5 for k in range(observations))


class TestGauge:
    def test_set_and_read(self):
        g = m.Gauge()
        g.set(3.5)
        assert g.value() == 3.5

    def test_noop_gauge(self):
        m.NOOP_GAUGE.set(5.0)
        assert m.NOOP_GAUGE.value() == 0.0


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        h = m.Histogram(bounds=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        state = h.state()
        # le-style buckets: <=1, <=5, <=10, +Inf overflow
        assert state["counts"] == [2, 1, 1, 1]
        assert state["count"] == 5
        assert state["sum"] == pytest.approx(111.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            m.Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            m.Histogram(bounds=())

    def test_noop_histogram(self):
        m.NOOP_HISTOGRAM.observe(3.0)
        assert m.NOOP_HISTOGRAM.state()["count"] == 0


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        reg = m.MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_state_snapshot_is_sorted_and_plain_data(self):
        reg = m.MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        state = reg.state()
        assert list(state["counters"]) == ["a", "b"]
        assert state["counters"]["b"] == 2
        assert state["gauges"]["g"] == 1.5
        assert state["histograms"]["h"]["counts"] == [0, 1, 0]


class TestMergeStates:
    def test_counters_and_gauges_sum(self):
        a = {"counters": {"x": 1}, "gauges": {"g": 2.0}, "histograms": {}}
        b = {"counters": {"x": 3, "y": 1}, "gauges": {"g": 0.5}, "histograms": {}}
        merged = m.merge_states([a, b])
        assert merged["counters"] == {"x": 4, "y": 1}
        assert merged["gauges"]["g"] == 2.5

    def test_histograms_merge_bucketwise(self):
        h1 = {"bounds": [1.0, 2.0], "counts": [1, 0, 2], "sum": 7.0, "count": 3}
        h2 = {"bounds": [1.0, 2.0], "counts": [0, 1, 1], "sum": 5.0, "count": 2}
        merged = m.merge_states(
            [
                {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
                {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
            ]
        )
        out = merged["histograms"]["h"]
        assert out["counts"] == [1, 1, 3]
        assert out["sum"] == 12.0
        assert out["count"] == 5

    def test_mismatched_bounds_are_skipped_not_corrupted(self):
        h1 = {"bounds": [1.0], "counts": [1, 0], "sum": 1.0, "count": 1}
        h2 = {"bounds": [2.0], "counts": [0, 1], "sum": 3.0, "count": 1}
        merged = m.merge_states(
            [
                {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
                {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
            ]
        )
        # first writer wins; the incompatible sample must not blend in
        assert merged["histograms"]["h"]["counts"] == [1, 0]

    def test_empty_input(self):
        merged = m.merge_states([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


class TestBucketQuantile:
    HIST = {"bounds": [1.0, 5.0, 10.0], "counts": [2, 1, 1, 0], "sum": 9.0, "count": 4}

    @pytest.mark.parametrize(
        "q, bound", [(0.0, 1.0), (0.25, 1.0), (0.5, 5.0), (0.95, 10.0), (1.0, 10.0)]
    )
    def test_upper_bound_of_the_bucket_holding_the_rank(self, q, bound):
        assert m.bucket_quantile(self.HIST, q) == bound

    def test_overflow_bucket_has_no_bound(self):
        hist = dict(self.HIST, counts=[2, 1, 0, 1])
        assert m.bucket_quantile(hist, 0.5) == 5.0
        assert m.bucket_quantile(hist, 1.0) is None


class TestPrometheusRendering:
    def _state(self):
        return {
            "counters": {"serve.requests": 7},
            "gauges": {"queue depth": 2.0},
            "histograms": {
                "latency": {
                    "bounds": [1.0, 5.0],
                    "counts": [2, 1, 1],
                    "sum": 9.5,
                    "count": 4,
                }
            },
        }

    def test_counter_rendering(self):
        text = m.render_prometheus(self._state())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 7" in text

    def test_gauge_name_sanitization(self):
        text = m.render_prometheus(self._state())
        assert "repro_queue_depth 2" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = m.render_prometheus(self._state())
        assert 'repro_latency_bucket{le="1"} 2' in text
        assert 'repro_latency_bucket{le="5"} 3' in text
        assert 'repro_latency_bucket{le="+Inf"} 4' in text
        assert "repro_latency_sum 9.5" in text
        assert "repro_latency_count 4" in text

    def test_ends_with_newline(self):
        assert m.render_prometheus(self._state()).endswith("\n")
