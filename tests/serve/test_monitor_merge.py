"""FairnessMonitor merge/state support: merging K disjoint per-worker
windows must be metric-identical to one monitor that observed the
concatenated stream — the oracle is the frozen deque implementation —
including alert-threshold behavior at the merged level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import FairnessMonitor

from .reference_monitor import ReferenceFairnessMonitor


def _assert_snapshots_equal(got, want, context=""):
    assert set(got) == set(want), f"{context}: keys {set(got) ^ set(want)}"
    for key in want:
        a, b = got[key], want[key]
        assert a == b or (a != a and b != b), f"{context}: {key}: {a} != {b}"


def _observe_stream(monitor, stream):
    for group, prediction, score, truth in stream:
        monitor.observe(group, prediction, score, truth)


_record = st.tuples(
    st.sampled_from([0.0, 1.0]),  # protected group
    st.sampled_from([0.0, 1.0]),  # prediction
    st.one_of(  # score, possibly unknown
        st.none(),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    st.one_of(st.none(), st.sampled_from([0.0, 1.0])),  # ground truth
)
_stream = st.lists(_record, min_size=0, max_size=40)


class TestMergeMatchesSingleStreamOracle:
    @settings(max_examples=60, deadline=None)
    @given(streams=st.lists(_stream, min_size=1, max_size=4))
    def test_merged_workers_equal_concatenated_stream(self, streams):
        """K per-worker windows, each within capacity, merge into the
        exact monitor that observed worker 0's stream, then worker 1's,
        and so on — metrics AND alerts, bit for bit."""
        window = 40  # >= every stream: no per-worker eviction
        workers = []
        for stream in streams:
            worker = FairnessMonitor("sex", window_size=window, min_observations=5)
            _observe_stream(worker, stream)
            workers.append(worker)

        total = sum(len(stream) for stream in streams)
        oracle = ReferenceFairnessMonitor(
            "sex", window_size=max(1, total), min_observations=5
        )
        for stream in streams:
            _observe_stream(oracle, stream)

        merged = FairnessMonitor.from_states([w.state() for w in workers])
        snapshot = merged.snapshot()
        _assert_snapshots_equal(snapshot, oracle.snapshot())
        got = [alert.describe() for alert in merged.check(snapshot)]
        want = [alert.describe() for alert in oracle.check()]
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(streams=st.lists(_stream, min_size=1, max_size=3), window=st.integers(1, 25))
    def test_merge_into_small_window_evicts_like_one_stream(self, streams, window):
        """An explicit merged window keeps the last N of the concatenated
        stream, exactly as a single monitor with that window would."""
        capacity = 40
        workers = []
        for stream in streams:
            worker = FairnessMonitor("sex", window_size=capacity, min_observations=5)
            _observe_stream(worker, stream)
            workers.append(worker)

        oracle = ReferenceFairnessMonitor(
            "sex", window_size=window, min_observations=5
        )
        for stream in streams:
            _observe_stream(oracle, stream)

        merged = FairnessMonitor.from_states(
            [w.state() for w in workers], window_size=window
        )
        _assert_snapshots_equal(merged.snapshot(), oracle.snapshot())


class TestMergeSemantics:
    def test_state_round_trips_through_from_states(self):
        rng = np.random.default_rng(7)
        monitor = FairnessMonitor("sex", window_size=32, min_observations=5)
        monitor.observe_batch(
            (rng.random(50) < 0.5).astype(float),
            (rng.random(50) < 0.4).astype(float),
            scores=rng.random(50),
            true_labels=(rng.random(50) < 0.5).astype(float),
        )
        rebuilt = FairnessMonitor.from_states(
            [monitor.state()], window_size=monitor.window_size
        )
        _assert_snapshots_equal(rebuilt.snapshot(), monitor.snapshot())
        # total_observed carries the fleet-lifetime count, evictions included
        assert rebuilt.snapshot()["total_observed"] == 50.0

    def test_state_is_json_safe(self):
        import json

        monitor = FairnessMonitor("sex", window_size=8)
        monitor.observe(1.0, 1.0, score=None, true_label=None)  # NaN slots
        monitor.observe(0.0, 1.0, score=0.25, true_label=0.0)
        encoded = json.dumps(monitor.state(), allow_nan=False)  # strict
        rebuilt = FairnessMonitor.from_states([json.loads(encoded)], window_size=8)
        _assert_snapshots_equal(rebuilt.snapshot(), monitor.snapshot())

    def test_from_states_appends_every_state(self):
        left = FairnessMonitor("sex", window_size=16)
        right = FairnessMonitor("sex", window_size=16)
        left.observe(1.0, 1.0)
        right.observe(0.0, 0.0)
        merged = FairnessMonitor.from_states(
            [left.state(), right.state()], window_size=16
        )
        snap = merged.snapshot()
        assert snap["window"] == 2.0
        assert snap["total_observed"] == 2.0

    def test_from_states_rejects_mismatched_configuration(self):
        sex = FairnessMonitor("sex", window_size=8)
        race = FairnessMonitor("race", window_size=8)
        with pytest.raises(ValueError, match="protected"):
            FairnessMonitor.from_states([sex.state(), race.state()])
        flipped = FairnessMonitor("sex", window_size=8, favorable_label=0.0,
                                  unfavorable_label=1.0)
        with pytest.raises(ValueError, match="labels"):
            FairnessMonitor.from_states([sex.state(), flipped.state()])
        with pytest.raises(ValueError, match="at least one"):
            FairnessMonitor.from_states([])

    def test_alerts_fire_only_at_the_merged_level(self):
        """Each worker sees one group (no DI defined); the merged window
        sees both and violates the four-fifths rule."""
        privileged = FairnessMonitor("sex", window_size=200, min_observations=10)
        unprivileged = FairnessMonitor("sex", window_size=200, min_observations=10)
        for _ in range(50):
            privileged.observe(1.0, 1.0)  # privileged group: 100% favorable
        for _ in range(50):
            unprivileged.observe(0.0, 0.0)  # unprivileged: 0% favorable
        assert privileged.check() == [] and unprivileged.check() == []
        assert "disparate_impact" not in privileged.snapshot()

        merged = FairnessMonitor.from_states(
            [privileged.state(), unprivileged.state()]
        )
        snapshot = merged.snapshot()
        assert snapshot["disparate_impact"] == 0.0
        metrics = {alert.metric for alert in merged.check(snapshot)}
        assert "disparate_impact" in metrics
        assert "statistical_parity_difference" in metrics

    def test_worker_order_defines_concatenation_order(self):
        """Merging [a, b] equals observing a-then-b, not b-then-a, once
        eviction makes the order visible."""
        a = FairnessMonitor("sex", window_size=4)
        b = FairnessMonitor("sex", window_size=4)
        for value in (1.0, 1.0, 1.0, 1.0):
            a.observe(value, value)
        for value in (0.0, 0.0, 0.0, 0.0):
            b.observe(value, value)
        ab = FairnessMonitor.from_states([a.state(), b.state()], window_size=4)
        ba = FairnessMonitor.from_states([b.state(), a.state()], window_size=4)
        assert ab.snapshot()["selection_rate"] == 0.0  # b's records survived
        assert ba.snapshot()["selection_rate"] == 1.0  # a's records survived
