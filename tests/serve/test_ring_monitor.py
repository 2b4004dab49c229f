"""Ring-buffer FairnessMonitor: equivalence with the frozen deque
implementation, and the observe_batch input-validation regression."""

import numpy as np
import pytest

from repro.fairness import ClassificationMetric
from repro.fairness.metrics import dataset_metric
from repro.serve import FairnessMonitor

from .reference_monitor import ReferenceFairnessMonitor


def _assert_snapshots_equal(got, want, context=""):
    assert set(got) == set(want), f"{context}: keys {set(got) ^ set(want)}"
    for key in want:
        a, b = got[key], want[key]
        assert a == b or (a != a and b != b), f"{context}: {key}: {a} != {b}"


def _pair(**kwargs):
    return (
        FairnessMonitor("sex", **kwargs),
        ReferenceFairnessMonitor("sex", **kwargs),
    )


class TestRingMatchesDeque:
    def test_randomized_batches_across_eviction_boundaries(self):
        """Random batch sizes force every wrap alignment of the ring."""
        rng = np.random.default_rng(11)
        ring, deque_ref = _pair(window_size=64, min_observations=5)
        for step in range(60):
            k = int(rng.integers(1, 40))
            groups = (rng.random(k) < 0.5).astype(float)
            predictions = (rng.random(k) < 0.4).astype(float)
            scores = rng.random(k) if rng.random() < 0.7 else None
            if rng.random() < 0.7:
                truths = (rng.random(k) < 0.5).astype(float)
                truths[rng.random(k) < 0.3] = np.nan  # partially labeled
            else:
                truths = None
            for monitor in (ring, deque_ref):
                monitor.observe_batch(groups, predictions, scores, truths)
            _assert_snapshots_equal(
                ring.snapshot(), deque_ref.snapshot(), f"step {step}"
            )
            got = [a.describe() for a in ring.check()]
            want = [a.describe() for a in deque_ref.check()]
            assert got == want, f"step {step}"

    def test_exact_window_wrap_boundary(self):
        """Batches that land exactly on the window edge (k == window)."""
        ring, deque_ref = _pair(window_size=10)
        groups = np.asarray([1.0, 0.0] * 5)
        for monitor in (ring, deque_ref):
            monitor.observe_batch(groups, 1.0 - groups)
            monitor.observe_batch(groups[:3], groups[:3])  # partial wrap
            monitor.observe_batch(groups, groups)  # full wrap again
        _assert_snapshots_equal(ring.snapshot(), deque_ref.snapshot())

    def test_oversized_batch_keeps_only_window_tail(self):
        ring, deque_ref = _pair(window_size=10)
        rng = np.random.default_rng(3)
        groups = (rng.random(35) < 0.5).astype(float)
        predictions = (rng.random(35) < 0.5).astype(float)
        for monitor in (ring, deque_ref):
            monitor.observe_batch(groups, predictions)
        snap = ring.snapshot()
        _assert_snapshots_equal(snap, deque_ref.snapshot())
        assert snap["window"] == 10.0
        assert snap["total_observed"] == 35.0

    def test_single_group_window(self):
        ring, deque_ref = _pair(window_size=100)
        for monitor in (ring, deque_ref):
            monitor.observe_batch(np.ones(60), np.ones(60))
        snap = ring.snapshot()
        _assert_snapshots_equal(snap, deque_ref.snapshot())
        assert "disparate_impact" not in snap

    def test_singles_and_batches_interleaved(self):
        ring, deque_ref = _pair(window_size=16)
        rng = np.random.default_rng(9)
        for step in range(30):
            if step % 3 == 0:
                score = float(rng.random()) if step % 2 else None
                truth = float(step % 2) if step % 5 else None
                for monitor in (ring, deque_ref):
                    monitor.observe(
                        float(step % 2),
                        float((step // 2) % 2),
                        score=score,
                        true_label=truth,
                    )
            else:
                k = int(rng.integers(1, 8))
                groups = (rng.random(k) < 0.5).astype(float)
                predictions = (rng.random(k) < 0.5).astype(float)
                for monitor in (ring, deque_ref):
                    monitor.observe_batch(groups, predictions)
            _assert_snapshots_equal(
                ring.snapshot(), deque_ref.snapshot(), f"step {step}"
            )

    def test_reset_empties_window(self):
        ring, _ = _pair(window_size=8)
        ring.observe_batch(np.ones(20), np.ones(20))
        ring.reset()
        snap = ring.snapshot()
        assert snap["window"] == 0.0
        ring.observe_batch(np.zeros(3), np.zeros(3))
        assert ring.snapshot()["window"] == 3.0


class TestObserveBatchValidation:
    """Regression: malformed inputs must be rejected before any mutation.

    The deque implementation raveled groups/predictions but indexed
    scores[i]/true_labels[i] raw, so a 2-D score array or a mismatched
    label vector blew up mid-loop after partially mutating the window.
    """

    def test_column_vector_scores_are_raveled(self):
        monitor = FairnessMonitor("sex", window_size=100)
        groups = np.asarray([1.0, 0.0, 1.0, 0.0])
        monitor.observe_batch(
            groups, groups.copy(), scores=np.linspace(0, 1, 4).reshape(-1, 1)
        )
        snap = monitor.snapshot()
        assert snap["window"] == 4.0
        assert snap["mean_score"] == np.linspace(0, 1, 4).mean()

    @pytest.mark.parametrize(
        "bad",
        [
            {"scores": np.zeros(3)},
            {"scores": np.zeros((4, 2))},  # ravels to 8 != 4
            {"true_labels": np.zeros(5)},
            {"true_labels": np.zeros((2, 4))},
        ],
    )
    def test_length_mismatch_rejected_without_mutation(self, bad):
        monitor = FairnessMonitor("sex", window_size=100)
        monitor.observe_batch(np.ones(2), np.ones(2))
        before = monitor.snapshot()
        with pytest.raises(ValueError, match="length"):
            monitor.observe_batch(
                np.asarray([1.0, 0.0, 1.0, 0.0]), np.ones(4), **bad
            )
        _assert_snapshots_equal(monitor.snapshot(), before)

    def test_prediction_length_mismatch_rejected(self):
        monitor = FairnessMonitor("sex", window_size=100)
        with pytest.raises(ValueError, match="length"):
            monitor.observe_batch(np.ones(4), np.ones(3))
        assert monitor.snapshot()["window"] == 0.0


class TestSnapshotReadsOneConfusionTable:
    def test_labeled_window_builds_three_tables_and_no_classification_metric(
        self, monkeypatch
    ):
        """Accuracy comes from the overall table and the two gaps from the
        two group tables: three ``binary_counts`` calls per snapshot."""
        rng = np.random.default_rng(5)
        ring, deque_ref = _pair(window_size=64)
        groups = (rng.random(40) < 0.5).astype(float)
        truths = (rng.random(40) < 0.5).astype(float)
        truths[::7] = np.nan  # partially labeled
        predictions = (rng.random(40) < 0.4).astype(float)
        for monitor in (ring, deque_ref):
            monitor.observe_batch(groups, predictions, None, truths)
        want = deque_ref.snapshot()

        tables, built = [], []
        kernel = dataset_metric.binary_counts
        init = ClassificationMetric.__init__

        def counting(*args, **kwargs):
            tables.append(args)
            return kernel(*args, **kwargs)

        def building(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(dataset_metric, "binary_counts", counting)
        monkeypatch.setattr(ClassificationMetric, "__init__", building)
        snap = ring.snapshot()
        assert built == []
        assert len(tables) == 3
        assert "equal_opportunity_difference" in snap and "accuracy" in snap
        _assert_snapshots_equal(snap, want)
