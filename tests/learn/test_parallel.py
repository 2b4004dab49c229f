"""Tests for the shared fork-based group runner (repro.parallel)."""

import numpy as np
import pytest

from repro import parallel, telemetry
from repro.learn import SGDClassifier

from .reference_impl import fit_ovr_per_class


def _double(payload, group):
    return [payload * value for value in group]


class TestRunGroups:
    def test_serial_reports_in_order(self):
        seen = []
        parallel.run_groups(
            10, _double, [[1], [2], [3]], 1,
            lambda index, group, result: seen.append((index, result)),
        )
        assert seen == [(0, [10]), (1, [20]), (2, [30])]

    def test_serial_run_does_not_count_a_fallback(self):
        fallback = telemetry.counter("parallel.serial_fallback")
        before = fallback.value
        parallel.run_groups(1, _double, [[1], [2]], 1, lambda *args: None)
        assert fallback.value == before

    def test_missing_fork_falls_back_to_serial_and_counts(self, monkeypatch):
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        fallback = telemetry.counter("parallel.serial_fallback")
        before = fallback.value
        seen = []
        with pytest.warns(RuntimeWarning, match="running serially"):
            parallel.run_groups(
                2, _double, [[1], [2], [3]], 3,
                lambda index, group, result: seen.append((index, result)),
            )
        assert seen == [(0, [2]), (1, [4]), (2, [6])]
        assert fallback.value - before == 1

    @pytest.mark.skipif(not parallel.fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self):
        groups = [[1, 2], [3], [4, 5, 6], [7]]
        results = {}
        parallel.run_groups(
            3, _double, groups, 3,
            lambda index, group, result: results.__setitem__(index, result),
        )
        assert results == {0: [3, 6], 1: [9], 2: [12, 15, 18], 3: [21]}

    @pytest.mark.skipif(not parallel.fork_available(), reason="needs fork")
    def test_nested_run_groups_is_reentrant(self):
        # a worker that itself fans out (the GridSearchCV n_jobs knob
        # inside an executor worker) must not clobber the state its own
        # pool parent published — the next task dispatched to the same
        # worker process still needs it
        def nested(payload, group):
            inner = []
            parallel.run_groups(
                payload, _double, [group, group], 2,
                lambda index, g, result: inner.extend(result),
            )
            return sorted(inner)

        results = {}
        parallel.run_groups(
            2, nested, [[1], [2], [3], [4], [5], [6]], 2,
            lambda index, group, result: results.__setitem__(index, result),
        )
        assert results == {i: [2 * (i + 1)] * 2 for i in range(6)}

    def test_failure_still_reports_completed_groups(self):
        def explode_on_two(payload, group):
            if group == [2]:
                raise RuntimeError("boom")
            return group

        seen = []
        with pytest.raises(RuntimeError, match="boom"):
            parallel.run_groups(
                None, explode_on_two, [[1], [2], [3]], 1,
                lambda index, group, result: seen.append(index),
            )
        assert seen == [0]


class TestSGDSignsCap:
    def test_four_class_fit_matches_per_class_reference(self):
        # signs are built per batch from the label codes: no
        # (classes × samples) matrix is allocated at any size
        X = np.random.default_rng(0).normal(size=(120, 6))
        y = np.random.default_rng(1).integers(0, 4, 120)
        spec = dict(loss="log", max_iter=4, batch_size=16, random_state=2)
        stacked = SGDClassifier(**spec).fit(X, y)
        coef, intercept = fit_ovr_per_class(SGDClassifier(**spec), X, y)
        assert stacked.coef_.shape == (4, 6)
        assert np.array_equal(stacked.coef_, coef)
        assert np.array_equal(stacked.intercept_, intercept)
