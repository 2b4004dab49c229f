"""Tests for the shared fork-based group runner (repro.parallel)."""

import os
import signal
import time

import numpy as np
import pytest

from repro import parallel, telemetry
from repro.learn import SGDClassifier

from .reference_impl import fit_ovr_per_class


def _double(payload, group):
    return [payload * value for value in group]


class TestForkProcess:
    def test_child_runs_target_and_exits_zero(self, tmp_path):
        marker = tmp_path / "ran"
        pid = parallel.fork_process(lambda: marker.write_text("yes"))
        status = os.waitpid(pid, 0)[1]
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert marker.read_text() == "yes"

    def test_failing_child_logs_traceback_even_when_quiet(self, capfd):
        def target():
            # quiet only in the child: the parent's telemetry is untouched
            telemetry.set_quiet(True)
            raise ValueError("boom in child")

        pid = parallel.fork_process(target)
        status = os.waitpid(pid, 0)[1]
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 1
        err = capfd.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "ValueError: boom in child" in err


class TestReapProcess:
    def test_child_ignoring_term_is_killed(self):
        ready_read, ready_write = os.pipe()

        def target():
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            os.write(ready_write, b"x")
            time.sleep(60)

        pid = parallel.fork_process(target)
        os.close(ready_write)
        try:
            assert os.read(ready_read, 1) == b"x"
        finally:
            os.close(ready_read)
        started = time.monotonic()
        status = parallel.reap_process(pid, kill_after=0.2, grace=0.1)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL
        assert time.monotonic() - started < 30

    def test_already_reaped_child_returns_none(self):
        pid = parallel.fork_process(lambda: None)
        os.waitpid(pid, 0)
        assert parallel.reap_process(pid, kill_after=0.1, grace=0.1) is None


class TestRunGroups:
    def test_serial_reports_in_order(self):
        seen = []
        parallel.run_groups(
            10, _double, [[1], [2], [3]], 1,
            lambda index, group, result: seen.append((index, result)),
        )
        assert seen == [(0, [10]), (1, [20]), (2, [30])]

    def test_parallel_matches_serial(self):
        groups = [[1, 2], [3], [4, 5, 6], [7]]
        results = {}
        parallel.run_groups(
            3, _double, groups, 3,
            lambda index, group, result: results.__setitem__(index, result),
        )
        assert results == {0: [3, 6], 1: [9], 2: [12, 15, 18], 3: [21]}

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
