"""Fork-based group fan-out shared by executors and grid search.

One scheduling core serves both layers of parallelism in the system: the
experiment executors (:mod:`repro.core.executors`) fan preparation groups
out over worker processes, and :class:`repro.learn.GridSearchCV` fans
candidate×fold chunks out inside a single experiment run.

The pool uses the ``fork`` start method on purpose: payloads routinely
contain closures, lambdas and fitted estimators that do not pickle.
The payload, worker callable and group list are published in a module
global before the pool spawns, each forked worker inherits them, and only
group *indices* cross the process boundary on the way in (results are
pickled on the way back, so they must be picklable).

Because workers share nothing but the immutable payload, parallel runs
produce results identical to serial execution.

:func:`fork_process` forks the long-lived children: distributed
localhost grid workers and serving-fleet workers. The package is
POSIX-only (telemetry registers ``os.register_at_fork`` hooks at import),
so fork is always there and nothing here falls back to serial execution;
``jobs <= 1`` is the only serial path.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple

from . import telemetry

#: (payload, worker, groups) inherited by forked pool workers
_WORKER_STATE: Optional[Tuple] = None


def _run_indexed(index: int):
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive
        raise RuntimeError("worker has no published state; pool misconfigured")
    payload, worker, groups = state
    return worker(payload, groups[index])


def run_groups(
    payload,
    worker: Callable,
    groups: Sequence,
    jobs: int,
    on_done: Callable[[int, object, object], None],
) -> None:
    """Run ``worker(payload, group)`` for every group.

    ``on_done(index, group, result)`` fires as each group completes —
    incrementally, in completion order under the pool — so callers can
    persist partial progress. With ``jobs <= 1`` or a single group,
    execution happens serially in submission order.

    If a group raises, unstarted groups are cancelled, in-flight groups
    are allowed to finish and are still reported through ``on_done``,
    and the error then propagates.
    """
    groups = list(groups)
    jobs = min(int(jobs), len(groups))
    if jobs <= 1:
        for index, group in enumerate(groups):
            on_done(index, group, worker(payload, group))
        return

    global _WORKER_STATE
    # save/restore rather than reset: a nested run_groups (e.g. a
    # GridSearchCV n_jobs fan-out inside an executor worker) must leave
    # the state this process inherited at fork intact for its next task
    inherited = _WORKER_STATE
    _WORKER_STATE = (payload, worker, groups)
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            futures = {
                pool.submit(_run_indexed, index): index
                for index in range(len(groups))
            }
            reported = set()
            try:
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in finished:
                        result = future.result()
                        index = futures[future]
                        reported.add(future)
                        on_done(index, groups[index], result)
            except BaseException:
                # a failed group must not discard work other processes
                # completed: stop unstarted groups, let in-flight ones
                # finish (pool shutdown waits for them regardless) and
                # report every success before propagating
                for future in futures:
                    future.cancel()
                wait(set(futures))
                for future in futures:
                    if (
                        future not in reported
                        and future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        index = futures[future]
                        on_done(index, groups[index], future.result())
                raise
    finally:
        _WORKER_STATE = inherited


def fork_process(target: Callable[[], object]) -> int:
    """Fork a long-lived worker process that runs ``target()`` and exits.

    The single-machine "distributed over localhost" mode spawns its grid
    workers this way, and the serving fleet its scoring workers: the child
    inherits the parent's state copy-on-write (closures and all), runs the
    target, and ``os._exit``s so no parent state (atexit handlers,
    buffered streams) runs twice.
    Exit status is 0 on success, 1 on an exception (traceback logged
    through :func:`repro.telemetry.log_line`, one write however long).
    """
    pid = os.fork()
    if pid != 0:
        return pid
    status = 0
    try:
        target()
    except BaseException:
        telemetry.log_line(traceback.format_exc(), force=True)
        status = 1
    finally:
        os._exit(status)


def reap_process(
    pid: int, kill_after: float = 10.0, grace: float = 2.0
) -> Optional[int]:
    """Collect a forked child, escalating TERM -> KILL if it lingers.

    Polls for up to ``grace`` seconds first, so a child that is about to
    exit on its own (a grid worker draining its final ``done`` reply) is
    collected cleanly instead of signalled. Returns the child's raw
    ``waitpid`` status, or ``None`` when it was already reaped elsewhere.
    """
    try:
        deadline = time.monotonic() + grace
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return status
            if time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + kill_after
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return status
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1]
    except (ChildProcessError, ProcessLookupError):
        return None


def split_for_balance(groups: List[list], workers: int) -> List[list]:
    """Split the largest groups until every worker can stay busy."""
    groups = [list(group) for group in groups]
    while len(groups) < workers:
        largest = max(groups, key=len)
        if len(largest) < 2:
            break
        groups.remove(largest)
        middle = len(largest) // 2
        groups.extend([largest[:middle], largest[middle:]])
    return groups
