"""Bounded explicit-state exploration of the lease coordinator's core.

Starting from a fresh :class:`LeaseCore` over a small grid, the explorer
fires every enabled event in every reachable state, breadth-first:

* per connected worker: ``lease`` (when it holds none), a ``result`` for
  every key of the grid under the lease it believes it holds (in-lease,
  duplicate, foreign-key, and stale once that lease expired), a
  ``heartbeat``, a ``complete`` and a ``disconnect``;
* per disconnected worker: ``register`` (it reconnects);
* once per state: a result for every key under a lease id that was never
  granted (a previous holder or another worker's lease);
* a clock tick just past each lease deadline.

Checked on every reachable state and transition (CTL over the graph):

* AG: no ``run_key`` is emitted twice;
* AG: ``finished`` implies every key was emitted;
* AG: ``completed <= total``;
* AG: a result for a key that is neither emitted nor buffered on a lease
  is never dropped;
* AG EF finished: from every reachable state, well-behaved steps alone
  (register, lease, results for the keys of one's own lease, heartbeat,
  complete, clock ticks) reach a finished state.

States are compared up to renaming: lease ids by their order among live
leases, deadlines by their order among themselves and the deadline a
lease granted now would get. The core's behaviour depends on nothing
else, so merging such states loses no interleaving. Two mutant cores,
each re-creating a coordinator bug found earlier, must yield a
counterexample trace.
"""

import pickle
from collections import deque, namedtuple

import pytest

from repro.core.lease_core import (
    Complete,
    Disconnect,
    Heartbeat,
    Lease,
    LeaseCore,
    Register,
    Result,
    Tick,
)

Config = namedtuple("Config", "run_key prep_key")
Worker = namedtuple("Worker", "connected lease keys")
LEASE_SECONDS = 100
NEVER_GRANTED = 0  # lease ids start at 1
MAX_STATES = 200_000  # a guard: every shape below stays under 20k
OFFLINE = Worker(False, None, ())


class Node:
    __slots__ = ("core", "workers", "emitted", "now")

    def __init__(self, core, workers, emitted, now):
        self.core = core
        self.workers = workers
        self.emitted = emitted
        self.now = now


class Violation(Exception):
    pass


def make_groups(sizes):
    names = iter("abcdefgh")
    return [
        [Config(next(names), f"p{index}") for _ in range(size)]
        for index, size in enumerate(sizes)
    ]


def buffered(core):
    return {key for grant in core.leases.values() for key in grant.received}


def canonical(node):
    core = node.core
    ranks = {lease_id: rank for rank, lease_id in enumerate(sorted(core.leases))}
    horizon = sorted(
        {grant.deadline for grant in core.leases.values()}
        | {node.now + core.lease_seconds}
    )
    return (
        tuple(tuple(c.run_key for c in group) for group in core.queue),
        tuple(
            (grant.conn, tuple(grant.configs), frozenset(grant.received),
             horizon.index(grant.deadline))
            for _, grant in sorted(core.leases.items())
        ),
        frozenset(core.accepted),
        tuple(sorted(core.workers)),
        node.emitted,
        tuple(
            (w.connected, w.lease if w.lease is None else ranks.get(w.lease, -1),
             w.keys)
            for w in node.workers
        ),
        tuple(c.run_key for c in getattr(core, "window", ())),
    )


def moves(node, keys):
    """Every enabled event: ``(label, well_behaved, conn, event, now)``."""
    senders = []
    for conn, worker in enumerate(node.workers):
        if not worker.connected:
            yield f"w{conn} register", True, conn, Register(f"w{conn}", False), node.now
            continue
        senders.append(conn)
        if worker.lease is None:
            yield f"w{conn} lease", True, conn, Lease(), node.now
        else:
            for key in keys:
                yield (
                    f"w{conn} result {key} on lease {worker.lease}",
                    key in worker.keys,
                    conn,
                    Result(worker.lease, key, key),
                    node.now,
                )
            yield f"w{conn} heartbeat", True, conn, Heartbeat(worker.lease), node.now
            yield (
                f"w{conn} complete lease {worker.lease}",
                True,
                conn,
                Complete(worker.lease, {}),
                node.now,
            )
        yield f"w{conn} disconnect", False, conn, Disconnect(), node.now
    if senders:
        for key in keys:
            yield (
                f"w{senders[0]} result {key} on ungranted lease",
                False,
                senders[0],
                Result(NEVER_GRANTED, key, key),
                node.now,
            )
    for deadline in sorted({g.deadline for g in node.core.leases.values()}):
        yield f"tick past {deadline}", True, None, Tick(), deadline + 1


def fire(node, conn, event, now, keys):
    # a deep copy of the core, about five times faster than copy.deepcopy;
    # it stays in memory (the no-pickle rule is about what is persisted)
    core = pickle.loads(pickle.dumps(node.core, pickle.HIGHEST_PROTOCOL))
    step = core.handle(conn, event, now)
    emitted = set(node.emitted)
    for configs, _ in step.merges:
        for config in configs:
            if config.run_key in emitted:
                raise Violation(f"AG: {config.run_key} emitted twice")
            emitted.add(config.run_key)
    stats = core.stats
    if stats["completed"] > stats["total"]:
        raise Violation("AG: completed exceeds total")
    if core.finished and emitted != set(keys):
        raise Violation("AG: finished before every key was emitted")
    if isinstance(event, Result):
        key = event.run_key
        was_pending = key not in node.emitted and key not in buffered(node.core)
        if was_pending and key not in emitted and key not in buffered(core):
            raise Violation(f"AG: the result for pending key {key} was dropped")
    workers = node.workers
    if conn is not None:
        worker = workers[conn]
        if isinstance(event, Register):
            worker = worker._replace(connected=True)
        elif isinstance(event, Lease) and step.reply["type"] == "work":
            worker = worker._replace(
                lease=step.reply["lease"], keys=tuple(step.reply["run_keys"])
            )
        elif isinstance(event, Complete):
            worker = worker._replace(lease=None, keys=())
        elif isinstance(event, Disconnect):
            worker = OFFLINE
        workers = workers[:conn] + (worker,) + workers[conn + 1:]
    return Node(core, workers, frozenset(emitted), now)


class Report:
    """State and transition counts, and the shortest counterexample trace
    found for each violated property."""

    def __init__(self, states, transitions, violations):
        self.states = states
        self.transitions = transitions
        self.violations = violations

    def __str__(self):
        lines = [f"{self.states} states, {self.transitions} transitions"]
        for violation, trace in self.violations.items():
            lines.append(f"violation: {violation}")
            lines.extend(f"  {i}. {label}" for i, label in enumerate(trace, 1))
        return "\n".join(lines)


def explore(core_class, workers, sizes):
    groups = make_groups(sizes)
    keys = [c.run_key for group in groups for c in group]
    root = Node(
        core_class(groups, LEASE_SECONDS), (OFFLINE,) * workers, frozenset(), 0
    )
    index = {canonical(root): 0}
    parents = [None]
    finished = [root.core.finished]
    well_behaved_preds = [[]]
    frontier = deque([(0, root)])
    transitions = 0
    violations = {}

    def trace(state, *tail):
        labels = list(tail)
        while parents[state] is not None:
            state, label = parents[state]
            labels.append(label)
        return labels[::-1]

    while frontier:
        state, node = frontier.popleft()
        for label, well_behaved, conn, event, now in moves(node, keys):
            transitions += 1
            try:
                child = fire(node, conn, event, now, keys)
            except Violation as violation:
                # breadth-first, so the first trace is a shortest one
                violations.setdefault(str(violation), trace(state, label))
                continue
            key = canonical(child)
            target = index.get(key)
            if target is None:
                target = index[key] = len(parents)
                assert target < MAX_STATES, "state bound exceeded"
                parents.append((state, label))
                finished.append(child.core.finished)
                well_behaved_preds.append([])
                frontier.append((target, child))
            if well_behaved:
                well_behaved_preds[target].append(state)

    # AG EF finished: walk well-behaved edges backwards from finished states
    can_finish = [False] * len(parents)
    stack = [state for state, done in enumerate(finished) if done]
    for state in stack:
        can_finish[state] = True
    while stack:
        for pred in well_behaved_preds[stack.pop()]:
            if not can_finish[pred]:
                can_finish[pred] = True
                stack.append(pred)
    if not all(can_finish):
        violations["AG EF finished: no well-behaved path finishes the grid"] = (
            trace(can_finish.index(False))
        )
    return Report(len(parents), transitions, violations)


# ----------------------------------------------------------------------
# mutants: each re-creates a coordinator bug and must be caught
# ----------------------------------------------------------------------
class SplitRetireCore(LeaseCore):
    """The re-queue window: a retire that drops the lease and merges what
    it received in one step, and re-queues the rest in the next, with the
    old lookup that finds a stale key only on a live lease or in the
    queue. A result landing in between is dropped as a duplicate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.window = []

    def handle(self, conn, event, now):
        window, self.window = self.window, []
        step = super().handle(conn, event, now)
        missing = [c for c in window if c.run_key not in self.accepted]
        if missing:
            self.queue.appendleft(missing)
        return step

    def _retire(self, step, grant, reason):
        del self.leases[grant.lease_id]
        received = [c for c in grant.configs.values() if c.run_key in grant.received]
        if received:
            self._merge(step, received, [grant.received[c.run_key] for c in received])
        self.window += [
            c for c in grant.configs.values() if c.run_key not in self.accepted
        ]
        return len(received)

    def _result(self, step, conn, event, now):
        findable = {k for g in self.leases.values() for k in g.configs}
        findable |= {c.run_key for group in self.queue for c in group}
        if event.run_key not in findable:
            self.stats["duplicates"] += 1
            return
        super()._result(step, conn, event, now)


class OldResultRuleCore(LeaseCore):
    """The old rule for accepting results: any key sent under a lease its
    connection holds is buffered on that lease, even a key the lease does
    not hold. Retiring merges only the lease's own keys, so such a key is
    accepted but never emitted, and the grid never finishes."""

    def _result(self, step, conn, event, now):
        grant = self._held(conn, event.lease)
        if event.run_key not in self.accepted and grant is not None:
            grant.deadline = now + self.lease_seconds
            grant.received[event.run_key] = event.result
            self.accepted.add(event.run_key)
            return
        super()._result(step, conn, event, now)


# (workers, keys per group); the larger shapes take 7-11 s each on a
# 2-core machine, so they run with the slow-marked tests
SHAPES = [
    pytest.param(2, (2, 1), id="2-workers-groups-2-1"),
    pytest.param(2, (2, 1, 1), id="2-workers-groups-2-1-1"),
    pytest.param(3, (1, 1), id="3-workers-groups-1-1"),
    pytest.param(3, (2, 1), id="3-workers-groups-2-1", marks=pytest.mark.slow),
    pytest.param(2, (2, 2), id="2-workers-groups-2-2", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("workers, sizes", SHAPES)
def test_core_satisfies_every_property(workers, sizes):
    report = explore(LeaseCore, workers, sizes)
    print(f"{workers} workers, groups {sizes}: {report}")
    assert not report.violations, str(report)
    assert report.states > 1000, str(report)


@pytest.mark.parametrize(
    "mutant, violation",
    [
        (SplitRetireCore, "was dropped"),
        (OldResultRuleCore, "AG EF finished"),
    ],
)
def test_mutant_yields_a_counterexample(mutant, violation):
    report = explore(mutant, 2, (1, 1))
    print(f"{mutant.__name__}: {report}")
    traces = [t for v, t in report.violations.items() if violation in v]
    assert traces and traces[0], str(report)
