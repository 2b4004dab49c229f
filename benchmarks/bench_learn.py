"""Micro/macro benchmarks for the model-selection hot path.

Covers the redundant-work sites the presorted-induction refactor removes:
the Figure-2 decision-tree tuning grid (candidates x 5 folds on
germancredit-scale data), single deep tree fits, one-vs-rest linear
training, and the confusion-matrix evaluation path.

Usage::

    PYTHONPATH=src python benchmarks/bench_learn.py                    # print table
    PYTHONPATH=src python benchmarks/bench_learn.py --record baseline  # per-node argsort numbers
    PYTHONPATH=src python benchmarks/bench_learn.py --record current   # presorted-backend numbers
    PYTHONPATH=src python benchmarks/bench_learn.py --scale            # 100k/1M histogram-vs-exact
    PYTHONPATH=src python benchmarks/bench_learn.py --smoke            # tiny CI sanity run

``--record`` merges the timings into ``benchmarks/BENCH_learn.json``
under the given phase key and, when both phases are present, recomputes the
per-benchmark speedup table. ``--scale`` times single deep tree fits at
100k and 1M rows on the exact presort backend vs the histogram backend
(in the <=256-distinct regime where both produce the identical tree) and
records the points under the ``scale`` key. ``--smoke`` runs the
workloads once at a small scale, verifies the identity invariants of the
fast paths (presort hint, ``n_jobs`` fan-out, vectorized one-vs-rest,
coded confusion matrix, histogram == exact tree in-regime), and asserts
the committed speedup trajectory — micro and scale points — still meets
its floors, so CI catches both a broken fast path and a silently
regressed recording.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# the repository root, for the frozen reference implementations in tests/
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.core.featurization import Featurizer
from repro.core.learners import DECISION_TREE_GRID
from repro.core.missing_values import ModeImputer
from repro.datasets import load_dataset
from repro.learn import (
    DecisionTreeClassifier,
    GridSearchCV,
    LogisticRegressionGD,
    SGDClassifier,
    confusion_matrix,
)
from tests.learn.reference_impl import fit_ovr_per_class

# committed next to the benchmark (benchmarks/results/ is gitignored) so
# the perf trajectory is recorded in-repo
BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_learn.json")

# floors enforced by --smoke against the committed trajectory: re-recording
# a regressed implementation fails CI even though CI never times full scale
SPEEDUP_FLOORS = {"dt_grid_fit": 3.0, "confusion_matrix": 2.0}

# histogram-vs-exact floors for the committed --scale points: the whole
# point of the histogram backend is the million-row fit
SCALE_POINTS = {"dt_fit_100k": 100_000, "dt_fit_1M": 1_000_000}
SCALE_FLOORS = {"dt_fit_1M": 3.0}
SCALE_DEPTH = 8

# instrumentation must be free when spans are off: the committed A/B of
# dt_grid_fit (telemetry at defaults vs the master kill switch) may not
# exceed this, and --smoke re-checks the disabled span() micro-cost live
TELEMETRY_OVERHEAD_FLOOR_PCT = 1.0
NOOP_SPAN_MAX_US = 2.0  # per disabled span() call, generous for CI boxes

GERMANCREDIT_ROWS = 1000  # the Figure-2 tuning-grid scale
SMOKE_ROWS = 300


def _featurized(name: str, n_rows: int, seed: int = 0):
    """Dataset -> imputed -> featurized (X, y), the matrices grid search sees."""
    frame, spec = load_dataset(name, n=n_rows, seed=seed)
    columns = list(spec.numeric_features) + list(spec.categorical_features)
    frame = ModeImputer().fit(frame, columns, seed).handle_missing(frame)
    data = Featurizer(spec).fit(frame).transform(frame)
    return data.features, data.labels


def _multiclass(n: int, d: int, n_classes: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    centers = rng.normal(size=(n_classes, d))
    y = np.argmax(X @ centers.T, axis=1)
    return X, y


def _time(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmarks(n_rows: int, repeats: int) -> dict:
    timings = {}

    X, y = _featurized("germancredit", n_rows)

    # the Figure-2 hot path: exhaustive tuning of the decision tree,
    # 2 criteria x 3 depths x 4 min-leaf x 3 min-split = 72 candidates,
    # each cross-validated over 5 folds (the paper's "exhaustive search")
    def _grid_fit():
        GridSearchCV(
            DecisionTreeClassifier(random_state=0),
            DECISION_TREE_GRID,
            cv=5,
            random_state=0,
        ).fit(X, y)

    timings["dt_grid_fit"] = _time(_grid_fit, max(1, repeats - 1))

    timings["dt_fit_entropy"] = _time(
        lambda: DecisionTreeClassifier(
            criterion="entropy", max_depth=None, random_state=0
        ).fit(X, y),
        repeats,
    )
    timings["dt_fit_gini"] = _time(
        lambda: DecisionTreeClassifier(
            criterion="gini", max_depth=None, random_state=0
        ).fit(X, y),
        repeats,
    )

    Xm, ym = _multiclass(4 * n_rows, 40, 6)
    timings["ovr_sgd_fit"] = _time(
        lambda: SGDClassifier(
            loss="log", max_iter=5, batch_size=64, random_state=0
        ).fit(Xm, ym),
        repeats,
    )
    # imputer-style shape: many classes, cache-sized target stack
    Xg, yg = _multiclass(n_rows, 20, 12)
    timings["ovr_gd_fit"] = _time(
        lambda: LogisticRegressionGD(max_iter=60, random_state=0).fit(Xg, yg),
        repeats,
    )

    # the evaluation path sees numeric (favorable/unfavorable-style) labels
    rng = np.random.default_rng(0)
    n_eval = 200 * n_rows
    labels = [float(i) for i in range(8)]
    y_true = np.asarray(labels)[rng.integers(0, 8, n_eval)]
    y_pred = np.asarray(labels)[rng.integers(0, 8, n_eval)]
    weights = rng.random(n_eval)
    timings["confusion_matrix"] = _time(
        lambda: confusion_matrix(y_true, y_pred, labels=labels, sample_weight=weights),
        repeats,
    )

    return timings


def run_telemetry_benchmarks(n_rows: int, repeats: int) -> dict:
    """A/B the Figure-2 grid fit: telemetry at defaults vs killed off.

    The default state (metrics on, spans off) is what every normal run
    pays for the instrumentation inside the tree/grid hot path; the kill
    switch (``REPRO_TELEMETRY=0``) removes even the counter adds. The
    committed ``overhead_pct`` between them is gated at
    ``TELEMETRY_OVERHEAD_FLOOR_PCT`` by ``--smoke``. A traced round runs
    too — not gated (tracing is opt-in) but recorded, with the per-stage
    span totals and the splitter backend the fits chose.
    """
    import tempfile

    from repro import telemetry

    X, y = _featurized("germancredit", n_rows)

    def _grid_fit():
        GridSearchCV(
            DecisionTreeClassifier(random_state=0),
            DECISION_TREE_GRID,
            cv=5,
            random_state=0,
        ).fit(X, y)

    _grid_fit()  # warm caches/allocator before any timed leg

    # interleave the legs so clock drift on a busy box hits both evenly
    disabled = default = float("inf")
    for _ in range(repeats):
        telemetry.reset_for_tests()
        telemetry.configure(enabled=False)
        disabled = min(disabled, _time(_grid_fit, 1))
        telemetry.reset_for_tests()
        default = min(default, _time(_grid_fit, 1))

    with tempfile.TemporaryDirectory() as tmp:
        telemetry.reset_for_tests()
        telemetry.configure(trace_dir=tmp)
        before = telemetry.aggregate_state()
        traced = _time(_grid_fit, repeats)
        stages = telemetry.aggregate_delta(before)
    telemetry.reset_for_tests()

    backend = (
        DecisionTreeClassifier(criterion="entropy", max_depth=8)
        .fit(X, y)
        .fit_backend_
    )
    return {
        "n_rows": n_rows,
        "repeats": repeats,
        "dt_grid_fit_disabled_s": round(disabled, 6),
        "dt_grid_fit_default_s": round(default, 6),
        "dt_grid_fit_traced_s": round(traced, 6),
        "overhead_pct": round((default - disabled) / disabled * 100.0, 3),
        "traced_overhead_pct": round(
            (traced - disabled) / disabled * 100.0, 3
        ),
        "fit_backend": backend,
        "stage_timings": stages,
    }


def _scale_matrix(n: int, seed: int = 0):
    """Synthetic (X, y) inside the histogram exactness regime.

    Every feature has <= 256 distinct values and weights are unit, so the
    exact and histogram backends must induce the identical tree — the
    scale points time two routes to the same answer.
    """
    rng = np.random.default_rng(seed)
    cards = [2, 3, 5, 8, 13, 21, 40, 64, 100, 150, 200, 256]
    X = np.column_stack([rng.integers(0, c, n).astype(np.float64) for c in cards])
    y = ((X[:, 0] + X[:, 6] / 40.0 + rng.normal(size=n)) > 1.0).astype(np.int64)
    return X, y


def run_scale_benchmarks(repeats: int) -> dict:
    results = {}
    for name, n in SCALE_POINTS.items():
        X, y = _scale_matrix(n)
        exact_s = _time(
            lambda: DecisionTreeClassifier(max_depth=SCALE_DEPTH).fit(
                X, y, presort="exact"
            ),
            repeats,
        )
        histogram_s = _time(
            lambda: DecisionTreeClassifier(max_depth=SCALE_DEPTH).fit(
                X, y, presort="histogram"
            ),
            repeats,
        )
        results[name] = {
            "rows": n,
            "features": X.shape[1],
            "max_depth": SCALE_DEPTH,
            "exact_s": round(exact_s, 4),
            "histogram_s": round(histogram_s, 4),
            "speedup": round(exact_s / histogram_s, 2),
        }
        print(
            f"{name:12s} exact {exact_s:8.3f}s  histogram {histogram_s:8.3f}s  "
            f"{exact_s / histogram_s:6.2f}x"
        )
    return results


def check_invariants(n_rows: int) -> None:
    """Identity spot-checks on the fast paths (CI smoke gate)."""
    from repro.learn import KFold, Presort, accuracy_score, cross_val_score

    X, y = _featurized("germancredit", n_rows)

    # 1. a tree fit on a prepared Presort must equal the plain fit
    plain = DecisionTreeClassifier(criterion="entropy", max_depth=8).fit(X, y)
    prepared = DecisionTreeClassifier(criterion="entropy", max_depth=8).fit(
        Presort(X), y
    )
    assert _tree_signature(plain) == _tree_signature(prepared), (
        "a prepared Presort changed the induced tree"
    )

    # 2. n_jobs fan-out must reproduce the serial search exactly
    grid = {"criterion": ["gini", "entropy"], "max_depth": [3, 8]}
    serial = GridSearchCV(
        DecisionTreeClassifier(random_state=0), grid, cv=3, random_state=0
    ).fit(X, y)
    fanned = GridSearchCV(
        DecisionTreeClassifier(random_state=0), grid, cv=3, random_state=0, n_jobs=2
    ).fit(X, y)
    assert serial.cv_results_ == fanned.cv_results_, "n_jobs changed grid scores"

    # 3. vectorized one-vs-rest == the frozen per-class binary loop
    Xm, ym = _multiclass(400, 12, 4)
    model = SGDClassifier(loss="log", max_iter=5, batch_size=32, random_state=3)
    model.fit(Xm, ym)
    coef, intercept = fit_ovr_per_class(model, Xm, ym)
    assert np.array_equal(model.coef_, coef), "OvR coefficients drifted"
    assert np.array_equal(model.intercept_, intercept), "OvR intercepts drifted"

    # 4. coded confusion matrix == the dict-lookup accumulation
    rng = np.random.default_rng(1)
    labels = ["a", "b", "c"]
    y_true = np.asarray(labels, dtype=object)[rng.integers(0, 3, 500)]
    y_pred = np.asarray(labels, dtype=object)[rng.integers(0, 3, 500)]
    weights = rng.random(500)
    fast = confusion_matrix(y_true, y_pred, labels=labels, sample_weight=weights)
    slow = np.zeros((3, 3))
    index = {label: i for i, label in enumerate(labels)}
    for t, p, weight in zip(y_true, y_pred, weights):
        slow[index[t], index[p]] += weight
    assert np.array_equal(fast, slow), "confusion_matrix fast path drifted"

    # 5. cross_val_score scoring hook is honoured
    def inverted(model, X_val, y_val):
        return -accuracy_score(y_val, model.predict(X_val))

    scores = cross_val_score(
        DecisionTreeClassifier(max_depth=3), X, y, cv=3, random_state=0,
        scoring=inverted,
    )
    assert (scores <= 0).all(), "custom scoring ignored by cross_val_score"

    # 6. the histogram backend reproduces the exact tree in the <=256
    #    distinct / unit-weight regime, and auto stays exact at paper scale
    Xh, yh = _scale_matrix(5_000)
    exact = DecisionTreeClassifier(max_depth=SCALE_DEPTH).fit(
        Xh, yh, presort="exact"
    )
    histogram = DecisionTreeClassifier(max_depth=SCALE_DEPTH).fit(
        Xh, yh, presort="histogram"
    )
    assert _tree_signature(exact) == _tree_signature(histogram), (
        "histogram splitter diverged from the exact presort tree in-regime"
    )
    auto = DecisionTreeClassifier(criterion="entropy", max_depth=8).fit(
        X, y, presort="auto"
    )
    assert _tree_signature(auto) == _tree_signature(plain), (
        "presort='auto' changed the tree at paper scale"
    )

    # 7. telemetry must be free when off: spans default to the shared
    #    no-op (no per-call allocation), its call cost stays micro, and a
    #    traced fit reproduces the untraced tree node for node
    from repro import telemetry

    assert not telemetry.tracing_enabled(), (
        "tracing is on by default; the hot path would pay for spans"
    )
    assert telemetry.span("bench.check") is telemetry.NOOP_SPAN, (
        "disabled span() no longer returns the shared no-op singleton"
    )
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with telemetry.span("bench.noop", key=1):
            pass
    per_call_us = (time.perf_counter() - start) / calls * 1e6
    assert per_call_us < NOOP_SPAN_MAX_US, (
        f"disabled span() costs {per_call_us:.2f}us/call, "
        f"above the {NOOP_SPAN_MAX_US}us bound"
    )
    import tempfile

    telemetry.reset_for_tests()
    with tempfile.TemporaryDirectory() as tmp:
        telemetry.configure(trace_dir=tmp)
        traced_tree = DecisionTreeClassifier(
            criterion="entropy", max_depth=8
        ).fit(X, y)
    telemetry.reset_for_tests()
    assert _tree_signature(traced_tree) == _tree_signature(plain), (
        "tracing changed the induced tree"
    )

    # 8. the committed trajectory still meets its floors
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            recorded = json.load(handle)
        for name, floor in SPEEDUP_FLOORS.items():
            ratio = recorded.get("speedup", {}).get(name)
            assert ratio is not None and ratio >= floor, (
                f"committed speedup for {name} is {ratio}, below the {floor}x floor"
            )
        for name, floor in SCALE_FLOORS.items():
            ratio = recorded.get("scale", {}).get(name, {}).get("speedup")
            assert ratio is not None and ratio >= floor, (
                f"committed scale speedup for {name} is {ratio}, "
                f"below the {floor}x histogram-vs-exact floor"
            )
        overhead = recorded.get("telemetry", {}).get("overhead_pct")
        assert overhead is not None, (
            "BENCH_learn.json has no telemetry overhead record; "
            "re-run with --telemetry"
        )
        assert overhead <= TELEMETRY_OVERHEAD_FLOOR_PCT, (
            f"committed disabled-telemetry overhead on dt_grid_fit is "
            f"{overhead}%, above the {TELEMETRY_OVERHEAD_FLOOR_PCT}% ceiling"
        )


def _tree_signature(model):
    """Every node's (feature, threshold, size, distribution), read off the
    tree's node arrays by following child links from the root."""
    tree = model.tree_
    nodes = []
    stack = [0]
    while stack:
        i = stack.pop()
        split = tree["feature"][i] >= 0
        nodes.append((
            int(tree["feature"][i]) if split else None,
            float(tree["threshold"][i]) if split else None,
            int(tree["n_samples"][i]),
            tuple(tree["distribution"][i]),
        ))
        if split:
            stack.extend((tree["left"][i], tree["right"][i]))
    return nodes


def render(timings: dict, n_rows: int) -> str:
    lines = [f"bench_learn (germancredit n={n_rows})", "-" * 44]
    for name, seconds in timings.items():
        lines.append(f"{name:24s} {seconds * 1e3:10.2f} ms")
    return "\n".join(lines)


def record(phase: str, timings: dict, n_rows: int, repeats: int) -> dict:
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            data = json.load(handle)
    data.setdefault("meta", {})[phase] = {"n_rows": n_rows, "repeats": repeats}
    data[phase] = timings
    if "baseline" in data and "current" in data:
        data["speedup"] = {
            name: round(data["baseline"][name] / data["current"][name], 2)
            for name in data["current"]
            if name in data["baseline"] and data["current"][name] > 0
        }
    with open(BENCH_JSON, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", choices=["baseline", "current"])
    parser.add_argument("--smoke", action="store_true", help="tiny run + identity checks")
    parser.add_argument(
        "--scale",
        action="store_true",
        help="time 100k/1M-row histogram-vs-exact fits and record them",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="A/B dt_grid_fit with telemetry off/default/traced and record it",
    )
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    if args.scale:
        results = run_scale_benchmarks(args.repeats or 1)
        data = {}
        if os.path.exists(BENCH_JSON):
            with open(BENCH_JSON) as handle:
                data = json.load(handle)
        data["scale"] = results
        with open(BENCH_JSON, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded scale points to {BENCH_JSON}")
        return 0

    if args.telemetry:
        results = run_telemetry_benchmarks(
            args.rows or GERMANCREDIT_ROWS, args.repeats or 3
        )
        data = {}
        if os.path.exists(BENCH_JSON):
            with open(BENCH_JSON) as handle:
                data = json.load(handle)
        data["telemetry"] = results
        with open(BENCH_JSON, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded telemetry overhead to {BENCH_JSON}")
        for key, value in results.items():
            print(f"  {key}: {value}")
        return 0

    n_rows = args.rows or (SMOKE_ROWS if args.smoke else GERMANCREDIT_ROWS)
    repeats = args.repeats or (1 if args.smoke else 3)

    if args.smoke:
        check_invariants(n_rows)
    timings = run_benchmarks(n_rows, repeats)
    print(render(timings, n_rows))
    if args.record:
        data = record(args.record, timings, n_rows, repeats)
        if "speedup" in data:
            print("\nspeedup vs baseline:")
            for name, ratio in sorted(data["speedup"].items()):
                print(f"  {name:24s} {ratio:6.2f}x")
    if args.smoke:
        print("\nsmoke checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
