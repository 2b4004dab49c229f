"""Serving acceptance: export → reload → score is byte-identical to the
in-process experiment on all four paper datasets, including in a genuinely
fresh interpreter (subprocess via the CLI), and ``repro serve --workers 2``
serves, aggregates and drains as one server."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import DecisionTree, Experiment, ModeImputer
from repro.datasets import load_dataset
from repro.frame import train_validation_test_masks
from repro.serve import ModelRegistry, ScoringEngine

# (dataset, row-count override) — sizes keep the suite fast while covering
# every generator's schema (missing values, protected attributes, scales)
DATASETS = [
    ("adult", 1500),
    ("germancredit", None),
    ("propublica", 1200),
    ("ricci", None),
]


def _run_and_export(name, n, registry_root, seed=5):
    frame, spec = load_dataset(name, n=n)
    handler = (
        ModeImputer() if frame.missing_mask(spec.feature_columns).any() else None
    )
    experiment = Experiment(
        frame=frame,
        spec=spec,
        random_seed=seed,
        learner=DecisionTree(tuned=False),
        missing_value_handler=handler,
    )
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    registry = ModelRegistry(registry_root)
    experiment.export_pipeline(
        prepared, trained, result, registry=registry, tags=["production"]
    )
    _, _, test_mask = train_validation_test_masks(frame.num_rows, 0.7, 0.1, seed)
    return experiment, prepared, trained, result, frame.mask(test_mask)


@pytest.mark.parametrize("name,n", DATASETS, ids=[d[0] for d in DATASETS])
def test_reloaded_pipeline_byte_identical(tmp_path, name, n):
    root = str(tmp_path / "registry")
    experiment, prepared, trained, result, raw_test = _run_and_export(name, n, root)

    # a brand-new registry object: everything comes off disk
    engine = ScoringEngine(ModelRegistry(root).load_pipeline("production"))
    batch = engine.score_frame(raw_test)

    model, post = trained.models[result.best_index]
    expected = post.apply(
        experiment._predict(model, prepared.test_data_eval, prepared.test_data)
    )
    assert np.array_equal(batch.labels, expected.labels)
    if expected.scores is not None:
        assert np.array_equal(batch.scores, expected.scores)

    # fairness metrics agree exactly too (NaN-tolerant comparison)
    metrics = engine.evaluate_frame(raw_test)
    for key, value in result.test_metrics.items():
        got = metrics[key]
        assert got == value or (got != got and value != value), key


def _cli_env(**extra):
    env = dict(os.environ, **extra)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _http(port, path, data=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def test_fresh_process_verification_via_cli(tmp_path):
    """The CI smoke flow: export here, verify byte-identity in a new python."""
    root = str(tmp_path / "registry")
    _run_and_export("germancredit", None, root)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "score",
            "--registry",
            root,
            "--model",
            "production",
            "--dataset",
            "germancredit",
            "--verify",
        ],
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "byte-identically" in completed.stdout


def test_cli_fleet_serves_aggregates_and_drains(tmp_path):
    root = str(tmp_path / "registry")
    _, _, _, _, raw_test = _run_and_export("germancredit", None, root)
    record = {
        name: (value.item() if hasattr(value, "item") else value)
        for name, value in (
            (name, raw_test.col(name).values[0]) for name in raw_test.columns
        )
    }
    # the fleet's control directory goes to the temp dir; give the server
    # its own so leftovers are attributable
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--registry", root,
            "--model", "production", "--port", "0", "--workers", "2",
        ],
        env=_cli_env(TMPDIR=str(scratch)),
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # a failed test kills the workers too
    )
    lines = []
    reader = threading.Thread(
        target=lambda: lines.extend(server.stderr), daemon=True
    )
    reader.start()
    try:
        deadline = time.monotonic() + 60
        port = None
        while port is None and time.monotonic() < deadline:
            match = re.search(r"on http://[^:]+:(\d+)", "".join(lines))
            port = int(match.group(1)) if match else None
            assert server.poll() is None, "".join(lines)
            time.sleep(0.05)
        assert port, "server never printed its address"

        alive = 0
        while alive != 2 and time.monotonic() < deadline:
            try:
                alive = _http(port, "/healthz")["fleet"]["workers_alive"]
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            time.sleep(0.1)
        assert alive == 2, "".join(lines)

        scored = _http(port, "/score", json.dumps(record).encode())
        assert scored["records_scored"] == 1
        metrics = _http(port, "/metrics")
        assert metrics["fleet"]["size"] == 2
        assert metrics["requests"] == metrics["successes"] + metrics["errors"]

        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0, "".join(lines)
    finally:
        if server.poll() is None:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
    reader.join(timeout=5)
    assert not [p.name for p in scratch.iterdir() if p.name.startswith("repro-fleet-")]


def test_grid_export_publishes_best_run(tmp_path):
    from repro.core import GridSpec, run_grid

    frame, spec = load_dataset("germancredit")
    grid = GridSpec(
        seeds=[0, 1],
        learners=[lambda: DecisionTree(tuned=False)],
    )
    root = str(tmp_path / "registry")
    results = run_grid(
        (frame, spec), grid, export=root, export_tags=["production"]
    )
    registry = ModelRegistry(root)
    record = registry.get_record("production")
    accuracies = [
        r.best_candidate.validation_metrics["overall__accuracy"] for r in results
    ]
    best = results[int(np.argmax(accuracies))]
    assert record["run_key"] == best.run_key
    assert record["metrics"]["test"] == best.test_metrics

    # the exported pipeline reproduces the winning run's test predictions
    engine = ScoringEngine(registry.load_pipeline("production"))
    _, _, test_mask = train_validation_test_masks(
        frame.num_rows, 0.7, 0.1, best.random_seed
    )
    metrics = engine.evaluate_frame(frame.mask(test_mask))
    for key, value in best.test_metrics.items():
        got = metrics[key]
        assert got == value or (got != got and value != value), key
