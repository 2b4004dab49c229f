"""The export -> registry -> ``repro serve`` -> ``POST /score`` workload.

Set-up trains the pipeline, publishes it to a fresh registry, starts
``repro serve`` in its own process and computes every expected reply with
the in-process ``ScoringEngine``. The timed part trains nothing: it is
HTTP, micro-batching, scoring and monitoring, in two phases: a fifth of
the time single-record requests, then 64-record requests. The bounded
end-to-end metrics come from the 64-record phase, whose run-to-run spread
is the smaller; the single-record phase is checked and reported.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import common
import layers
import tracing
from client import LoadClient

SETUP_REPEATS = 3
CONNECTIONS = 2
WARMUP_SECONDS = 1.0
DISTINCT_RECORDS = 256
BATCH_SIZE = 64
DISTINCT_BATCHES = 16
ADULT_ROWS = 6000
P99_MIN_SAMPLES = 1000
#: Fewest about-one-second windows a phase's rate is taken over.
MIN_WINDOWS = 3
#: The 64-record phase, whose rate is bounded, runs this many times as
#: long as the single-record one, which needs only its p99 samples.
BATCH_SHARES = 4
START_TIMEOUT = 60.0


def _strict_loads(body: bytes):
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(body.decode("utf-8"), parse_constant=refuse)


class Pipeline:
    """Trained, exported pipeline plus the traffic and its expected replies."""

    def __init__(self, seed: int, registry_dir: str):
        import repro.datasets
        from repro.core import DatawigImputer, DecisionTree, Experiment, ReweighingPreProcessor
        from repro.frame import train_validation_test_masks
        from repro.serve import ModelRegistry, ScoringEngine
        from repro.serve.scoring import records_to_frame

        frame, spec = repro.datasets.load_dataset("adult", n=ADULT_ROWS)
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=seed,
            learner=DecisionTree(tuned=True, param_grid={"max_depth": [5, 10]}, cv=3),
            missing_value_handler=DatawigImputer(),
            pre_processor=ReweighingPreProcessor(),
        )
        prepared = experiment.prepare()
        trained = experiment.train_candidates(prepared)
        result = experiment.evaluate(prepared, trained)
        self.registry_dir = registry_dir
        record = experiment.export_pipeline(
            prepared, trained, result, registry=ModelRegistry(registry_dir)
        )
        self.model_id = record["model_id"]

        # traffic: rows the model never trained on, missing values included
        train_mask, _, _ = train_validation_test_masks(
            frame.num_rows, experiment.train_fraction, experiment.validation_fraction, seed
        )
        unseen = np.flatnonzero(~train_mask)
        rng = np.random.default_rng(seed)
        chosen = rng.choice(unseen, DISTINCT_RECORDS + BATCH_SIZE * DISTINCT_BATCHES, replace=False)
        rows = _records(frame, chosen)
        self.records = rows[:DISTINCT_RECORDS]
        self.batches = [
            rows[DISTINCT_RECORDS + i * BATCH_SIZE : DISTINCT_RECORDS + (i + 1) * BATCH_SIZE]
            for i in range(DISTINCT_BATCHES)
        ]
        self.record_bodies = [json.dumps(r, allow_nan=False).encode() for r in self.records]
        self.batch_bodies = [
            json.dumps({"records": b}, allow_nan=False).encode() for b in self.batches
        ]

        # expected replies from the in-process engine on the in-memory
        # pipeline, so the served copy is also checked against its export
        engine = ScoringEngine(
            experiment.fitted_pipeline(prepared, trained, result.best_index)
        )
        self.expected_records = [
            (out["label"], out["score"])
            for out in (engine.score_record(r) for r in self.records)
        ]
        self.expected_batches = []
        for batch in self.batches:
            scored = engine.score_frame(records_to_frame(spec, batch))
            self.expected_batches.append(
                ([float(v) for v in scored.labels], [float(v) for v in scored.scores])
            )

    def body(self, batch: bool, traced: bool):
        """``payload(i)`` for the load client."""
        bodies = self.batch_bodies if batch else self.record_bodies

        def payload(i):
            body = bodies[i % len(bodies)]
            if not traced:
                return None, body
            rid = 2 * i + batch  # unique across the two phases
            return rid, b'{"_rid": %d, ' % rid + body[1:]

        return payload

    def check(self, batch: bool, index: int, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        try:
            reply = _strict_loads(body)
        except ValueError:
            return False
        if batch:
            labels, scores = self.expected_batches[index % len(self.batch_bodies)]
            return (
                reply.get("records_scored") == BATCH_SIZE
                and reply.get("labels") == labels
                and reply.get("scores") == scores
                and "scored_rows" not in reply
            )
        label, score = self.expected_records[index % len(self.record_bodies)]
        return (
            reply.get("records_scored") == 1
            and reply.get("label") == label
            and reply.get("score") == score
        )


def _records(frame, rows) -> List[Dict[str, object]]:
    columns = {name: frame.col(name).values for name in frame.columns}
    out = []
    for i in rows:
        record = {}
        for name, values in columns.items():
            value = values[i]
            value = value.item() if hasattr(value, "item") else value
            if isinstance(value, float) and value != value:
                value = None
            record[name] = value
        out.append(record)
    return out


class Server:
    """A ``repro serve`` process; always stopped and reaped by ``stop``."""

    def __init__(self, pipeline: Pipeline, scratch: str, spans_path: Optional[str] = None):
        args = ["serve", "--registry", pipeline.registry_dir, "--model", pipeline.model_id,
                "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            launcher = os.path.join(common.HERE, "serve_launcher.py")
            command = [sys.executable, launcher, spans_path] + args
        env = dict(os.environ, PYTHONPATH=common.SRC)
        self.log_path = os.path.join(scratch, f"server-{time.monotonic_ns()}.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env
            )

    def wait_ready(self) -> None:
        self.port = self._wait_for_port()
        self.client = LoadClient(self.port, CONNECTIONS)
        self._wait_healthy()

    def _wait_for_port(self) -> int:
        deadline = common.Deadline(START_TIMEOUT)
        pattern = re.compile(rb"on http://[^:]+:(\d+)")
        while not deadline.passed():
            with open(self.log_path, "rb") as log:
                found = pattern.search(log.read())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise common.BenchmarkError(f"server did not start: {self._log_tail()}")

    def _wait_healthy(self) -> None:
        deadline = common.Deadline(START_TIMEOUT)
        while not deadline.passed():
            try:
                status, _ = self.client.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass  # not accepting yet
            time.sleep(0.01)
        raise common.BenchmarkError(f"server never became healthy: {self._log_tail()}")

    def _log_tail(self) -> str:
        with open(self.log_path, "rb") as log:
            return log.read()[-2000:].decode("utf-8", "replace")

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Tally:
    """Client-side totals for the ``/metrics`` consistency check."""

    def __init__(self):
        self.ok = 0
        self.error_replies = 0
        self.records = 0

    def add(self, samples, batch: bool) -> None:
        for sample in samples:
            status = sample[4]
            if status == 200:
                self.ok += 1
                self.records += BATCH_SIZE if batch else 1
            elif status:
                self.error_replies += 1


def consistent(server: Server, tally: Tally) -> bool:
    """``/metrics`` agrees with itself and with what the client saw."""
    try:
        status, body = server.client.get("/metrics")
        m = _strict_loads(body)
        successes = m.get("successes", m["requests"] - m["errors"])
        return (
            status == 200
            and m["requests"] == successes + m["errors"]
            and successes == tally.ok
            and m["errors"] == tally.error_replies
            and m["records_scored"] == tally.records
        )
    except (OSError, ValueError, KeyError, TypeError):
        return False


class Phase:
    """One timed load phase and its checked samples."""

    def __init__(self, server: Server, pipeline: Pipeline, batch: bool, seconds: float,
                 tally: Tally, traced: bool = False):
        self.batch = batch
        self.window_start = time.perf_counter()
        self.samples, self.timeouts, self.elapsed = server.client.run(
            pipeline.body(batch, traced), seconds
        )
        self.window_end = time.perf_counter()
        tally.add(self.samples, batch)
        self.good = [s for s in self.samples if pipeline.check(batch, s[0], s[4], s[5])]
        self.failed = len(self.samples) - len(self.good) + self.timeouts
        self.attempted = len(self.samples) + self.timeouts
        self.latencies = [s[3] - s[2] for s in self.samples]

    def per_second(self) -> float:
        """Correctly answered records (or requests) per second.

        The phase's replies are cut, in order of arrival, into windows of
        equal count lasting about a second each, and the ninth decile of
        their rates is taken, as the sweeps take the first decile of pass
        time (see README.md, "Why the fastest decile").
        """
        per = BATCH_SIZE if self.batch else 1
        windows = int(self.elapsed)
        size = len(self.good) // windows if windows >= MIN_WINDOWS else 0
        if not size:
            return len(self.good) * per / self.elapsed
        arrived = sorted(sample[3] for sample in self.good)
        edges = [self.window_start] + arrived[size - 1 :: size]
        _, fast = common.deciles([size * per / (b - a) for a, b in zip(edges, edges[1:])])
        return fast


def _warm_up(server: Server, pipeline: Pipeline, tally: Tally) -> List[Phase]:
    """Untimed traffic of both shapes; its failures still count."""
    return [Phase(server, pipeline, batch, WARMUP_SECONDS / 2, tally) for batch in (False, True)]


def run(name: str, seed: int, seconds: float, trace: bool, started: float,
        tamper_label: bool = False) -> Dict[str, object]:
    scratch = common.scratch_dir()
    servers: List[Server] = []
    try:
        return _run(name, seed, seconds, trace, started, scratch, servers, tamper_label)
    finally:
        for server in servers:
            server.stop()
        common.remove_scratch(scratch)


def _run(name, seed, seconds, trace, started, scratch, servers, tamper_label):
    common.import_program()
    imported = time.perf_counter() - started
    seed_in = common.input_seed(seed)
    recorder = tracing.Recorder() if trace else None
    if recorder is not None:
        tracing.install(recorder, tracing.SWEEP)
    setups, warm = [], []
    for repeat in range(1 if trace else SETUP_REPEATS):
        began = time.perf_counter()
        pipeline = Pipeline(seed_in, os.path.join(scratch, f"registry-{repeat}"))
        for server in servers:
            server.stop()
        servers.append(Server(pipeline, scratch))
        servers[-1].wait_ready()
        tally = Tally()
        warm += _warm_up(servers[-1], pipeline, tally)
        setups.append(time.perf_counter() - began)
    if recorder is not None:
        recorder.uninstall()
    server = servers[-1]
    if tamper_label:
        label, score = pipeline.expected_records[0]
        pipeline.expected_records[0] = (1.0 - label, score)

    # a traced run times both phases twice: untraced, then traced
    share = seconds / ((1 + BATCH_SHARES) * (2 if trace else 1))
    record = Phase(server, pipeline, False, share, tally)
    checks = [consistent(server, tally)]
    batch = Phase(server, pipeline, True, BATCH_SHARES * share, tally)
    checks.append(consistent(server, tally))
    rss = server.peak_rss_mb()
    phases = warm + [record, batch]

    context = dict(
        common.machine_context(seed),
        workload=name,
        connections=CONNECTIONS,
        record_samples=len(record.latencies),
        batch_samples=len(batch.latencies),
        timeouts=record.timeouts + batch.timeouts,
        metrics_checks=checks,
    )
    if trace:
        traced = _traced_phases(pipeline, scratch, servers, share)
        phases += traced["warm"] + traced["phases"]
        checks += traced["checks"]
        metrics = layers.serve_metrics(
            recorder.spans,
            tracing.load_spans(traced["spans_path"]),
            [(p.window_start, p.window_end) for p in traced["phases"]],
            [(s[1], s[2], s[3]) for p in traced["phases"] for s in p.samples],
            100.0 * (batch.per_second() / traced["phases"][1].per_second() - 1.0),
        )
        report = {}
    else:
        metrics = {
            "throughput_per_s": common.metric(batch.per_second(), "1/s"),
            "setup_s": common.metric(imported + common.median(setups), "s"),
            "peak_rss_mb": common.metric(rss, "MB"),
        }
        p99 = (
            common.percentile(record.latencies, 99) * 1000.0
            if len(record.latencies) >= P99_MIN_SAMPLES
            else None
        )
        report = {
            "requests_per_s": common.metric(record.per_second(), "1/s"),
            "request_p50_ms": common.metric(common.median(record.latencies) * 1000.0, "ms"),
            "request_p99_ms": None if p99 is None else common.metric(p99, "ms"),
            "records_per_s": metrics["throughput_per_s"],
            "batch_p50_ms": common.metric(common.median(batch.latencies) * 1000.0, "ms"),
            "setup_s": metrics["setup_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
    attempted = sum(p.attempted for p in phases) + len(checks)
    failed = sum(p.failed for p in phases) + checks.count(False)
    if not trace:
        metrics["success_rate"] = common.metric((attempted - failed) / attempted, "ratio")
        report["success_rate"] = metrics["success_rate"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "context": context,
    }


def _traced_phases(pipeline, scratch, servers, share):
    """The same two phases against a server whose layers record spans."""
    servers[-1].stop()
    spans_path = os.path.join(scratch, "server-spans.json")
    server = Server(pipeline, scratch, spans_path=spans_path)
    servers.append(server)
    server.wait_ready()
    tally = Tally()
    warm = _warm_up(server, pipeline, tally)
    record = Phase(server, pipeline, False, share, tally, traced=True)
    checks = [consistent(server, tally)]
    batch = Phase(server, pipeline, True, BATCH_SHARES * share, tally, traced=True)
    checks.append(consistent(server, tally))
    server.stop()
    if server.process.returncode != 0 or not os.path.exists(spans_path):
        raise common.BenchmarkError("traced server did not write its spans")
    return {"warm": warm, "phases": [record, batch], "checks": checks, "spans_path": spans_path}
