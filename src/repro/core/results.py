"""Result records for experiment runs, with JSON/CSV round-trips.

Every experiment writes an output file with its metrics by default (§4 of
the paper); these records are what the analysis layer consumes to rebuild
the paper's figures.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..durable import crash_safe_write


@dataclass
class CandidateResult:
    """One trained model's validation-set outcome."""

    learner: str
    validation_metrics: Dict[str, float]
    train_metrics: Dict[str, float] = field(default_factory=dict)
    best_params: Optional[Dict] = None


@dataclass
class RunResult:
    """Complete record of a single experiment run (one seed, one config)."""

    dataset: str
    random_seed: int
    components: Dict[str, str]
    candidates: List[CandidateResult]
    best_index: int
    test_metrics: Dict[str, float]
    test_metrics_incomplete: Dict[str, float] = field(default_factory=dict)
    test_metrics_complete: Dict[str, float] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    # deterministic configuration fingerprint stamped by the plan/executor
    # layer; lets a store index completed runs and skip them on resume
    run_key: Optional[str] = None

    @property
    def best_candidate(self) -> CandidateResult:
        return self.candidates[self.best_index]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        # dataclasses.asdict would deep-copy every metric float; the dicts
        # copied one level deep give the same JSON
        data = _fields_dict(self)
        data["candidates"] = [_fields_dict(c) for c in self.candidates]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=True)

    @staticmethod
    def from_dict(data: dict) -> "RunResult":
        candidates = [CandidateResult(**c) for c in data["candidates"]]
        return RunResult(
            dataset=data["dataset"],
            random_seed=data["random_seed"],
            components=data["components"],
            candidates=candidates,
            best_index=data["best_index"],
            test_metrics=data["test_metrics"],
            test_metrics_incomplete=data.get("test_metrics_incomplete", {}),
            test_metrics_complete=data.get("test_metrics_complete", {}),
            sizes=data.get("sizes", {}),
            run_key=data.get("run_key"),
        )

    @staticmethod
    def from_json(text: str) -> "RunResult":
        return RunResult.from_dict(json.loads(text))


def _fields_dict(record) -> dict:
    """A dataclass record's fields by name, dict values copied."""
    data = {}
    for item in fields(record):
        value = getattr(record, item.name)
        data[item.name] = dict(value) if isinstance(value, dict) else value
    return data


class ResultsStore:
    """Append-only JSONL store of run results on disk.

    Writes are crash-safe: a batch lands in the store through a temp-file
    copy and an atomic rename, so a process killed mid-write (a dead grid
    worker, a SIGKILLed coordinator) can never leave a truncated store
    behind — readers and ``resume=True`` always see the previous complete
    state or the new complete state, nothing in between.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)

    def append(self, result: RunResult) -> None:
        self.extend([result])

    def extend(self, results: List[RunResult]) -> None:
        """Append a batch of results atomically (temp file + rename)."""
        if not results:
            return
        payload = "".join(result.to_json() + "\n" for result in results)
        with crash_safe_write(self.path) as handle:
            if os.path.exists(self.path):
                with open(self.path) as current:
                    shutil.copyfileobj(current, handle)
            handle.write(payload)

    def run_keys(self) -> "set[str]":
        """Fingerprints of every stored run that carries one."""
        return {r.run_key for r in self.load(strict=False) if r.run_key}

    def load(self, strict: bool = True) -> List[RunResult]:
        """Read every stored result.

        With ``strict=False``, unparseable lines (e.g. a final line torn by
        an interrupted write — the very situation ``resume`` recovers from)
        are skipped instead of raising.
        """
        if not os.path.exists(self.path):
            return []
        results = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    results.append(RunResult.from_json(line))
                except (ValueError, KeyError, TypeError):
                    if strict:
                        raise
        return results


def results_to_rows(results: List[RunResult]) -> List[dict]:
    """Flatten run results into analysis-friendly rows.

    One row per run: components + seed + every test metric, plus the
    incomplete/complete test strata (prefixed), plus the best candidate's
    validation accuracy.
    """
    rows = []
    for result in results:
        row = {
            "dataset": result.dataset,
            "seed": result.random_seed,
            **{f"component__{k}": v for k, v in result.components.items()},
            "best_learner": result.best_candidate.learner,
            **{f"test__{k}": v for k, v in result.test_metrics.items()},
            **{
                f"test_incomplete__{k}": v
                for k, v in result.test_metrics_incomplete.items()
            },
            **{
                f"test_complete__{k}": v
                for k, v in result.test_metrics_complete.items()
            },
        }
        validation_accuracy = result.best_candidate.validation_metrics.get(
            "overall__accuracy"
        )
        if validation_accuracy is not None:
            row["validation_accuracy"] = validation_accuracy
        if result.run_key is not None:
            row["run_key"] = result.run_key
        rows.append(row)
    return rows
