"""ResultsStore round-trip coverage: to_json → load → extend preserves
every record and run_key exactly (including NaN metrics and optional
strata), so resume and registry-metric linkage can trust the store."""

import json
import math
from dataclasses import asdict

import pytest

from repro.core import ResultsStore
from repro.core.results import CandidateResult, RunResult


def _result(seed: int, run_key=None, with_nan=False) -> RunResult:
    metric = float("nan") if with_nan else 0.25 + seed / 100.0
    candidates = [
        CandidateResult(
            learner=f"learner-{i}",
            validation_metrics={"overall__accuracy": 0.7 + i / 10.0, "odd": metric},
            train_metrics={"overall__accuracy": 0.9},
            best_params={"max_depth": 3 + i} if i else None,
        )
        for i in range(2)
    ]
    return RunResult(
        dataset="synthetic",
        random_seed=seed,
        components={"learners": "a,b", "pre_processor": "NoIntervention"},
        candidates=candidates,
        best_index=1,
        test_metrics={"overall__accuracy": 0.81, "group__disparate_impact": metric},
        test_metrics_incomplete={"overall__accuracy": 0.5} if seed % 2 else {},
        test_metrics_complete={"overall__accuracy": 0.9} if seed % 2 else {},
        sizes={"train": 70, "validation": 10, "test": 20},
        run_key=run_key,
    )


def _equal(a: RunResult, b: RunResult) -> bool:
    return _canon(a.to_dict()) == _canon(b.to_dict())


def _canon(value):
    """NaN-tolerant structural normal form for comparison."""
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canon(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return "__nan__"
    return value


class TestRunResultJson:
    def test_json_roundtrip_exact(self):
        original = _result(3, run_key="k3")
        restored = RunResult.from_json(original.to_json())
        assert _equal(original, restored)
        assert restored.run_key == "k3"
        assert restored.best_candidate.learner == "learner-1"

    def test_to_dict_gives_the_asdict_json_and_owns_its_dicts(self):
        result = _result(3, run_key="k", with_nan=True)
        result.candidates[1].best_params["grid"] = [1, [2.5, None]]
        data = result.to_dict()
        expected = json.dumps(asdict(result), sort_keys=True)
        assert json.dumps(data, sort_keys=True) == expected
        data["test_metrics"]["extra"] = 1.0
        data["candidates"][0]["validation_metrics"].clear()
        assert "extra" not in result.test_metrics
        assert result.candidates[0].validation_metrics

    def test_nan_metrics_survive(self):
        original = _result(4, run_key="k4", with_nan=True)
        restored = RunResult.from_json(original.to_json())
        assert math.isnan(restored.test_metrics["group__disparate_impact"])
        assert math.isnan(restored.candidates[0].validation_metrics["odd"])

    def test_missing_optional_fields_default(self):
        minimal = {
            "dataset": "d",
            "random_seed": 0,
            "components": {},
            "candidates": [
                {"learner": "l", "validation_metrics": {"overall__accuracy": 0.5}}
            ],
            "best_index": 0,
            "test_metrics": {},
        }
        import json

        restored = RunResult.from_json(json.dumps(minimal))
        assert restored.test_metrics_incomplete == {}
        assert restored.sizes == {}
        assert restored.run_key is None


class TestStoreRoundtrip:
    def test_extend_load_extend_preserves_everything(self, tmp_path):
        results = [
            _result(i, run_key=f"key-{i}", with_nan=(i == 2)) for i in range(5)
        ]
        first = ResultsStore(str(tmp_path / "a.jsonl"))
        first.extend(results)

        loaded = first.load()
        assert len(loaded) == len(results)
        for original, restored in zip(results, loaded):
            assert _equal(original, restored)
        assert first.run_keys() == {f"key-{i}" for i in range(5)}

        # write the loaded records into a second store: byte-level parity
        second = ResultsStore(str(tmp_path / "b.jsonl"))
        second.extend(loaded)
        reloaded = second.load()
        for original, restored in zip(results, reloaded):
            assert _equal(original, restored)
        assert second.run_keys() == first.run_keys()
        with open(first.path) as a, open(second.path) as b:
            assert a.read() == b.read()

    def test_append_and_extend_interleave(self, tmp_path):
        store = ResultsStore(str(tmp_path / "c.jsonl"))
        store.append(_result(0, run_key="k0"))
        store.extend([_result(1, run_key="k1"), _result(2)])
        loaded = store.load()
        assert [r.random_seed for r in loaded] == [0, 1, 2]
        # a result without a run_key loads but contributes no key
        assert store.run_keys() == {"k0", "k1"}

    def test_extend_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        store = ResultsStore(str(tmp_path / "atomic.jsonl"))
        store.extend([_result(0, run_key="k0")])
        store.extend([_result(1, run_key="k1")])
        assert store.run_keys() == {"k0", "k1"}
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.jsonl"]

    def test_crashed_extend_preserves_prior_contents(self, tmp_path, monkeypatch):
        import os

        store = ResultsStore(str(tmp_path / "crash.jsonl"))
        store.extend([_result(0, run_key="k0")])
        before = open(store.path).read()

        # a crash at the commit point (power loss before rename) must
        # leave the previous store bytes intact and no stray temp file
        def refuse(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="simulated crash"):
            store.extend([_result(1, run_key="k1")])
        monkeypatch.undo()

        assert open(store.path).read() == before
        assert store.run_keys() == {"k0"}
        assert [p.name for p in tmp_path.iterdir()] == ["crash.jsonl"]

    def test_torn_final_line_recoverable(self, tmp_path):
        store = ResultsStore(str(tmp_path / "d.jsonl"))
        store.extend([_result(0, run_key="k0")])
        with open(store.path, "a") as handle:
            handle.write('{"dataset": "torn", "random_se')
        with pytest.raises(ValueError):
            store.load(strict=True)
        recovered = store.load(strict=False)
        assert len(recovered) == 1
        assert recovered[0].run_key == "k0"
