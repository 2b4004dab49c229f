"""Unit tests for the grid runner, selectors and result records."""

import numpy as np
import pytest

from repro.core import (
    AccuracySelector,
    BestModelSelector,
    CandidateResult,
    ConstrainedSelector,
    DIRemover,
    FunctionSelector,
    GridSpec,
    LogisticRegression,
    NoIntervention,
    RejectOptionPostProcessor,
    ResultsStore,
    ReweighingPreProcessor,
    RunResult,
    results_to_rows,
    run_grid,
)
from repro.core.plan import route_intervention
from repro.core.standard_experiments import (
    GermanCreditExperiment,
    PaymentOptionGenderExperiment,
    RicciExperiment,
)
from repro.core import DatawigImputer


class TestSelectors:
    def test_accuracy_selector(self):
        metrics = [
            {"overall__accuracy": 0.7},
            {"overall__accuracy": 0.9},
            {"overall__accuracy": 0.8},
        ]
        assert AccuracySelector().select(metrics) == 1

    def test_nan_treated_as_worst(self):
        metrics = [{"overall__accuracy": float("nan")}, {"overall__accuracy": 0.5}]
        assert AccuracySelector().select(metrics) == 1

    def test_minimize_mode(self):
        selector = BestModelSelector(metric="group__theil_index", maximize=False)
        metrics = [{"group__theil_index": 0.4}, {"group__theil_index": 0.1}]
        assert selector.select(metrics) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            AccuracySelector().select([])

    def test_constrained_prefers_feasible(self):
        selector = ConstrainedSelector(
            constraint_metric="group__disparate_impact",
            constraint_target=1.0,
            constraint_slack=0.1,
        )
        metrics = [
            {"overall__accuracy": 0.95, "group__disparate_impact": 0.5},
            {"overall__accuracy": 0.80, "group__disparate_impact": 0.95},
        ]
        assert selector.select(metrics) == 1

    def test_constrained_falls_back_to_least_violation(self):
        selector = ConstrainedSelector(constraint_slack=0.01)
        metrics = [
            {"overall__accuracy": 0.95, "group__disparate_impact": 0.5},
            {"overall__accuracy": 0.80, "group__disparate_impact": 0.9},
        ]
        assert selector.select(metrics) == 1

    def test_function_selector_validates_range(self):
        selector = FunctionSelector(lambda m: 5)
        with pytest.raises(ValueError, match="outside"):
            selector.select([{"overall__accuracy": 1.0}])


class TestResults:
    def _result(self, seed=0, accuracy=0.8):
        return RunResult(
            dataset="demo",
            random_seed=seed,
            components={"pre_processor": "NoIntervention"},
            candidates=[
                CandidateResult(
                    learner="LR",
                    validation_metrics={"overall__accuracy": accuracy},
                )
            ],
            best_index=0,
            test_metrics={"overall__accuracy": accuracy, "group__disparate_impact": 0.9},
            test_metrics_incomplete={"overall__accuracy": accuracy + 0.05},
            sizes={"train": 10},
        )

    def test_json_roundtrip_with_nan(self):
        result = self._result()
        result.test_metrics["group__false_negative_rate_ratio"] = float("nan")
        clone = RunResult.from_json(result.to_json())
        assert np.isnan(clone.test_metrics["group__false_negative_rate_ratio"])

    def test_store_append_and_load(self, tmp_path):
        store = ResultsStore(str(tmp_path / "runs.jsonl"))
        store.append(self._result(seed=1))
        store.append(self._result(seed=2))
        loaded = store.load()
        assert [r.random_seed for r in loaded] == [1, 2]

    def test_store_load_missing_file(self, tmp_path):
        assert ResultsStore(str(tmp_path / "nothing.jsonl")).load() == []

    def test_results_to_rows_flattens(self):
        rows = results_to_rows([self._result(seed=3, accuracy=0.75)])
        row = rows[0]
        assert row["seed"] == 3
        assert row["test__overall__accuracy"] == 0.75
        assert row["test_incomplete__overall__accuracy"] == 0.80
        assert row["component__pre_processor"] == "NoIntervention"
        assert row["validation_accuracy"] == 0.75


class TestRouting:
    def test_no_intervention_goes_pre(self):
        pre, post = route_intervention(NoIntervention())
        assert isinstance(pre, NoIntervention) and post is None

    def test_preprocessor_routed(self):
        pre, post = route_intervention(ReweighingPreProcessor())
        assert pre is not None and post is None

    def test_postprocessor_routed(self):
        pre, post = route_intervention(
            RejectOptionPostProcessor(num_class_thresh=5, num_ROC_margin=5)
        )
        assert pre is None and post is not None

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            route_intervention(object())


class TestRunGrid:
    def test_grid_size_and_results(self):
        grid = GridSpec(
            seeds=[1, 2],
            learners=[lambda: LogisticRegression(tuned=False)],
            interventions=[NoIntervention, lambda: DIRemover(0.5)],
        )
        assert grid.size() == 4
        results = run_grid("germancredit", grid)
        assert len(results) == 4
        pre_names = {r.components["pre_processor"] for r in results}
        assert pre_names == {"NoIntervention", "DIRemover(0.5)"}

    def test_progress_callback(self):
        calls = []
        grid = GridSpec(seeds=[1], learners=[lambda: LogisticRegression(tuned=False)])
        run_grid(
            "ricci", grid, progress=lambda done, total, result: calls.append((done, total))
        )
        assert calls == [(1, 1)]

    def test_explicit_frame_and_spec(self):
        from repro.datasets import load_dataset

        frame, spec = load_dataset("ricci")
        grid = GridSpec(seeds=[5], learners=[lambda: LogisticRegression(tuned=False)])
        results = run_grid((frame, spec), grid)
        assert results[0].dataset == "ricci"

    def test_dataset_size_override(self):
        grid = GridSpec(
            seeds=[1],
            learners=[lambda: LogisticRegression(tuned=False)],
            missing_value_handlers=[lambda: DatawigImputer()],
        )
        results = run_grid("adult", grid, dataset_size=1500)
        assert results[0].sizes["train"] == 1050


class TestStandardExperiments:
    def test_german_credit_experiment(self):
        result = GermanCreditExperiment(
            random_seed=0, learner=LogisticRegression(tuned=False)
        ).run()
        assert result.dataset == "germancredit"

    def test_ricci_experiment(self):
        result = RicciExperiment(
            random_seed=0, learner=LogisticRegression(tuned=False)
        ).run()
        assert result.dataset == "ricci"

    def test_payment_experiment_with_imputer(self):
        result = PaymentOptionGenderExperiment(
            random_seed=0,
            dataset_size=1200,
            learner=LogisticRegression(tuned=False),
            missing_value_handler=DatawigImputer(target_columns=["age"]),
        ).run()
        assert result.dataset == "payment"
        assert result.sizes["test_incomplete"] > 0
