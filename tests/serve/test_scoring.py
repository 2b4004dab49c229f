"""Scoring engine: batch replay identity, fast path, edge cases."""

import numpy as np
import pytest

from repro.core import (
    CompleteCaseAnalysis,
    DatawigImputer,
    DecisionTree,
    Experiment,
    ModeImputer,
    NaiveBayes,
    RejectOptionPostProcessor,
)
from repro.datasets import load_dataset
from repro.frame import DataFrame, train_validation_test_masks
from repro.serve import (
    FairnessMonitor,
    ModelRegistry,
    ScoringEngine,
    records_to_frame,
)


def _exported_engine(tmp_path, experiment, monitor=None):
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    registry = ModelRegistry(str(tmp_path / "registry"))
    experiment.export_pipeline(prepared, trained, result, registry=registry)
    model_id = registry.list_models()[0]["model_id"]
    pipeline = ModelRegistry(registry.root).load_pipeline(model_id)
    engine = ScoringEngine(pipeline, monitor=monitor)
    return engine, prepared, trained, result


def _raw_test(frame, seed):
    _, _, test_mask = train_validation_test_masks(frame.num_rows, 0.7, 0.1, seed)
    return frame.mask(test_mask)


@pytest.fixture(scope="module")
def germancredit():
    return load_dataset("germancredit")


class TestBatchIdentity:
    def test_reloaded_engine_matches_in_process(self, tmp_path, germancredit):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=7,
            learner=DecisionTree(tuned=False),
            post_processor=RejectOptionPostProcessor(
                num_class_thresh=10, num_ROC_margin=5
            ),
        )
        engine, prepared, trained, result = _exported_engine(tmp_path, experiment)
        batch = engine.score_frame(_raw_test(frame, 7))
        model, post = trained.models[result.best_index]
        expected = post.apply(
            experiment._predict(model, prepared.test_data_eval, prepared.test_data)
        )
        assert np.array_equal(batch.labels, expected.labels)
        assert np.array_equal(batch.scores, expected.scores)

    def test_evaluate_frame_reproduces_test_metrics(self, tmp_path, germancredit):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=3, learner=NaiveBayes()
        )
        engine, _, _, result = _exported_engine(tmp_path, experiment)
        metrics = engine.evaluate_frame(_raw_test(frame, 3))
        for key, value in result.test_metrics.items():
            got = metrics[key]
            assert got == value or (got != got and value != value), key

    def test_unlabeled_frame_scores_but_does_not_evaluate(
        self, tmp_path, germancredit
    ):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=3, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        raw_test = _raw_test(frame, 3)
        unlabeled = raw_test.drop([spec.label_column])
        batch = engine.score_frame(unlabeled)
        labeled = engine.score_frame(raw_test)
        assert np.array_equal(batch.labels, labeled.labels)
        assert batch.truth is None
        with pytest.raises(ValueError, match="label column"):
            engine.evaluate_frame(unlabeled)

    def test_missing_required_column_raises(self, tmp_path, germancredit):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=3, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        broken = frame.drop([spec.feature_columns[0]])
        with pytest.raises(KeyError, match=spec.feature_columns[0]):
            engine.score_frame(broken)


class TestRowDroppingHandlers:
    def test_complete_case_row_mask(self, tmp_path):
        frame, spec = load_dataset("adult", n=1500)
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=2,
            learner=DecisionTree(tuned=False),
            missing_value_handler=CompleteCaseAnalysis(),
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        raw_test = _raw_test(frame, 2)
        batch = engine.score_frame(raw_test)
        expected_mask = ~raw_test.missing_mask(spec.feature_columns)
        assert np.array_equal(batch.row_mask, expected_mask)
        assert batch.num_scored == int(expected_mask.sum())

    def test_incomplete_single_record_rejected(self, tmp_path):
        frame, spec = load_dataset("adult", n=1500)
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=2,
            learner=DecisionTree(tuned=False),
            missing_value_handler=CompleteCaseAnalysis(),
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        record = {c: frame.col(c).values[0] for c in frame.columns}
        record[spec.categorical_features[0]] = None
        with pytest.raises(ValueError, match="drops incomplete"):
            engine.score_record(record)

    def test_score_records_answers_each_record_in_order(self, tmp_path):
        frame, spec = load_dataset("adult", n=1500)
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=2,
            learner=DecisionTree(tuned=False),
            missing_value_handler=CompleteCaseAnalysis(),
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        raw_test = _raw_test(frame, 2)
        rows = np.flatnonzero(~raw_test.missing_mask(spec.feature_columns))[:2]
        complete = [
            {c: raw_test.col(c).values[i] for c in raw_test.columns} for i in rows
        ]
        incomplete = dict(complete[0], **{spec.categorical_features[0]: None})
        results = engine.score_records([complete[0], incomplete, complete[1]])
        assert isinstance(results[1], ValueError)
        assert "drops incomplete" in str(results[1])
        batch = engine.score_frame(records_to_frame(spec, complete))
        expected = [
            engine.record_result(float(label), float(score))
            for label, score in zip(batch.labels, batch.scores)
        ]
        assert [results[0], results[2]] == expected


class TestSingleRecordFastPath:
    def test_fast_path_matches_batch_exactly_for_trees(self, tmp_path, germancredit):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=11, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        raw_test = _raw_test(frame, 11)
        batch = engine.score_frame(raw_test)
        for i in range(25):
            record = {c: raw_test.col(c).values[i] for c in raw_test.columns}
            out = engine.score_record(record)
            assert out["label"] == batch.labels[i]
            assert out["score"] == batch.scores[i]

    def test_fast_path_imputes_missing_values_like_mode_imputer(self, tmp_path):
        frame, spec = load_dataset("adult", n=1500)
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=4,
            learner=DecisionTree(tuned=False),
            missing_value_handler=ModeImputer(),
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        raw_test = _raw_test(frame, 4)
        incomplete = raw_test.missing_mask(spec.feature_columns).nonzero()[0]
        assert incomplete.size, "adult test split should contain incomplete rows"
        batch = engine.score_frame(raw_test)
        for i in incomplete[:10]:
            record = {c: raw_test.col(c).values[i] for c in raw_test.columns}
            out = engine.score_record(record)
            assert out["label"] == batch.labels[i]

    def test_unseen_category_routed_to_reserved_dimension(
        self, tmp_path, germancredit
    ):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=11, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        record = {c: frame.col(c).values[0] for c in frame.columns}
        record[spec.categorical_features[0]] = "never-seen-category"
        out = engine.score_record(record)
        # the frame path agrees: unseen values land in the reserved slot
        one_row = DataFrame.from_dict(
            {name: [record.get(name)] for name in frame.columns},
            kinds=frame.kinds(),
        )
        batch = engine.score_frame(one_row)
        assert out["label"] == batch.labels[0]
        assert out["score"] == batch.scores[0]

    def test_record_result_shape(self, tmp_path, germancredit):
        frame, spec = germancredit
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=11, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        record = {c: frame.col(c).values[0] for c in frame.columns}
        out = engine.score_record(record)
        assert set(out) == {"label", "score", "favorable", "decision"}
        assert out["favorable"] == (out["label"] == 1.0)

    @pytest.mark.parametrize("handler", [ModeImputer, DatawigImputer])
    def test_batch_of_one_matches_record_missing_a_feature_key(
        self, tmp_path, handler
    ):
        """A record without a feature key scores the same alone and as a
        one-record batch: both build their frame from every spec column."""
        frame, spec = load_dataset("adult", n=1500)
        experiment = Experiment(
            frame=frame,
            spec=spec,
            random_seed=4,
            learner=DecisionTree(tuned=False),
            missing_value_handler=handler(),
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment)
        raw_test = _raw_test(frame, 4)
        record = {c: raw_test.col(c).values[0] for c in raw_test.columns}
        del record["workclass"]
        out = engine.score_record(record)
        batch = engine.score_frame(records_to_frame(spec, [record]))
        assert batch.num_scored == 1
        assert out["label"] == batch.labels[0]
        assert out["score"] == batch.scores[0]


class TestMonitorFeed:
    def test_partially_labeled_batch_not_treated_as_truth(
        self, tmp_path, germancredit
    ):
        frame, spec = germancredit
        monitor = FairnessMonitor(spec.default_protected, window_size=500)
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=7, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment, monitor=monitor)
        raw_test = _raw_test(frame, 7)
        labels = list(raw_test.col(spec.label_column).values)
        for i in range(0, len(labels), 2):
            labels[i] = None  # half the batch arrives unlabeled
        partial = raw_test.with_values(spec.label_column, labels, kind="categorical")
        batch = engine.score_frame(partial)
        # a missing label must not be read as ground-truth unfavorable
        assert batch.truth is None
        with pytest.raises(ValueError, match="label column"):
            engine.evaluate_batch(batch)
        snap = monitor.snapshot()
        assert snap["labeled_fraction"] == pytest.approx(
            (len(labels) - (len(labels) + 1) // 2) / len(labels)
        )

    def test_batch_scoring_feeds_monitor(self, tmp_path, germancredit):
        frame, spec = germancredit
        monitor = FairnessMonitor(spec.default_protected, window_size=500)
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=7, learner=DecisionTree(tuned=False)
        )
        engine, _, _, _ = _exported_engine(tmp_path, experiment, monitor=monitor)
        raw_test = _raw_test(frame, 7)
        engine.score_frame(raw_test)
        snap = monitor.snapshot()
        assert snap["window"] == raw_test.num_rows
        assert snap["labeled_fraction"] == 1.0
        assert "disparate_impact" in snap
        assert "accuracy" in snap
