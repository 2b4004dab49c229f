"""Unit tests for the featurizer, learners and intervention adapters."""

import numpy as np
import pytest

from repro.core import (
    AdversarialDebiasingLearner,
    CalibratedEqOddsPostProcessor,
    DIRemover,
    DecisionTree,
    Featurizer,
    LogisticRegression,
    NaiveBayes,
    NoIntervention,
    PrejudiceRemoverLearner,
    RejectOptionPostProcessor,
    ReweighingPreProcessor,
)
from repro.core.featurization import ColumnEncoder
from repro.datasets import RICCI_SPEC, generate_germancredit, generate_ricci, GERMANCREDIT_SPEC
from repro.fairness import BinaryLabelDatasetMetric
from repro.learn import MinMaxScaler, NoOpScaler, OneHotEncoder, StandardScaler


@pytest.fixture(scope="module")
def ricci():
    return generate_ricci(seed=0)


@pytest.fixture(scope="module")
def german():
    return generate_germancredit(seed=0)


class TestFeaturizer:
    def test_output_shape_and_names(self, ricci):
        featurizer = Featurizer(RICCI_SPEC, StandardScaler()).fit(ricci)
        data = featurizer.transform(ricci)
        assert data.features.shape[0] == 118
        assert data.features.shape[1] == len(featurizer.feature_names_)
        # 3 numeric + (2 position categories + unseen)
        assert data.features.shape[1] == 3 + 3

    def test_scaler_statistics_from_fit_frame_only(self, ricci):
        train = ricci.take(np.arange(60))
        rest = ricci.take(np.arange(60, 118))
        featurizer = Featurizer(RICCI_SPEC, StandardScaler()).fit(train)
        transformed_train = featurizer.transform(train)
        # training numerics standardized exactly; other split is not
        assert abs(transformed_train.features[:, 0].mean()) < 1e-9
        transformed_rest = featurizer.transform(rest)
        assert abs(transformed_rest.features[:, 0].mean()) > 1e-6

    def test_noop_scaler_keeps_raw_scale(self, ricci):
        featurizer = Featurizer(RICCI_SPEC, NoOpScaler()).fit(ricci)
        data = featurizer.transform(ricci)
        assert data.features[:, 0].max() > 60.0

    def test_labels_and_protected(self, ricci):
        featurizer = Featurizer(RICCI_SPEC, StandardScaler()).fit(ricci)
        data = featurizer.transform(ricci)
        assert set(np.unique(data.labels)) == {0.0, 1.0}
        assert data.protected_attribute_names == ["race"]
        assert data.labels.sum() == (ricci["promoted"] == "yes").sum()

    def test_group_dicts(self, ricci):
        featurizer = Featurizer(RICCI_SPEC).fit(ricci)
        assert featurizer.privileged_groups == [{"race": 1.0}]
        assert featurizer.unprivileged_groups == [{"race": 0.0}]

    def test_nan_rejected_with_clear_message(self, ricci):
        broken = ricci.with_values(
            "written", [None] + list(ricci["written"][1:]), kind="numeric"
        )
        featurizer = Featurizer(RICCI_SPEC)
        with pytest.raises(ValueError, match="missing-value handler"):
            featurizer.fit(broken)

    def test_transform_before_fit(self, ricci):
        with pytest.raises(RuntimeError):
            Featurizer(RICCI_SPEC).transform(ricci)

    def test_unseen_category_handled(self, ricci):
        featurizer = Featurizer(RICCI_SPEC).fit(ricci)
        modified = ricci.with_values("position", ["Chief"] * 118)
        data = featurizer.transform(modified)
        assert data.features.shape[1] == len(featurizer.feature_names_)

    def test_minmax_scaler_supported(self, ricci):
        featurizer = Featurizer(RICCI_SPEC, MinMaxScaler()).fit(ricci)
        data = featurizer.transform(ricci)
        numeric = data.features[:, :3]
        assert numeric.min() >= -1e-9 and numeric.max() <= 1.0 + 1e-9


def _annotated(german):
    featurizer = Featurizer(GERMANCREDIT_SPEC, StandardScaler()).fit(german)
    return featurizer.transform(german), featurizer


class TestColumnEncoder:
    def test_state_roundtrip_replays_the_matrix(self, german):
        featurizer = Featurizer(GERMANCREDIT_SPEC, StandardScaler()).fit(german)
        restored = ColumnEncoder.from_state(featurizer.columns_.to_state())
        np.testing.assert_array_equal(
            restored.transform(german), featurizer.columns_.transform(german)
        )

    def test_fits_clones_and_lays_numerics_first(self, ricci):
        scaler, encoder = StandardScaler(), OneHotEncoder()
        columns = ColumnEncoder(
            RICCI_SPEC.numeric_features, RICCI_SPEC.categorical_features,
            scaler, encoder,
        ).fit(ricci)
        assert columns.scaler_ is not scaler and columns.encoder_ is not encoder
        matrix = columns.transform(ricci)
        numeric = len(RICCI_SPEC.numeric_features)
        np.testing.assert_allclose(matrix[:, :numeric].mean(axis=0), 0.0, atol=1e-9)
        assert matrix.shape[1] > numeric


class TestLearners:
    def test_untuned_lr_predicts_binary_labels(self, german):
        data, _ = _annotated(german)
        model = LogisticRegression(tuned=False).fit_model(data, seed=0)
        predictions = model.predict(data.features)
        assert set(np.unique(predictions)) <= {0.0, 1.0}

    def test_tuned_lr_records_best_params(self, german):
        data, _ = _annotated(german)
        learner = LogisticRegression(
            tuned=True, param_grid={"penalty": ["l2"], "alpha": [0.001, 0.01]}, cv=3
        )
        learner.fit_model(data, seed=0)
        assert learner.last_search_.best_params_["penalty"] == "l2"

    def test_lr_scores_are_probabilities(self, german):
        data, _ = _annotated(german)
        model = LogisticRegression(tuned=False).fit_model(data, seed=0)
        scores = model.predict_scores(data.features)
        assert scores is not None
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_dt_learner(self, german):
        data, _ = _annotated(german)
        learner = DecisionTree(
            tuned=True, param_grid={"max_depth": [2, 4]}, cv=3
        )
        model = learner.fit_model(data, seed=0)
        accuracy = (model.predict(data.features) == data.labels).mean()
        assert accuracy > 0.68

    def test_learner_names(self):
        assert LogisticRegression(tuned=True).name() == "LogisticRegression(tuned)"
        assert DecisionTree(tuned=False).name() == "DecisionTree(default)"

    def test_naive_bayes_learner(self, german):
        data, _ = _annotated(german)
        model = NaiveBayes().fit_model(data, seed=0)
        assert model.predict(data.features).shape == data.labels.shape

    def test_inprocessing_learners(self, german):
        data, _ = _annotated(german)
        for learner in (
            AdversarialDebiasingLearner(num_epochs=5),
            PrejudiceRemoverLearner(eta=1.0, max_iter=50),
        ):
            assert learner.needs_annotated_data
            model = learner.fit_model(data, seed=0)
            scores = model.predict_scores(data.features)
            assert ((scores >= 0) & (scores <= 1)).all()

    def test_seed_reproducibility(self, german):
        data, _ = _annotated(german)
        a = LogisticRegression(tuned=False).fit_model(data, seed=9)
        b = LogisticRegression(tuned=False).fit_model(data, seed=9)
        assert np.array_equal(a.predict(data.features), b.predict(data.features))


class TestInterventionAdapters:
    def test_no_intervention_identity(self, german):
        data, _ = _annotated(german)
        ni = NoIntervention().fit()
        assert ni.transform_train(data) is data
        assert ni.transform_eval(data) is data
        assert ni.apply(data) is data

    def test_reweighing_changes_train_weights_only(self, german):
        data, featurizer = _annotated(german)
        pre = ReweighingPreProcessor().fit(
            data, featurizer.privileged_groups, featurizer.unprivileged_groups, seed=0
        )
        train_out = pre.transform_train(data)
        assert not np.allclose(train_out.instance_weights, data.instance_weights)
        metric = BinaryLabelDatasetMetric(
            train_out, featurizer.unprivileged_groups, featurizer.privileged_groups
        )
        assert metric.statistical_parity_difference() == pytest.approx(0.0, abs=1e-12)
        eval_out = pre.transform_eval(data)
        assert np.allclose(eval_out.instance_weights, data.instance_weights)

    def test_diremover_repairs_eval_features_too(self, german):
        data, featurizer = _annotated(german)
        pre = DIRemover(repair_level=1.0).fit(
            data, featurizer.privileged_groups, featurizer.unprivileged_groups, seed=0
        )
        train_out = pre.transform_train(data)
        eval_out = pre.transform_eval(data)
        assert not np.allclose(train_out.features, data.features)
        assert np.allclose(train_out.features, eval_out.features)

    def test_diremover_name_carries_level(self):
        assert DIRemover(0.5).name() == "DIRemover(0.5)"

    def test_postprocessor_adapters_fit_and_apply(self, german):
        data, featurizer = _annotated(german)
        model = LogisticRegression(tuned=False).fit_model(data, seed=0)
        pred = data.with_predictions(
            labels=model.predict(data.features),
            scores=model.predict_scores(data.features),
        )
        for post in (
            RejectOptionPostProcessor(num_class_thresh=8, num_ROC_margin=8),
            CalibratedEqOddsPostProcessor(),
        ):
            post.fit(
                data, pred, featurizer.privileged_groups,
                featurizer.unprivileged_groups, seed=0,
            )
            adjusted = post.apply(pred)
            assert adjusted.num_instances == data.num_instances
