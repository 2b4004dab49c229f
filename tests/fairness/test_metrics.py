"""Unit tests for fairness metrics."""

import numpy as np
import pytest

from repro.fairness import (
    BinaryLabelDataset,
    BinaryLabelDatasetMetric,
    ClassificationMetric,
    RejectOptionClassification,
    generalized_entropy_index_from_benefits,
)
from repro.fairness.metrics import dataset_metric

from .conftest import PRIV, UNPRIV, make_biased_dataset


def _handmade():
    """Small dataset with exactly known confusion matrices per group.

    privileged (sex=1):  true = [1, 1, 0, 0], pred = [1, 0, 1, 0]
    unprivileged (sex=0): true = [1, 0, 0, 0], pred = [0, 0, 0, 1]
    """
    labels = np.array([1, 1, 0, 0, 1, 0, 0, 0], dtype=np.float64)
    preds = np.array([1, 0, 1, 0, 0, 0, 0, 1], dtype=np.float64)
    sex = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.float64)
    ds_true = BinaryLabelDataset(
        features=np.zeros((8, 1)),
        labels=labels,
        protected_attributes=sex,
        protected_attribute_names=["sex"],
    )
    ds_pred = ds_true.with_predictions(labels=preds)
    return ds_true, ds_pred


class TestDatasetMetric:
    def test_base_rates(self):
        ds = make_biased_dataset(n=4000, priv_base_rate=0.6, unpriv_base_rate=0.3)
        metric = BinaryLabelDatasetMetric(ds, UNPRIV, PRIV)
        assert metric.base_rate(privileged=True) == pytest.approx(0.6, abs=0.05)
        assert metric.base_rate(privileged=False) == pytest.approx(0.3, abs=0.05)

    def test_disparate_impact_matches_ratio(self):
        ds = make_biased_dataset(n=4000)
        metric = BinaryLabelDatasetMetric(ds, UNPRIV, PRIV)
        expected = metric.base_rate(False) / metric.base_rate(True)
        assert metric.disparate_impact() == pytest.approx(expected)

    def test_statistical_parity_sign(self):
        ds = make_biased_dataset(n=2000)
        metric = BinaryLabelDatasetMetric(ds, UNPRIV, PRIV)
        assert metric.statistical_parity_difference() < 0

    def test_num_positives_weighted(self):
        ds = make_biased_dataset(n=200)
        ds.instance_weights[:] = 2.0
        metric = BinaryLabelDatasetMetric(ds, UNPRIV, PRIV)
        assert metric.num_positives() == pytest.approx(2.0 * ds.favorable_mask().sum())

    def test_overlapping_groups_rejected(self):
        ds = make_biased_dataset(n=50)
        with pytest.raises(ValueError, match="overlap"):
            BinaryLabelDatasetMetric(ds, [{"sex": 1.0}], [{"sex": 1.0}])

    def test_group_access_without_spec_raises(self):
        ds = make_biased_dataset(n=50)
        metric = BinaryLabelDatasetMetric(ds)
        with pytest.raises(ValueError, match="not provided"):
            metric.base_rate(privileged=True)

    def test_consistency_of_constant_labels_is_one(self):
        ds = make_biased_dataset(n=100)
        ds.labels[:] = 1.0
        metric = BinaryLabelDatasetMetric(ds, UNPRIV, PRIV)
        assert metric.consistency() == pytest.approx(1.0)

    def test_consistency_penalizes_label_noise(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        clean = BinaryLabelDataset(
            features=X,
            labels=(X[:, 0] > 0).astype(float),
            protected_attributes=np.zeros(200),
            protected_attribute_names=["sex"],
        )
        noisy = BinaryLabelDataset(
            features=X,
            labels=rng.integers(0, 2, 200).astype(float),
            protected_attributes=np.zeros(200),
            protected_attribute_names=["sex"],
        )
        c_clean = BinaryLabelDatasetMetric(clean).consistency()
        c_noisy = BinaryLabelDatasetMetric(noisy).consistency()
        assert c_clean > c_noisy

    def test_differential_fairness_zero_for_identical_rates(self):
        ds = make_biased_dataset(
            n=4000, priv_base_rate=0.5, unpriv_base_rate=0.5, seed=3
        )
        metric = BinaryLabelDatasetMetric(ds, UNPRIV, PRIV)
        assert metric.smoothed_empirical_differential_fairness() < 0.15


class TestClassificationMetricPerGroup:
    def test_privileged_confusion_matrix(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        c = metric.binary_confusion_matrix(privileged=True)
        assert c == {"TP": 1.0, "FN": 1.0, "FP": 1.0, "TN": 1.0}

    def test_unprivileged_confusion_matrix(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        c = metric.binary_confusion_matrix(privileged=False)
        assert c == {"TP": 0.0, "FN": 1.0, "FP": 1.0, "TN": 2.0}

    def test_rates(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.true_positive_rate(privileged=True) == 0.5
        assert metric.false_positive_rate(privileged=True) == 0.5
        assert metric.true_positive_rate(privileged=False) == 0.0
        assert metric.false_positive_rate(privileged=False) == pytest.approx(1 / 3)

    def test_rate_identities(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        for privileged in (None, True, False):
            m = metric.performance_measures(privileged)
            assert m["true_positive_rate"] + m["false_negative_rate"] == pytest.approx(1.0)
            assert m["true_negative_rate"] + m["false_positive_rate"] == pytest.approx(1.0)
            assert m["accuracy"] + m["error_rate"] == pytest.approx(1.0)

    def test_performance_measures_has_25_entries(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert len(metric.performance_measures()) == 25

    def test_group_metrics_has_22_entries(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert len(metric.group_metrics()) == 22

    def test_all_metrics_bundle_size(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert len(metric.all_metrics()) == 25 * 3 + 22

    def test_selection_rate(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.selection_rate(privileged=True) == 0.5
        assert metric.selection_rate(privileged=False) == 0.25


class TestClassificationMetricGroupContrasts:
    def test_statistical_parity_difference(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.statistical_parity_difference() == pytest.approx(0.25 - 0.5)

    def test_disparate_impact(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.disparate_impact() == pytest.approx(0.5)

    def test_equal_opportunity_difference(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.equal_opportunity_difference() == pytest.approx(0.0 - 0.5)

    def test_average_odds_difference(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        expected = 0.5 * ((1 / 3 - 0.5) + (0.0 - 0.5))
        assert metric.average_odds_difference() == pytest.approx(expected)

    def test_abs_odds_at_least_signed_odds(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.average_abs_odds_difference() >= abs(
            metric.average_odds_difference()
        )

    def test_perfect_predictions_zero_differences(self):
        ds = make_biased_dataset(n=500)
        pred = ds.with_predictions(labels=ds.labels)
        metric = ClassificationMetric(ds, pred, UNPRIV, PRIV)
        assert metric.equal_opportunity_difference() == pytest.approx(0.0)
        assert metric.error_rate_difference() == pytest.approx(0.0)
        assert metric.theil_index() == pytest.approx(0.0)

    def test_incompatible_datasets_rejected(self):
        a = make_biased_dataset(seed=1)
        b = make_biased_dataset(seed=2)
        with pytest.raises(ValueError):
            ClassificationMetric(a, b.with_predictions(labels=b.labels), UNPRIV, PRIV)


class TestEntropyMetrics:
    def test_equal_benefits_zero_index(self):
        assert generalized_entropy_index_from_benefits(np.ones(10)) == 0.0

    def test_theil_nonnegative(self):
        rng = np.random.default_rng(0)
        benefits = rng.uniform(0.1, 2.0, 100)
        assert generalized_entropy_index_from_benefits(benefits, alpha=1.0) >= 0.0

    def test_more_unequal_is_larger(self):
        even = np.array([1.0, 1.0, 1.0, 1.0])
        uneven = np.array([0.1, 0.1, 0.1, 3.7])
        assert generalized_entropy_index_from_benefits(
            uneven
        ) > generalized_entropy_index_from_benefits(even)

    def test_negative_benefits_rejected(self):
        with pytest.raises(ValueError):
            generalized_entropy_index_from_benefits(np.array([-1.0, 1.0]))

    def test_coefficient_of_variation_relation(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        cov = metric.coefficient_of_variation()
        gei = metric.generalized_entropy_index(alpha=2.0)
        assert cov == pytest.approx(2.0 * np.sqrt(gei))

    def test_between_group_le_total(self):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert metric.between_group_theil_index() <= metric.theil_index() + 1e-12


class TestOneConfusionTable:
    """Every metric is read from one weighted TP/FP/TN/FN table per
    stratum, built by ``binary_counts`` at most once per metric instance."""

    @pytest.fixture
    def tables(self, monkeypatch):
        calls = []
        kernel = dataset_metric.binary_counts

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dataset_metric, "binary_counts", counting)
        return calls

    def test_all_metrics_builds_three_tables(self, tables):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred, UNPRIV, PRIV)
        assert tables == []  # lazy: construction builds none
        metric.all_metrics()
        assert len(tables) == 3
        metric.all_metrics()
        metric.group_metrics()
        metric.binary_confusion_matrix(privileged=False)
        metric.average_odds_difference()
        assert len(tables) == 3

    def test_without_groups_only_the_overall_table_exists(self, tables):
        ds_true, ds_pred = _handmade()
        metric = ClassificationMetric(ds_true, ds_pred)
        assert set(metric.all_metrics()) == {
            f"overall__{name}" for name in metric.performance_measures()
        }
        assert len(tables) == 1
        with pytest.raises(ValueError, match="not provided"):
            metric.statistical_parity_difference()

    def test_reject_option_fit_builds_three_tables_per_candidate(
        self, tables, monkeypatch
    ):
        ds = make_biased_dataset(seed=4, n=300)
        scores = np.clip(0.6 * ds.labels + 0.2 * ds.protected_column("sex"), 0, 1)
        ds_pred = ds.with_predictions(scores=scores)
        constructed = []
        init = ClassificationMetric.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClassificationMetric, "__init__", counting_init)
        roc = RejectOptionClassification(
            UNPRIV, PRIV, num_class_thresh=20, num_ROC_margin=15
        )
        roc.fit(ds, ds_pred)
        assert len(tables) == 3 * 20 * 15
        assert constructed == []
