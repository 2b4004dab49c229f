"""Goldens: the fairness metrics, the reject-option search and the
threshold sweep reproduce the frozen per-accessor implementations in
``reference_impl`` bit for bit (NaN matching NaN), on unit, Reweighing
and zero-weight rows, with empty, all-positive and single-group strata,
and with no group spec at all.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.thresholds import threshold_sweep
from repro.fairness import (
    BinaryLabelDataset,
    ClassificationMetric,
    RejectOptionClassification,
    Reweighing,
)

from .conftest import PRIV, UNPRIV
from .reference_impl import (
    ReferenceClassificationMetric,
    _reject_option_apply,
    reference_reject_option_fit,
    reference_threshold_sweep,
)

METRIC_NAMES = (
    "Statistical parity difference",
    "Average odds difference",
    "Equal opportunity difference",
)
STRATUM_ACCESSORS = (
    "accuracy",
    "error_rate",
    "selection_rate",
    "true_positive_rate",
    "false_positive_rate",
    "false_negative_rate",
    "true_negative_rate",
    "positive_predictive_value",
)
GROUP_ACCESSORS = (
    "statistical_parity_difference",
    "disparate_impact",
    "equal_opportunity_difference",
    "average_odds_difference",
    "average_abs_odds_difference",
    "true_positive_rate_difference",
    "false_positive_rate_difference",
    "false_negative_rate_difference",
    "false_positive_rate_ratio",
    "false_negative_rate_ratio",
    "false_discovery_rate_difference",
    "false_omission_rate_difference",
    "false_discovery_rate_ratio",
    "false_omission_rate_ratio",
    "positive_predictive_value_difference",
    "error_rate_difference",
    "error_rate_ratio",
    "accuracy_difference",
    "group_metrics",
)
GROUP_SPECS = {
    "both": (UNPRIV, PRIV),
    "none": (None, None),
    "privileged-only": (None, PRIV),
}


def same(a, b) -> bool:
    """Bitwise equality of two results; any NaN matches any NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        if np.isnan(a) or np.isnan(b):
            return bool(np.isnan(a) and np.isnan(b))
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def outcome(call):
    """The call's result, or its exception's type and message."""
    try:
        return ("ok", call())
    except (ValueError, KeyError, RuntimeError) as error:
        return ("raised", type(error).__name__, str(error))


def make_case(labels, preds, scores, sex, weighting, zeroed):
    """(truth, predictions) datasets; ``sex`` 2.0 rows are in neither group."""
    n = len(labels)
    truth = BinaryLabelDataset(
        features=np.arange(n, dtype=np.float64).reshape(n, 1),
        labels=np.asarray(labels, dtype=np.float64),
        protected_attributes=np.asarray(sex, dtype=np.float64),
        protected_attribute_names=["sex"],
    )
    if weighting == "reweighing":
        truth = Reweighing(UNPRIV, PRIV).fit_transform(truth)
    truth.instance_weights[np.asarray(zeroed, dtype=bool)] = 0.0
    pred = truth.with_predictions(
        labels=np.asarray(preds, dtype=np.float64),
        scores=np.asarray(scores, dtype=np.float64) / 20.0,
    )
    return truth, pred


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    rows = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    labels = draw(rows(st.sampled_from([0, 1])))
    preds = draw(rows(st.sampled_from([0, 1])))
    # a coarse score grid puts scores on the thresholds and margin edges
    scores = draw(rows(st.integers(0, 20)))
    sex = draw(
        st.one_of(
            rows(st.sampled_from([0.0, 1.0, 2.0])),
            rows(st.sampled_from([1.0, 2.0])),  # empty unprivileged stratum
            rows(st.just(1.0)),  # single-group dataset
        )
    )
    if draw(st.booleans()):  # an all-positive privileged stratum
        labels = [1 if s == 1.0 else y for s, y in zip(sex, labels)]
    weighting = draw(st.sampled_from(["unit", "reweighing"]))
    zeroed = draw(
        st.one_of(st.just([False] * n), rows(st.booleans()))  # zero-weight rows
    )
    return make_case(labels, preds, scores, sex, weighting, zeroed)


# named cases, so each input class named in the module docstring always runs
NAMED_CASES = {
    "unit-weights": ([1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1]),
    "reweighing": ([1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1]),
    "zero-weight-rows": ([1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1]),
    "empty-stratum": ([1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1], [2, 1, 1, 2, 2, 1]),
    "all-positive-stratum": ([1, 1, 1, 1, 0, 0], [1, 0, 0, 1, 0, 1], [1, 1, 1, 0, 0, 0]),
    "single-group": ([1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1]),
}


def named_case(name):
    labels, preds, sex = NAMED_CASES[name]
    scores = [3, 11, 10, 18, 7, 12]
    weighting = "reweighing" if name == "reweighing" else "unit"
    zeroed = [name == "zero-weight-rows" and i % 3 == 0 for i in range(6)]
    return make_case(labels, preds, scores, sex, weighting, zeroed)


def metric_record(metric_cls, truth, pred, unprivileged, privileged):
    """Every ClassificationMetric answer; each returned dict is then
    scribbled on, so a later answer read from a shared table would show it."""
    metric = metric_cls(truth, pred, unprivileged, privileged)
    record = []
    for privileged_stratum in (False, None, True):
        for name in ("binary_confusion_matrix", "performance_measures"):
            result = outcome(lambda: getattr(metric, name)(privileged_stratum))
            record.append(
                (result[0], dict(result[1])) if result[0] == "ok" else result
            )
            if result[0] == "ok":
                result[1].update(dict.fromkeys(result[1], -1.0))
        for name in STRATUM_ACCESSORS:
            record.append(outcome(lambda: getattr(metric, name)(privileged_stratum)))
    for name in GROUP_ACCESSORS:
        record.append(outcome(getattr(metric, name)))
    record.append(outcome(metric.all_metrics))
    fresh = metric_cls(truth, pred, unprivileged, privileged)
    record.append(outcome(fresh.all_metrics))
    return record


def check_metrics(truth, pred):
    for unprivileged, privileged in GROUP_SPECS.values():
        expected = metric_record(
            ReferenceClassificationMetric, truth, pred, unprivileged, privileged
        )
        actual = metric_record(ClassificationMetric, truth, pred, unprivileged, privileged)
        assert same(actual, expected)


def check_reject_option(truth, pred, num_class_thresh, num_margin, bounds):
    lb, ub = bounds
    for unprivileged, privileged in GROUP_SPECS.values():
        for metric_name in METRIC_NAMES:
            params = dict(
                num_class_thresh=num_class_thresh,
                num_ROC_margin=num_margin,
                metric_name=metric_name,
                metric_ub=ub,
                metric_lb=lb,
            )
            expected = outcome(
                lambda: reference_reject_option_fit(
                    truth, pred, unprivileged, privileged, **params
                )
            )

            def fit():
                roc = RejectOptionClassification(unprivileged, privileged, **params)
                roc.fit(truth, pred)
                return roc.classification_threshold_, roc.ROC_margin_

            assert same(outcome(fit), expected), metric_name


def check_label_rule(pred, num_class_thresh, num_margin):
    """``predict`` at every candidate the search scores labels each row as
    the reference rule does."""
    for unprivileged, privileged in GROUP_SPECS.values():
        roc = RejectOptionClassification(unprivileged, privileged)
        for threshold in np.linspace(0.01, 0.99, num_class_thresh):
            cap = min(threshold, 1.0 - threshold)
            for margin in np.linspace(0.0, cap, num_margin):
                roc.classification_threshold_, roc.ROC_margin_ = threshold, margin
                expected = _reject_option_apply(
                    pred, unprivileged, privileged, threshold, margin
                )
                assert np.array_equal(roc.predict(pred).labels, expected.labels)


def check_sweep(truth, pred, num_thresholds):
    for unprivileged, privileged in GROUP_SPECS.values():
        expected = outcome(
            lambda: reference_threshold_sweep(
                truth, pred.scores, unprivileged, privileged, num_thresholds
            )
        )
        actual = outcome(
            lambda: threshold_sweep(
                truth, pred.scores, unprivileged, privileged, num_thresholds
            )
        )
        assert same(actual, expected)


BOUNDS = st.sampled_from([(-0.05, 0.05), (0.0, 0.0), (-1.0, 1.0)])


class TestClassificationMetricGolden:
    @given(case=cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, case):
        check_metrics(*case)

    @pytest.mark.parametrize("name", sorted(NAMED_CASES))
    def test_named_case_matches_reference(self, name):
        check_metrics(*named_case(name))


class TestRejectOptionGolden:
    @given(
        case=cases(),
        num_class_thresh=st.integers(1, 8),
        num_margin=st.integers(1, 6),
        bounds=BOUNDS,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_chosen_operating_point_matches_reference(
        self, case, num_class_thresh, num_margin, bounds, data
    ):
        truth, pred = case
        if data.draw(st.booleans()):
            # scores exactly on the candidate thresholds: the label rule's
            # strict (score > threshold) and inclusive (|score - threshold|
            # <= margin) comparisons decide these rows
            thresholds = np.linspace(0.01, 0.99, num_class_thresh)
            picks = data.draw(
                st.lists(
                    st.integers(0, num_class_thresh - 1),
                    min_size=truth.num_instances,
                    max_size=truth.num_instances,
                )
            )
            pred = pred.with_predictions(scores=thresholds[picks])
        check_reject_option(truth, pred, num_class_thresh, num_margin, bounds)
        check_label_rule(pred, num_class_thresh, num_margin)

    @pytest.mark.parametrize("name", sorted(NAMED_CASES))
    def test_named_case_matches_reference(self, name):
        check_reject_option(*named_case(name), 20, 15, (-0.05, 0.05))


class TestThresholdSweepGolden:
    @given(case=cases(), num_thresholds=st.integers(2, 25))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_reference(self, case, num_thresholds):
        check_sweep(*case, num_thresholds)

    @pytest.mark.parametrize("name", sorted(NAMED_CASES))
    def test_named_case_matches_reference(self, name):
        check_sweep(*named_case(name), 21)
