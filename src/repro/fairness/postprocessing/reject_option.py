"""Reject option classification (Kamiran, Karim & Zhang, ICDM 2012).

Within a *critical region* around the decision boundary — where the
classifier is least confident — predictions are overridden in favour of the
unprivileged group. The class threshold and the width of the critical
region are selected on a labeled (validation) dataset by maximizing
balanced accuracy subject to a fairness-metric constraint, following the
AIF360 implementation the paper uses.
"""

from __future__ import annotations

import numpy as np

from ...serialize import FLOAT, field, params, serializable
from ..dataset import BinaryLabelDataset, GroupSpec
from ..metrics import BinaryLabelDatasetMetric
from ..metrics.classification_metric import GROUP_CONTRASTS

# the fairness constraint a fit can search under, by its AIF360 name
_METRICS = {
    "Statistical parity difference": GROUP_CONTRASTS["statistical_parity_difference"],
    "Average odds difference": GROUP_CONTRASTS["average_odds_difference"],
    "Equal opportunity difference": GROUP_CONTRASTS["equal_opportunity_difference"],
}


@serializable(
    params(),
    field("classification_threshold_", FLOAT),
    field("ROC_margin_", FLOAT),
)
class RejectOptionClassification:
    """Post-processing intervention driven by prediction scores."""

    def __init__(
        self,
        unprivileged_groups: GroupSpec,
        privileged_groups: GroupSpec,
        low_class_thresh: float = 0.01,
        high_class_thresh: float = 0.99,
        num_class_thresh: int = 100,
        num_ROC_margin: int = 50,
        metric_name: str = "Statistical parity difference",
        metric_ub: float = 0.05,
        metric_lb: float = -0.05,
    ):
        if metric_name not in _METRICS:
            raise ValueError(f"metric_name must be one of {tuple(_METRICS)}")
        if not 0.0 <= low_class_thresh < high_class_thresh <= 1.0:
            raise ValueError("need 0 <= low_class_thresh < high_class_thresh <= 1")
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        self.low_class_thresh = low_class_thresh
        self.high_class_thresh = high_class_thresh
        self.num_class_thresh = num_class_thresh
        self.num_ROC_margin = num_ROC_margin
        self.metric_name = metric_name
        self.metric_ub = metric_ub
        self.metric_lb = metric_lb

    # ------------------------------------------------------------------
    def fit(
        self, dataset_true: BinaryLabelDataset, dataset_pred: BinaryLabelDataset
    ) -> "RejectOptionClassification":
        """Search (class threshold, margin) on labeled validation data."""
        if dataset_pred.scores is None:
            raise ValueError("dataset_pred must carry prediction scores")
        dataset_true.validate_compatible(dataset_pred)
        groups = BinaryLabelDatasetMetric(
            dataset_true, self.unprivileged_groups, self.privileged_groups
        )
        unprivileged, privileged = groups._mask(False), groups._mask(True)
        contrast = _METRICS[self.metric_name]
        best_constrained = None  # (balanced_accuracy, thresh, margin)
        best_fallback = None  # (abs metric, balanced_accuracy, thresh, margin)
        for class_thresh in np.linspace(
            self.low_class_thresh, self.high_class_thresh, self.num_class_thresh
        ):
            margin_cap = min(class_thresh, 1.0 - class_thresh)
            for margin in np.linspace(0.0, margin_cap, self.num_ROC_margin):
                labels = _labels(
                    dataset_pred, unprivileged, privileged, class_thresh, margin
                )
                overall, unprivileged_measures, privileged_measures = (
                    groups.confusion_table(labels, stratum)[1]
                    for stratum in (None, False, True)
                )
                balanced = overall["balanced_accuracy"]
                fairness = contrast(unprivileged_measures, privileged_measures)
                if np.isnan(balanced) or np.isnan(fairness):
                    continue
                if self.metric_lb <= fairness <= self.metric_ub:
                    candidate = (balanced, class_thresh, margin)
                    if best_constrained is None or candidate > best_constrained:
                        best_constrained = candidate
                fallback = (-abs(fairness), balanced, class_thresh, margin)
                if best_fallback is None or fallback > best_fallback:
                    best_fallback = fallback
        if best_constrained is not None:
            _, self.classification_threshold_, self.ROC_margin_ = best_constrained
        elif best_fallback is not None:
            # no setting satisfied the bound: take the fairest one (AIF360's
            # documented fallback behaviour)
            _, _, self.classification_threshold_, self.ROC_margin_ = best_fallback
        else:
            raise RuntimeError("reject-option search found no valid configuration")
        return self

    def predict(self, dataset_pred: BinaryLabelDataset) -> BinaryLabelDataset:
        """Apply the fitted threshold and critical-region override."""
        if not hasattr(self, "classification_threshold_"):
            raise RuntimeError("RejectOptionClassification must be fit first")
        if dataset_pred.scores is None:
            raise ValueError("dataset_pred must carry prediction scores")
        labels = _labels(
            dataset_pred,
            dataset_pred.group_mask(self.unprivileged_groups),
            dataset_pred.group_mask(self.privileged_groups),
            self.classification_threshold_,
            self.ROC_margin_,
        )
        return dataset_pred.with_predictions(labels=labels)

    def fit_predict(
        self, dataset_true: BinaryLabelDataset, dataset_pred: BinaryLabelDataset
    ) -> BinaryLabelDataset:
        return self.fit(dataset_true, dataset_pred).predict(dataset_pred)


def _labels(dataset_pred, unprivileged, privileged, class_thresh, margin):
    """Thresholded scores, overridden inside the critical region: favorable
    for the unprivileged rows, unfavorable for the privileged ones."""
    scores = dataset_pred.scores
    labels = np.where(
        scores > class_thresh,
        dataset_pred.favorable_label,
        dataset_pred.unfavorable_label,
    )
    critical = np.abs(scores - class_thresh) <= margin
    labels[critical & unprivileged] = dataset_pred.favorable_label
    labels[critical & privileged] = dataset_pred.unfavorable_label
    return labels
