"""Frozen reference implementations for the fairness-metric goldens.

These are copies (docstrings trimmed) of the per-accessor ``ClassificationMetric``
(every accessor rebuilds its stratum's confusion table from the group
masks), of the per-candidate ``RejectOptionClassification.fit`` search
(one prediction copy and one ``ClassificationMetric`` per (threshold,
margin) candidate), of the per-threshold ``threshold_sweep`` and of the
per-(feature, group) ``DisparateImpactRemover`` (one ``np.quantile`` per
column and group in ``fit``, one ``np.interp`` pair per column and group in
``transform``), kept only so the golden tests can assert that the shared
kernels reproduce them value for value and bit for bit. Do not "fix" or optimize
this module — its value is that it does the work the slow way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fairness import BinaryLabelDataset
from repro.fairness.metrics.entropy import generalized_entropy_index_from_benefits


def _safe_ratio(numerator: float, denominator: float) -> float:
    if denominator == 0 or np.isnan(denominator):
        return float("nan")
    return numerator / denominator


class ReferenceClassificationMetric:
    """Fairness and accuracy measures of predictions against ground truth."""

    def __init__(
        self,
        dataset_true: BinaryLabelDataset,
        dataset_pred: BinaryLabelDataset,
        unprivileged_groups=None,
        privileged_groups=None,
    ):
        dataset_true.validate_compatible(dataset_pred)
        self.dataset = dataset_true
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        if unprivileged_groups is not None and privileged_groups is not None:
            overlap = dataset_true.group_mask(
                unprivileged_groups
            ) & dataset_true.group_mask(privileged_groups)
            if overlap.any():
                raise ValueError(
                    "privileged and unprivileged groups overlap on "
                    f"{int(overlap.sum())} instances"
                )
        self.dataset_pred = dataset_pred

    def _mask(self, privileged: Optional[bool]) -> np.ndarray:
        if privileged is None:
            return np.ones(self.dataset.num_instances, dtype=bool)
        groups = self.privileged_groups if privileged else self.unprivileged_groups
        if groups is None:
            raise ValueError(
                "privileged/unprivileged groups were not provided at construction"
            )
        return self.dataset.group_mask(groups)

    # ------------------------------------------------------------------
    # confusion-matrix primitives
    # ------------------------------------------------------------------
    def binary_confusion_matrix(self, privileged: Optional[bool] = None) -> Dict[str, float]:
        """Weighted TP/FP/TN/FN within the requested stratum."""
        mask = self._mask(privileged)
        w = self.dataset.instance_weights[mask]
        true_pos = self.dataset.favorable_mask()[mask]
        pred_pos = (self.dataset_pred.labels == self.dataset.favorable_label)[mask]
        return {
            "TP": float(w[true_pos & pred_pos].sum()),
            "FP": float(w[~true_pos & pred_pos].sum()),
            "TN": float(w[~true_pos & ~pred_pos].sum()),
            "FN": float(w[true_pos & ~pred_pos].sum()),
        }

    def performance_measures(self, privileged: Optional[bool] = None) -> Dict[str, float]:
        """The 25-entry per-stratum metric dictionary."""
        c = self.binary_confusion_matrix(privileged)
        tp, fp, tn, fn = c["TP"], c["FP"], c["TN"], c["FN"]
        total = tp + fp + tn + fn
        actual_pos = tp + fn
        actual_neg = tn + fp
        pred_pos = tp + fp
        pred_neg = tn + fn
        tpr = _safe_ratio(tp, actual_pos)
        tnr = _safe_ratio(tn, actual_neg)
        fpr = _safe_ratio(fp, actual_neg)
        fnr = _safe_ratio(fn, actual_pos)
        ppv = _safe_ratio(tp, pred_pos)
        npv = _safe_ratio(tn, pred_neg)
        fdr = _safe_ratio(fp, pred_pos)
        fomr = _safe_ratio(fn, pred_neg)
        accuracy = _safe_ratio(tp + tn, total)
        f1 = (
            float("nan")
            if np.isnan(ppv) or np.isnan(tpr) or (ppv + tpr) == 0
            else 2.0 * ppv * tpr / (ppv + tpr)
        )
        return {
            "num_instances": total,
            "num_positives": actual_pos,
            "num_negatives": actual_neg,
            "base_rate": _safe_ratio(actual_pos, total),
            "num_true_positives": tp,
            "num_false_positives": fp,
            "num_true_negatives": tn,
            "num_false_negatives": fn,
            "num_pred_positives": pred_pos,
            "num_pred_negatives": pred_neg,
            "selection_rate": _safe_ratio(pred_pos, total),
            "true_positive_rate": tpr,
            "true_negative_rate": tnr,
            "false_positive_rate": fpr,
            "false_negative_rate": fnr,
            "positive_predictive_value": ppv,
            "negative_predictive_value": npv,
            "false_discovery_rate": fdr,
            "false_omission_rate": fomr,
            "accuracy": accuracy,
            "error_rate": float("nan") if np.isnan(accuracy) else 1.0 - accuracy,
            "balanced_accuracy": 0.5 * (tpr + tnr),
            "precision": ppv,
            "recall": tpr,
            "f1": f1,
        }

    # named accessors -----------------------------------------------------
    def accuracy(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["accuracy"]

    def error_rate(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["error_rate"]

    def selection_rate(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["selection_rate"]

    def true_positive_rate(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["true_positive_rate"]

    def false_positive_rate(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["false_positive_rate"]

    def false_negative_rate(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["false_negative_rate"]

    def true_negative_rate(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["true_negative_rate"]

    def positive_predictive_value(self, privileged: Optional[bool] = None) -> float:
        return self.performance_measures(privileged)["positive_predictive_value"]

    # ------------------------------------------------------------------
    # group-contrast metrics
    # ------------------------------------------------------------------
    def _difference(self, name: str) -> float:
        return (
            self.performance_measures(privileged=False)[name]
            - self.performance_measures(privileged=True)[name]
        )

    def _ratio(self, name: str) -> float:
        return _safe_ratio(
            self.performance_measures(privileged=False)[name],
            self.performance_measures(privileged=True)[name],
        )

    def statistical_parity_difference(self) -> float:
        return self._difference("selection_rate")

    def disparate_impact(self) -> float:
        return self._ratio("selection_rate")

    def equal_opportunity_difference(self) -> float:
        return self._difference("true_positive_rate")

    def true_positive_rate_difference(self) -> float:
        return self._difference("true_positive_rate")

    def false_positive_rate_difference(self) -> float:
        return self._difference("false_positive_rate")

    def false_negative_rate_difference(self) -> float:
        return self._difference("false_negative_rate")

    def false_positive_rate_ratio(self) -> float:
        return self._ratio("false_positive_rate")

    def false_negative_rate_ratio(self) -> float:
        return self._ratio("false_negative_rate")

    def false_discovery_rate_difference(self) -> float:
        return self._difference("false_discovery_rate")

    def false_omission_rate_difference(self) -> float:
        return self._difference("false_omission_rate")

    def false_discovery_rate_ratio(self) -> float:
        return self._ratio("false_discovery_rate")

    def false_omission_rate_ratio(self) -> float:
        return self._ratio("false_omission_rate")

    def positive_predictive_value_difference(self) -> float:
        return self._difference("positive_predictive_value")

    def error_rate_difference(self) -> float:
        return self._difference("error_rate")

    def error_rate_ratio(self) -> float:
        return self._ratio("error_rate")

    def accuracy_difference(self) -> float:
        return self._difference("accuracy")

    def average_odds_difference(self) -> float:
        return 0.5 * (
            self.false_positive_rate_difference()
            + self.true_positive_rate_difference()
        )

    def average_abs_odds_difference(self) -> float:
        return 0.5 * (
            abs(self.false_positive_rate_difference())
            + abs(self.true_positive_rate_difference())
        )

    # individual / entropy-based metrics -----------------------------------
    def _benefits(self) -> np.ndarray:
        pred = (self.dataset_pred.labels == self.dataset.favorable_label).astype(
            np.float64
        )
        true = self.dataset.favorable_mask().astype(np.float64)
        return pred - true + 1.0

    def generalized_entropy_index(self, alpha: float = 2.0) -> float:
        return generalized_entropy_index_from_benefits(
            self._benefits(), self.dataset.instance_weights, alpha
        )

    def theil_index(self) -> float:
        return self.generalized_entropy_index(alpha=1.0)

    def coefficient_of_variation(self) -> float:
        return float(2.0 * np.sqrt(max(self.generalized_entropy_index(alpha=2.0), 0.0)))

    def between_group_generalized_entropy_index(self, alpha: float = 2.0) -> float:
        benefits = self._benefits()
        weights = self.dataset.instance_weights
        grouped = benefits.copy()
        for privileged in (True, False):
            mask = self._mask(privileged)
            total = weights[mask].sum()
            if total > 0:
                grouped[mask] = np.average(benefits[mask], weights=weights[mask])
        return generalized_entropy_index_from_benefits(grouped, weights, alpha)

    def between_group_theil_index(self) -> float:
        return self.between_group_generalized_entropy_index(alpha=1.0)

    # ------------------------------------------------------------------
    # bundles
    # ------------------------------------------------------------------
    def group_metrics(self) -> Dict[str, float]:
        return {
            "statistical_parity_difference": self.statistical_parity_difference(),
            "disparate_impact": self.disparate_impact(),
            "equal_opportunity_difference": self.equal_opportunity_difference(),
            "average_odds_difference": self.average_odds_difference(),
            "average_abs_odds_difference": self.average_abs_odds_difference(),
            "true_positive_rate_difference": self.true_positive_rate_difference(),
            "false_positive_rate_difference": self.false_positive_rate_difference(),
            "false_negative_rate_difference": self.false_negative_rate_difference(),
            "false_positive_rate_ratio": self.false_positive_rate_ratio(),
            "false_negative_rate_ratio": self.false_negative_rate_ratio(),
            "false_discovery_rate_difference": self.false_discovery_rate_difference(),
            "false_omission_rate_difference": self.false_omission_rate_difference(),
            "false_discovery_rate_ratio": self.false_discovery_rate_ratio(),
            "false_omission_rate_ratio": self.false_omission_rate_ratio(),
            "positive_predictive_value_difference": self.positive_predictive_value_difference(),
            "error_rate_difference": self.error_rate_difference(),
            "error_rate_ratio": self.error_rate_ratio(),
            "accuracy_difference": self.accuracy_difference(),
            "generalized_entropy_index": self.generalized_entropy_index(),
            "theil_index": self.theil_index(),
            "coefficient_of_variation": self.coefficient_of_variation(),
            "between_group_theil_index": self.between_group_theil_index(),
        }

    def all_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for stratum, privileged in (
            ("overall", None),
            ("privileged", True),
            ("unprivileged", False),
        ):
            if privileged is not None and (
                self.privileged_groups is None or self.unprivileged_groups is None
            ):
                continue
            for name, value in self.performance_measures(privileged).items():
                out[f"{stratum}__{name}"] = value
        if self.privileged_groups is not None and self.unprivileged_groups is not None:
            for name, value in self.group_metrics().items():
                out[f"group__{name}"] = value
        return out


# ----------------------------------------------------------------------
# reject option: one prediction copy and one metric per candidate
# ----------------------------------------------------------------------
def _reject_option_apply(
    dataset_pred, unprivileged_groups, privileged_groups, class_thresh, margin
):
    scores = dataset_pred.scores
    labels = np.where(
        scores > class_thresh,
        dataset_pred.favorable_label,
        dataset_pred.unfavorable_label,
    )
    critical = np.abs(scores - class_thresh) <= margin
    unprivileged = dataset_pred.group_mask(unprivileged_groups)
    privileged = dataset_pred.group_mask(privileged_groups)
    labels = labels.copy()
    labels[critical & unprivileged] = dataset_pred.favorable_label
    labels[critical & privileged] = dataset_pred.unfavorable_label
    return dataset_pred.with_predictions(labels=labels)


def _reject_option_fairness(metric_name, metric) -> float:
    if metric_name == "Statistical parity difference":
        return metric.statistical_parity_difference()
    if metric_name == "Average odds difference":
        return metric.average_odds_difference()
    return metric.equal_opportunity_difference()


def reference_reject_option_fit(
    dataset_true,
    dataset_pred,
    unprivileged_groups,
    privileged_groups,
    low_class_thresh=0.01,
    high_class_thresh=0.99,
    num_class_thresh=100,
    num_ROC_margin=50,
    metric_name="Statistical parity difference",
    metric_ub=0.05,
    metric_lb=-0.05,
):
    """The chosen ``(classification_threshold_, ROC_margin_)``."""
    if dataset_pred.scores is None:
        raise ValueError("dataset_pred must carry prediction scores")
    best_constrained = None  # (balanced_accuracy, thresh, margin)
    best_fallback = None  # (abs metric, balanced_accuracy, thresh, margin)
    for class_thresh in np.linspace(low_class_thresh, high_class_thresh, num_class_thresh):
        margin_cap = min(class_thresh, 1.0 - class_thresh)
        for margin in np.linspace(0.0, margin_cap, num_ROC_margin):
            adjusted = _reject_option_apply(
                dataset_pred, unprivileged_groups, privileged_groups, class_thresh, margin
            )
            metric = ReferenceClassificationMetric(
                dataset_true,
                adjusted,
                unprivileged_groups=unprivileged_groups,
                privileged_groups=privileged_groups,
            )
            balanced = metric.performance_measures()["balanced_accuracy"]
            fairness = _reject_option_fairness(metric_name, metric)
            if np.isnan(balanced) or np.isnan(fairness):
                continue
            if metric_lb <= fairness <= metric_ub:
                candidate = (balanced, class_thresh, margin)
                if best_constrained is None or candidate > best_constrained:
                    best_constrained = candidate
            fallback = (-abs(fairness), balanced, class_thresh, margin)
            if best_fallback is None or fallback > best_fallback:
                best_fallback = fallback
    if best_constrained is not None:
        _, threshold, margin = best_constrained
    elif best_fallback is not None:
        _, _, threshold, margin = best_fallback
    else:
        raise RuntimeError("reject-option search found no valid configuration")
    return threshold, margin


# ----------------------------------------------------------------------
# threshold sweep: one prediction copy and one metric per threshold
# ----------------------------------------------------------------------
def reference_threshold_sweep(
    dataset_true: BinaryLabelDataset,
    scores: np.ndarray,
    unprivileged_groups,
    privileged_groups,
    num_thresholds: int = 21,
) -> List[Dict[str, float]]:
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != dataset_true.num_instances:
        raise ValueError("scores length does not match the dataset")
    if num_thresholds < 2:
        raise ValueError("need at least 2 thresholds")
    rows = []
    for threshold in np.linspace(0.0, 1.0, num_thresholds):
        labels = np.where(
            scores >= threshold,
            dataset_true.favorable_label,
            dataset_true.unfavorable_label,
        )
        pred = dataset_true.with_predictions(labels=labels, scores=scores)
        metric = ReferenceClassificationMetric(
            dataset_true, pred, unprivileged_groups, privileged_groups
        )
        measures = metric.performance_measures()
        rows.append(
            {
                "threshold": float(threshold),
                "accuracy": measures["accuracy"],
                "balanced_accuracy": measures["balanced_accuracy"],
                "selection_rate": measures["selection_rate"],
                "statistical_parity_difference": metric.statistical_parity_difference(),
                "disparate_impact": metric.disparate_impact(),
            }
        )
    return rows


class ReferenceDisparateImpactRemover:
    """``DisparateImpactRemover``'s per-(feature, group) fit and transform."""

    def __init__(
        self,
        repair_level: float = 1.0,
        sensitive_attribute: Optional[str] = None,
        features_to_repair: Optional[Sequence[str]] = None,
    ):
        if not 0.0 <= repair_level <= 1.0:
            raise ValueError("repair_level must lie in [0, 1]")
        self.repair_level = repair_level
        self.sensitive_attribute = sensitive_attribute
        self.features_to_repair = (
            None if features_to_repair is None else list(features_to_repair)
        )

    def fit(self, dataset: BinaryLabelDataset) -> "ReferenceDisparateImpactRemover":
        attribute = self.sensitive_attribute or dataset.protected_attribute_names[0]
        sensitive = dataset.protected_column(attribute)
        self.attribute_ = attribute
        self.group_values_ = sorted(set(np.unique(sensitive)))
        if len(self.group_values_) < 2:
            raise ValueError(
                f"sensitive attribute {attribute!r} has a single value; "
                "nothing to repair"
            )
        names = self.features_to_repair or list(dataset.feature_names)
        missing = [n for n in names if n not in dataset.feature_names]
        if missing:
            raise KeyError(f"features not in dataset: {missing}")
        self.repaired_features_ = names

        quantile_grid = np.linspace(0.0, 1.0, 101)
        self.quantile_grid_ = quantile_grid
        self.group_quantiles_: Dict[str, Dict[float, np.ndarray]] = {}
        self.median_quantiles_: Dict[str, np.ndarray] = {}
        groups = self._groups(sensitive)
        for name in names:
            column = dataset.features[:, dataset.feature_names.index(name)]
            per_group = {
                value: np.quantile(column[mask], quantile_grid) for value, mask in groups
            }
            self.group_quantiles_[name] = per_group
            self.median_quantiles_[name] = np.median(
                np.vstack(list(per_group.values())), axis=0
            )
        return self

    def _groups(self, sensitive: np.ndarray):
        masks = ((value, sensitive == value) for value in self.group_values_)
        return [(value, mask) for value, mask in masks if mask.any()]

    def transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        out = dataset.copy()
        if self.repair_level == 0.0:
            return out
        sensitive = dataset.protected_column(self.attribute_)
        groups = self._groups(sensitive)
        for name in self.repaired_features_:
            j = dataset.feature_names.index(name)
            column = out.features[:, j]
            repaired = column.copy()
            for value, mask in groups:
                curve = self.group_quantiles_[name][value]
                quantiles = np.interp(
                    column[mask],
                    curve,
                    self.quantile_grid_,
                    left=0.0,
                    right=1.0,
                )
                target = np.interp(
                    quantiles, self.quantile_grid_, self.median_quantiles_[name]
                )
                repaired[mask] = (
                    (1.0 - self.repair_level) * column[mask]
                    + self.repair_level * target
                )
            out.features[:, j] = repaired
        return out

    def to_state(self) -> dict:
        return {
            "params": {
                "repair_level": self.repair_level,
                "sensitive_attribute": self.sensitive_attribute,
                "features_to_repair": self.features_to_repair,
            },
            "attribute_": self.attribute_,
            "group_values_": [float(v) for v in self.group_values_],
            "repaired_features_": list(self.repaired_features_),
            "quantile_grid_": self.quantile_grid_,
            "group_quantiles_": [
                [name, [[float(v), curve] for v, curve in sorted(per_group.items())]]
                for name, per_group in self.group_quantiles_.items()
            ],
            "median_quantiles_": [
                [name, curve] for name, curve in self.median_quantiles_.items()
            ],
        }
