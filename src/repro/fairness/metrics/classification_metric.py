"""Classification fairness metrics (the AIF360 ``ClassificationMetric`` analog).

Computes, for the overall population and separately for the privileged and
unprivileged groups, a 25-entry performance dictionary; and 22 global
metrics contrasting the two groups — matching the metric inventory the
FairPrep paper reports ("25 different metrics for the overall train and test
set ... 22 different global metrics ... between the privileged and the
unprivileged groups").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ...learn.metrics import _safe_divide
from ..dataset import BinaryLabelDataset, GroupSpec
from .dataset_metric import BinaryLabelDatasetMetric
from .entropy import generalized_entropy_index_from_benefits

Measures = Dict[str, float]


def _difference(name: str) -> Callable[[Measures, Measures], float]:
    return lambda unprivileged, privileged: unprivileged[name] - privileged[name]


def _ratio(name: str) -> Callable[[Measures, Measures], float]:
    return lambda unprivileged, privileged: _safe_divide(
        unprivileged[name], privileged[name]
    )


_fpr_difference = _difference("false_positive_rate")
_tpr_difference = _difference("true_positive_rate")

# the between-group contrasts: each reads the (unprivileged, privileged)
# measures, unprivileged first, so 0 (a ratio: 1) is parity
GROUP_CONTRASTS: Dict[str, Callable[[Measures, Measures], float]] = {
    "statistical_parity_difference": _difference("selection_rate"),
    "disparate_impact": _ratio("selection_rate"),
    "equal_opportunity_difference": _tpr_difference,
    # mean of the FPR and TPR differences (Hardt et al. relaxation)
    "average_odds_difference": lambda u, p: 0.5
    * (_fpr_difference(u, p) + _tpr_difference(u, p)),
    "average_abs_odds_difference": lambda u, p: 0.5
    * (abs(_fpr_difference(u, p)) + abs(_tpr_difference(u, p))),
    "true_positive_rate_difference": _tpr_difference,
    "false_positive_rate_difference": _fpr_difference,
    "false_negative_rate_difference": _difference("false_negative_rate"),
    "false_positive_rate_ratio": _ratio("false_positive_rate"),
    "false_negative_rate_ratio": _ratio("false_negative_rate"),
    "false_discovery_rate_difference": _difference("false_discovery_rate"),
    "false_omission_rate_difference": _difference("false_omission_rate"),
    "false_discovery_rate_ratio": _ratio("false_discovery_rate"),
    "false_omission_rate_ratio": _ratio("false_omission_rate"),
    "positive_predictive_value_difference": _difference("positive_predictive_value"),
    "error_rate_difference": _difference("error_rate"),
    "error_rate_ratio": _ratio("error_rate"),
    "accuracy_difference": _difference("accuracy"),
}


def _stratum_accessor(name: str):
    def accessor(self, privileged: Optional[bool] = None) -> float:
        return self._table(privileged)[1][name]

    accessor.__name__ = name
    accessor.__doc__ = f"``{name}`` of a stratum; None (the default) is all rows."
    return accessor


def _contrast_accessor(name: str):
    def accessor(self) -> float:
        return GROUP_CONTRASTS[name](self._table(False)[1], self._table(True)[1])

    accessor.__name__ = name
    accessor.__doc__ = f"``{name}`` between the groups; see ``GROUP_CONTRASTS``."
    return accessor


class ClassificationMetric(BinaryLabelDatasetMetric):
    """Fairness and accuracy measures of predictions against ground truth.

    Every measure of a stratum (all rows, the privileged or the
    unprivileged group) is read from that stratum's one weighted
    TP/FP/TN/FN table. Each table and its measures are built lazily, at
    most once per instance, and every accessor reads them, so
    :meth:`all_metrics` builds three tables. This assumes the datasets are
    not mutated after construction; dictionaries handed to callers are
    copies, so mutating one does not change later answers.

    Parameters
    ----------
    dataset_true:
        Ground-truth dataset.
    dataset_pred:
        Same rows, with ``labels`` holding the classifier's predictions
        (and optionally ``scores`` holding probabilities).
    """

    def __init__(
        self,
        dataset_true: BinaryLabelDataset,
        dataset_pred: BinaryLabelDataset,
        unprivileged_groups: Optional[GroupSpec] = None,
        privileged_groups: Optional[GroupSpec] = None,
    ):
        dataset_true.validate_compatible(dataset_pred)
        super().__init__(dataset_true, unprivileged_groups, privileged_groups)
        self.dataset_pred = dataset_pred
        self._tables: Dict[Optional[bool], Tuple[Measures, Measures]] = {}

    # ------------------------------------------------------------------
    # confusion-matrix primitives
    # ------------------------------------------------------------------
    def _table(self, privileged: Optional[bool]) -> Tuple[Measures, Measures]:
        """The stratum's (TP/FP/TN/FN counts, measures), built once."""
        if privileged not in self._tables:
            self._tables[privileged] = self.confusion_table(
                self.dataset_pred.labels, privileged
            )
        return self._tables[privileged]

    def binary_confusion_matrix(self, privileged: Optional[bool] = None) -> Dict[str, float]:
        """Weighted TP/FP/TN/FN within the requested stratum."""
        return dict(self._table(privileged)[0])

    def performance_measures(self, privileged: Optional[bool] = None) -> Dict[str, float]:
        """The 25-entry per-stratum metric dictionary."""
        return dict(self._table(privileged)[1])

    # named accessors -----------------------------------------------------
    accuracy = _stratum_accessor("accuracy")
    error_rate = _stratum_accessor("error_rate")
    selection_rate = _stratum_accessor("selection_rate")
    true_positive_rate = _stratum_accessor("true_positive_rate")
    false_positive_rate = _stratum_accessor("false_positive_rate")
    false_negative_rate = _stratum_accessor("false_negative_rate")
    true_negative_rate = _stratum_accessor("true_negative_rate")
    positive_predictive_value = _stratum_accessor("positive_predictive_value")

    # ------------------------------------------------------------------
    # group-contrast metrics
    # ------------------------------------------------------------------
    statistical_parity_difference = _contrast_accessor("statistical_parity_difference")
    disparate_impact = _contrast_accessor("disparate_impact")
    equal_opportunity_difference = _contrast_accessor("equal_opportunity_difference")
    average_odds_difference = _contrast_accessor("average_odds_difference")
    average_abs_odds_difference = _contrast_accessor("average_abs_odds_difference")
    true_positive_rate_difference = _contrast_accessor("true_positive_rate_difference")
    false_positive_rate_difference = _contrast_accessor("false_positive_rate_difference")
    false_negative_rate_difference = _contrast_accessor("false_negative_rate_difference")
    false_positive_rate_ratio = _contrast_accessor("false_positive_rate_ratio")
    false_negative_rate_ratio = _contrast_accessor("false_negative_rate_ratio")
    false_discovery_rate_difference = _contrast_accessor("false_discovery_rate_difference")
    false_omission_rate_difference = _contrast_accessor("false_omission_rate_difference")
    false_discovery_rate_ratio = _contrast_accessor("false_discovery_rate_ratio")
    false_omission_rate_ratio = _contrast_accessor("false_omission_rate_ratio")
    positive_predictive_value_difference = _contrast_accessor(
        "positive_predictive_value_difference"
    )
    error_rate_difference = _contrast_accessor("error_rate_difference")
    error_rate_ratio = _contrast_accessor("error_rate_ratio")
    accuracy_difference = _contrast_accessor("accuracy_difference")

    # individual / entropy-based metrics -----------------------------------
    def _benefits(self) -> np.ndarray:
        """Per-instance benefit b_i = pred - true + 1 (Speicher et al.)."""
        pred = (self.dataset_pred.labels == self.dataset.favorable_label).astype(
            np.float64
        )
        true = self.dataset.favorable_mask().astype(np.float64)
        return pred - true + 1.0

    def generalized_entropy_index(self, alpha: float = 2.0) -> float:
        """Inequality of the benefit distribution across individuals."""
        return generalized_entropy_index_from_benefits(
            self._benefits(), self.dataset.instance_weights, alpha
        )

    def theil_index(self) -> float:
        return self.generalized_entropy_index(alpha=1.0)

    def coefficient_of_variation(self) -> float:
        return float(2.0 * np.sqrt(max(self.generalized_entropy_index(alpha=2.0), 0.0)))

    def between_group_generalized_entropy_index(self, alpha: float = 2.0) -> float:
        """Entropy index after replacing each benefit by its group mean."""
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

    def between_group_coefficient_of_variation(self) -> float:
        return float(
            2.0
            * np.sqrt(max(self.between_group_generalized_entropy_index(alpha=2.0), 0.0))
        )

    # ------------------------------------------------------------------
    # bundles
    # ------------------------------------------------------------------
    def group_metrics(self) -> Dict[str, float]:
        """The 22-entry global (between-group) metric dictionary."""
        return {
            **{name: getattr(self, name)() for name in GROUP_CONTRASTS},
            "generalized_entropy_index": self.generalized_entropy_index(),
            "theil_index": self.theil_index(),
            "coefficient_of_variation": self.coefficient_of_variation(),
            "between_group_theil_index": self.between_group_theil_index(),
        }

    def all_metrics(self) -> Dict[str, float]:
        """Flat bundle: per-stratum measures plus the group contrasts.

        This is what an experiment run writes to disk: 25 metrics × 3 strata
        + 22 group metrics.
        """
        strata = {"overall": None}
        if self.privileged_groups is not None and self.unprivileged_groups is not None:
            strata.update(privileged=True, unprivileged=False)
        out = {
            f"{stratum}__{name}": value
            for stratum, privileged in strata.items()
            for name, value in self._table(privileged)[1].items()
        }
        if len(strata) > 1:
            for name, value in self.group_metrics().items():
                out[f"group__{name}"] = value
        return out
