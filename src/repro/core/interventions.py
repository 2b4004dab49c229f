"""Lifecycle adapters for the fairness interventions.

Pre-processors (stage 4) and post-processors (stage 7) from
:mod:`repro.fairness` wrapped in the uniform component interfaces, so an
experiment is configured with e.g. ``pre_processor=DIRemover(0.5)`` exactly
as in the paper's example code.
"""

from __future__ import annotations

from typing import Optional

from ..fairness import BinaryLabelDataset
from ..fairness.postprocessing import (
    CalibratedEqOddsPostprocessing,
    EqOddsPostprocessing,
    RejectOptionClassification,
)
from ..fairness.preprocessing import DisparateImpactRemover, Reweighing
from ..serialize import field, nested, params, serializable
from .components import PostProcessor, PreProcessor


@serializable()
class NoIntervention(PreProcessor, PostProcessor):
    """Identity for both intervention stages (the baseline condition)."""

    def fit(self, *args, **kwargs) -> "NoIntervention":
        return self

    def transform_train(self, train_data: BinaryLabelDataset) -> BinaryLabelDataset:
        return train_data

    def transform_eval(self, data: BinaryLabelDataset) -> BinaryLabelDataset:
        return data

    def apply(self, predictions: BinaryLabelDataset) -> BinaryLabelDataset:
        return predictions

    def name(self) -> str:
        return "NoIntervention"


@serializable(field("reweighing", nested(Reweighing), attr="_reweighing"))
class ReweighingPreProcessor(PreProcessor):
    """Kamiran & Calders reweighing: edits training instance weights only."""

    def fit(self, train_data, privileged_groups, unprivileged_groups, seed):
        self._reweighing = Reweighing(
            unprivileged_groups=unprivileged_groups,
            privileged_groups=privileged_groups,
        ).fit(train_data)
        return self

    def transform_train(self, train_data: BinaryLabelDataset) -> BinaryLabelDataset:
        return self._reweighing.transform(train_data)

    def name(self) -> str:
        return "Reweighing"


@serializable(
    params(key=None),
    field("remover", nested(DisparateImpactRemover), attr="_remover"),
)
class DIRemover(PreProcessor):
    """Feldman et al. disparate-impact removal at a given repair level.

    Feature repair applies to evaluation data too (validation/test must be
    mapped through the same fitted repair), using training-set quantiles.
    """

    def __init__(self, repair_level: float = 1.0):
        self.repair_level = repair_level
        self._remover: Optional[DisparateImpactRemover] = None

    def fit(self, train_data, privileged_groups, unprivileged_groups, seed):
        attribute = train_data.protected_attribute_names[0]
        self._remover = DisparateImpactRemover(
            repair_level=self.repair_level, sensitive_attribute=attribute
        ).fit(train_data)
        return self

    def transform_train(self, train_data: BinaryLabelDataset) -> BinaryLabelDataset:
        return self._remover.transform(train_data)

    def transform_eval(self, data: BinaryLabelDataset) -> BinaryLabelDataset:
        return self._remover.transform(data)

    def name(self) -> str:
        return f"DIRemover({self.repair_level})"


@serializable(
    params(), field("roc", nested(RejectOptionClassification), attr="_roc")
)
class RejectOptionPostProcessor(PostProcessor):
    """Kamiran et al. reject-option classification (needs scores)."""

    def __init__(
        self,
        metric_name: str = "Statistical parity difference",
        metric_ub: float = 0.05,
        metric_lb: float = -0.05,
        num_class_thresh: int = 50,
        num_ROC_margin: int = 25,
    ):
        self.metric_name = metric_name
        self.metric_ub = metric_ub
        self.metric_lb = metric_lb
        self.num_class_thresh = num_class_thresh
        self.num_ROC_margin = num_ROC_margin

    def fit(self, validation_true, validation_pred, privileged_groups, unprivileged_groups, seed):
        self._roc = RejectOptionClassification(
            unprivileged_groups=unprivileged_groups,
            privileged_groups=privileged_groups,
            metric_name=self.metric_name,
            metric_ub=self.metric_ub,
            metric_lb=self.metric_lb,
            num_class_thresh=self.num_class_thresh,
            num_ROC_margin=self.num_ROC_margin,
        ).fit(validation_true, validation_pred)
        return self

    def apply(self, predictions: BinaryLabelDataset) -> BinaryLabelDataset:
        return self._roc.predict(predictions)

    def name(self) -> str:
        return "RejectOption"


@serializable(
    params(key=None),
    field("ceo", nested(CalibratedEqOddsPostprocessing), attr="_ceo"),
)
class CalibratedEqOddsPostProcessor(PostProcessor):
    """Pleiss et al. calibrated equalized odds (needs scores)."""

    def __init__(self, cost_constraint: str = "weighted"):
        self.cost_constraint = cost_constraint

    def fit(self, validation_true, validation_pred, privileged_groups, unprivileged_groups, seed):
        self._ceo = CalibratedEqOddsPostprocessing(
            unprivileged_groups=unprivileged_groups,
            privileged_groups=privileged_groups,
            cost_constraint=self.cost_constraint,
            seed=seed,
        ).fit(validation_true, validation_pred)
        return self

    def apply(self, predictions: BinaryLabelDataset) -> BinaryLabelDataset:
        return self._ceo.predict(predictions)

    def name(self) -> str:
        return f"CalEqOdds({self.cost_constraint})"


@serializable(field("eq", nested(EqOddsPostprocessing), attr="_eq"))
class EqOddsPostProcessor(PostProcessor):
    """Hardt et al. equalized odds via the randomized-flip LP."""

    def fit(self, validation_true, validation_pred, privileged_groups, unprivileged_groups, seed):
        self._eq = EqOddsPostprocessing(
            unprivileged_groups=unprivileged_groups,
            privileged_groups=privileged_groups,
            seed=seed,
        ).fit(validation_true, validation_pred)
        return self

    def apply(self, predictions: BinaryLabelDataset) -> BinaryLabelDataset:
        return self._eq.predict(predictions)

    def name(self) -> str:
        return "EqOdds"
