"""Equalized odds post-processing (Hardt, Price & Srebro, NeurIPS 2016).

Finds group-specific randomized label-flipping probabilities that equalize
true- and false-positive rates between groups while minimizing expected
error, via the linear program of the original paper (solved with scipy).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import linprog

from ...serialize import FLOAT, field, params, serializable
from ..dataset import BinaryLabelDataset, GroupSpec


@serializable(
    params(),
    field("p2p_priv_", FLOAT),
    field("n2p_priv_", FLOAT),
    field("p2p_unpriv_", FLOAT),
    field("n2p_unpriv_", FLOAT),
)
class EqOddsPostprocessing:
    """Randomized post-processor equalizing odds between two groups."""

    def __init__(
        self,
        unprivileged_groups: GroupSpec,
        privileged_groups: GroupSpec,
        seed: Optional[int] = None,
    ):
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        self.seed = seed

    def fit(
        self, dataset_true: BinaryLabelDataset, dataset_pred: BinaryLabelDataset
    ) -> "EqOddsPostprocessing":
        """Solve the Hardt et al. LP on labeled validation data.

        Variables (per group g): ``p2p_g`` = P(keep a positive prediction),
        ``n2p_g`` = P(flip a negative prediction to positive). Order:
        [p2p_priv, n2p_priv, p2p_unpriv, n2p_unpriv].
        """
        dataset_true.validate_compatible(dataset_pred)
        rates = {}
        for privileged, groups in (
            (True, self.privileged_groups),
            (False, self.unprivileged_groups),
        ):
            mask = dataset_true.group_mask(groups)
            y = dataset_true.favorable_mask()[mask]
            yhat = (dataset_pred.labels == dataset_pred.favorable_label)[mask]
            w = dataset_true.instance_weights[mask]
            tpr = _rate(yhat, y, w)
            fpr = _rate(yhat, ~y, w)
            base = float(w[y].sum() / w.sum()) if w.sum() > 0 else np.nan
            rates[privileged] = {"tpr": tpr, "fpr": fpr, "base": base}
        if any(np.isnan(v) for group in rates.values() for v in group.values()):
            raise ValueError(
                "a group lacks positives or negatives; cannot equalize odds"
            )

        tpr_p, fpr_p, base_p = (rates[True][k] for k in ("tpr", "fpr", "base"))
        tpr_u, fpr_u, base_u = (rates[False][k] for k in ("tpr", "fpr", "base"))

        # expected error contribution coefficients for each variable
        # error_g = P(y=1)(1 - TPR'_g) + P(y=0) FPR'_g where
        # TPR'_g = p2p_g tpr_g + n2p_g (1 - tpr_g),
        # FPR'_g = p2p_g fpr_g + n2p_g (1 - fpr_g)
        c = np.array(
            [
                -base_p * tpr_p + (1 - base_p) * fpr_p,
                -base_p * (1 - tpr_p) + (1 - base_p) * (1 - fpr_p),
                -base_u * tpr_u + (1 - base_u) * fpr_u,
                -base_u * (1 - tpr_u) + (1 - base_u) * (1 - fpr_u),
            ]
        )
        # equality constraints: TPR'_priv = TPR'_unpriv, FPR'_priv = FPR'_unpriv
        a_eq = np.array(
            [
                [tpr_p, 1 - tpr_p, -tpr_u, -(1 - tpr_u)],
                [fpr_p, 1 - fpr_p, -fpr_u, -(1 - fpr_u)],
            ]
        )
        b_eq = np.zeros(2)
        result = linprog(
            c, A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, 1.0)] * 4, method="highs"
        )
        if not result.success:
            raise RuntimeError(f"equalized-odds LP failed: {result.message}")
        self.p2p_priv_, self.n2p_priv_, self.p2p_unpriv_, self.n2p_unpriv_ = result.x
        return self

    def predict(self, dataset_pred: BinaryLabelDataset) -> BinaryLabelDataset:
        """Randomly flip predictions according to the fitted probabilities."""
        if not hasattr(self, "p2p_priv_"):
            raise RuntimeError("EqOddsPostprocessing must be fit first")
        rng = np.random.default_rng(self.seed)
        labels = dataset_pred.labels.copy()
        for privileged, groups, p2p, n2p in (
            (True, self.privileged_groups, self.p2p_priv_, self.n2p_priv_),
            (False, self.unprivileged_groups, self.p2p_unpriv_, self.n2p_unpriv_),
        ):
            mask = dataset_pred.group_mask(groups)
            positive = labels == dataset_pred.favorable_label
            keep_positive = rng.random(dataset_pred.num_instances) < p2p
            make_positive = rng.random(dataset_pred.num_instances) < n2p
            flip_down = mask & positive & ~keep_positive
            flip_up = mask & ~positive & make_positive
            labels[flip_down] = dataset_pred.unfavorable_label
            labels[flip_up] = dataset_pred.favorable_label
        return dataset_pred.with_predictions(labels=labels)

    def fit_predict(
        self, dataset_true: BinaryLabelDataset, dataset_pred: BinaryLabelDataset
    ) -> BinaryLabelDataset:
        return self.fit(dataset_true, dataset_pred).predict(dataset_pred)


def _rate(prediction_positive, condition, weights) -> float:
    total = weights[condition].sum()
    if total == 0:
        return float("nan")
    return float(weights[condition & prediction_positive].sum() / total)
