"""Metrics over a single labeled dataset (before any classifier runs).

Mirrors AIF360's ``BinaryLabelDatasetMetric``: base rates and their
privileged/unprivileged disparities, plus the individual-fairness
*consistency* score of Zemel et al.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...learn.metrics import _safe_divide, binary_counts, confusion_measures
from ...learn.neighbors import nearest_neighbor_indices
from ..dataset import BinaryLabelDataset, GroupSpec


class BinaryLabelDatasetMetric:
    """Dataset-level fairness measures between two groups."""

    def __init__(
        self,
        dataset: BinaryLabelDataset,
        unprivileged_groups: Optional[GroupSpec] = None,
        privileged_groups: Optional[GroupSpec] = None,
    ):
        self.dataset = dataset
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups
        # stratum -> row mask: None is every row, True/False the groups
        self._masks = {None: np.ones(dataset.num_instances, dtype=bool)}
        if unprivileged_groups is not None and privileged_groups is not None:
            self._masks[False] = dataset.group_mask(unprivileged_groups)
            self._masks[True] = dataset.group_mask(privileged_groups)
            overlap = self._masks[False] & self._masks[True]
            if overlap.any():
                raise ValueError(
                    "privileged and unprivileged groups overlap on "
                    f"{int(overlap.sum())} instances"
                )
        self._strata: Dict[Optional[bool], tuple] = {}

    # ------------------------------------------------------------------
    def _mask(self, privileged: Optional[bool]) -> np.ndarray:
        """The stratum's row mask, built at most once per instance."""
        if privileged not in self._masks:
            groups = self.privileged_groups if privileged else self.unprivileged_groups
            if groups is None:
                raise ValueError(
                    "privileged/unprivileged groups were not provided at construction"
                )
            self._masks[privileged] = self.dataset.group_mask(groups)
        return self._masks[privileged]

    def confusion_table(
        self, labels: np.ndarray, privileged: Optional[bool] = None
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Weighted TP/FP/TN/FN of predicted ``labels`` (one per row)
        against the true labels in the requested stratum, and the 25
        measures read from that table.

        The stratum's true labels and weights are sliced once per instance,
        so a search scoring many labelings pays only for the table.
        """
        if privileged not in self._strata:
            rows = self._mask(privileged)
            self._strata[privileged] = (
                rows,
                self.dataset.labels[rows],
                self.dataset.instance_weights[rows],
            )
        rows, truth, weights = self._strata[privileged]
        counts = binary_counts(truth, labels[rows], self.dataset.favorable_label, weights)
        return counts, confusion_measures(counts)

    def num_instances(self, privileged: Optional[bool] = None) -> float:
        """Total instance weight in the requested stratum."""
        mask = self._mask(privileged)
        return float(self.dataset.instance_weights[mask].sum())

    def num_positives(self, privileged: Optional[bool] = None) -> float:
        mask = self._mask(privileged) & self.dataset.favorable_mask()
        return float(self.dataset.instance_weights[mask].sum())

    def num_negatives(self, privileged: Optional[bool] = None) -> float:
        mask = self._mask(privileged) & ~self.dataset.favorable_mask()
        return float(self.dataset.instance_weights[mask].sum())

    def base_rate(self, privileged: Optional[bool] = None) -> float:
        """P(label = favorable) in the requested stratum (weighted)."""
        return _safe_divide(self.num_positives(privileged), self.num_instances(privileged))

    def disparate_impact(self) -> float:
        """base_rate(unprivileged) / base_rate(privileged); 1.0 is parity."""
        privileged_rate = self.base_rate(privileged=True)
        return _safe_divide(self.base_rate(privileged=False), privileged_rate)

    def statistical_parity_difference(self) -> float:
        """base_rate(unprivileged) - base_rate(privileged); 0.0 is parity."""
        return self.base_rate(privileged=False) - self.base_rate(privileged=True)

    def consistency(self, n_neighbors: int = 5) -> float:
        """Zemel et al. individual fairness: label agreement with neighbours.

        ``1 - mean_i |y_i - mean(y of the k nearest neighbours of i)|``
        """
        X = self.dataset.features
        y = self.dataset.favorable_mask().astype(np.float64)
        neighbors = nearest_neighbor_indices(X, X, n_neighbors)
        neighbor_means = y[neighbors].mean(axis=1)
        return float(1.0 - np.abs(y - neighbor_means).mean())

    def smoothed_empirical_differential_fairness(self, concentration: float = 1.0) -> float:
        """Foulds et al. differential-fairness bound over the two groups."""
        counts = []
        for privileged in (True, False):
            mask = self._mask(privileged)
            weights = self.dataset.instance_weights[mask]
            positives = self.dataset.favorable_mask()[mask]
            total = weights.sum()
            pos = weights[positives].sum()
            # Dirichlet smoothing with two outcomes
            rate = (pos + concentration / 2.0) / (total + concentration)
            counts.append(rate)
        p_priv, p_unpriv = counts
        odds = [
            abs(np.log(p_unpriv) - np.log(p_priv)),
            abs(np.log(1.0 - p_unpriv) - np.log(1.0 - p_priv)),
        ]
        return float(max(odds))
