"""Disparate impact remover (Feldman et al., KDD 2015).

Edits feature values so that the per-group marginal distributions move
toward a common "median" distribution, while preserving the rank order of
values *within* each group. ``repair_level`` interpolates between no change
(0.0) and full repair (1.0).

Unlike the reference implementation (which repairs a dataset in place), this
version supports the leak-free fit/transform split the FairPrep lifecycle
requires: the per-group quantile functions and the target distribution are
estimated on the training data only, then applied to any split.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ...serialize import serializable
from ..dataset import BinaryLabelDataset


@serializable
class DisparateImpactRemover:
    """Rank-preserving feature repair toward a between-group median distribution.

    Parameters
    ----------
    repair_level:
        0.0 = identity; 1.0 = every group's marginal becomes the common
        median distribution.
    sensitive_attribute:
        Protected attribute whose values define the groups. Defaults to the
        dataset's first protected attribute.
    features_to_repair:
        Names of feature columns to repair; defaults to all features.
    """

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

    # ------------------------------------------------------------------
    def fit(self, dataset: BinaryLabelDataset) -> "DisparateImpactRemover":
        """Estimate per-group quantile functions and the median distribution."""
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
        # per feature: per group quantile values + the cross-group median curve
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
        """(value, row mask) of each fitted group that has rows, built once
        for all features: ``fit`` gives every feature the same groups."""
        masks = ((value, sensitive == value) for value in self.group_values_)
        return [(value, mask) for value, mask in masks if mask.any()]

    def transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        """Repair a dataset's features using the fitted distributions."""
        if not hasattr(self, "median_quantiles_"):
            raise RuntimeError("DisparateImpactRemover must be fit before transform")
        out = dataset.copy()
        if self.repair_level == 0.0:
            return out
        sensitive = dataset.protected_column(self.attribute_)
        groups = self._groups(sensitive)
        for name in self.repaired_features_:
            j = dataset.feature_names.index(name)
            column = out.features[:, j]
            # rows of a group never seen in training keep their values
            repaired = column.copy()
            for value, mask in groups:
                curve = self.group_quantiles_[name][value]
                # position of each value within its group's training distribution
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

    def fit_transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        return self.fit(dataset).transform(dataset)

    def to_state(self) -> dict:
        if not hasattr(self, "median_quantiles_"):
            raise RuntimeError(
                "DisparateImpactRemover must be fit before serialization"
            )
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
            # group values are floats: keep them next to their curves in
            # lists rather than stringifying them into JSON object keys
            "group_quantiles_": [
                [name, [[float(v), curve] for v, curve in sorted(per_group.items())]]
                for name, per_group in self.group_quantiles_.items()
            ],
            "median_quantiles_": [
                [name, curve] for name, curve in self.median_quantiles_.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "DisparateImpactRemover":
        instance = cls(**state["params"])
        instance.attribute_ = state["attribute_"]
        instance.group_values_ = [float(v) for v in state["group_values_"]]
        instance.repaired_features_ = list(state["repaired_features_"])
        instance.quantile_grid_ = np.asarray(state["quantile_grid_"], dtype=np.float64)
        instance.group_quantiles_ = {
            name: {
                float(v): np.asarray(curve, dtype=np.float64) for v, curve in pairs
            }
            for name, pairs in state["group_quantiles_"]
        }
        instance.median_quantiles_ = {
            name: np.asarray(curve, dtype=np.float64)
            for name, curve in state["median_quantiles_"]
        }
        return instance
