"""Reweighing (Kamiran & Calders, 2012).

Assigns each instance the weight ``P_expected(group, label) /
P_observed(group, label)`` so that group membership and label become
statistically independent in the weighted training distribution. After
reweighing, the weighted statistical parity difference of the dataset is
exactly zero — a property the test suite asserts.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...serialize import serializable
from ..dataset import BinaryLabelDataset, GroupSpec


@serializable
class Reweighing:
    """Pre-processing intervention that edits instance weights only."""

    def __init__(self, unprivileged_groups: GroupSpec, privileged_groups: GroupSpec):
        self.unprivileged_groups = unprivileged_groups
        self.privileged_groups = privileged_groups

    def fit(self, dataset: BinaryLabelDataset) -> "Reweighing":
        """Learn the four (group × label) reweighing factors."""
        w = dataset.instance_weights
        total = w.sum()
        favorable = dataset.favorable_mask()
        self.factors_: Dict[Tuple[bool, bool], float] = {}
        for privileged, groups in (
            (True, self.privileged_groups),
            (False, self.unprivileged_groups),
        ):
            group_mask = dataset.group_mask(groups)
            weight_group = w[group_mask].sum()
            for positive in (True, False):
                label_mask = favorable if positive else ~favorable
                weight_label = w[label_mask].sum()
                weight_cell = w[group_mask & label_mask].sum()
                if weight_cell == 0:
                    self.factors_[(privileged, positive)] = 1.0
                else:
                    expected = weight_group * weight_label / total
                    self.factors_[(privileged, positive)] = float(
                        expected / weight_cell
                    )
        return self

    def transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        """Apply the learned factors to a dataset's instance weights."""
        if not hasattr(self, "factors_"):
            raise RuntimeError("Reweighing must be fit before transform")
        out = dataset.copy()
        favorable = dataset.favorable_mask()
        for privileged, groups in (
            (True, self.privileged_groups),
            (False, self.unprivileged_groups),
        ):
            group_mask = dataset.group_mask(groups)
            for positive in (True, False):
                label_mask = favorable if positive else ~favorable
                cell = group_mask & label_mask
                out.instance_weights[cell] = (
                    dataset.instance_weights[cell] * self.factors_[(privileged, positive)]
                )
        return out

    def fit_transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        return self.fit(dataset).transform(dataset)

    def to_state(self) -> dict:
        if not hasattr(self, "factors_"):
            raise RuntimeError("Reweighing must be fit before serialization")
        return {
            "unprivileged_groups": self.unprivileged_groups,
            "privileged_groups": self.privileged_groups,
            "factors_": [
                [bool(privileged), bool(positive), float(value)]
                for (privileged, positive), value in sorted(self.factors_.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Reweighing":
        instance = cls(
            unprivileged_groups=state["unprivileged_groups"],
            privileged_groups=state["privileged_groups"],
        )
        instance.factors_ = {
            (privileged, positive): value
            for privileged, positive, value in state["factors_"]
        }
        return instance
