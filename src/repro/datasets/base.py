"""Dataset specifications: what the lifecycle needs to know about a dataset.

Integrating a dataset with FairPrep "only requires users to load the data as
a dataframe and configure several class variables that denote which
attributes to use as numeric and categorical features, which attribute to
use as the class label, and how to identify the protected groups" (§4).
:class:`DatasetSpec` is that configuration object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..frame import DataFrame


@dataclass(frozen=True)
class ProtectedAttribute:
    """A protected column and which of its values count as privileged."""

    column: str
    privileged_values: Tuple[str, ...]

    def binary_column(self, frame: DataFrame) -> np.ndarray:
        """1.0 for privileged rows, 0.0 otherwise (missing counts as 0.0)."""
        return frame.col(self.column).isin(self.privileged_values).astype(np.float64)


@dataclass(frozen=True)
class DatasetSpec:
    """Schema-level description of a binary-classification fairness dataset."""

    name: str
    label_column: str
    favorable_value: str
    numeric_features: Tuple[str, ...]
    categorical_features: Tuple[str, ...]
    protected_attributes: Tuple[ProtectedAttribute, ...]
    default_protected: str = ""

    def __post_init__(self):
        if not self.protected_attributes:
            raise ValueError("a dataset spec needs at least one protected attribute")
        names = [p.column for p in self.protected_attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate protected attributes: {names}")
        default = self.default_protected or names[0]
        if default not in names:
            raise ValueError(
                f"default_protected {default!r} is not a protected attribute"
            )
        object.__setattr__(self, "default_protected", default)
        overlap = set(self.numeric_features) & set(self.categorical_features)
        if overlap:
            raise ValueError(f"features listed as both numeric and categorical: {sorted(overlap)}")
        if self.label_column in self.numeric_features + self.categorical_features:
            raise ValueError("the label column must not be listed as a feature")

    # ------------------------------------------------------------------
    @property
    def feature_columns(self) -> List[str]:
        return list(self.numeric_features) + list(self.categorical_features)

    def column_kinds(self) -> Dict[str, str]:
        """Frame kinds for every column the spec names.

        Loaders pass this to :meth:`DataFrame.from_dict` so columns are
        dictionary-encoded / typed directly instead of kind-inferred by a
        per-value scan. Label and protected columns are categorical.
        """
        from ..frame import CATEGORICAL, NUMERIC

        kinds = {c: NUMERIC for c in self.numeric_features}
        kinds.update({c: CATEGORICAL for c in self.categorical_features})
        kinds[self.label_column] = CATEGORICAL
        for attribute in self.protected_attributes:
            kinds.setdefault(attribute.column, CATEGORICAL)
        return kinds

    def protected(self, column: Optional[str] = None) -> ProtectedAttribute:
        column = column or self.default_protected
        for attribute in self.protected_attributes:
            if attribute.column == column:
                return attribute
        raise KeyError(
            f"no protected attribute {column!r}; available: "
            f"{[p.column for p in self.protected_attributes]}"
        )

    def privileged_groups(self, column: Optional[str] = None) -> List[Dict[str, float]]:
        return [{self.protected(column).column: 1.0}]

    def unprivileged_groups(self, column: Optional[str] = None) -> List[Dict[str, float]]:
        return [{self.protected(column).column: 0.0}]

    # ------------------------------------------------------------------
    def validate(self, frame: DataFrame) -> None:
        """Check that a frame carries every column the spec references."""
        missing = [c for c in self.feature_columns if c not in frame]
        if missing:
            raise ValueError(f"{self.name}: frame lacks feature columns {missing}")
        if self.label_column not in frame:
            raise ValueError(f"{self.name}: frame lacks label column {self.label_column!r}")
        for attribute in self.protected_attributes:
            if attribute.column not in frame:
                raise ValueError(
                    f"{self.name}: frame lacks protected column {attribute.column!r}"
                )
        for column in self.numeric_features:
            if not frame.col(column).is_numeric:
                raise ValueError(f"{self.name}: feature {column!r} should be numeric")
        for column in self.categorical_features:
            if not frame.col(column).is_categorical:
                raise ValueError(
                    f"{self.name}: feature {column!r} should be categorical"
                )
        labels = set(frame.col(self.label_column).unique())
        if self.favorable_value not in labels:
            raise ValueError(
                f"{self.name}: favorable value {self.favorable_value!r} absent "
                f"from label column (saw {sorted(labels)})"
            )
        if len(labels) != 2:
            raise ValueError(
                f"{self.name}: expected a binary label, saw {sorted(labels)}"
            )

    def label_binary(self, frame: DataFrame) -> np.ndarray:
        """Labels as 1.0 (favorable) / 0.0 (unfavorable)."""
        return frame.col(self.label_column).eq(self.favorable_value).astype(np.float64)

    # ------------------------------------------------------------------
    # JSON round-trip (for serving artifacts: the spec travels with every
    # exported pipeline so a fresh process can validate scoring inputs)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "label_column": self.label_column,
            "favorable_value": self.favorable_value,
            "numeric_features": list(self.numeric_features),
            "categorical_features": list(self.categorical_features),
            "protected_attributes": [
                {
                    "column": attribute.column,
                    "privileged_values": list(attribute.privileged_values),
                }
                for attribute in self.protected_attributes
            ],
            "default_protected": self.default_protected,
        }

    @staticmethod
    def from_dict(data: dict) -> "DatasetSpec":
        return DatasetSpec(
            name=data["name"],
            label_column=data["label_column"],
            favorable_value=data["favorable_value"],
            numeric_features=tuple(data["numeric_features"]),
            categorical_features=tuple(data["categorical_features"]),
            protected_attributes=tuple(
                ProtectedAttribute(
                    column=attribute["column"],
                    privileged_values=tuple(attribute["privileged_values"]),
                )
                for attribute in data["protected_attributes"]
            ),
            default_protected=data.get("default_protected", ""),
        )
