"""Featurization: frame → annotated numeric dataset (third lifecycle stage).

Numeric features pass through a user-chosen scaler; categorical features
are one-hot encoded with a reserved unseen-value dimension. All aggregate
statistics are fit on the training split only and replayed on the
validation/test splits — the leak-free behaviour Section 2.1 demands.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..datasets import DatasetSpec
from ..fairness import BinaryLabelDataset
from ..frame import DataFrame
from ..learn import NoOpScaler, OneHotEncoder, clone
from ..serialize import NotFittedError, restore, serializable, state_of


class ColumnEncoder:
    """A frame's ``[scaled numerics | encoded categoricals]`` matrix.

    ``scaler`` and ``encoder`` are unfitted templates: :meth:`fit` fits a
    clone of each on the ``numeric`` and ``categorical`` columns of the
    frame it is given, and :meth:`transform` replays those statistics.
    Numeric values must already be complete.
    """

    def __init__(self, numeric, categorical, scaler, encoder):
        self.numeric = list(numeric)
        self.categorical = list(categorical)
        self.scaler = scaler
        self.encoder = encoder

    def fit(self, frame: DataFrame, y=None) -> "ColumnEncoder":
        if self.numeric:
            self.scaler_ = clone(self.scaler).fit(self._numeric_matrix(frame))
        if self.categorical:
            # columns are passed whole so the encoders work on dictionary
            # codes, not decoded object arrays
            self.encoder_ = clone(self.encoder).fit(
                [frame.col(c) for c in self.categorical], y=y
            )
        return self

    def transform(self, frame: DataFrame) -> np.ndarray:
        blocks: List[np.ndarray] = []
        if self.numeric:
            blocks.append(self.scaler_.transform(self._numeric_matrix(frame)))
        if self.categorical:
            blocks.append(
                self.encoder_.transform([frame.col(c) for c in self.categorical])
            )
        return np.hstack(blocks) if blocks else np.zeros((frame.num_rows, 0))

    def _numeric_matrix(self, frame: DataFrame) -> np.ndarray:
        matrix = frame.to_matrix(self.numeric)
        if np.isnan(matrix).any():
            raise ValueError(
                "missing numeric values reached featurization; run a "
                "missing-value handler first"
            )
        return matrix

    def to_state(self) -> dict:
        if (self.numeric and not hasattr(self, "scaler_")) or (
            self.categorical and not hasattr(self, "encoder_")
        ):
            raise NotFittedError(
                f"{type(self).__name__} must be fit before serialization"
            )
        return {
            "numeric": list(self.numeric),
            "categorical": list(self.categorical),
            "scaler_": state_of(self.scaler_) if self.numeric else None,
            "encoder_": state_of(self.encoder_) if self.categorical else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ColumnEncoder":
        columns = cls(state["numeric"], state["categorical"], None, None)
        if state["scaler_"] is not None:
            columns.scaler_ = restore(state["scaler_"])
        if state["encoder_"] is not None:
            columns.encoder_ = restore(state["encoder_"])
        return columns


@serializable
class Featurizer:
    """Fit-once/apply-many conversion of raw frames into model inputs.

    Parameters
    ----------
    spec:
        The dataset spec naming features, label and protected attributes.
    numeric_scaler:
        Any transformer with the fit/transform contract (StandardScaler,
        MinMaxScaler, or NoOpScaler to study the unscaled case).
    protected_attribute:
        Which of the spec's protected attributes drives group annotations
        (defaults to the spec's default).
    """

    def __init__(
        self,
        spec: DatasetSpec,
        numeric_scaler=None,
        protected_attribute: Optional[str] = None,
        categorical_encoder=None,
    ):
        self.spec = spec
        self.numeric_scaler = numeric_scaler if numeric_scaler is not None else NoOpScaler()
        self.protected_attribute = protected_attribute or spec.default_protected
        self.categorical_encoder = categorical_encoder

    # ------------------------------------------------------------------
    def fit(self, train_frame: DataFrame) -> "Featurizer":
        """Fit scaler and encoder statistics on the training frame."""
        template = (
            OneHotEncoder(handle_missing="category")
            if self.categorical_encoder is None
            else self.categorical_encoder
        )
        # target-style encoders consume the training labels; one-hot and
        # frequency encoders ignore them
        self.columns_ = ColumnEncoder(
            self.spec.numeric_features,
            self.spec.categorical_features,
            self.numeric_scaler,
            template,
        ).fit(train_frame, y=self.spec.label_binary(train_frame))
        self.feature_names_ = self._build_feature_names()
        return self

    def feature_matrix(self, frame: DataFrame) -> np.ndarray:
        """The scaled/encoded feature matrix of a frame (no annotations)."""
        if not hasattr(self, "feature_names_"):
            raise RuntimeError("Featurizer must be fit before transform")
        return self.columns_.transform(frame)

    def transform(
        self, frame: DataFrame, require_label: bool = True
    ) -> BinaryLabelDataset:
        """Convert any split into an annotated BinaryLabelDataset.

        With ``require_label=False`` (the serving path), frames without the
        label column are annotated with all-unfavorable placeholder labels —
        predictions overwrite them and no metric ever reads them.
        """
        features = self.feature_matrix(frame)
        protected = self.spec.protected(self.protected_attribute).binary_column(frame)
        if require_label or self.spec.label_column in frame:
            labels = self.spec.label_binary(frame)
        else:
            labels = np.zeros(frame.num_rows, dtype=np.float64)
        return BinaryLabelDataset(
            features=features,
            labels=labels,
            protected_attributes=protected,
            protected_attribute_names=[self.protected_attribute],
            feature_names=self.feature_names_,
        )

    def fit_transform(self, train_frame: DataFrame) -> BinaryLabelDataset:
        return self.fit(train_frame).transform(train_frame)

    # ------------------------------------------------------------------
    def _build_feature_names(self) -> List[str]:
        columns = self.columns_
        names = list(columns.numeric)
        if columns.categorical:
            names.extend(columns.encoder_.feature_names(columns.categorical))
        return names

    @property
    def privileged_groups(self):
        return [{self.protected_attribute: 1.0}]

    @property
    def unprivileged_groups(self):
        return [{self.protected_attribute: 0.0}]

    # ------------------------------------------------------------------
    # serialization (fitted state only; the spec travels as plain JSON)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        if not hasattr(self, "feature_names_"):
            raise RuntimeError("Featurizer must be fit before serialization")
        return {
            "spec": self.spec.to_dict(),
            "protected_attribute": self.protected_attribute,
            **self.columns_.to_state(),
            "feature_names_": list(self.feature_names_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Featurizer":
        featurizer = cls(
            DatasetSpec.from_dict(state["spec"]),
            protected_attribute=state["protected_attribute"],
        )
        featurizer.columns_ = ColumnEncoder.from_state(state)
        featurizer.feature_names_ = list(state["feature_names_"])
        return featurizer
