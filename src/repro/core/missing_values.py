"""Missing-value handlers: the paper's second lifecycle stage.

Three strategies, matching Section 4:

* :class:`CompleteCaseAnalysis` — drop incomplete records (the default in
  the studies the paper critiques);
* :class:`ModeImputer` — fill the most frequent value / column mean,
  statistics learned on the training split only;
* :class:`LearnedImputer` — the Datawig substitute: one model per target
  column, trained on the remaining feature columns of the training split
  (classification for categorical targets, k-NN mean for numeric targets).
  The alias :class:`DatawigImputer` preserves the paper's component name.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..frame import DataFrame
from ..learn import (
    DecisionTreeClassifier,
    OneHotEncoder,
    StandardScaler,
    nearest_neighbor_indices,
)
from ..serialize import STRS, TABLE, field, serializable
from .components import MissingValueHandler
from .featurization import ColumnEncoder

_FEATURE_COLUMNS = field("feature_columns", STRS, attr="_feature_columns")


@serializable(_FEATURE_COLUMNS)
class CompleteCaseAnalysis(MissingValueHandler):
    """Remove records that have missing values in any feature column."""

    def fit(self, train_frame: DataFrame, feature_columns, seed: int):
        self._feature_columns = list(feature_columns)
        return self

    def handle_missing(self, frame: DataFrame) -> DataFrame:
        # keep handle_missing and kept_mask on one decision so row masks
        # derived from kept_mask always align with the handled frame
        return frame.mask(self.kept_mask(frame))

    def kept_mask(self, frame: DataFrame) -> np.ndarray:
        return ~frame.missing_mask(self._feature_columns)

    @property
    def drops_rows(self) -> bool:
        return True


@serializable(_FEATURE_COLUMNS)
class NoMissingValues(MissingValueHandler):
    """For complete datasets: assert and pass through.

    Fails loudly if missing values show up, so a complete-data assumption
    can never silently corrupt an experiment.
    """

    def fit(self, train_frame: DataFrame, feature_columns, seed: int):
        self._feature_columns = list(feature_columns)
        return self

    def handle_missing(self, frame: DataFrame) -> DataFrame:
        mask = frame.missing_mask(self._feature_columns)
        if mask.any():
            raise ValueError(
                f"{int(mask.sum())} records have missing values but the "
                "experiment is configured with NoMissingValues"
            )
        return frame


@serializable(_FEATURE_COLUMNS, field("fill_values", TABLE, attr="_fill_values"))
class ModeImputer(MissingValueHandler):
    """Fill missing categoricals with the training mode, numerics with the mean."""

    def fit(self, train_frame: DataFrame, feature_columns, seed: int):
        self._feature_columns = list(feature_columns)
        self._fill_values: Dict[str, object] = {}
        for name in self._feature_columns:
            column = train_frame.col(name)
            if column.is_categorical:
                mode = column.mode()
                self._fill_values[name] = mode if mode is not None else "missing"
            else:
                mean = column.mean()
                self._fill_values[name] = 0.0 if np.isnan(mean) else mean
        return self

    def handle_missing(self, frame: DataFrame) -> DataFrame:
        out = frame
        for name in self._feature_columns:
            column = out.col(name)
            if column.has_missing():
                out = out.with_column(column.fill_missing(self._fill_values[name]))
        return out


@serializable
class LearnedImputer(MissingValueHandler):
    """Model-based per-column imputation (the Datawig substitute).

    For each target column with missing values in the training data (or
    listed in ``target_columns``), a model is learned from the *other*
    feature columns — never the class label — on the training rows where
    the target is observed:

    * categorical targets: a decision-tree classifier;
    * numeric targets: the mean of the ``n_neighbors`` nearest training
      rows in the encoded feature space.

    Predictor columns are completed with mode/mean statistics (learned on
    the training split) before encoding, so chained missingness cannot leak
    information across splits.
    """

    def __init__(
        self,
        target_columns: Optional[Sequence[str]] = None,
        max_depth: int = 8,
        n_neighbors: int = 15,
    ):
        self.target_columns = None if target_columns is None else list(target_columns)
        self.max_depth = max_depth
        self.n_neighbors = n_neighbors

    # ------------------------------------------------------------------
    def fit(self, train_frame: DataFrame, feature_columns, seed: int):
        self._feature_columns = list(feature_columns)
        if self.target_columns is None:
            targets = [
                name
                for name in self._feature_columns
                if train_frame.col(name).has_missing()
            ]
        else:
            unknown = [c for c in self.target_columns if c not in self._feature_columns]
            if unknown:
                raise KeyError(f"target columns outside the feature set: {unknown}")
            targets = list(self.target_columns)
        self._targets = targets

        # fallback statistics double as predictor completion
        self._fallback = ModeImputer().fit(train_frame, self._feature_columns, seed)

        self._models: Dict[str, dict] = {}
        # one fitted encoder (and one encoded matrix) is shared across all
        # imputation targets: per-column statistics are independent, so the
        # per-target predictor matrix is just a column slice of the full one
        self._encoder = None
        if targets:
            completed = self._fallback.handle_missing(train_frame)
            self._encoder = _PredictorEncoder(
                [c for c in self._feature_columns if completed.col(c).is_numeric],
                [c for c in self._feature_columns if completed.col(c).is_categorical],
                StandardScaler(),
                OneHotEncoder(),
            ).fit(completed)
            full_matrix = self._encoder.transform(completed)
        for target in targets:
            observed = ~train_frame.col(target).missing_mask()
            if observed.sum() < 5:
                # too few observed values to learn from; fall back to mode/mean
                self._models[target] = {"kind": "fallback"}
                continue
            X = self._encoder.submatrix(full_matrix, exclude=target)[observed]
            target_column = train_frame.col(target)
            if target_column.is_categorical:
                y = np.asarray(
                    [str(v) for v in target_column.values[observed]], dtype=object
                )
                if len(set(y)) < 2:
                    self._models[target] = {"kind": "fallback"}
                    continue
                model = DecisionTreeClassifier(
                    max_depth=self.max_depth,
                    min_samples_leaf=5,
                    random_state=seed,
                ).fit(X, y)
                self._models[target] = {
                    "kind": "classifier",
                    "model": model,
                }
            else:
                y = target_column.values[observed].astype(np.float64)
                self._models[target] = {
                    "kind": "knn",
                    "train_X": X,
                    "train_sq": (X**2).sum(axis=1),
                    "train_y": y,
                }
        return self

    def handle_missing(self, frame: DataFrame) -> DataFrame:
        """The fallback's fill of every feature column, each modelled
        target's missing rows overwritten by predictions. Encoding is
        row-wise, so only rows some modelled target misses are encoded."""
        if not hasattr(self, "_models"):
            raise RuntimeError("LearnedImputer must be fit before handle_missing")
        completed = self._fallback.handle_missing(frame)
        modelled = [t for t in self._targets if self._models[t]["kind"] != "fallback"]
        rows = frame.missing_mask(modelled)
        if not rows.any():
            return completed
        matrix = self._encoder.transform(completed.mask(rows))
        out = completed
        for target in modelled:
            mask = frame.col(target).missing_mask()
            if not mask.any():
                continue
            spec = self._models[target]
            X = self._encoder.submatrix(matrix, exclude=target)[mask[rows]]
            if spec["kind"] == "classifier":
                predictions = spec["model"].predict(X)
            else:
                neighbors = nearest_neighbor_indices(
                    spec["train_X"], X, self.n_neighbors, train_sq=spec["train_sq"]
                )
                predictions = spec["train_y"][neighbors].mean(axis=1)
            out = out.with_column(frame.col(target).set_where(mask, predictions))
        return out

    def name(self) -> str:
        targets = "all" if self.target_columns is None else ",".join(self.target_columns)
        return f"LearnedImputer({targets})"

    def to_state(self) -> dict:
        if not hasattr(self, "_models"):
            raise RuntimeError("LearnedImputer must be fit before serialization")
        models = {}
        for target, spec in self._models.items():
            if spec["kind"] == "fallback":
                models[target] = {"kind": "fallback"}
            elif spec["kind"] == "classifier":
                models[target] = {
                    "kind": "classifier",
                    "model": spec["model"].to_state(),
                }
            else:
                models[target] = {
                    "kind": "knn",
                    "train_X": spec["train_X"],
                    "train_sq": spec["train_sq"],
                    "train_y": spec["train_y"],
                }
        return {
            "params": {
                "target_columns": self.target_columns,
                "max_depth": self.max_depth,
                "n_neighbors": self.n_neighbors,
            },
            "feature_columns": list(self._feature_columns),
            "targets": list(self._targets),
            "fallback": self._fallback.to_state(),
            "encoder": None if self._encoder is None else self._encoder.to_state(),
            "models": models,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LearnedImputer":
        handler = cls(**state["params"])
        handler._feature_columns = list(state["feature_columns"])
        handler._targets = list(state["targets"])
        handler._fallback = ModeImputer.from_state(state["fallback"])
        handler._encoder = (
            None
            if state["encoder"] is None
            else _PredictorEncoder.from_state(state["encoder"])
        )
        handler._models = {}
        for target, spec in state["models"].items():
            if spec["kind"] == "fallback":
                handler._models[target] = {"kind": "fallback"}
            elif spec["kind"] == "classifier":
                handler._models[target] = {
                    "kind": "classifier",
                    "model": DecisionTreeClassifier.from_state(spec["model"]),
                }
            else:
                handler._models[target] = {
                    "kind": "knn",
                    "train_X": np.asarray(spec["train_X"], dtype=np.float64),
                    "train_sq": np.asarray(spec["train_sq"], dtype=np.float64),
                    "train_y": np.asarray(spec["train_y"], dtype=np.float64),
                }
        return handler


@serializable
class DatawigImputer(LearnedImputer):
    """Alias preserving the paper's component name for the learned imputer."""


@serializable
class _PredictorEncoder(ColumnEncoder):
    """The learned imputer's predictor matrix: standardized numerics and
    one-hot categoricals with the unseen-category dimension, fit on the
    completed training split.

    Because both transforms are per-column and row-wise, one encoder fit on
    *all* feature columns serves every imputation target: the matrix a
    target-specific encoder would produce is exactly :meth:`submatrix` of
    the full transform, so the split → encode work happens once per frame
    instead of once per target.
    """

    def submatrix(self, matrix: np.ndarray, exclude: str) -> np.ndarray:
        """The encoded matrix with ``exclude``'s output columns dropped.

        Matches what an encoder fit on the predictor set *minus* ``exclude``
        would transform to — including the all-zeros single column an empty
        predictor set produces.
        """
        names = self.numeric + self.categorical
        if exclude not in names:
            return matrix
        if len(names) == 1:
            return np.zeros((matrix.shape[0], 1))
        widths = [1] * len(self.numeric)
        if self.categorical:
            # + the unseen slot
            widths += [len(c) + 1 for c in self.encoder_.categories_]
        index = names.index(exclude)
        start = sum(widths[:index])
        keep = np.ones(sum(widths), dtype=bool)
        keep[start : start + widths[index]] = False
        return matrix[:, keep]
