"""Alternative categorical encoders (the paper's §7 "embeddings" extension).

All encoders share the :class:`~repro.learn.preprocessing.OneHotEncoder`
interface — ``fit`` on a list of per-feature object arrays from the
*training* split, ``transform`` on any split — so the lifecycle's
featurizer can swap them in without changes:

* :class:`FrequencyEncoder` — each category becomes its training-split
  relative frequency (one dimension per feature);
* :class:`TargetEncoder` — each category becomes the smoothed training
  mean of the binary label (needs ``y`` at fit; leak-free by construction
  because statistics come from the training split only);
* :class:`SVDEmbeddingEncoder` — dense low-rank embedding of the one-hot
  matrix via truncated SVD fit on the training split.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..frame.column import sorted_position
from ..serialize import FLOAT, FLOATS, TABLE, each, field, nested, params, serializable
from .base import BaseEstimator, TransformerMixin
from .preprocessing import MISSING_CATEGORY, OneHotEncoder, _as_categorical_columns


def _key_counts(column, weights=None) -> tuple:
    """Per-key tallies over a coded column, missing bucketed as ``<missing>``.

    Returns ``(keys, totals, counts)``: one ``np.bincount`` over the shifted
    codes (slot 0 = missing) per tally, with zero-occurrence keys dropped to
    preserve the observed-keys-only dict shape. Without ``weights``,
    ``totals`` *are* the occurrence counts. A category that is literally the
    string ``<missing>`` folds into the missing bucket, matching the
    stringify-then-count semantics of the object-array implementation.
    """
    shifted = column.codes + 1
    minlength = len(column.categories) + 1
    counts = np.bincount(shifted, minlength=minlength)
    totals = (
        np.bincount(shifted, weights=weights, minlength=minlength)
        if weights is not None
        else counts
    )
    literal = sorted_position(column.categories, MISSING_CATEGORY)
    if literal >= 0:
        counts = counts.copy()
        counts[0] += counts[literal + 1]
        counts[literal + 1] = 0
        if weights is not None:
            totals = totals.copy()
            totals[0] += totals[literal + 1]
            totals[literal + 1] = 0
        else:
            totals = counts
    keys = np.concatenate(([MISSING_CATEGORY], column.categories))
    present = counts > 0
    return keys[present], totals[present], counts[present]


def _code_lookup(column, table: dict, default: float) -> np.ndarray:
    """Map a coded column through ``{key: value}`` in one fancy index.

    The lookup table has one slot per category plus a trailing slot for
    missing, so indexing with the raw codes (missing = ``-1``) resolves
    every row without touching individual values.
    """
    lut = np.empty(len(column.categories) + 1, dtype=np.float64)
    for i, category in enumerate(column.categories):
        lut[i] = table.get(category, default)
    lut[-1] = table.get(MISSING_CATEGORY, default)
    return lut[column.codes]


@serializable(field("frequencies_", each(TABLE)))
class FrequencyEncoder(BaseEstimator, TransformerMixin):
    """Encode each categorical value by its training-set frequency."""

    def fit(self, X, y=None) -> "FrequencyEncoder":
        columns = _as_categorical_columns(X)
        self.frequencies_: List[dict] = []
        for column in columns:
            keys, counts, _ = _key_counts(column)
            total = len(column)
            self.frequencies_.append(
                {key: count / total for key, count in zip(keys, counts)}
            )
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("frequencies_")
        columns = _as_categorical_columns(X)
        if len(columns) != len(self.frequencies_):
            raise ValueError(
                f"X has {len(columns)} features, encoder was fit on "
                f"{len(self.frequencies_)}"
            )
        blocks = []
        for column, table in zip(columns, self.frequencies_):
            # unseen categories read as frequency 0 (they were never observed)
            blocks.append(_code_lookup(column, table, 0.0).reshape(-1, 1))
        return np.hstack(blocks)

    def feature_names(self, input_names: Optional[Sequence[str]] = None) -> List[str]:
        self._check_fitted("frequencies_")
        if input_names is None:
            input_names = [f"x{i}" for i in range(len(self.frequencies_))]
        return [f"{name}:frequency" for name in input_names]


@serializable(params(), field("global_rate_", FLOAT), field("tables_", each(TABLE)))
class TargetEncoder(BaseEstimator, TransformerMixin):
    """Encode each category by the smoothed training mean of a binary target.

    ``smoothing`` pseudo-counts pull rare categories toward the global
    rate, the standard remedy against overfitting high-cardinality columns.
    """

    def __init__(self, smoothing: float = 10.0):
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.smoothing = smoothing

    def fit(self, X, y=None) -> "TargetEncoder":
        if y is None:
            raise ValueError("TargetEncoder requires the training labels at fit")
        y = np.asarray(y, dtype=np.float64).ravel()
        columns = _as_categorical_columns(X)
        for column in columns:
            if len(column) != len(y):
                raise ValueError("label length does not match feature rows")
        self.global_rate_ = float(y.mean())
        self.tables_: List[dict] = []
        for column in columns:
            keys, sums, counts = _key_counts(column, weights=y)
            table = {
                key: (label_sum + self.smoothing * self.global_rate_)
                / (count + self.smoothing)
                for key, label_sum, count in zip(keys, sums, counts)
            }
            self.tables_.append(table)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("tables_")
        columns = _as_categorical_columns(X)
        if len(columns) != len(self.tables_):
            raise ValueError(
                f"X has {len(columns)} features, encoder was fit on {len(self.tables_)}"
            )
        blocks = []
        for column, table in zip(columns, self.tables_):
            blocks.append(
                _code_lookup(column, table, self.global_rate_).reshape(-1, 1)
            )
        return np.hstack(blocks)

    def feature_names(self, input_names: Optional[Sequence[str]] = None) -> List[str]:
        self._check_fitted("tables_")
        if input_names is None:
            input_names = [f"x{i}" for i in range(len(self.tables_))]
        return [f"{name}:target_rate" for name in input_names]


@serializable(
    params(),
    field("onehot", nested(OneHotEncoder), attr="_onehot"),
    field("mean_", FLOATS),
    field("components_", FLOATS),
    field("singular_values_", FLOATS),
)
class SVDEmbeddingEncoder(BaseEstimator, TransformerMixin):
    """Low-rank dense embedding of the one-hot representation.

    Fits a one-hot encoding on the training split, centers it, and keeps
    the top ``n_components`` right singular vectors; transform projects any
    split into that space. This is the simplest "embedding of the input
    data" the paper's future-work section sketches.
    """

    def __init__(self, n_components: int = 8):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components

    def fit(self, X, y=None) -> "SVDEmbeddingEncoder":
        self._onehot = OneHotEncoder().fit(X)
        encoded = self._onehot.transform(X)
        self.mean_ = encoded.mean(axis=0)
        centered = encoded - self.mean_
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        k = min(self.n_components, vt.shape[0])
        self.components_ = vt[:k]
        self.singular_values_ = singular_values[:k]
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("components_")
        encoded = self._onehot.transform(X)
        return (encoded - self.mean_) @ self.components_.T

    def feature_names(self, input_names: Optional[Sequence[str]] = None) -> List[str]:
        self._check_fitted("components_")
        return [f"embedding_{i}" for i in range(self.components_.shape[0])]
