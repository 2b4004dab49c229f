"""Feature transformations: scalers, one-hot and label encoding.

The scalers implement the paper's three numeric-feature treatments: keep the
original scale (:class:`NoOpScaler`, "which might be dangerous"),
standardisation (:class:`StandardScaler`) and min-max scaling
(:class:`MinMaxScaler`). All of them follow the fit/transform contract so
that aggregate statistics are computed on training data only — the core
isolation requirement of Section 2.1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..frame.column import Column, remap_table, sorted_position
from ..serialize import FLOATS, INT, STRS, each, field, params, serializable
from .base import BaseEstimator, TransformerMixin, check_matrix

MISSING_CATEGORY = "<missing>"
UNSEEN_CATEGORY = "<unseen>"


@serializable(params(), field("mean_", FLOATS), field("scale_", FLOATS))
class StandardScaler(BaseEstimator, TransformerMixin):
    """Standardize features to zero mean and unit variance.

    Constant features are left centered but not divided (scale of 1), the
    scikit-learn behaviour.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_matrix(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            # treat numerically-constant columns as constant: dividing by a
            # float-noise std would amplify rounding error into garbage
            tiny = scale <= 1e-12 * np.maximum(1.0, np.abs(X).max(axis=0))
            scale[tiny] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("mean_", "scale_")
        X = check_matrix(X)
        self._check_width(X)
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        self._check_fitted("mean_", "scale_")
        X = check_matrix(X)
        self._check_width(X)
        return X * self.scale_ + self.mean_

    def _check_width(self, X) -> None:
        if X.shape[1] != len(self.mean_):
            raise ValueError(
                f"X has {X.shape[1]} features, scaler was fit on {len(self.mean_)}"
            )


@serializable(
    params(),
    field("data_min_", FLOATS),
    field("data_max_", FLOATS),
    field("scale_", FLOATS),
    field("min_", FLOATS),
)
class MinMaxScaler(BaseEstimator, TransformerMixin):
    """Scale features into ``feature_range`` based on the training min/max."""

    def __init__(self, feature_range: tuple = (0.0, 1.0)):
        self.feature_range = feature_range

    def fit(self, X, y=None) -> "MinMaxScaler":
        low, high = self.feature_range
        if low >= high:
            raise ValueError(f"invalid feature_range {self.feature_range}")
        X = check_matrix(X)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        span = self.data_max_ - self.data_min_
        tiny = span <= 1e-12 * np.maximum(1.0, np.abs(X).max(axis=0))
        span[tiny] = 1.0
        self.scale_ = (high - low) / span
        self.min_ = low - self.data_min_ * self.scale_
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("scale_", "min_")
        X = check_matrix(X)
        if X.shape[1] != len(self.scale_):
            raise ValueError(
                f"X has {X.shape[1]} features, scaler was fit on {len(self.scale_)}"
            )
        return X * self.scale_ + self.min_

    def inverse_transform(self, X) -> np.ndarray:
        self._check_fitted("scale_", "min_")
        X = check_matrix(X)
        return (X - self.min_) / self.scale_


@serializable(field("n_features_", INT))
class NoOpScaler(BaseEstimator, TransformerMixin):
    """Keep numeric features on their original scale.

    Exists so that the Figure 3 study ("what happens without scaling") is an
    explicit, selectable component rather than an accidental omission.
    """

    def fit(self, X, y=None) -> "NoOpScaler":
        X = check_matrix(X)
        self.n_features_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("n_features_")
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, scaler was fit on {self.n_features_}"
            )
        return X.copy()

    def inverse_transform(self, X) -> np.ndarray:
        self._check_fitted("n_features_")
        return check_matrix(X).copy()


@serializable(params(), field("categories_", each(STRS)))
class OneHotEncoder(BaseEstimator, TransformerMixin):
    """One-hot encode categorical feature columns.

    Categories are learned on the training data only. Following the paper's
    dataset abstraction ("adding feature dimensions for unseen categorical
    values"), every feature reserves one extra dimension that captures values
    never observed during fit, so transform never fails on new data and the
    output width is stable across splits.

    Parameters
    ----------
    handle_missing:
        ``"category"`` (default) encodes missing entries (None) as their own
        ``<missing>`` category; ``"error"`` raises instead.
    """

    def __init__(self, handle_missing: str = "category"):
        if handle_missing not in ("category", "error"):
            raise ValueError("handle_missing must be 'category' or 'error'")
        self.handle_missing = handle_missing

    def fit(self, X, y=None) -> "OneHotEncoder":
        columns = _as_categorical_columns(X)
        self.categories_: List[List[str]] = []
        for column in columns:
            codes = column.codes
            used = np.unique(codes)
            has_missing = used.size > 0 and used[0] == -1
            if has_missing and self.handle_missing == "error":
                raise ValueError(
                    "missing value encountered during one-hot encoding; "
                    "impute first or use handle_missing='category'"
                )
            categories = list(column.categories[used[used >= 0]])
            if has_missing and MISSING_CATEGORY not in categories:
                # a literal "<missing>" category already covers the bucket
                categories.append(MISSING_CATEGORY)
            self.categories_.append(sorted(categories))
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("categories_")
        columns = _as_categorical_columns(X)
        if len(columns) != len(self.categories_):
            raise ValueError(
                f"X has {len(columns)} features, encoder was fit on "
                f"{len(self.categories_)}"
            )
        blocks = []
        for column, categories in zip(columns, self.categories_):
            codes = column.codes
            if self.handle_missing == "error" and (codes < 0).any():
                raise ValueError(
                    "missing value encountered during one-hot encoding; "
                    "impute first or use handle_missing='category'"
                )
            width = len(categories) + 1  # final slot: unseen values
            # remap the column's codes onto the fitted category order; the
            # lookup table's last entry routes missing (-1) to its category
            # (or to the unseen slot when fit never saw a missing value)
            fitted = np.asarray(categories, dtype=object)
            lut = remap_table(column.categories, fitted, default=width - 1)
            missing_slot = sorted_position(fitted, MISSING_CATEGORY)
            lut[-1] = missing_slot if missing_slot >= 0 else width - 1
            target = lut[codes]
            block = np.zeros((len(codes), width), dtype=np.float64)
            block[np.arange(len(codes)), target] = 1.0
            blocks.append(block)
        if not blocks:
            return np.empty((0, 0))
        return np.hstack(blocks)

    def feature_names(self, input_names: Optional[Sequence[str]] = None) -> List[str]:
        """Names of the output dimensions, for metric reporting."""
        self._check_fitted("categories_")
        if input_names is None:
            input_names = [f"x{i}" for i in range(len(self.categories_))]
        if len(input_names) != len(self.categories_):
            raise ValueError("input_names length mismatch")
        names = []
        for feature, categories in zip(input_names, self.categories_):
            names.extend(f"{feature}={c}" for c in categories)
            names.append(f"{feature}={UNSEEN_CATEGORY}")
        return names


@serializable
class LabelEncoder(BaseEstimator):
    """Map class labels to integers 0..k-1 (sorted lexicographically)."""

    def fit(self, y) -> "LabelEncoder":
        values = _as_label_strings(y)
        self._classes = np.unique(values)
        self.classes_ = self._classes.tolist()
        self._index = {c: i for i, c in enumerate(self.classes_)}
        return self

    def transform(self, y) -> np.ndarray:
        self._check_fitted("classes_")
        values = _as_label_strings(y)
        positions = np.searchsorted(self._classes, values)
        clipped = np.minimum(positions, len(self._classes) - 1)
        known = self._classes[clipped] == values
        if not known.all():
            unknown = sorted(set(values[~known].tolist()))
            raise ValueError(f"unseen labels at transform time: {unknown}")
        return positions.astype(np.int64)

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)

    def inverse_transform(self, codes) -> np.ndarray:
        self._check_fitted("classes_")
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.classes_)):
            raise ValueError("codes outside the fitted label range")
        return self._classes.astype(object)[codes]

    def to_state(self) -> dict:
        self._check_fitted("classes_")
        return {"classes_": [str(c) for c in self.classes_]}

    @classmethod
    def from_state(cls, state: dict) -> "LabelEncoder":
        encoder = cls()
        encoder._classes = np.asarray(state["classes_"], dtype=str)
        encoder.classes_ = encoder._classes.tolist()
        encoder._index = {c: i for i, c in enumerate(encoder.classes_)}
        return encoder


def _as_label_strings(y) -> np.ndarray:
    """Normalize labels to a string array (one C-level str() pass)."""
    if isinstance(y, Column):
        y = y.values
    arr = np.asarray(y)
    if arr.dtype.kind in "US":
        return arr
    return np.asarray(arr, dtype=object).astype(str)


def _as_object_columns(X) -> List[np.ndarray]:
    """Normalize input to a list of per-feature object arrays."""
    if isinstance(X, (list, tuple)) and X and isinstance(X[0], np.ndarray):
        return [np.asarray(col, dtype=object) for col in X]
    X = np.asarray(X, dtype=object)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D categorical input, got shape {X.shape}")
    return [X[:, j] for j in range(X.shape[1])]


def _as_categorical_columns(X) -> List[Column]:
    """Normalize encoder input to a list of dictionary-encoded columns.

    :class:`~repro.frame.Column` inputs (the featurizer's fast path) pass
    through untouched — their codes are used directly. Raw object arrays /
    2-D matrices are dictionary-encoded on the way in, so every encoder
    operates on codes regardless of how it was called.
    """
    if isinstance(X, Column):
        return [_ensure_categorical(X)]
    if isinstance(X, (list, tuple)) and X and all(isinstance(c, Column) for c in X):
        return [_ensure_categorical(c) for c in X]
    return [
        Column.categorical(f"x{j}", values)
        for j, values in enumerate(_as_object_columns(X))
    ]


def _ensure_categorical(column: Column) -> Column:
    """Dictionary-encode a numeric column on the way into an encoder.

    Mirrors the object-array era, where a numeric column handed to a
    categorical encoder was stringified per value ('0.0', '1.0', ...) and
    NaN became the missing bucket.
    """
    if column.is_categorical:
        return column
    return Column.categorical(column.name, column.values)
