"""Matrix-level imputation (mean / median / most-frequent).

This is the scikit-learn-style primitive; the lifecycle-level
missing-value handlers (complete-case, mode, learned imputation on raw
frames) live in :mod:`repro.core.missing_values` and operate *before*
featurization, as the paper's data lifecycle prescribes.
"""

from __future__ import annotations

import numpy as np

from ..serialize import FLOATS, field, params, serializable
from .base import BaseEstimator, TransformerMixin

_STRATEGIES = ("mean", "median", "most_frequent", "constant")


@serializable(params(), field("statistics_", FLOATS))
class SimpleImputer(BaseEstimator, TransformerMixin):
    """Fill NaNs in a numeric matrix with a per-column statistic.

    Statistics are computed during :meth:`fit` (training data only) and then
    applied to any split, matching the isolation requirement.
    """

    def __init__(self, strategy: str = "mean", fill_value: float = 0.0):
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        self.strategy = strategy
        self.fill_value = fill_value

    def fit(self, X, y=None) -> "SimpleImputer":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("SimpleImputer expects a 2-D matrix")
        statistics = np.empty(X.shape[1])
        for j in range(X.shape[1]):
            column = X[:, j]
            present = column[~np.isnan(column)]
            if self.strategy == "constant":
                statistics[j] = self.fill_value
            elif present.size == 0:
                statistics[j] = self.fill_value
            elif self.strategy == "mean":
                statistics[j] = present.mean()
            elif self.strategy == "median":
                statistics[j] = float(np.median(present))
            else:  # most_frequent
                values, counts = np.unique(present, return_counts=True)
                statistics[j] = values[np.argmax(counts)]
        self.statistics_ = statistics
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("statistics_")
        X = np.asarray(X, dtype=np.float64).copy()
        if X.ndim != 2 or X.shape[1] != len(self.statistics_):
            raise ValueError(
                f"X shape {X.shape} incompatible with {len(self.statistics_)} fitted columns"
            )
        for j in range(X.shape[1]):
            mask = np.isnan(X[:, j])
            X[mask, j] = self.statistics_[j]
        return X
