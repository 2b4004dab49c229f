"""Brute-force k-nearest-neighbours classifier.

Besides serving as an extra baseline, the fairness substrate uses nearest
neighbours for the *consistency* individual-fairness metric (Zemel et al.),
which AIF360 also exposes.
"""

from __future__ import annotations

import numpy as np

from ..serialize import labels_from_state, labels_to_state, serializable
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
)


def nearest_neighbor_indices(
    X_train: np.ndarray,
    X_query: np.ndarray,
    n_neighbors: int,
    train_sq: np.ndarray = None,
) -> np.ndarray:
    """Indices (into ``X_train``) of each query row's nearest neighbours.

    Euclidean distance, computed blockwise to bound memory. Callers that
    query the same training matrix repeatedly (e.g. per-target imputation)
    can pass ``train_sq = (X_train**2).sum(axis=1)`` to skip recomputing the
    training-row norms on every call.
    """
    X_train = check_matrix(X_train, "X_train")
    X_query = check_matrix(X_query, "X_query")
    if X_train.shape[1] != X_query.shape[1]:
        raise ValueError("train and query dimensionality differ")
    k = min(n_neighbors, X_train.shape[0])
    out = np.empty((X_query.shape[0], k), dtype=np.int64)
    block = 512
    # squares of magnitudes past ~1e154 overflow: such query rows are redone
    with np.errstate(over="ignore", invalid="ignore"):
        if train_sq is None:
            train_sq = (X_train**2).sum(axis=1)
        for start in range(0, X_query.shape[0], block):
            q = X_query[start : start + block]
            distances = (q**2).sum(axis=1)[:, None] - 2.0 * q @ X_train.T + train_sq
            overflowed = ~np.isfinite(distances).all(axis=1)
            if overflowed.any():
                distances[overflowed] = _rescaled_distances(q[overflowed], X_train)
            part = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
            # order the k candidates by actual distance for deterministic output
            rows = np.arange(part.shape[0])[:, None]
            order = np.argsort(distances[rows, part], axis=1, kind="mergesort")
            out[start : start + block] = part[rows, order]
    return out


def _rescaled_distances(q: np.ndarray, X_train: np.ndarray) -> np.ndarray:
    """|q|² − 2q·x + |x|² for query rows whose distances overflow, each row
    computed with it and ``X_train`` scaled by ``2**-e``, ``e`` the exponent
    of the row's own largest magnitude (rows under 1 are not scaled). A
    power of two changes no significand, so a distance that stays in range
    is the unscaled formula times ``4**-e``: the row's terms no longer
    overflow, and a training value pushed below the subnormal range is one
    whose place in the distance already lay under the rounding of |q|².
    Training rows whose scaled terms still overflow are farther than every
    other row; they read inf."""
    exponents = np.maximum(np.frexp(np.abs(q).max(axis=1))[1], 0)
    distances = np.empty((q.shape[0], X_train.shape[0]))
    for e in np.unique(exponents):
        rows = exponents == e
        qs, xs = np.ldexp(q[rows], -e), np.ldexp(X_train, -e)
        distances[rows] = (
            (qs**2).sum(axis=1)[:, None] - 2.0 * qs @ xs.T + (xs**2).sum(axis=1)
        )
    distances[~np.isfinite(distances)] = np.inf
    return distances


@serializable
class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Majority-vote classification over the k nearest training points."""

    def __init__(self, n_neighbors: int = 5):
        self.n_neighbors = n_neighbors

    def fit(self, X, y, sample_weight=None) -> "KNeighborsClassifier":
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        self.classes_, self._y_codes = np.unique(y, return_inverse=True)
        self._X = X
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("_X")
        neighbors = nearest_neighbor_indices(self._X, X, self.n_neighbors)
        votes = self._y_codes[neighbors]
        proba = np.zeros((votes.shape[0], len(self.classes_)))
        for k in range(len(self.classes_)):
            proba[:, k] = (votes == k).mean(axis=1)
        return proba

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def to_state(self) -> dict:
        self._check_fitted("_X")
        return {
            "params": {"n_neighbors": self.n_neighbors},
            "classes_": labels_to_state(self.classes_),
            "X": self._X,
            "y_codes": self._y_codes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "KNeighborsClassifier":
        model = cls(**state["params"])
        model.classes_ = labels_from_state(state["classes_"])
        model._X = np.asarray(state["X"], dtype=np.float64)
        model._y_codes = np.asarray(state["y_codes"], dtype=np.int64)
        return model
