"""Estimator contract for :mod:`repro.learn` (the scikit-learn replacement).

Estimators follow the scikit-learn conventions the FairPrep lifecycle relies
on:

* constructor arguments are hyperparameters, stored verbatim on ``self``;
* :meth:`BaseEstimator.get_params` / :meth:`BaseEstimator.set_params`
  expose them for grid search;
* :func:`clone` builds an unfitted copy with identical hyperparameters;
* fitted state lives in attributes with a trailing underscore.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..serialize import NotFittedError, init_params


class BaseEstimator:
    """Hyperparameter introspection shared by all estimators."""

    def get_params(self) -> Dict[str, Any]:
        """Hyperparameters as a dict, mirroring the constructor signature."""
        return {name: getattr(self, name) for name in init_params(type(self))}

    def set_params(self, **params) -> "BaseEstimator":
        """Set hyperparameters in place; unknown names raise."""
        valid = init_params(type(self))
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"

    def fit_candidates(self, candidates, X, y, sample_weight=None) -> list:
        """One fitted clone per parameter dict, in order.

        Grid search makes one call per fold chunk. This default fits each
        candidate on its own (``sample_weight`` is passed only when given);
        estimators override it to share work across the candidates.
        """
        fit_kwargs = {} if sample_weight is None else {"sample_weight": sample_weight}
        models = [clone(self).set_params(**params) for params in candidates]
        for model in models:
            model.fit(X, y, **fit_kwargs)
        return models

    def _check_fitted(self, *attributes: str) -> None:
        for attribute in attributes:
            if not hasattr(self, attribute):
                raise NotFittedError(
                    f"{type(self).__name__} is not fitted yet; call fit() first"
                )


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Unfitted copy with the same hyperparameters (deep for nested estimators).

    Composite estimators (e.g. Pipeline) define ``_clone`` to control how
    their children are copied.
    """
    custom = getattr(estimator, "_clone", None)
    if callable(custom):
        return custom()
    params = {}
    for name, value in estimator.get_params().items():
        if isinstance(value, BaseEstimator):
            params[name] = clone(value)
        else:
            params[name] = value
    return type(estimator)(**params)


class ClassifierMixin:
    """Adds ``score`` (accuracy) to classifiers."""

    def score(self, X, y, sample_weight=None) -> float:
        predictions = self.predict(X)
        y = np.asarray(y)
        correct = (predictions == y).astype(np.float64)
        if sample_weight is None:
            return float(correct.mean())
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        return float(np.average(correct, weights=sample_weight))


class TransformerMixin:
    """Adds ``fit_transform`` to transformers."""

    def fit_transform(self, X, y=None, **fit_params):
        return self.fit(X, y, **fit_params).transform(X)


def check_matrix(X, name: str = "X") -> np.ndarray:
    """Validate and convert a feature matrix to a 2-D float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError(f"{name} has no rows")
    if np.isnan(X).any():
        raise ValueError(
            f"{name} contains NaN; impute missing values before model fitting"
        )
    if np.isinf(X).any():
        raise ValueError(f"{name} contains infinite values")
    return X


def check_labels(y, n_rows: int) -> np.ndarray:
    """Validate a label vector against the matrix row count."""
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if len(y) != n_rows:
        raise ValueError(f"y has {len(y)} entries but X has {n_rows} rows")
    return y


def check_sample_weight(sample_weight, n_rows: int) -> np.ndarray:
    """Validate or default (to ones) a sample-weight vector."""
    if sample_weight is None:
        return np.ones(n_rows, dtype=np.float64)
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    if sample_weight.shape != (n_rows,):
        raise ValueError(
            f"sample_weight shape {sample_weight.shape} does not match {n_rows} rows"
        )
    if not np.isfinite(sample_weight).all():
        raise ValueError("sample_weight entries must be finite")
    if (sample_weight < 0).any():
        raise ValueError("sample_weight entries must be non-negative")
    if sample_weight.sum() == 0:
        raise ValueError("sample_weight sums to zero")
    return sample_weight
