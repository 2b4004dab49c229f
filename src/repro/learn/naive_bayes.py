"""Gaussian naive Bayes — an additional weighted baseline classifier."""

from __future__ import annotations

import numpy as np

from ..serialize import FLOATS, LABELS, field, params, serializable
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
)


@serializable(
    params(),
    field("classes_", LABELS),
    field("theta_", FLOATS),
    field("var_", FLOATS),
    field("class_prior_", FLOATS),
)
class GaussianNB(BaseEstimator, ClassifierMixin):
    """Naive Bayes with per-class Gaussian feature likelihoods.

    Supports sample weights, so it composes with the reweighing intervention
    like any other FairPrep learner.
    """

    def __init__(self, var_smoothing: float = 1e-9):
        self.var_smoothing = var_smoothing

    def fit(self, X, y, sample_weight=None) -> "GaussianNB":
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes to fit a classifier")
        n_classes = len(self.classes_)
        n_features = X.shape[1]
        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.class_prior_ = np.zeros(n_classes)
        global_variance = X.var(axis=0).max()
        epsilon = self.var_smoothing * max(global_variance, 1e-12)
        total_weight = sample_weight.sum()
        for k, klass in enumerate(self.classes_):
            mask = y == klass
            w = sample_weight[mask]
            xk = X[mask]
            wsum = w.sum()
            if wsum == 0:
                raise ValueError(f"class {klass!r} has zero total sample weight")
            mean = np.average(xk, axis=0, weights=w)
            variance = np.average((xk - mean) ** 2, axis=0, weights=w)
            self.theta_[k] = mean
            self.var_[k] = variance + epsilon
            self.class_prior_[k] = wsum / total_weight
        return self

    def _joint_log_likelihood(self, X) -> np.ndarray:
        self._check_fitted("theta_", "var_", "class_prior_")
        X = check_matrix(X)
        if X.shape[1] != self.theta_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self.theta_.shape[1]}"
            )
        jll = np.empty((X.shape[0], len(self.classes_)))
        for k in range(len(self.classes_)):
            diff = X - self.theta_[k]
            log_like = -0.5 * (
                np.log(2.0 * np.pi * self.var_[k]) + diff**2 / self.var_[k]
            ).sum(axis=1)
            jll[:, k] = np.log(self.class_prior_[k] + 1e-300) + log_like
        return jll

    def predict_proba(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        proba = np.exp(jll)
        return proba / proba.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(jll, axis=1)]
