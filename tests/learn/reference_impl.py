"""Frozen reference implementations for the presort/vectorization goldens.

These are verbatim copies of the pre-presort (per-node argsort) decision
tree splitter, of the seed's per-candidate binary SGD fit, and of the
per-class / per-target one-vs-rest training loops, kept only so the golden
tests can assert that the optimized backends reproduce the seed behaviour
node-for-node and byte-for-byte. Do not "fix" or optimize
this module — its value is that it does the work the slow way.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learn.base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
)
from repro.learn.linear import SGDClassifier

_CRITERIA = ("gini", "entropy")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "distribution", "n_samples")

    def __init__(self, distribution, n_samples):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.distribution = distribution
        self.n_samples = n_samples

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class ReferenceDecisionTree(BaseEstimator, ClassifierMixin):
    """The seed CART implementation: per-node argsort split search."""

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        random_state: Optional[int] = None,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "ReferenceDecisionTree":
        if self.criterion not in _CRITERIA:
            raise ValueError(
                f"criterion must be one of {_CRITERIA}, got {self.criterion!r}"
            )
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        self.classes_, y_codes = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        onehot = np.zeros((X.shape[0], len(self.classes_)))
        onehot[np.arange(X.shape[0]), y_codes] = sample_weight
        self.tree_ = self._build(X, onehot, np.arange(X.shape[0]), depth=0)
        return self

    def _build(self, X, onehot, indices, depth) -> _Node:
        class_weights = onehot[indices].sum(axis=0)
        node = _Node(distribution=class_weights, n_samples=len(indices))
        if (
            len(indices) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(class_weights) <= 1
        ):
            return node
        split = self._best_split(X, onehot, indices)
        if split is None:
            return node
        feature, threshold, gain = split
        if gain < self.min_impurity_decrease:
            return node
        go_left = X[indices, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, onehot, indices[go_left], depth + 1)
        node.right = self._build(X, onehot, indices[~go_left], depth + 1)
        return node

    def _best_split(self, X, onehot, indices):
        if onehot.shape[1] == 2:
            return self._best_split_binary(X, onehot, indices)
        return self._best_split_general(X, onehot, indices)

    def _best_split_binary(self, X, onehot, indices):
        node = X[indices]
        n, d = node.shape
        weights = onehot[indices].sum(axis=1)
        positives = onehot[indices][:, 1]
        node_weight = weights.sum()
        if node_weight <= 0:
            return None
        node_positive = positives.sum()
        node_impurity = self._impurity_binary(
            np.asarray([node_positive]), np.asarray([node_weight])
        )[0]

        order = np.argsort(node, axis=0, kind="mergesort")
        sorted_values = np.take_along_axis(node, order, axis=0)
        cum_weight = np.cumsum(weights[order], axis=0)
        cum_positive = np.cumsum(positives[order], axis=0)

        candidate = sorted_values[:-1] < sorted_values[1:]
        positions = np.arange(1, n)
        min_leaf = self.min_samples_leaf
        size_ok = (positions >= min_leaf) & (n - positions >= min_leaf)
        candidate &= size_ok[:, None]
        if not candidate.any():
            return None

        left_w = cum_weight[:-1]
        left_p = cum_positive[:-1]
        right_w = node_weight - left_w
        right_p = node_positive - left_p
        valid = candidate & (left_w > 0) & (right_w > 0)
        if not valid.any():
            return None
        left_impurity = self._impurity_binary(left_p, left_w)
        right_impurity = self._impurity_binary(right_p, right_w)
        children = (left_w * left_impurity + right_w * right_impurity) / node_weight
        gains = np.where(valid, node_impurity - children, -np.inf)
        flat = int(np.argmax(gains))
        row, feature = np.unravel_index(flat, gains.shape)
        if not np.isfinite(gains[row, feature]):
            return None
        threshold = 0.5 * (
            sorted_values[row, feature] + sorted_values[row + 1, feature]
        )
        return int(feature), float(threshold), float(gains[row, feature])

    def _impurity_binary(self, positive_weight, total_weight):
        safe = np.where(total_weight > 0, total_weight, 1.0)
        p = positive_weight / safe
        if self.criterion == "gini":
            return 2.0 * p * (1.0 - p)
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy = -(
                np.where(p > 0, p * np.log2(p), 0.0)
                + np.where(p < 1, (1.0 - p) * np.log2(1.0 - p), 0.0)
            )
        return entropy

    def _best_split_general(self, X, onehot, indices):
        best = None
        best_gain = -np.inf
        node_counts = onehot[indices].sum(axis=0)
        node_weight = node_counts.sum()
        if node_weight <= 0:
            return None
        node_impurity = self._impurity(node_counts[None, :], node_weight)[0]
        min_leaf = self.min_samples_leaf
        n = len(indices)
        for feature in range(X.shape[1]):
            values = X[indices, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            if sorted_values[0] == sorted_values[-1]:
                continue
            sorted_onehot = onehot[indices[order]]
            left_cumulative = np.cumsum(sorted_onehot, axis=0)
            boundaries = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
            if boundaries.size == 0:
                continue
            valid = boundaries[
                (boundaries + 1 >= min_leaf) & (n - boundaries - 1 >= min_leaf)
            ]
            if valid.size == 0:
                continue
            left_counts = left_cumulative[valid]
            right_counts = node_counts[None, :] - left_counts
            left_weight = left_counts.sum(axis=1)
            right_weight = right_counts.sum(axis=1)
            ok = (left_weight > 0) & (right_weight > 0)
            if not ok.any():
                continue
            left_impurity = self._impurity(left_counts, left_weight)
            right_impurity = self._impurity(right_counts, right_weight)
            children = (
                left_weight * left_impurity + right_weight * right_impurity
            ) / node_weight
            gains = np.where(ok, node_impurity - children, -np.inf)
            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                position = valid[pick]
                threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
                best = (feature, float(threshold), best_gain)
        return best

    def _impurity(self, counts: np.ndarray, totals) -> np.ndarray:
        totals = np.asarray(totals, dtype=np.float64).reshape(-1, 1)
        safe = np.where(totals > 0, totals, 1.0)
        p = counts / safe
        if self.criterion == "gini":
            return 1.0 - (p**2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log2(p), 0.0)
        return -(p * logp).sum(axis=1)

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("tree_")
        X = check_matrix(X)
        out = np.empty((X.shape[0], len(self.classes_)))
        stack = [(self.tree_, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                total = node.distribution.sum()
                leaf = (
                    node.distribution / total
                    if total > 0
                    else np.full(len(self.classes_), 1.0 / len(self.classes_))
                )
                out[rows] = leaf
                continue
            go_left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
        return out

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


def fit_ovr_per_class(model, X, y, sample_weight=None):
    """The seed multi-class path: one independent binary fit per class.

    ``model`` carries the SGDClassifier hyperparameters; returns the
    stacked coefficients and intercepts the per-class loop produces.
    """
    X = check_matrix(X)
    y = check_labels(y, X.shape[0])
    sample_weight = check_sample_weight(sample_weight, X.shape[0])
    classes = np.unique(y)
    coefs, intercepts = [], []
    for klass in classes:
        signs = np.where(y == klass, 1.0, -1.0)
        w, b = reference_fit_binary(model, X, signs, sample_weight)
        coefs.append(w)
        intercepts.append(b)
    return np.vstack(coefs), np.asarray(intercepts)


def reference_sgd_fit(model, X, y, sample_weight=None):
    """The seed ``SGDClassifier.fit``: one binary fit, or one per class."""
    classes = np.unique(check_labels(y, np.asarray(X).shape[0]))
    if len(classes) > 2:
        return fit_ovr_per_class(model, X, y, sample_weight)
    X = check_matrix(X)
    sample_weight = check_sample_weight(sample_weight, X.shape[0])
    signs = np.where(np.asarray(y) == classes[1], 1.0, -1.0)
    w, b = reference_fit_binary(model, X, signs, sample_weight)
    return w.reshape(1, -1), np.asarray([b])


class ReferenceSGDClassifier(SGDClassifier):
    """SGDClassifier whose ``fit`` is the seed's per-candidate binary path."""

    def fit(self, X, y, sample_weight=None) -> "ReferenceSGDClassifier":
        self.classes_ = np.unique(np.asarray(y))
        self.coef_, self.intercept_ = reference_sgd_fit(self, X, y, sample_weight)
        return self


def reference_fit_binary(model, X, signs, sample_weight):
    """The seed ``SGDClassifier._fit_binary``: one minibatch SGD problem."""
    n_samples, n_features = X.shape
    rng = np.random.default_rng(model.random_state)
    w = np.zeros(n_features)
    b = 0.0
    t = _reference_optimal_init(model)
    previous_loss = np.inf
    batch = max(1, int(model.batch_size))
    for _ in range(int(model.max_iter)):
        order = rng.permutation(n_samples) if model.shuffle else np.arange(n_samples)
        for start in range(0, n_samples, batch):
            idx = order[start : start + batch]
            xb, sb, wb = X[idx], signs[idx], sample_weight[idx]
            eta = 1.0 / (max(model.alpha, 1e-10) * t)
            t += len(idx)
            grad_w, grad_b = _reference_loss_gradient(model, xb, sb, wb, w, b)
            w = _reference_apply_penalty(model, w, eta)
            w -= eta * grad_w
            b -= eta * grad_b
            if not np.all(np.isfinite(w)):
                w = np.nan_to_num(w, nan=0.0, posinf=1e12, neginf=-1e12)
                b = float(np.nan_to_num(b, nan=0.0, posinf=1e12, neginf=-1e12))
        margin = signs * (X @ w + b)
        if model.loss == "log":
            losses = np.logaddexp(0.0, -margin)
        else:
            losses = np.maximum(0.0, 1.0 - margin)
        epoch_loss = float(np.average(losses, weights=sample_weight))
        if np.isfinite(epoch_loss) and previous_loss - epoch_loss < model.tol:
            break
        previous_loss = epoch_loss
    return w, b


def _reference_loss_gradient(model, xb, sb, wb, w, b):
    margin = xb @ w + b
    if model.loss == "log":
        coeff = -sb * _sigmoid(-sb * margin) * wb
    else:  # hinge
        active = (sb * margin) < 1.0
        coeff = np.where(active, -sb, 0.0) * wb
    total = wb.sum()
    if total == 0:
        return np.zeros_like(w), 0.0
    grad_w = xb.T @ coeff / total
    grad_b = coeff.sum() / total
    return grad_w, grad_b


def _reference_apply_penalty(model, w, eta):
    if model.penalty == "none" or model.alpha == 0.0:
        return w
    if model.penalty == "l2":
        return w * (1.0 - eta * model.alpha)
    if model.penalty == "l1":
        return _soft_threshold(w, eta * model.alpha)
    w = w * (1.0 - eta * model.alpha * (1.0 - model.l1_ratio))
    return _soft_threshold(w, eta * model.alpha * model.l1_ratio)


def _reference_optimal_init(model) -> float:
    alpha = max(model.alpha, 1e-10)
    typw = np.sqrt(1.0 / np.sqrt(alpha))
    if model.loss == "log":
        initial_eta0 = typw / max(1.0, _sigmoid(typw))
    else:
        initial_eta0 = typw / max(1.0, 1.0 + typw)
    return 1.0 / (initial_eta0 * alpha)


def _soft_threshold(w, threshold):
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)


def _sigmoid(z):
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def fit_gd_per_target(model, X, y, sample_weight=None):
    """The seed LogisticRegressionGD path: one ``_fit_one`` per target."""
    X = check_matrix(X)
    y = check_labels(y, X.shape[0])
    sample_weight = check_sample_weight(sample_weight, X.shape[0])
    classes = np.unique(y)
    targets = [classes[1]] if len(classes) == 2 else list(classes)
    coefs, intercepts = [], []
    for klass in targets:
        t = (y == klass).astype(np.float64)
        w, b = _reference_fit_one(model, X, t, sample_weight)
        coefs.append(w)
        intercepts.append(b)
    return np.vstack(coefs), np.asarray(intercepts)


def _reference_fit_one(model, X, t, sample_weight):
    n_samples, n_features = X.shape
    w = np.zeros(n_features)
    b = 0.0
    weights = sample_weight / sample_weight.sum()
    previous = np.inf
    for _ in range(int(model.max_iter)):
        p = _sigmoid(X @ w + b)
        error = (p - t) * weights
        grad_w = X.T @ error + model.alpha * w
        grad_b = error.sum()
        w -= model.learning_rate * grad_w
        b -= model.learning_rate * grad_b
        loss = float(
            -(
                weights
                * (t * np.log(p + 1e-12) + (1 - t) * np.log(1 - p + 1e-12))
            ).sum()
        )
        if previous - loss < model.tol:
            break
        previous = loss
    return w, b
