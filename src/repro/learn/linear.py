"""Linear classifiers trained with stochastic / full-batch gradient descent.

:class:`SGDClassifier` mirrors the scikit-learn estimator the paper uses as
its logistic-regression baseline (``SGDClassifier(loss='log')``): the same
``optimal`` learning-rate schedule (Bottou's heuristic), the same penalty
surface (l2 / l1 / elasticnet over ``alpha``), and per-sample weighting.
Because the schedule is calibrated for standardized features, training on
raw-scale features diverges or stalls exactly as in Figure 3 of the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import telemetry
from ..serialize import FLOATS, LABELS, field, params, serializable
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
    clone,
)

_LOSSES = ("log", "hinge")
_PENALTIES = ("l2", "l1", "elasticnet", "none")

# hyperparameters in which the candidates of one stacked SGD fit may
# differ; every other parameter is shared by the whole stack
_STACKED = ("penalty", "alpha", "l1_ratio", "tol")

_SCHEDULE_BLOCK = 1024  # batches per block of the SGD schedule built at once

# the fitted state both linear models write
_LINEAR_STATE = (
    params(),
    field("classes_", LABELS),
    field("coef_", FLOATS),
    field("intercept_", FLOATS),
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``1 / (1 + exp(-z))`` for
    ``z >= 0`` and ``exp(z) / (1 + exp(z))`` below, one ``exp(-|z|)``."""
    expz = np.exp(-np.abs(z))
    denominator = 1.0 + expz
    return np.where(z >= 0, 1.0 / denominator, expz / denominator)


@serializable(*_LINEAR_STATE)
class SGDClassifier(BaseEstimator, ClassifierMixin):
    """Linear classifier fit by minibatch stochastic gradient descent.

    Parameters
    ----------
    loss:
        ``"log"`` for logistic regression, ``"hinge"`` for a linear SVM.
    penalty, alpha, l1_ratio:
        Regularization: ``l2``, ``l1``, ``elasticnet`` (mixing ``l1_ratio``)
        or ``none``; ``alpha`` is the regularization strength and also feeds
        the ``optimal`` learning-rate schedule.
    max_iter:
        Number of epochs over the training data.
    tol:
        Stop early when the epoch-average loss improves by less than this.
    batch_size:
        Minibatch size (1 recovers classical per-sample SGD).
    random_state:
        Seed for shuffling and multi-class tie-breaking; required for
        reproducible experiment runs.
    """

    def __init__(
        self,
        loss: str = "log",
        penalty: str = "l2",
        alpha: float = 0.0001,
        l1_ratio: float = 0.15,
        max_iter: int = 20,
        tol: float = 1e-4,
        batch_size: int = 32,
        shuffle: bool = True,
        random_state: Optional[int] = None,
    ):
        self.loss = loss
        self.penalty = penalty
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = max_iter
        self.tol = tol
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.random_state = random_state

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, X, y, sample_weight=None) -> "SGDClassifier":
        self._check_params()
        _train([self], *_check_data(X, y, sample_weight))
        return self

    def fit_candidates(self, candidates, X, y, sample_weight=None):
        """Fit one model per parameter dict, stacking compatible candidates.

        Grid-search hook: candidates that differ only in ``penalty``,
        ``alpha``, ``l1_ratio`` or ``tol`` share one epoch loop, because
        with a common ``random_state`` every one of them draws the same
        permutation each epoch. Candidates that differ in anything else
        form separate stacks. Every returned estimator is byte-identical
        to an individual ``fit``.
        """
        models = [clone(self).set_params(**params) for params in candidates]
        for model in models:
            model._check_params()
        data = _check_data(X, y, sample_weight)
        stacks: dict = {}
        for model in models:
            shared = [(k, v) for k, v in model.get_params().items() if k not in _STACKED]
            stacks.setdefault(tuple(shared), []).append(model)
        for members in stacks.values():
            _train(members, *data)
        return models

    def _check_params(self) -> None:
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        if self.penalty not in _PENALTIES:
            raise ValueError(
                f"penalty must be one of {_PENALTIES}, got {self.penalty!r}"
            )
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    def _optimal_init(self) -> float:
        """Bottou's t0 heuristic used by scikit-learn's 'optimal' schedule."""
        alpha = max(self.alpha, 1e-10)
        typw = np.sqrt(1.0 / np.sqrt(alpha))
        if self.loss == "log":
            initial_eta0 = typw / max(1.0, _sigmoid(typw))
        else:
            initial_eta0 = typw / max(1.0, 1.0 + typw)
        return 1.0 / (initial_eta0 * alpha)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_", "intercept_")
        X = check_matrix(X)
        if X.shape[1] != self.coef_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fit on {self.coef_.shape[1]}"
            )
        scores = X @ self.coef_.T + self.intercept_
        if scores.shape[1] == 1:
            return scores.ravel()
        return scores

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        if scores.ndim == 1:
            return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities (log loss only)."""
        if self.loss != "log":
            raise AttributeError("predict_proba is only available for loss='log'")
        scores = self.decision_function(X)
        if scores.ndim == 1:
            p1 = _sigmoid(scores)
            return np.column_stack([1.0 - p1, p1])
        raw = _sigmoid(scores)
        totals = raw.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return raw / totals


@serializable(*_LINEAR_STATE)
class LogisticRegressionGD(BaseEstimator, ClassifierMixin):
    """Full-batch gradient-descent logistic regression (binary or OvR).

    A deliberately stable optimizer with a fixed step size, exported for
    library users who want a dependable linear model rather than one for
    studying optimizer pathologies. Nothing inside the framework fits it;
    the learned missing-value imputer uses a decision tree for categorical
    targets and k-nearest-neighbour means for numeric ones.
    """

    def __init__(
        self,
        alpha: float = 1e-4,
        learning_rate: float = 0.5,
        max_iter: int = 200,
        tol: float = 1e-6,
        random_state: Optional[int] = None,
    ):
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "LogisticRegressionGD":
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes to fit a classifier")
        targets = (
            [self.classes_[1]] if len(self.classes_) == 2 else list(self.classes_)
        )
        onehot = np.empty((len(targets), X.shape[0]))
        for row, klass in enumerate(targets):
            onehot[row] = (y == klass).astype(np.float64)
        self.coef_, self.intercept_ = self._fit_ovr(X, onehot, sample_weight)
        return self

    def _fit_ovr(self, X, targets, sample_weight):
        """Full-batch gradient descent over all targets at once.

        All elementwise work runs on a (targets × ...) weight matrix;
        the two projections per iteration stay per-target matrix-vector
        products so the coefficients are byte-identical to independent
        per-target fits (BLAS matrix-matrix products round differently).
        Targets converge independently: a finished target drops out of
        the active set while the others keep iterating.
        """
        n_samples, n_features = X.shape
        n_targets = targets.shape[0]
        coef = np.zeros((n_targets, n_features))
        intercept = np.zeros(n_targets)
        weights = sample_weight / sample_weight.sum()
        previous = np.full(n_targets, np.inf)
        active = np.arange(n_targets)
        for _ in range(int(self.max_iter)):
            if active.size == 0:
                break
            w = coef[active]
            b = intercept[active]
            t = targets[active]
            k = active.size
            margins = np.empty((k, n_samples))
            for row in range(k):
                margins[row] = X @ w[row]
            margins += b[:, None]
            p = _sigmoid(margins)
            error = (p - t) * weights
            grad_b = error.sum(axis=1)
            grad_w = np.empty_like(w)
            for row in range(k):
                grad_w[row] = X.T @ error[row]
            grad_w += self.alpha * w
            w = w - self.learning_rate * grad_w
            b = b - self.learning_rate * grad_b
            loss = -(
                weights
                * (t * np.log(p + 1e-12) + (1 - t) * np.log(1 - p + 1e-12))
            ).sum(axis=1)
            done = previous[active] - loss < self.tol
            coef[active] = w
            intercept[active] = b
            previous[active] = loss
            active = active[~done]
        return coef, intercept

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_", "intercept_")
        X = check_matrix(X)
        scores = X @ self.coef_.T + self.intercept_
        return scores.ravel() if scores.shape[1] == 1 else scores

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        if scores.ndim == 1:
            p1 = _sigmoid(scores)
            return np.column_stack([1.0 - p1, p1])
        raw = _sigmoid(scores)
        totals = raw.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return raw / totals

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


def _check_data(X, y, sample_weight):
    """Validated ``(X, classes, label codes, sample weights)`` for SGD."""
    X = check_matrix(X)
    y = check_labels(y, X.shape[0])
    sample_weight = check_sample_weight(sample_weight, X.shape[0])
    classes, codes = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need at least two classes to fit a classifier")
    return X, classes, codes, sample_weight


def _train(models, X, classes, codes, sample_weight) -> None:
    """The SGD epoch engine: fit ``models`` together, in place.

    Each row is one binary problem, a (candidate × class) pair: the
    positive class of a binary target, else every class one-vs-rest. The
    models share ``loss``, ``max_iter``, ``batch_size``, ``shuffle`` and
    ``random_state``, so all rows see the same permutation each epoch and
    one gather per batch. Each row keeps its own learning-rate clock (from
    its alpha-dependent t0), penalty, ``tol`` early stop and divergence
    freeze, and ends byte-identical to a one-row fit."""
    lead = models[0]
    n_samples, n_features = X.shape
    targets = np.arange(1, 2) if len(classes) == 2 else np.arange(len(classes))

    def penalty(model, penalties, elasticnet_mix):
        on = model.penalty in penalties and model.alpha != 0.0
        mix = elasticnet_mix if model.penalty == "elasticnet" else 1.0
        return [model.alpha if on else 0.0, mix]

    # per-row constants: the schedule's alpha, tol, and the penalty in the
    # seed's operand order -- scale by 1 - eta*alpha*mix, then soft-threshold
    # at eta*alpha*mix (alpha 0: the row has no such step)
    constants = np.repeat(np.array([
        [max(m.alpha, 1e-10), m.tol]
        + penalty(m, ("l2", "elasticnet"), 1.0 - m.l1_ratio)
        + penalty(m, ("l1", "elasticnet"), m.l1_ratio)
        for m in models
    ], dtype=np.float64), len(targets), axis=0)
    t = np.repeat(np.array([m._optimal_init() for m in models]), len(targets))
    positive = np.tile(targets, len(models))
    rows = len(positive)
    coef = np.zeros((rows, n_features))
    intercept = np.zeros(rows)
    previous = np.full(rows, np.inf)
    diverged = np.zeros(rows, dtype=bool)
    active = np.arange(rows)
    rng = np.random.default_rng(lead.random_state)
    batch = max(1, int(lead.batch_size))
    starts = range(0, n_samples, batch)
    sizes = np.minimum(batch, n_samples - np.arange(0, n_samples, batch))

    def schedule():
        # the epoch's batch starts with the active rows' (eta, scale,
        # shrink) columns, built a bounded block of batches at a time: each
        # clock t advances by every batch length in turn (as cumsum adds)
        for first in range(0, len(starts), _SCHEDULE_BLOCK):
            block = slice(first, first + _SCHEDULE_BLOCK)
            steps = np.repeat(sizes[block, None], active.size, axis=1)
            clocks = np.cumsum(np.vstack([t[active], steps]), axis=0)
            t[active] = clocks[-1]
            eta = 1.0 / (rate * clocks[:-1])
            scale = 1.0 - eta * scale_alpha * scale_mix
            shrink = eta * shrink_alpha * shrink_mix
            columns = (v[:, :, None, None] for v in (eta, scale, shrink))
            yield from zip(starts[block], *columns)

    attrs = {"rows": rows, "samples": n_samples, "candidates": len(models)}
    with telemetry.span("learn.sgd_fit", **attrs):
        for _ in range(int(lead.max_iter)):
            if active.size == 0:
                break
            order = rng.permutation(n_samples) if lead.shuffle else np.arange(n_samples)
            ordered_codes, ordered_weight = codes[order], sample_weight[order]
            rate, tol, scale_alpha, scale_mix, shrink_alpha, shrink_mix = constants[active].T
            # per-row state as (rows, ..., 1) stacks, see _gradient
            w, b = coef[active][:, :, None], intercept[active][:, None, None]
            # -s for each row and class code
            negated_signs = np.where(
                np.arange(len(classes)) == positive[active][:, None], -1.0, 1.0
            )[:, :, None]
            shrinks = shrink_alpha[:, None, None] > 0
            scaling, shrinking, shrink_all = scale_alpha.any(), shrinks.any(), shrinks.all()
            for start, eta, scale, shrink in schedule():
                stop = start + batch
                total = np.add.reduce(ordered_weight[start:stop])
                if total != 0:
                    grad_w, grad_b = _gradient(
                        lead.loss, X.take(order[start:stop], axis=0),
                        negated_signs.take(ordered_codes[start:stop], axis=1),
                        ordered_weight[start:stop, None], total, w, b,
                    )
                if scaling:
                    w = w * scale
                if shrinking:
                    shrunk = _soft_threshold(w, shrink)
                    w = shrunk if shrink_all else np.where(shrinks, shrunk, w)
                if total != 0:
                    # a zero-weight batch has a zero gradient: no step
                    w -= eta * grad_w
                    b = b - eta * grad_b
                if not np.isfinite(w).all():
                    # diverged (typically unscaled features): freeze the
                    # affected rows at the last finite state
                    bad = ~np.isfinite(w).all(axis=(1, 2))
                    w[bad] = np.nan_to_num(w[bad], nan=0.0, posinf=1e12, neginf=-1e12)
                    b[bad] = np.nan_to_num(b[bad], nan=0.0, posinf=1e12, neginf=-1e12)
                    diverged[active[bad]] = True
            w, b = w[:, :, 0], b[:, 0, 0]
            epoch_loss = np.empty(active.size)
            for row, target in enumerate(positive[active]):
                if row == 0 or target != positive[active[row - 1]]:
                    signs = np.where(codes == target, 1.0, -1.0)
                margin = signs * (X @ w[row] + b[row])
                if lead.loss == "log":
                    losses = np.logaddexp(0.0, -margin)
                else:
                    losses = np.maximum(0.0, 1.0 - margin)
                epoch_loss[row] = np.average(losses, weights=sample_weight)
            with np.errstate(invalid="ignore"):
                done = np.isfinite(epoch_loss) & (previous[active] - epoch_loss < tol)
            coef[active], intercept[active], previous[active] = w, b, epoch_loss
            active = active[~done]
    # one count per (candidate × class) row ever frozen at ±1e12
    telemetry.counter("learn.sgd.diverged").inc(int(diverged.sum()))
    for model, model_coef, model_intercept in zip(
        models, np.split(coef, len(models)), np.split(intercept, len(models))
    ):
        model.classes_, model.coef_, model.intercept_ = classes, model_coef, model_intercept


def _gradient(loss, xb, negated_signs, wb, total, w, b):
    """Every row's loss gradients on one batch of weight ``total``. ``w``,
    ``b`` and ``negated_signs`` (``-s``) are (rows, ..., 1) stacks, so both
    projections run one matrix-vector product per row as a one-row fit
    does (a matrix-matrix product would round differently)."""
    margins = xb @ w + b
    if loss == "log":
        # d/dz log(1 + exp(-s z)) = -s * sigmoid(-s z)
        coeff = negated_signs * _sigmoid(negated_signs * margins) * wb
    else:  # hinge: active where s * z < 1
        coeff = np.where(negated_signs * margins > -1.0, negated_signs, 0.0) * wb
    grad_w = xb.T @ coeff / total
    return grad_w, np.add.reduce(coeff, axis=1, keepdims=True) / total


def _soft_threshold(w: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)
