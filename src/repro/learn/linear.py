"""Linear classifiers trained with stochastic / full-batch gradient descent.

:class:`SGDClassifier` mirrors the scikit-learn estimator the paper uses as
its logistic-regression baseline (``SGDClassifier(loss='log')``): the same
``optimal`` learning-rate schedule (Bottou's heuristic), the same penalty
surface (l2 / l1 / elasticnet over ``alpha``), and per-sample weighting.
Because the schedule is calibrated for standardized features, training on
raw-scale features diverges or stalls exactly as in Figure 3 of the paper.

Every SGD fit runs one epoch engine, :func:`_train`, over data slices: a
plain ``fit`` is one slice, a grid search's folds or a config group's
pre-processors are several (:meth:`SGDClassifier.fit_slices`), and every
model comes out byte-identical to its own ``fit``.
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

_SCHEDULE_BLOCK = 1024  # most batches of an SGD epoch scheduled and gathered at once
_GATHER_CELLS = 1 << 16  # most cells of an SGD batch-block or epoch-loss stack

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
    return np.where(z >= 0, 1.0, expz) / (1.0 + expz)


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
        _train([self], [_check_data(X, y, sample_weight)])
        return self

    def fit_candidates(self, candidates, X, y, sample_weight=None):
        """Fit one model per parameter dict: the one-slice :meth:`fit_slices`."""
        (models,) = self.fit_slices(candidates, [(X, y, sample_weight)])
        return models

    def fit_slices(self, candidates, slices):
        """One list of fitted clones, one per parameter dict, per data slice.

        ``slices`` are ``(X, y, sample_weight)`` triples: a grid search's
        folds, or the training sets of a config group's pre-processors.
        Candidates that differ only in ``penalty``, ``alpha``, ``l1_ratio``
        or ``tol`` share one epoch loop, because with a common
        ``random_state`` every one of them draws its slice's permutation
        each epoch; so do the slices whose matrices have as many columns.
        Candidates that differ in anything else form separate stacks.
        Every returned estimator is byte-identical to an individual ``fit``.
        """
        data = [_check_data(X, y, weight) for X, y, weight in slices]
        models = [[clone(self).set_params(**params) for params in candidates] for _ in data]
        stacks: dict = {}
        for index, (members, (X, *_)) in enumerate(zip(models, data)):
            for model in members:
                model._check_params()
                shared = [(k, v) for k, v in model.get_params().items() if k not in _STACKED]
                stack = stacks.setdefault((tuple(shared), X.shape[1]), {})
                stack.setdefault(index, []).append(model)
        for stack in stacks.values():
            _train(
                [model for members in stack.values() for model in members],
                [data[index] for index in stack],
            )
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


def _train(models, slices) -> None:
    """The SGD epoch engine: fit ``models`` together, in place.

    ``slices`` are :func:`_check_data` tuples ``(X, classes, codes,
    sample_weight)`` with as many columns each, and ``models`` lists every
    slice's candidates in turn, as many per slice. Each row is one binary
    problem, a (slice × candidate × class) triple: the positive class of a
    binary target, else every class one-vs-rest. The models share
    ``loss``, ``max_iter``, ``batch_size``, ``shuffle`` and
    ``random_state``; each slice draws its own permutation each epoch from
    its own ``default_rng(random_state)`` and walks its own batches.

    An epoch lays the active rows out as a (slice × row) grid, one line per
    slice with active rows, padded by repeating the line's last row (a
    repeated row computes its row's values and writes them back onto it).
    Batch ``i`` of every slice that has one is taken into one (slices,
    batch, features) buffer, so all rows step together and each row still
    runs one matrix-vector product per projection, as a one-row fit does
    (a matrix-matrix product would round differently). Slices whose batch
    ``i`` is shorter step apart; a slice without one skips the step: no
    scale, no shrink, no clock advance. Each row keeps its own
    learning-rate clock (from its alpha-dependent t0), penalty, ``tol``
    early stop and divergence freeze, and ends byte-identical to a one-row
    fit."""
    lead = models[0]
    per_slice = len(models) // len(slices)
    n_features = slices[0][0].shape[1]
    batch = max(1, int(lead.batch_size))

    def penalty(model, penalties, elasticnet_mix):
        on = model.penalty in penalties and model.alpha != 0.0
        mix = elasticnet_mix if model.penalty == "elasticnet" else 1.0
        return [model.alpha if on else 0.0, mix]

    # per-row constants: the schedule's alpha, tol, and the penalty in the
    # seed's operand order -- scale by 1 - eta*alpha*mix, then soft-threshold
    # at eta*alpha*mix (alpha 0: the row has no such step)
    constants, clock, positive, slice_of, model_rows = [], [], [], [], []
    for index, (_, classes, _, _) in enumerate(slices):
        targets = [1] if len(classes) == 2 else list(range(len(classes)))
        for model in models[index * per_slice:(index + 1) * per_slice]:
            constants += [[max(model.alpha, 1e-10), model.tol]
                          + penalty(model, ("l2", "elasticnet"), 1.0 - model.l1_ratio)
                          + penalty(model, ("l1", "elasticnet"), model.l1_ratio)] * len(targets)
            clock += [model._optimal_init()] * len(targets)
            positive += targets
            slice_of += [index] * len(targets)
            model_rows.append(len(targets))
    constants, t = np.array(constants, dtype=np.float64), np.array(clock)
    positive, slice_of = np.array(positive), np.array(slice_of)
    rows = len(positive)
    coef = np.zeros((rows, n_features))
    intercept = np.zeros(rows)
    previous = np.full(rows, np.inf)
    diverged = np.zeros(rows, dtype=bool)
    active = np.arange(rows)
    rngs = [np.random.default_rng(lead.random_state) for _ in slices]
    sizes = np.array([len(codes) for _, _, codes, _ in slices])
    weight_sums = [np.add.reduce(sample_weight) for *_, sample_weight in slices]

    buffer = np.empty((len(slices), 1, batch, n_features))

    def batches():
        # every batch's (eta, scale, shrink) grids and signs, built a bounded
        # block of batches at a time (each clock t advances by its slice's
        # batch lengths in turn, as cumsum adds, by 0 where the slice has
        # none), and its rows of every live slice taken into one
        # (slices, 1, rows, features) stack
        per_block = min(_SCHEDULE_BLOCK, max(1, _GATHER_CELLS // (
            len(live) * batch * grid_positive.shape[1]
        )))
        stack = buffer[:len(live)]
        line_batches = [stack[line, 0] for line in range(len(live))]
        for first in range(0, lengths.shape[1], per_block):
            steps = lengths[:, first:first + per_block].T[:, :, None]
            clocks = np.cumsum(np.concatenate([
                t[grid][None], np.broadcast_to(steps, (len(steps),) + grid.shape)
            ]), axis=0)
            t[grid] = clocks[-1]
            eta = 1.0 / (rate * clocks[:-1])
            scale = 1.0 - eta * scale_alpha * scale_mix
            shrink = eta * shrink_alpha * shrink_mix
            lo, hi = first * batch, (first + len(steps)) * batch
            negated_signs = np.where(
                ordered_codes[:, None, lo:hi, None] == grid_positive, -1.0, 1.0
            )
            signed_weight = negated_signs * ordered_weight[:, None, lo:hi, None]
            columns = (v[..., None, None] for v in (eta, scale, shrink))
            for i, *schedule in zip(range(first, first + len(steps)), *columns):
                start = i * batch
                for line_batch, X, order in zip(line_batches, Xs, orders):
                    order = order[start:start + batch]
                    if len(order) < batch:
                        line_batch = line_batch[:len(order)]
                    X.take(order, axis=0, out=line_batch, mode="clip")
                length = widths[i]
                at = slice(start - lo, start - lo + (length or batch))
                if length:
                    yield (None, whole, stack if length == batch else stack[:, :, :length],
                           negated_signs[:, :, at], signed_weight[:, :, at], totals[i],
                           *schedule, weighted_any[i], weighted_all[i], i)
                    continue
                # ragged: the slices with a batch i of each length step apart
                for length in np.unique(lengths[:, i]):
                    if length:
                        part = np.flatnonzero(lengths[:, i] == length)
                        at = slice(at.start, at.start + length)
                        yield (part, _views(state[part], gradient[:len(part)], n_features),
                               stack[part, :, :length], negated_signs[part, :, at],
                               signed_weight[part, :, at], totals[i][part],
                               *(v[part] for v in schedule),
                               weighted[part, i].any(), weighted[part, i].all(), i)

    attrs = {
        "rows": rows, "samples": int(sizes.sum()),
        "candidates": per_slice, "slices": len(slices),
    }
    with telemetry.span("learn.sgd_fit", **attrs):
        regrid = True
        for _ in range(int(lead.max_iter)):
            if active.size == 0:
                break
            if regrid:
                # the grid: one line of active rows per live slice, padded by
                # repeating its last row, and what depends on it alone
                live, counts = np.unique(slice_of[active], return_counts=True)
                first_row = np.cumsum(counts) - counts
                column = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
                grid = active[first_row[:, None] + column]
                n_live = sizes[live]
                lengths = np.clip(n_live[:, None] - np.arange(0, n_live.max(), batch), 0, batch)
                # batch i's length where every live slice has it, else 0
                widths = np.where((lengths == lengths[:1]).all(axis=0), lengths[0], 0).tolist()
                rate, _, scale_alpha, scale_mix, shrink_alpha, shrink_mix = (
                    constants[grid].transpose(2, 0, 1)
                )
                # per-row state as one (slices, rows, features + 1, 1) stack
                # of views w and b, see _gradient_sums, and its gradient buffer
                state = np.concatenate([coef[grid], intercept[grid][..., None]], axis=2)[..., None]
                gradient = np.empty_like(state)
                whole = _views(state, gradient, n_features)
                w, b = whole[1:3]
                # lines whose rows share one target (binary) share their signs
                grid_positive = positive[grid][:, :, None, None]
                if (grid_positive == grid_positive[:, :1]).all():
                    grid_positive = grid_positive[:, :1]
                shrinks = shrink_alpha[:, :, None, None] > 0
                scaling, shrinking, shrink_all = scale_alpha.any(), shrinks.any(), shrinks.all()
                ordered_codes = np.zeros((len(live), n_live.max()), dtype=np.intp)
                ordered_weight = np.zeros((len(live), n_live.max()))
                batch_weight = np.zeros(lengths.shape)
                regrid = False
            # each live slice's epoch: its permutation, the codes and weights
            # in that order, and every batch's weight total (each reduced
            # over a contiguous run, as the one-slice sum is)
            orders, Xs = [], []
            for line, index in enumerate(live):
                X, _, codes, sample_weight = slices[index]
                n = len(codes)
                order = rngs[index].permutation(n) if lead.shuffle else np.arange(n)
                orders.append(order)
                Xs.append(X)
                np.take(codes, order, out=ordered_codes[line, :n])
                np.take(sample_weight, order, out=ordered_weight[line, :n])
                whole_batches = n // batch
                np.add.reduce(
                    ordered_weight[line, :whole_batches * batch].reshape(whole_batches, batch),
                    axis=1, out=batch_weight[line, :whole_batches],
                )
                if n % batch:
                    batch_weight[line, whole_batches] = np.add.reduce(
                        ordered_weight[line, whole_batches * batch:n]
                    )
            weighted = batch_weight != 0
            weighted_any = weighted.any(axis=0).tolist()
            weighted_all = weighted.all(axis=0).tolist()
            totals = np.where(weighted, batch_weight, 1.0).T[:, :, None, None, None]
            for (part, views, xb, negated_signs, signed_weight, total, eta, scale, shrink,
                 stepping, all_weighted, i) in batches():
                # in place on views of every line, or of the part's copy
                stepped, w_part, b_part, grad, grad_w, grad_b = views
                lines = slice(None) if part is None else part
                if stepping:
                    # a zero-weight batch has a zero gradient: no step
                    _gradient_sums(
                        lead.loss, xb, negated_signs, signed_weight, w_part, b_part,
                        grad_w, grad_b,
                    )
                    grad /= total
                if scaling:
                    w_part *= scale
                if shrinking:
                    shrunk = _soft_threshold(w_part, shrink)
                    np.copyto(w_part, shrunk, where=True if shrink_all else shrinks[lines])
                if stepping:
                    if not all_weighted:
                        grad[~weighted[lines, i]] = 0.0
                    stepped -= eta * grad
                if not np.isfinite(w_part).all():
                    # diverged (typically unscaled features): freeze the
                    # affected rows at the last finite state
                    bad = ~np.isfinite(w_part).all(axis=(2, 3))
                    w_part[bad] = np.nan_to_num(w_part[bad], nan=0.0, posinf=1e12, neginf=-1e12)
                    b_part[bad] = np.nan_to_num(b_part[bad], nan=0.0, posinf=1e12, neginf=-1e12)
                    diverged[grid[lines][bad]] = True
                if part is not None:
                    state[part] = stepped
            # each row's epoch loss: one matrix-vector product per row and
            # np.average's weighted sum, a bounded block of rows at a time
            epoch_loss = np.empty(active.size)
            for line, index in enumerate(live):
                X, _, codes, sample_weight = slices[index]
                block = max(1, _GATHER_CELLS // len(codes))
                for lo in range(0, counts[line], block):
                    hi = min(lo + block, counts[line])
                    signs = np.where(codes == positive[grid[line, lo:hi]][:, None], 1.0, -1.0)
                    margin = signs * ((X @ w[line, lo:hi])[:, :, 0] + b[line, lo:hi, 0])
                    if lead.loss == "log":
                        losses = np.logaddexp(0.0, -margin)
                    else:
                        losses = np.maximum(0.0, 1.0 - margin)
                    epoch_loss[first_row[line] + lo:first_row[line] + hi] = (
                        np.add.reduce(losses * sample_weight, axis=1) / weight_sums[index]
                    )
            with np.errstate(invalid="ignore"):
                done = np.isfinite(epoch_loss) & (
                    previous[active] - epoch_loss < constants[active, 1]
                )
            coef[grid], intercept[grid] = w[..., 0], b[:, :, 0, 0]
            previous[active] = epoch_loss
            active = active[~done]
            regrid = done.any()
    # one count per (slice × candidate × class) row ever frozen at ±1e12
    telemetry.counter("learn.sgd.diverged").inc(int(diverged.sum()))
    bounds = np.cumsum(model_rows)[:-1]
    for model, index, model_coef, model_intercept in zip(
        models, np.repeat(np.arange(len(slices)), per_slice),
        np.split(coef, bounds), np.split(intercept, bounds),
    ):
        model.classes_, model.coef_, model.intercept_ = (
            slices[index][1], model_coef, model_intercept
        )


def _views(state, gradient, n_features):
    """A state stack and its gradient buffer with their w and b views."""
    return (
        state, state[:, :, :n_features], state[:, :, n_features:],
        gradient, gradient[:, :, :n_features], gradient[:, :, n_features:],
    )


def _gradient_sums(loss, xb, negated_signs, signed_weight, w, b, out_w, out_b):
    """Every row's loss-gradient sums over one batch, written into
    ``out_w`` and ``out_b`` (the caller divides by the batch's weight).
    ``xb`` is the (slices, 1, batch, features) batch stack; ``w``, ``b``,
    ``negated_signs`` (``-s``) and ``signed_weight`` (``-s`` times the
    sample weight) are (slices, rows, ..., 1) stacks, so both projections
    run one matrix-vector product per row as a one-row fit does (a
    matrix-matrix product would round differently). Multiplying by ``-s``
    before or after the weight gives the same bits, as ``s`` is ±1."""
    margins = xb @ w + b
    if loss == "log":
        # d/dz log(1 + exp(-s z)) = -s * sigmoid(-s z)
        coeff = _sigmoid(negated_signs * margins) * signed_weight
    else:  # hinge: active where s * z < 1
        coeff = np.where(negated_signs * margins > -1.0, signed_weight, 0.0)
    np.matmul(xb.transpose(0, 1, 3, 2), coeff, out=out_w)
    np.add.reduce(coeff, axis=2, keepdims=True, out=out_b)


def _soft_threshold(w: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)
