"""CART decision-tree classifier.

The paper's second baseline. Decision trees are invariant to monotone
feature rescaling, which is exactly the property Figure 3(b) demonstrates;
our implementation preserves it because split quality depends only on the
ordering of feature values.

Split search runs on one of two interchangeable backends selected by the
``fit(..., presort=...)`` hint:

* the exact presorted backend (:mod:`repro.learn.splitter`): per-feature
  sort order computed once per fit — or supplied by the caller, which
  grid search uses to share one presort per cross-validation fold across
  every tuning candidate — and maintained through the recursion by
  stable partition instead of re-argsorting at every node;
* the histogram backend (:mod:`repro.learn.histogram`): features binned
  once per fit into ≤256 uint8 codes, per-node class-count histograms
  accumulated with ``bincount`` and siblings derived by subtraction, so
  per-node candidate scoring is O(n_bins) per feature instead of O(n).

``presort="auto"`` (the default) picks histogram at or above
:data:`HISTOGRAM_AUTO_THRESHOLD` rows and exact presort below it, so
paper-scale fits stay byte-identical to the seed implementation while
million-row fits get the bounded-work path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import telemetry
from ..serialize import labels_from_state, labels_to_state, serializable
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_labels,
    check_matrix,
    check_sample_weight,
    clone,
)
from .histogram import HistogramBinning, HistogramSplitter
from .splitter import Presort, PresortSplitter

_CRITERIA = ("gini", "entropy")

#: Row count at which ``presort="auto"`` switches from the exact presort
#: backend to the histogram backend. All four paper datasets (≤33k rows)
#: sit far below it, so default fits on them are unchanged node-for-node.
HISTOGRAM_AUTO_THRESHOLD = 65536


def presort_hint(X):
    """Shareable fit-context hint matching what ``presort="auto"`` picks.

    Cross-validation builds this once per fold and passes it to every
    tuning candidate: a :class:`Presort` below the auto threshold, a
    :class:`HistogramBinning` at or above it — so fold-major grid search
    keeps its shared-preparation win on both backends.
    """
    if X.shape[0] >= HISTOGRAM_AUTO_THRESHOLD:
        return HistogramBinning(X)
    return Presort(X)


class _Node:
    """Internal tree node; leaves carry a class distribution."""

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


@serializable
class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART with gini/entropy impurity and sample-weight support.

    Parameters mirror the grid the paper tunes: ``criterion`` (2 choices),
    ``max_depth``, ``min_samples_leaf``, ``min_samples_split``.
    """

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

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self, X, y, sample_weight=None, presort="auto"
    ) -> "DecisionTreeClassifier":
        """Fit the tree; ``presort`` selects/hints the split backend.

        Accepted values:

        * ``"auto"`` (default) or ``None`` — exact presort below
          :data:`HISTOGRAM_AUTO_THRESHOLD` rows, histogram at or above;
        * ``"exact"`` / ``"histogram"`` — force a backend;
        * a :class:`~repro.learn.splitter.Presort` built for this exact
          ``X`` — use the exact backend and skip its once-per-fit
          argsort (the grid-search fold hint); a stale hint degrades to
          a fresh argsort, never a wrong tree;
        * a :class:`~repro.learn.histogram.HistogramBinning` for this
          exact ``X`` — use the histogram backend and skip its
          once-per-fit binning.
        """
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
        splitter = self._make_splitter(X, onehot, presort)
        with telemetry.span(
            "learn.tree_fit", backend=self.fit_backend_, rows=int(X.shape[0])
        ):
            self.tree_ = self._grow(X, onehot, splitter)
        self.depth_ = _tree_depth(self.tree_)
        self.n_leaves_ = _count_leaves(self.tree_)
        return self

    def _make_splitter(self, X, onehot, presort):
        """Resolve the ``presort`` hint to a split backend (see ``fit``)."""
        mode, hint = presort, None
        if isinstance(presort, Presort):
            mode, hint = "exact", presort
        elif isinstance(presort, HistogramBinning):
            mode, hint = "histogram", presort
        elif presort is None:
            mode = "auto"
        if mode == "auto":
            mode = (
                "histogram" if X.shape[0] >= HISTOGRAM_AUTO_THRESHOLD else "exact"
            )
        if mode in ("exact", "histogram"):
            # the resolved backend, recorded for benches and manifests
            self.fit_backend_ = mode
            telemetry.counter(f"learn.tree_fit.{mode}").inc()
        if mode == "exact":
            return PresortSplitter(
                X, onehot, self.criterion, self.min_samples_leaf, presort=hint
            )
        if mode == "histogram":
            return HistogramSplitter(
                X, onehot, self.criterion, self.min_samples_leaf, binning=hint
            )
        raise ValueError(
            "presort must be 'auto', 'exact', 'histogram', a Presort, or a "
            f"HistogramBinning, got {presort!r}"
        )

    def _grow(self, X, onehot, splitter) -> _Node:
        """Build the tree with an explicit stack (deep trees can exceed
        the interpreter recursion limit on larger resamples).

        ``splitter`` is either backend; the per-node recursion state
        (``context``) is opaque — the presorted order matrix for the
        exact backend, class-count histograms for the histogram one.
        """
        binary = onehot.shape[1] == 2
        root: Optional[_Node] = None
        stack = [(np.arange(X.shape[0]), splitter.root_context(), 0, None, "")]
        while stack:
            indices, context, depth, parent, side = stack.pop()
            class_weights, sub = splitter.node_distribution(indices)
            node = _Node(distribution=class_weights, n_samples=len(indices))
            if parent is None:
                root = node
            else:
                setattr(parent, side, node)
            if (
                len(indices) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.count_nonzero(class_weights) <= 1
            ):
                continue
            if binary:
                split = splitter.best_split_binary(indices, context, sub, class_weights)
            else:
                split = splitter.best_split_general(indices, context, class_weights)
            if split is None:
                continue
            feature, threshold, gain = split
            if gain < self.min_impurity_decrease:
                continue
            go_left = X[indices, feature] <= threshold
            left_indices = indices[go_left]
            right_indices = indices[~go_left]
            left_context, right_context = splitter.partition(
                context, left_indices, right_indices
            )
            node.feature = feature
            node.threshold = threshold
            stack.append((right_indices, right_context, depth + 1, node, "right"))
            stack.append((left_indices, left_context, depth + 1, node, "left"))
        return root

    def fit_candidates(
        self,
        candidates,
        X,
        y,
        sample_weight=None,
        presort="auto",
    ):
        """Fit one tree per parameter dict, sharing work across the family.

        Grid-search hook: candidates that differ only in ``max_depth`` and
        ``min_samples_split`` share one induction. Both merely stop the
        recursion (at a depth, or at a node with fewer samples) and never
        change the split a node gets, so each member is exactly a truncation
        of the tree fit at the family's deepest ``max_depth`` and smallest
        ``min_samples_split`` (internal nodes record their distributions).
        Every returned estimator is node-for-node identical to its ``fit``.
        """
        models = [clone(self).set_params(**params) for params in candidates]
        families: dict = {}
        for model in models:
            rest = [
                (k, v) for k, v in model.get_params().items()
                if k not in ("max_depth", "min_samples_split")
            ]
            families.setdefault(tuple(rest), []).append(model)
        for members in families.values():
            depths = [model.max_depth for model in members]
            deepest = None if None in depths else max(depths)
            smallest = min(model.min_samples_split for model in members)
            deep = clone(members[0]).set_params(max_depth=deepest, min_samples_split=smallest)
            deep.fit(X, y, sample_weight=sample_weight, presort=presort)
            for model in members:
                model.classes_, model.n_features_ = deep.classes_, deep.n_features_
                if (model.max_depth, model.min_samples_split) == (deepest, smallest):
                    model.tree_ = deep.tree_
                else:
                    model.tree_ = _truncate(deep.tree_, model.max_depth, model.min_samples_split)
                model.depth_ = _tree_depth(model.tree_)
                model.n_leaves_ = _count_leaves(model.tree_)
        return models

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("tree_")
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on {self.n_features_}"
            )
        out = np.empty((X.shape[0], len(self.classes_)))
        # batch traversal: route index blocks through the tree together
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

    # ------------------------------------------------------------------
    # serialization: the node graph flattened into parallel arrays
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        self._check_fitted("tree_")
        order: list = []
        stack = [self.tree_]
        while stack:
            node = stack.pop()
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        position = {id(node): i for i, node in enumerate(order)}
        n = len(order)
        feature = np.full(n, -1, dtype=np.int64)
        threshold = np.full(n, np.nan, dtype=np.float64)
        left = np.full(n, -1, dtype=np.int64)
        right = np.full(n, -1, dtype=np.int64)
        n_samples = np.zeros(n, dtype=np.int64)
        distribution = np.zeros((n, len(self.classes_)), dtype=np.float64)
        for i, node in enumerate(order):
            n_samples[i] = node.n_samples
            distribution[i] = node.distribution
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = position[id(node.left)]
                right[i] = position[id(node.right)]
        return {
            "params": self.get_params(),
            "classes_": labels_to_state(self.classes_),
            "n_features_": int(self.n_features_),
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "n_samples": n_samples,
            "distribution": distribution,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTreeClassifier":
        model = cls(**state["params"])
        model.classes_ = labels_from_state(state["classes_"])
        model.n_features_ = int(state["n_features_"])
        feature = np.asarray(state["feature"], dtype=np.int64)
        threshold = np.asarray(state["threshold"], dtype=np.float64)
        left = np.asarray(state["left"], dtype=np.int64)
        right = np.asarray(state["right"], dtype=np.int64)
        n_samples = np.asarray(state["n_samples"], dtype=np.int64)
        distribution = np.asarray(state["distribution"], dtype=np.float64)
        nodes = [
            _Node(distribution=distribution[i], n_samples=int(n_samples[i]))
            for i in range(len(feature))
        ]
        for i, node in enumerate(nodes):
            if feature[i] >= 0:
                node.feature = int(feature[i])
                node.threshold = float(threshold[i])
                node.left = nodes[left[i]]
                node.right = nodes[right[i]]
        model.tree_ = nodes[0]
        model.depth_ = _tree_depth(model.tree_)
        model.n_leaves_ = _count_leaves(model.tree_)
        return model


def _truncate(node: _Node, max_depth: Optional[int], min_samples_split: int) -> _Node:
    """Copy of the tree cut at ``max_depth`` and at every node with fewer
    than ``min_samples_split`` samples; cut nodes become leaves.

    Internal nodes already carry their class distribution, so the
    truncated copy is exactly the tree a fit with these limits would build.
    """
    root = _Node(node.distribution, node.n_samples)
    stack = [(node, root, 0)]
    while stack:
        source, copy, depth = stack.pop()
        if (
            source.is_leaf
            or (max_depth is not None and depth >= max_depth)
            or source.n_samples < min_samples_split
        ):
            continue
        copy.feature = source.feature
        copy.threshold = source.threshold
        copy.left = _Node(source.left.distribution, source.left.n_samples)
        copy.right = _Node(source.right.distribution, source.right.n_samples)
        stack.append((source.left, copy.left, depth + 1))
        stack.append((source.right, copy.right, depth + 1))
    return root


def _tree_depth(node: _Node) -> int:
    """Depth via explicit stack — safe for trees deeper than the
    interpreter recursion limit."""
    depth = 0
    stack = [(node, 0)]
    while stack:
        current, level = stack.pop()
        if current.is_leaf:
            if level > depth:
                depth = level
        else:
            stack.append((current.left, level + 1))
            stack.append((current.right, level + 1))
    return depth


def _count_leaves(node: _Node) -> int:
    """Leaf count via explicit stack (see :func:`_tree_depth`)."""
    leaves = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            leaves += 1
        else:
            stack.append(current.left)
            stack.append(current.right)
    return leaves
