"""CART decision-tree classifier.

The paper's second baseline. Decision trees are invariant to monotone
feature rescaling, which is exactly the property Figure 3(b) demonstrates;
our implementation preserves it because split quality depends only on the
ordering of feature values.

The tree grows one level at a time (:class:`~repro.learn.splitter.Level`):
each depth scores every frontier node in one call, splits the whole
level by one comparison per row and carries the backend's state to the
children that may split again. Split search runs on one of two
interchangeable backends, each growing from a *prepared matrix* that
carries the matrix it was built from:

* the exact presorted backend (:mod:`repro.learn.splitter`): a
  :class:`Presort` drops constant columns, keeps each two-valued column
  as a low-value mask and one midpoint, and sorts only the columns with
  more than two values, whose order is carried from level to level by
  stable compression instead of re-argsorting at every node;
* the histogram backend (:mod:`repro.learn.histogram`): a
  :class:`HistogramBinning`'s ≤256 uint8 codes per feature, per-node
  class-count histograms accumulated with ``bincount`` and siblings
  derived by subtraction, so per-node candidate scoring is O(n_bins) per
  feature instead of O(n).

``fit`` prepares a plain matrix or takes a prepared one; ``fit_candidates``
prepares once and grows every tuning family from it. ``presort="auto"``
(the default) picks histogram at or above :data:`HISTOGRAM_AUTO_THRESHOLD`
rows and exact presort below it, so paper-scale fits stay byte-identical
to the seed implementation while million-row fits get the bounded-work
path.

A fitted tree is six parallel node arrays (:data:`TREE_DTYPES`), the same
ones ``to_state`` writes into an artifact, laid out in preorder: node,
left subtree, right subtree, so a left child is always its parent's
index + 1. Prediction is a level walk: all rows step down one level at a
time, a leaf routing to itself.
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
from .splitter import Level, Presort, PresortSplitter

_CRITERIA = ("gini", "entropy")

#: Row count at which ``presort="auto"`` switches from the exact presort
#: backend to the histogram backend. All four paper datasets (≤33k rows)
#: sit far below it, so default fits on them are unchanged node-for-node.
HISTOGRAM_AUTO_THRESHOLD = 65536

#: The node arrays of a fitted tree (``tree_``) and their dtypes, in
#: state order. ``feature`` is -1 and ``threshold`` NaN at a leaf, whose
#: ``left``/``right`` are -1; ``distribution`` is ``(n_nodes, n_classes)``.
TREE_DTYPES = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "n_samples": np.int64,
    "distribution": np.float64,
}


#: prepared-matrix type -> (backend name, split backend)
_BACKENDS = {
    Presort: ("exact", PresortSplitter),
    HistogramBinning: ("histogram", HistogramSplitter),
}


def _prepare(X, presort):
    """The prepared matrix of a checked ``X`` for the backend ``presort``
    names (``"auto"``: the row-count rule above)."""
    if presort == "auto":
        presort = "histogram" if X.shape[0] >= HISTOGRAM_AUTO_THRESHOLD else "exact"
    if presort == "exact":
        return Presort(X)
    if presort == "histogram":
        return HistogramBinning(X)
    raise ValueError(
        f"presort must be 'auto', 'exact' or 'histogram', got {presort!r}"
    )


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
        """Fit the tree on a matrix or on a prepared matrix.

        A prepared ``X`` (a :class:`Presort` or a :class:`HistogramBinning`)
        picks the backend by its type and is grown from as it is; its
        ``matrix`` is the training matrix, and ``presort`` must stay
        ``"auto"``. A plain matrix is prepared here for the backend
        ``presort`` names: ``"auto"``, ``"exact"`` or ``"histogram"``.
        """
        self._check_params()
        if type(X) in _BACKENDS:
            if presort != "auto":
                raise ValueError(
                    f"presort must be 'auto' when X is prepared, got {presort!r}"
                )
            prepared, X = X, check_matrix(X.matrix)
        else:
            X = check_matrix(X)
            prepared = _prepare(X, presort)
        y = check_labels(y, X.shape[0])
        sample_weight = check_sample_weight(sample_weight, X.shape[0])
        self.classes_, y_codes = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        onehot = np.zeros((X.shape[0], len(self.classes_)))
        onehot[np.arange(X.shape[0]), y_codes] = sample_weight
        # the resolved backend, recorded for benches and manifests
        self.fit_backend_, backend = _BACKENDS[type(prepared)]
        telemetry.counter(f"learn.tree_fit.{self.fit_backend_}").inc()
        splitter = backend(prepared, onehot, self.criterion, self.min_samples_leaf)
        with telemetry.span(
            "learn.tree_fit", backend=self.fit_backend_, rows=int(X.shape[0])
        ):
            tree, depth = self._grow(splitter)
        self._set_tree(tree, depth)
        return self

    def _check_params(self) -> None:
        """Raise ``ValueError`` on a hyperparameter ``fit`` cannot grow."""
        if self.criterion not in _CRITERIA:
            raise ValueError(
                f"criterion must be one of {_CRITERIA}, got {self.criterion!r}"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be None or >= 1, got {self.max_depth!r}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    def _grow(self, splitter):
        """Build the node arrays one level at a time.

        Each depth scores every frontier node in one ``best_splits`` call,
        sends every row of the split nodes left or right by one comparison
        and keeps the children that may split again as the next frontier:
        the kept left children in order, then the kept right ones. Nodes
        are numbered breadth-first as they are made and renumbered into
        preorder at the end. Returns the tree and every node's depth.

        ``splitter`` is either backend; the level context is opaque — the
        sorted columns' order matrix for the exact backend, class-count
        histograms for the histogram one. Its prepared matrix is C-ordered,
        so each row's split value is one flat ``take``.
        """
        X = splitter.X
        n, d = X.shape
        level = Level(np.arange(n), np.array([n]))
        distribution = splitter.distributions(level.rows, level.node, 1)
        # per depth: the nodes made (sizes, distributions) and the splits,
        # (parents, features, thresholds, first child's number)
        sizes, distributions, splits = [level.sizes], [distribution], []
        ids, made = np.zeros(1, dtype=np.int64), 1
        context = splitter.root_context()
        kept = self._may_split(level.sizes, distribution, 0)
        while kept.any():
            feature, threshold, gain = splitter.best_splits(
                context, level, distribution
            )
            split = (feature >= 0) & (gain >= self.min_impurity_decrease)
            n_split = int(np.count_nonzero(split))
            if not n_split:
                break
            splits.append((ids[split], feature[split], threshold[split], made))
            # a level is node after node, so per-node values reach its rows
            # by repeat; an unsplit node's NaN threshold sends its rows
            # nowhere. Boolean selections go through flatnonzero + take,
            # several times faster than a mask index on a mixed mask.
            per_row = level.sizes
            at = np.repeat(np.maximum(feature, 0), per_row)
            at += level.rows * d
            bound = np.where(split, threshold, np.nan)
            go_left = X.take(at) <= np.repeat(bound, per_row)
            left_n = np.add.reduceat(go_left, level.starts, dtype=np.int64)[split]
            child_sizes = np.concatenate((left_n, level.sizes[split] - left_n))
            # split node j's children are j (left) and n_split + j (right)
            child = np.repeat(np.cumsum(split) - 1, per_row)
            child += n_split * ~go_left
            rows = level.rows
            if n_split < len(split):
                inside = np.flatnonzero(np.repeat(split, per_row))
                rows, child = rows.take(inside), child.take(inside)
            distribution = splitter.distributions(rows, child, 2 * n_split)
            del at, child, rows  # level-sized; partitioning needs the room
            sizes.append(child_sizes)
            distributions.append(distribution)
            kept = self._may_split(child_sizes, distribution, len(sizes) - 1)
            ids = (made + np.arange(2 * n_split))[kept]
            made += 2 * n_split
            if not kept.any():
                break
            # each position's place in the next level: 1 in a kept left
            # child, 2 in a kept right one, 0 gone
            kept_by_node = np.zeros((2, len(split)), dtype=np.int8)
            kept_by_node[:, split] = kept.reshape(2, n_split)
            kept_right = np.repeat(kept_by_node[1], per_row)
            side = np.repeat(kept_by_node[0], per_row) - kept_right
            side *= go_left
            side += kept_right  # kept: 1 either side, else 0
            side <<= ~go_left  # a right child's 1 becomes 2
            context = splitter.partition(context, level, side, go_left)
            ordered = (level.rows.take(np.flatnonzero(side == s)) for s in (1, 2))
            level = Level(np.concatenate(tuple(ordered)), child_sizes[kept])
            distribution = distribution[kept]
        return _preorder(made, sizes, distributions, splits)

    def _may_split(self, sizes, distribution, depth):
        """Which of a level's nodes the search visits: those with enough
        samples and more than one class, above the depth limit."""
        if self.max_depth is not None and depth >= self.max_depth:
            return np.zeros(len(sizes), dtype=bool)
        return (sizes >= self.min_samples_split) & (
            np.count_nonzero(distribution, axis=1) > 1
        )

    def _set_tree(self, tree: dict, depth=None) -> None:
        """Install node arrays as the fitted tree, with the tables
        prediction reads. ``depth`` (every node's depth) is computed one
        level at a time when the caller does not already have it."""
        if depth is None:
            depth = _node_depths(tree)
        feature = tree["feature"]
        leaf = feature < 0
        self.tree_ = tree
        self._node_depth = depth
        self.depth_ = int(depth.max())
        self.n_leaves_ = int(np.count_nonzero(leaf))
        # a leaf routes to itself: X is finite, so X <= +inf always holds
        node = np.arange(len(feature))
        self._route = (
            np.where(leaf, 0, feature),
            np.where(leaf, np.inf, tree["threshold"]),
            np.where(leaf, node, tree["left"]),
            np.where(leaf, node, tree["right"]),
        )
        distribution = tree["distribution"]
        totals = distribution.sum(axis=1, keepdims=True)
        uniform = np.full_like(distribution, 1.0 / distribution.shape[1])
        self._proba = np.divide(distribution, totals, out=uniform, where=totals > 0)

    def fit_candidates(
        self, candidates, X, y, sample_weight=None, presort="auto"
    ):
        """Fit one tree per parameter dict, sharing work across the family.

        Grid-search hook: candidates that differ only in ``max_depth`` and
        ``min_samples_split`` share one induction. Both merely stop the
        growth (at a depth, or at a node with fewer samples) and never
        change the split a node gets, so each member is exactly a truncation
        of the tree fit at the family's deepest ``max_depth`` and smallest
        ``min_samples_split`` (internal nodes record their distributions).
        Every returned estimator is node-for-node identical to its ``fit``.

        ``X`` is prepared once, for the backend ``presort`` names (see
        ``fit``), and every family grows from that one preparation.
        """
        models = [clone(self).set_params(**params) for params in candidates]
        for model in models:
            model._check_params()  # a truncated member is never fit itself
        prepared = _prepare(check_matrix(X), presort)
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
            deep.fit(prepared, y, sample_weight=sample_weight)
            for model in members:
                model.classes_, model.n_features_ = deep.classes_, deep.n_features_
                tree, depth = deep.tree_, deep._node_depth
                if (model.max_depth, model.min_samples_split) != (deepest, smallest):
                    tree, depth = _truncate(
                        tree, depth, model.max_depth, model.min_samples_split
                    )
                model._set_tree(tree, depth)
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
        feature, threshold, left, right = self._route
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.depth_):
            node = np.where(
                X[rows, feature[node]] <= threshold[node], left[node], right[node]
            )
        return self._proba[node]

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------
    # serialization: the node arrays as they are
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        self._check_fitted("tree_")
        state = {
            "params": self.get_params(),
            "classes_": labels_to_state(self.classes_),
            "n_features_": int(self.n_features_),
        }
        state.update((key, self.tree_[key].copy()) for key in TREE_DTYPES)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTreeClassifier":
        model = cls(**state["params"])
        model.classes_ = labels_from_state(state["classes_"])
        model.n_features_ = int(state["n_features_"])
        tree = {
            key: np.asarray(state[key], dtype=dtype)
            for key, dtype in TREE_DTYPES.items()
        }
        _check_tree(tree, model.n_features_, len(model.classes_))
        model._set_tree(tree)
        return model


def _check_tree(tree: dict, n_features: int, n_classes: int) -> None:
    """Raise ``ValueError`` unless the node arrays form one tree.

    Both children lie past their parent and every node but the root is a
    child exactly once, so the arrays are a tree rooted at node 0 by
    construction and every level walk over them ends.
    """
    n = tree["feature"].size
    shapes = {key: (n,) for key in TREE_DTYPES}
    shapes["distribution"] = (n, n_classes)
    if n == 0 or any(tree[key].shape != shape for key, shape in shapes.items()):
        raise ValueError(
            f"tree state needs n >= 1 nodes and an (n, {n_classes}) distribution"
        )
    feature, left, right = tree["feature"], tree["left"], tree["right"]
    node = np.arange(n)
    internal = feature >= 0
    if not np.where(
        internal,
        (left == node + 1) & (node + 1 < right) & (right < n),
        (left == -1) & (right == -1),
    ).all():
        raise ValueError("tree state has a child index out of place")
    children = np.sort(np.concatenate((left[internal], right[internal])))
    if not np.array_equal(children, node[1:]):
        raise ValueError("tree state has a node that is not a child exactly once")
    threshold = tree["threshold"][internal]
    if (feature >= n_features).any() or not np.isfinite(threshold).all():
        raise ValueError(
            f"tree state has a split feature outside [0, {n_features}) "
            "or a non-finite split threshold"
        )


def _node_depths(tree: dict) -> np.ndarray:
    """Every node's depth, one level at a time (the walk ends on any tree
    :func:`_check_tree` accepts)."""
    feature, left, right = tree["feature"], tree["left"], tree["right"]
    depth = np.zeros(len(feature), dtype=np.int64)
    level, d = np.zeros(1, dtype=np.int64), 0
    while level.size:
        depth[level] = d
        internal = level[feature[level] >= 0]
        level = np.concatenate((left[internal], right[internal]))
        d += 1
    return depth


def _preorder(made, sizes, distributions, splits):
    """The node arrays of a tree grown breadth-first, in preorder, and
    every node's depth.

    ``sizes`` and ``distributions`` hold each depth's nodes in the order
    they were numbered; ``splits`` holds each depth's ``(parents,
    features, thresholds, first)``, whose children are numbered from
    ``first``: the left ones, then the right ones. Subtree sizes are summed
    bottom-up, then each left child sits right after its parent and each
    right child after its sibling's subtree.
    """
    feature = np.full(made, -1, dtype=np.int64)
    threshold = np.full(made, np.nan)
    left = np.full(made, -1, dtype=np.int64)
    right = np.full(made, -1, dtype=np.int64)
    for parents, features, thresholds, first in splits:
        feature[parents] = features
        threshold[parents] = thresholds
        left[parents] = first + np.arange(len(parents))
        right[parents] = first + len(parents) + np.arange(len(parents))
    subtree = np.ones(made, dtype=np.int64)
    for parents, *_ in reversed(splits):
        subtree[parents] += subtree[left[parents]] + subtree[right[parents]]
    position = np.zeros(made, dtype=np.int64)
    for parents, *_ in splits:
        position[left[parents]] = position[parents] + 1
        position[right[parents]] = position[parents] + 1 + subtree[left[parents]]
    internal = feature >= 0
    tree = {
        "feature": feature,
        "threshold": threshold,
        "left": np.where(internal, position[left], -1),
        "right": np.where(internal, position[right], -1),
        "n_samples": np.concatenate(sizes),
        "distribution": np.concatenate(distributions),
    }
    depth = np.repeat(np.arange(len(sizes)), [len(level) for level in sizes])
    preorder = np.empty(made, dtype=np.int64)
    preorder[position] = np.arange(made)
    return {key: column[preorder] for key, column in tree.items()}, depth[preorder]


def _truncate(tree: dict, depth, max_depth: Optional[int], min_samples_split: int):
    """The tree cut at ``max_depth`` and at every node with fewer than
    ``min_samples_split`` samples; cut nodes become leaves. Returns the
    cut tree and its node depths.

    Internal nodes already carry their class distribution, so the cut
    tree is exactly the tree a fit with these limits would build. A child
    is one level deeper than its parent and holds no more samples, so if
    a parent is not cut, neither is any further ancestor: a node survives
    iff its parent is not cut. Dropping whole subtrees keeps the preorder,
    so the survivors are renumbered by a cumsum.
    """
    feature, left, right = tree["feature"], tree["left"], tree["right"]
    cut = tree["n_samples"] < min_samples_split
    if max_depth is not None:
        cut |= depth >= max_depth
    internal = np.flatnonzero(feature >= 0)
    keep = np.ones(len(feature), dtype=bool)
    keep[left[internal]] = ~cut[internal]
    keep[right[internal]] = ~cut[internal]
    split = (feature >= 0) & ~cut
    renumbered = np.cumsum(keep) - 1
    cut_tree = {
        "feature": np.where(split, feature, -1),
        "threshold": np.where(split, tree["threshold"], np.nan),
        "left": np.where(split, renumbered[left], -1),
        "right": np.where(split, renumbered[right], -1),
        "n_samples": tree["n_samples"],
        "distribution": tree["distribution"],
    }
    return {key: column[keep] for key, column in cut_tree.items()}, depth[keep]
