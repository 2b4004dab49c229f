"""Presorted split finding for decision-tree induction.

The original tree re-argsorted every feature at every node, making each
node O(d·n·log n). This module removes that redundancy in three steps:

* :class:`Presort` computes the per-feature stable sort order of the
  training matrix **once per fit** — or once per cross-validation fold,
  shared by every tuning candidate through the ``fit(..., presort=...)``
  hint — together with the per-sample value *ranks* (order-isomorphic to
  the raw values, so every comparison on them is exact);
* :class:`PresortSplitter` maintains the per-feature order through the
  recursion by **stable boolean partition** (each child's order is the
  parent's order filtered by membership), turning per-node work into
  O(d·n); the order matrix is the only state threaded down — ranks and
  class payloads are re-gathered from per-sample tables;
* both the binary and the general multi-class criterion run through one
  weighted-cumsum gain kernel that evaluates impurity only at candidate
  boundaries (where consecutive sorted ranks differ) inside the
  min-leaf-feasible column window, instead of at every sorted position.

Every floating-point result mirrors the per-node argsort implementation
operand for operand — same cumsum partial sums, same impurity
expressions, same tie-breaking — so the induced trees are structurally
identical (feature / threshold / gain sequence) to the seed splitter.
The one intentional representation change: when every sample weight is
exactly 1.0, all running statistics are exact small integers, so they are
carried in narrow dtypes and summed in any convenient order — the floats
they produce are identical bit patterns.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .. import telemetry


class Presort:
    """Per-feature sort order and value ranks of a matrix, built once.

    ``order`` is feature-major ``(d, n)``: row j holds the sample ids of
    feature j's values in ascending order (mergesort-stable, ties in row
    order — exactly like the per-node argsort it replaces). ``ranks`` is
    ``(d, n)`` indexed by sample id: ``ranks[j, s]`` is the rank of
    ``X[s, j]`` among feature j's distinct values.

    The hint is trusted only for the exact matrix object it was built
    from (:meth:`is_for`), so a stale hint degrades to a fresh argsort
    inside the estimator, never to a wrong tree.
    """

    __slots__ = ("matrix", "order", "ranks")

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"Presort expects a 2-D matrix, got shape {X.shape}")
        self.matrix = X
        self.order = np.argsort(X.T, axis=1, kind="mergesort").astype(np.int32)
        sorted_values = np.take_along_axis(X.T, self.order, axis=1)
        sorted_ranks = np.zeros(self.order.shape, dtype=np.int32)
        if X.shape[0] > 1:
            np.cumsum(
                sorted_values[:, 1:] != sorted_values[:, :-1],
                axis=1,
                dtype=np.int32,
                out=sorted_ranks[:, 1:],
            )
        self.ranks = np.empty_like(sorted_ranks)
        np.put_along_axis(self.ranks, self.order, sorted_ranks, axis=1)

    def is_for(self, X) -> bool:
        return X is self.matrix

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]


class SplitterBase:
    """Configuration and per-sample class payload shared by both split
    backends, and the one node-distribution routine they both use."""

    def __init__(self, X, onehot, criterion, min_samples_leaf):
        self.X = X
        self.onehot = onehot
        self.criterion = criterion
        self.min_leaf = int(min_samples_leaf)
        self.n_samples, self.n_features = X.shape
        self.binary = onehot.shape[1] == 2
        # per-sample total weight; rows equal onehot[indices].sum(axis=1)
        weight = onehot.sum(axis=1)
        self.unit_weight = bool(np.all(weight == 1.0))
        self._weight = None if self.unit_weight else weight
        if self.binary:
            positive = np.ascontiguousarray(onehot[:, 1])
            # exact 0/1 payload: int8 keeps the per-node gather and cumsum
            # traffic small; the partial sums are exact integers in any dtype
            self._positive = positive.astype(np.int8) if self.unit_weight else positive

    def _fit_hint(self, hint, build):
        """``hint`` when it was built for this ``X``, else ``build(X)``.

        A hint that was passed but fails ``is_for`` is counted as stale:
        the fit stays correct, it only loses the shared preparation.
        """
        if hint is not None and hint.is_for(self.X):
            return hint
        if hint is not None:
            telemetry.counter("learn.tree.stale_hint").inc()
        return build(self.X)

    def node_distribution(self, indices):
        """Class-weight vector of a node (the leaf distribution).

        For unit-weight binary labels the counts are exact integers read
        off the positive column; otherwise the seed's summation order is
        reproduced verbatim. Returns ``(distribution, onehot[indices] or
        None)`` so the binary split search can reuse the gather.
        """
        if self.binary and self.unit_weight:
            node_positive = float(self._positive[indices].sum())
            return np.asarray([len(indices) - node_positive, node_positive]), None
        sub = self.onehot[indices]
        return sub.sum(axis=0), sub


class PresortSplitter(SplitterBase):
    """Best-split search over presorted per-feature orders.

    One instance serves one ``fit``: it owns the presort tables, the
    membership scratch buffer used by :meth:`partition`, and the
    criterion/minimum-leaf configuration shared by every node.
    """

    def __init__(self, X, onehot, criterion, min_samples_leaf, presort=None):
        super().__init__(X, onehot, criterion, min_samples_leaf)
        presort = self._fit_hint(presort, Presort)
        self._ranks = presort.ranks
        self._root_order = presort.order
        self._member = np.zeros(self.n_samples, dtype=bool)

    def root_context(self) -> np.ndarray:
        """Recursion state of the root node (the full order matrix).

        Both split backends expose ``root_context``/``partition`` with
        an opaque per-node context; here the context is the presorted
        ``(d, n)`` order matrix.
        """
        return self._root_order

    # ------------------------------------------------------------------
    # split search
    # ------------------------------------------------------------------
    def best_split_binary(self, indices, order, sub, distribution):
        """Vectorized all-feature search for binary labels.

        ``order`` is the node's ``(d, n)`` presorted sample ids; ``sub``
        is the node's ``onehot[indices]`` gather when the distribution
        needed one, reused so the node totals accumulate in exactly the
        seed's summation order.
        """
        n = len(indices)
        d = self.n_features
        min_leaf = self.min_leaf
        if n < 2 * min_leaf:
            return None  # no split position can satisfy both leaves
        unit = self.unit_weight
        if unit:
            node_weight = float(n)  # sum of n exact unit weights
            node_positive = distribution[1]
        else:
            node_weight = sub.sum(axis=1).sum()
            node_positive = sub[:, 1].sum()
        if node_weight <= 0:
            return None
        node_impurity = _scalar_impurity_binary(
            self.criterion, node_positive / node_weight
        )

        # candidate boundaries, restricted to the min-leaf-feasible
        # window of split positions p in [min_leaf, n - min_leaf]
        lo = min_leaf - 1
        window = np.take_along_axis(
            self._ranks, order[:, lo : n - min_leaf + 1], axis=1
        )
        feat, pos = np.nonzero(window[:, :-1] < window[:, 1:])
        if feat.size == 0:
            return None
        if lo:
            pos = pos + lo

        # impurity only at the boundaries — for one-hot-heavy matrices a
        # tiny fraction of the d*(n-1) positions the argsort splitter
        # scored at every node
        cum_positive = np.cumsum(self._positive[order], axis=1, dtype=np.float64)
        left_p = cum_positive[feat, pos]
        right_p = node_positive - left_p
        if unit:
            left_w = pos + 1.0  # cumsum of exact 1.0s is the position
            right_w = node_weight - left_w
            # both sides hold >= min_leaf unit weights, so the seed's
            # left_w > 0 / right_w > 0 gate is vacuous here
            with np.errstate(divide="ignore", invalid="ignore"):
                left_impurity = _impurity_from_p(self.criterion, left_p / left_w)
                right_impurity = _impurity_from_p(self.criterion, right_p / right_w)
            gains = node_impurity - (
                (left_w * left_impurity + right_w * right_impurity) / node_weight
            )
        else:
            left_w = np.cumsum(self._weight[order], axis=1)[feat, pos]
            right_w = node_weight - left_w
            ok = (left_w > 0) & (right_w > 0)
            if not ok.any():
                return None
            left_impurity = _impurity_binary(self.criterion, left_p, left_w)
            right_impurity = _impurity_binary(self.criterion, right_p, right_w)
            gains = _children_gain(
                ok, node_impurity, node_weight,
                left_w, left_impurity, right_w, right_impurity,
            )
        best_gain = gains.max()
        if not np.isfinite(best_gain):
            return None
        # seed tie-break: argmax over the (positions, features) matrix in
        # row-major order — lowest split position first, then lowest feature
        tied = np.nonzero(gains == best_gain)[0]
        if tied.size > 1:
            winner = tied[np.argmin(pos[tied] * d + feat[tied])]
        else:
            winner = tied[0]
        f = int(feat[winner])
        p = int(pos[winner])
        return f, self._threshold(order, f, p), float(gains[winner])

    def best_split_general(self, indices, order, node_counts):
        """Per-feature search for multi-class labels (presorted orders).

        ``node_counts`` is the node's class-weight vector (the seed
        computed the identical ``onehot[indices].sum(axis=0)`` twice).
        """
        node_weight = node_counts.sum()
        if node_weight <= 0:
            return None
        node_impurity = _impurity(self.criterion, node_counts[None, :], node_weight)[0]
        best = None
        best_gain = -np.inf
        min_leaf = self.min_leaf
        n = len(indices)
        onehot = self.onehot
        ranks = self._ranks
        for feature in range(self.n_features):
            feature_order = order[feature]
            sorted_ranks = ranks[feature, feature_order]
            if sorted_ranks[0] == sorted_ranks[-1]:
                continue
            sorted_onehot = onehot[feature_order]
            left_cumulative = np.cumsum(sorted_onehot, axis=0)
            # candidate split after position i (left = 0..i)
            boundaries = np.nonzero(sorted_ranks[:-1] < sorted_ranks[1:])[0]
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
            left_impurity = _impurity(self.criterion, left_counts, left_weight)
            right_impurity = _impurity(self.criterion, right_counts, right_weight)
            gains = _children_gain(
                ok, node_impurity, node_weight,
                left_weight, left_impurity, right_weight, right_impurity,
            )
            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                best = (feature, self._threshold(order, feature, int(valid[pick])), best_gain)
        return best

    def _threshold(self, order, feature: int, position: int) -> float:
        """Midpoint of the boundary pair, read back from the raw matrix
        (identical floats to averaging the node's sorted values)."""
        lo = self.X[order[feature, position], feature]
        hi = self.X[order[feature, position + 1], feature]
        return float(0.5 * (lo + hi))

    # ------------------------------------------------------------------
    # recursion state
    # ------------------------------------------------------------------
    def partition(self, order, left_indices, right_indices=None):
        """Split a node's sorted order by membership, preserving order.

        Boolean compression is stable, so each child's per-feature order
        is exactly what re-argsorting the child would produce (mergesort
        ties resolve to ascending row ids in both). ``right_indices`` is
        part of the shared backend signature but unused here — the right
        order falls out of the same membership mask.
        """
        member = self._member
        member[left_indices] = True
        keep = member[order]
        member[left_indices] = False
        d = order.shape[0]
        n_right = order.shape[1] - left_indices.size
        left = order[keep].reshape(d, left_indices.size)
        right = order[~keep].reshape(d, n_right)
        return left, right


# ----------------------------------------------------------------------
# the shared gain kernel and impurity functions
# ----------------------------------------------------------------------
def _children_gain(
    ok, node_impurity, node_weight, left_w, left_impurity, right_w, right_impurity
):
    """Impurity decrease of each candidate; ``-inf`` where not allowed.

    This is the single weighted-cumsum gain kernel both criterion paths
    feed: the binary path with two running statistics (total and
    positive weight), the general path with full class-count vectors.
    """
    children = (left_w * left_impurity + right_w * right_impurity) / node_weight
    return np.where(ok, node_impurity - children, -np.inf)


def _impurity_from_p(criterion, p):
    """Binary impurity from positive-class fractions (no zero guards)."""
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    entropy = -(
        np.where(p > 0, p * np.log2(p), 0.0)
        + np.where(p < 1, (1.0 - p) * np.log2(1.0 - p), 0.0)
    )
    return entropy


def _scalar_impurity_binary(criterion, p) -> float:
    """Node-level binary impurity on a scalar fraction; identical
    floating-point ops to the array kernel, without the array overhead."""
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    left = p * np.log2(p) if p > 0 else 0.0
    right = (1.0 - p) * np.log2(1.0 - p) if p < 1 else 0.0
    return -(left + right)


def _impurity_binary(criterion, positive_weight, total_weight):
    safe = np.where(total_weight > 0, total_weight, 1.0)
    p = positive_weight / safe
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _impurity_from_p("entropy", p)


def _impurity(criterion, counts, totals):
    totals = np.asarray(totals, dtype=np.float64).reshape(-1, 1)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log2(p), 0.0)
    return -(p * logp).sum(axis=1)
