"""Presorted split finding for decision-tree induction.

The original tree re-argsorted every feature at every node, making each
node O(d·n·log n). This module removes that redundancy in three steps:

* :class:`Presort` computes the per-feature stable sort order of the
  training matrix **once** — per fit, or per ``fit_candidates`` call,
  whose tuning families all grow from it — together with the per-sample
  value *ranks* (order-isomorphic to the raw values, so every comparison
  on them is exact); it carries the matrix it was built from, so it is
  the training matrix ``fit`` reads;
* :class:`PresortSplitter` maintains the per-feature order through the
  recursion by **stable boolean partition** (each child's order is the
  parent's order filtered by membership), turning per-node work into
  O(d·n); the order matrix is the only state threaded down — ranks and
  class payloads are re-gathered from per-sample tables;
* impurity is evaluated only at candidate boundaries (where consecutive
  sorted ranks differ) inside the min-leaf-feasible column window, for
  all features at once: the binary search from one positive-weight
  cumsum, the multi-class search from one (value-group × class) count
  table (:func:`group_left_counts`, built over blocks of features of
  bounded table size), whose integer counts equal the seed's
  per-position cumsum when every weight is 1.0. Weighted multi-class
  fits keep the seed's per-feature cumsum.

Every floating-point result mirrors the per-node argsort implementation
operand for operand — same cumsum partial sums, same impurity
expressions, same tie-breaking — so the induced trees are structurally
identical (feature / threshold / gain sequence) to the seed splitter.
The histogram backend (:mod:`repro.learn.histogram`) runs the same search
(:class:`SplitterBase`) over its own candidate bins.
The one intentional representation change: when every sample weight is
exactly 1.0, all running statistics are exact small integers, so they are
carried in narrow dtypes and summed in any convenient order — the floats
they produce are identical bit patterns.
"""

from __future__ import annotations

import numpy as np


class Presort:
    """Per-feature sort order and value ranks of a matrix, built once.

    ``order`` is feature-major ``(d, n)``: row j holds the sample ids of
    feature j's values in ascending order (mergesort-stable, ties in row
    order — exactly like the per-node argsort it replaces). ``ranks`` is
    ``(d, n)`` indexed by sample id: ``ranks[j, s]`` is the rank of
    ``X[s, j]`` among feature j's distinct values. ``matrix`` is the
    float64 matrix both were built from, so the tables cannot describe
    another one.
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


class SplitterBase:
    """Configuration, per-sample class payload, node distribution and the
    one split search shared by both backends.

    The search owns the node totals, the gain arithmetic and the
    tie-breaks. A backend supplies only what differs between them, given
    the node's opaque context: ``_binary_candidates(n, context)`` →
    ``(feat, cut, left_n, left_p, left_w or None)`` or None,
    ``_multiclass_candidates(n, context, k)`` → ``(lo, feat, cut,
    left_counts)`` blocks in feature order, and ``_threshold(context,
    feature, cut)``. ``prepared`` is the backend's prepared matrix
    (:class:`Presort` or a histogram binning); its ``matrix`` is ``X``.
    """

    def __init__(self, prepared, onehot, criterion, min_samples_leaf):
        self.X = X = prepared.matrix
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

    # ------------------------------------------------------------------
    # the split search both backends share
    # ------------------------------------------------------------------
    def best_split_binary(self, indices, context, sub, distribution):
        """Vectorized all-feature search for binary labels.

        ``sub`` is the node's ``onehot[indices]`` gather when the
        distribution needed one, reused so the node totals accumulate in
        exactly the seed's summation order.
        """
        n = len(indices)
        if n < 2 * self.min_leaf:
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
        found = self._binary_candidates(n, context)
        if found is None:
            return None
        feat, cut, left_n, left_p, left_w = found
        right_p = node_positive - left_p
        if unit:
            left_w = left_n.astype(np.float64)  # cumsum of exact 1.0s
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
        # row-major order — lowest split position (left_n - 1) first, then
        # lowest feature
        tied = np.nonzero(gains == best_gain)[0]
        if tied.size > 1:
            winner = tied[np.argmin((left_n[tied] - 1) * self.n_features + feat[tied])]
        else:
            winner = tied[0]
        f = int(feat[winner])
        threshold = self._threshold(context, f, int(cut[winner]))
        return f, threshold, float(gains[winner])

    def best_split_general(self, indices, context, node_counts):
        """All-feature search for multi-class labels.

        ``node_counts`` is the node's class-weight vector (the seed
        computed the identical ``onehot[indices].sum(axis=0)`` twice).
        """
        if node_counts.sum() <= 0:
            return None
        best = None
        blocks = self._multiclass_candidates(len(indices), context, len(node_counts))
        for lo, feat, cut, left_counts in blocks:
            found = best_multiclass_boundary(self.criterion, node_counts, left_counts)
            # blocks run in feature order, so a later block must be
            # strictly better: the first feature-major maximum wins
            if found is not None and (best is None or found[1] > best[2]):
                row, gain = found
                best = (lo + int(feat[row]), int(cut[row]), gain)
        if best is None:
            return None
        f, c, gain = best
        return f, self._threshold(context, f, c), gain

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
    """Split candidates and thresholds from presorted per-feature orders.

    One instance serves one ``fit``: it reads the :class:`Presort`'s
    tables (never writes them, so one presort serves many fits) and owns
    the membership scratch buffer used by :meth:`partition` and the
    criterion/minimum-leaf configuration shared by every node.
    """

    def __init__(self, presort, onehot, criterion, min_samples_leaf):
        super().__init__(presort, onehot, criterion, min_samples_leaf)
        self._ranks = presort.ranks
        self._root_order = presort.order
        self._member = np.zeros(self.n_samples, dtype=bool)
        if self.unit_weight and not self.binary:
            # each one-hot row holds a single 1.0, at the sample's class
            self._codes = onehot.argmax(axis=1).astype(
                np.min_scalar_type(onehot.shape[1] - 1)
            )

    def root_context(self) -> np.ndarray:
        """Recursion state of the root node (the full order matrix).

        Both split backends expose ``root_context``/``partition`` with
        an opaque per-node context; here the context is the presorted
        ``(d, n)`` order matrix.
        """
        return self._root_order

    # ------------------------------------------------------------------
    # candidate boundaries and thresholds
    # ------------------------------------------------------------------
    def _binary_candidates(self, n, order):
        """Boundaries inside the min-leaf window, with the positive (and,
        when weighted, total) weight left of each: impurity is scored
        only there — for one-hot-heavy matrices a tiny fraction of the
        d*(n-1) positions the argsort splitter scored at every node."""
        window = order[:, boundary_window(n, self.min_leaf)]
        feat, pos = rank_boundaries(
            np.take_along_axis(self._ranks, window, axis=1), self.min_leaf
        )
        if feat.size == 0:
            return None
        left_p = np.cumsum(self._positive[order], axis=1, dtype=np.float64)[feat, pos]
        left_w = None
        if not self.unit_weight:
            left_w = np.cumsum(self._weight[order], axis=1)[feat, pos]
        return feat, pos, pos + 1, left_p, left_w

    def _multiclass_candidates(self, n, order, n_classes):
        """Boundaries and their left class weights, in blocks of bounded
        table size (:func:`feature_blocks`); a node with few distinct
        values is one block."""
        sorted_ranks = np.take_along_axis(self._ranks, order, axis=1)
        starts = rank_starts(sorted_ranks)
        window = boundary_window(n, self.min_leaf)
        for lo, hi in feature_blocks(starts, n_classes):
            feat, pos = rank_boundaries(sorted_ranks[lo:hi, window], self.min_leaf)
            if feat.size == 0:
                continue
            if self.unit_weight:
                left_counts = group_left_counts(
                    starts[lo:hi], self._codes[order[lo:hi]], n_classes, feat, pos
                )
            else:
                # weighted partial sums depend on summation order: keep the
                # seed's positional cumsum, one (n, k) table per feature
                features, split = np.unique(feat, return_index=True)
                left_counts = np.concatenate([
                    np.cumsum(self.onehot[order[lo + f]], axis=0)[p]
                    for f, p in zip(features, np.split(pos, split[1:]))
                ])
            yield lo, feat, pos, left_counts

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
# candidate boundaries (both searches) and the multi-class group table
# ----------------------------------------------------------------------
def boundary_window(n, min_leaf):
    """Sorted positions ``min_leaf - 1 .. n - min_leaf`` of an n-sample
    node: their ranks decide every boundary whose children both hold
    ``min_leaf`` samples (the split after position ``p`` sends positions
    ``0..p`` left)."""
    return slice(min_leaf - 1, n - min_leaf + 1)


def rank_boundaries(window_ranks, min_leaf):
    """Feature-major ``(feature, position)`` of every boundary, from the
    node's sorted ranks gathered over :func:`boundary_window` only."""
    feat, pos = np.nonzero(window_ranks[:, :-1] != window_ranks[:, 1:])
    return feat, pos + (min_leaf - 1)


def rank_starts(sorted_ranks):
    """``(d, n)`` mask of group starts: position 0 of every feature and
    each position whose sorted rank differs from its predecessor's. A
    group is a run of equal values; every group end but a feature's last
    is a candidate boundary."""
    starts = np.empty(sorted_ranks.shape, dtype=bool)
    starts[:, 0] = True
    np.not_equal(sorted_ranks[:, 1:], sorted_ranks[:, :-1], out=starts[:, 1:])
    return starts


# class-count cells one block of features may fill (128 KB of int64): bounds
# the multi-class search's tables when a node has many distinct values, and
# keeps each block's (M × k) scoring temporaries cache-sized
TABLE_CELLS = 1 << 14


def feature_blocks(starts, n_classes):
    """Contiguous feature ranges ``(lo, hi)`` whose (group × class)
    tables stay near :data:`TABLE_CELLS` cells.

    A new block begins at each feature whose first group crosses a
    multiple of ``TABLE_CELLS // n_classes`` groups, so a block holds at
    most that many groups plus one feature's (at most n).
    """
    groups = np.count_nonzero(starts, axis=1)
    offsets = np.cumsum(groups) - groups
    block = offsets // max(TABLE_CELLS // n_classes, 1)
    edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(groups)]
    return zip(edges[:-1], edges[1:])


def group_left_counts(starts, sorted_codes, n_classes, feat, pos):
    """Left class counts at each boundary, from one class-count table.

    Groups are numbered feature-major (1-based) by one cumsum over
    ``starts``; one offset ``bincount`` over ``group * k + class`` fills
    the (groups × k) table, and its cumsum over groups minus the total
    before a feature's first group is the left count at every group end.

    Exact for unit weights only: the counts are small integers, so their
    float64 copies equal the per-position cumsum of 0/1 one-hot rows at
    every boundary, whatever the summation order. Weighted partial sums
    would round differently, so weighted fits do not come here.
    """
    d, n = starts.shape
    # keys reach (groups + 1) * k - 1, and groups <= d * n
    wide = (starts.size + 1) * n_classes > np.iinfo(np.int32).max
    group = np.cumsum(starts, axis=None, dtype=np.int64 if wide else np.int32)
    n_groups = int(group[-1])
    group = group.reshape(d, n)
    end = group[feat, pos]  # the group each boundary closes
    before = group[feat, 0] - 1  # the previous feature's last group
    key = group  # reused in place: group ids are no longer needed
    key *= n_classes
    key += sorted_codes
    table = np.bincount(key.ravel(), minlength=(n_groups + 1) * n_classes)
    table = table.reshape(n_groups + 1, n_classes)
    np.cumsum(table, axis=0, out=table)
    return (table[end] - table[before]).astype(np.float64)


def best_multiclass_boundary(criterion, node_counts, left_counts):
    """``(row, gain)`` of the best candidate in ``left_counts``, or None.

    ``left_counts`` is the ``(M, k)`` float64 table of every candidate's
    left class weights, in feature-major order. Every operation is
    row-wise, so each row's gain is the float the seed's per-feature loop
    computed for it. Tie-break: the lowest row among the maxima — the
    first feature whose gain is strictly greater, then its lowest
    position (the seed's multi-class rule). The binary search breaks
    ties the other way round: lowest position first, then lowest feature.
    """
    node_weight = node_counts.sum()
    node_impurity = _impurity(criterion, node_counts[None, :], node_weight)[0]
    right_counts = node_counts[None, :] - left_counts
    left_weight = left_counts.sum(axis=1)
    right_weight = right_counts.sum(axis=1)
    gains = _children_gain(
        (left_weight > 0) & (right_weight > 0), node_impurity, node_weight,
        left_weight, _impurity(criterion, left_counts, left_weight),
        right_weight, _impurity(criterion, right_counts, right_weight),
    )
    row = int(np.argmax(gains))
    if gains[row] == -np.inf:
        return None
    return row, float(gains[row])


# ----------------------------------------------------------------------
# the shared gain kernel and impurity functions
# ----------------------------------------------------------------------
def _children_gain(
    ok, node_impurity, node_weight, left_w, left_impurity, right_w, right_impurity
):
    """Impurity decrease of each candidate; ``-inf`` where not allowed.

    Shared by every weighted search: the binary path with two running
    statistics (total and positive weight), the general path with full
    class-count vectors.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        return _impurity_from_p(criterion, positive_weight / safe)


def _impurity(criterion, counts, totals):
    totals = np.asarray(totals, dtype=np.float64).reshape(-1, 1)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log2(p), 0.0)
    return -(p * logp).sum(axis=1)
