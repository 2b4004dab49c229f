"""Presorted split finding for decision-tree induction, one level at a time.

The original tree re-argsorted every feature at every node, making each
node O(d·n·log n). This module removes that redundancy in three steps:

* :class:`Presort` classifies and sorts the columns **once** — per fit,
  or per ``fit_candidates`` call, whose tuning families all grow from it.
  A constant column never splits, so it leaves the search. A two-valued
  column splits only between its two values, so it keeps a mask of the
  samples holding its low value and its one midpoint threshold. Only a
  column with more than two distinct values keeps a stable sort order and
  value *ranks* (order-isomorphic to the raw values, so every comparison
  on them is exact). One-hot and binary-coded matrices are mostly
  two-valued, so few columns are sorted;
* the tree grows a :class:`Level` at a time: the frontier's rows, node
  after node. :meth:`SplitterBase.best_splits` scores every frontier node
  in one call, and :meth:`PresortSplitter.partition` carries the sorted
  columns' order to the next level by one **stable boolean compression**
  of the whole level (each child's order is its parent's filtered by
  membership, exactly what re-argsorting the child would produce);
* impurity is evaluated only at candidate boundaries: for a sorted column
  where consecutive ranks differ inside a node's min-leaf window, for a
  two-valued column where a node's low group leaves both children
  ``min_samples_leaf`` samples. A sorted column's left statistics are
  running sums restarted at every node (:func:`segment_cumsum`); a
  two-valued column's are sums of each node's low group, by ``bincount``
  in row order. The multi-class search counts unit-weight classes in one
  (value-group × class) table per bounded block of sorted columns
  (:func:`group_left_counts`).

Every floating-point result mirrors the per-node argsort implementation
operand for operand — same sequential partial sums, same impurity
expressions, same tie-breaking — so the induced trees are structurally
identical (feature / threshold / gain sequence) to the seed splitter.
The histogram backend (:mod:`repro.learn.histogram`) runs the same search
(:class:`SplitterBase`) over its own candidate bins.
The one intentional representation change: when every sample weight is
exactly 1.0, all running statistics are exact small integers, so they are
carried in integer dtypes and summed in any convenient order — the floats
they produce are identical bit patterns. Weighted sums keep the seed's
sequential order.
"""

from __future__ import annotations

import numpy as np


class Presort:
    """Column classes of a matrix and its many-valued columns' order.

    ``two_valued`` lists the columns with exactly two distinct values:
    ``low[s, i]`` says whether sample s holds column ``two_valued[i]``'s
    lower value, and ``midpoints[i]`` is the mean of its two values.
    ``sorted_features`` lists the columns with more than two: row i of
    the ``(m, n)`` ``order`` holds the sample ids in ascending value of
    column ``sorted_features[i]`` (mergesort-stable, ties in row order —
    exactly like the per-node argsort it replaces), and ``ranks[i, s]`` is
    the rank of sample s's value among that column's distinct values.
    Constant columns are in neither list. ``matrix`` is the C-ordered
    float64 matrix all were built from, so the tables cannot describe
    another.
    """

    __slots__ = (
        "matrix", "two_valued", "low", "midpoints", "sorted_features", "order", "ranks"
    )

    def __init__(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"Presort expects a 2-D matrix, got shape {X.shape}")
        self.matrix = X
        lo = X.min(axis=0, initial=np.inf)
        hi = X.max(axis=0, initial=-np.inf)
        low = X == lo
        spread = lo < hi
        two = spread & (low | (X == hi)).all(axis=0)
        self.two_valued = np.flatnonzero(two)
        self.low = np.ascontiguousarray(low[:, two])
        self.midpoints = 0.5 * (lo[two] + hi[two])
        self.sorted_features = np.flatnonzero(spread & ~two)
        columns = X[:, self.sorted_features].T
        self.order = np.argsort(columns, axis=1, kind="mergesort").astype(np.int32)
        sorted_values = np.take_along_axis(columns, self.order, axis=1)
        sorted_ranks = np.zeros(self.order.shape, dtype=np.int32)
        np.cumsum(
            sorted_values[:, 1:] != sorted_values[:, :-1],
            axis=1,
            dtype=np.int32,
            out=sorted_ranks[:, 1:],
        )
        self.ranks = np.empty_like(sorted_ranks)
        np.put_along_axis(self.ranks, self.order, sorted_ranks, axis=1)


class Level:
    """The frontier of one tree level: its nodes' rows, node after node.

    ``rows`` holds each node's sample ids in ascending order, one node
    after another, and ``sizes[i]`` is node i's row count; ``starts`` and
    ``node`` (each position's node) follow from them.
    """

    __slots__ = ("rows", "sizes", "starts", "node")

    def __init__(self, rows, sizes):
        self.rows = rows
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.node = np.repeat(np.arange(len(sizes)), sizes)

    def nodes(self, a, b):
        """The level of nodes ``a`` to ``b`` alone."""
        sizes = self.sizes[a:b]
        first = int(self.starts[a])
        return Level(self.rows[first:first + int(sizes.sum())], sizes)

    def offset(self, position):
        """Each position's index inside its node."""
        return position - self.starts[self.node[position]]

    def window(self, min_leaf):
        """Positions a split may follow: the split after offset ``p``
        sends a node's offsets ``0..p`` left, and both children must hold
        ``min_leaf`` samples."""
        offset = self.offset(np.arange(len(self.rows)))
        return (offset >= min_leaf - 1) & (offset < self.sizes[self.node] - min_leaf)


class SplitterBase:
    """Configuration, per-sample class payload, node distributions and
    the one level-wide split search shared by both backends.

    The search owns the node totals, the gain arithmetic and the
    tie-breaks. A backend supplies only what differs between them, given
    the level's opaque context: ``_binary_candidates(context, level)`` →
    ``(node, feat, left_n, cut, left_p, left_w or None)``,
    ``_multiclass_candidates(context, level, distribution)`` → ``(node,
    feat, left_n, cut, left_counts)`` blocks, ``_thresholds(context,
    node, feat, cut)`` of the winners, and ``root_context()`` /
    ``partition(context, level, side, go_left)``. ``prepared`` is
    the backend's prepared matrix (:class:`Presort` or a histogram
    binning); its ``matrix`` is ``X``.
    """

    def __init__(self, prepared, onehot, criterion, min_samples_leaf):
        self.X = X = prepared.matrix
        self.onehot = onehot
        self.criterion = criterion
        self.min_leaf = int(min_samples_leaf)
        self.n_samples, self.n_features = X.shape
        self.n_classes = k = onehot.shape[1]
        self.binary = k == 2
        # per-sample total weight; rows equal onehot[indices].sum(axis=1)
        self._weight = onehot.sum(axis=1)
        self.unit_weight = bool(np.all(self._weight == 1.0))
        # each sample's class, its one non-zero one-hot entry (a sample of
        # weight 0.0 adds nothing wherever it is counted)
        self._codes = onehot.argmax(axis=1).astype(np.min_scalar_type(k - 1))
        if self.binary:
            positive = np.ascontiguousarray(onehot[:, 1])
            # exact 0/1 payload: int8 keeps the level gathers and cumsum
            # traffic small; the partial sums are exact integers in any dtype
            self._positive = positive.astype(np.int8) if self.unit_weight else positive

    def distributions(self, rows, node, n_nodes):
        """Class-weight vectors of ``n_nodes`` nodes (their leaf
        distributions), from their rows and each row's node. ``bincount``
        adds each node's weights in row order, as the seed's
        ``onehot[indices].sum(axis=0)`` did."""
        k = self.n_classes
        key = node * k + self._codes[rows]
        if self.unit_weight:
            counts = np.bincount(key, minlength=n_nodes * k).astype(np.float64)
        else:
            counts = np.bincount(key, weights=self._weight[rows], minlength=n_nodes * k)
        return counts.reshape(n_nodes, k)

    # ------------------------------------------------------------------
    # the split search both backends share
    # ------------------------------------------------------------------
    def best_splits(self, context, level, distribution):
        """Every frontier node's best split, found in one call.

        ``distribution`` is the nodes' class-weight matrix. Returns
        ``(feature, threshold, gain)`` arrays over the level's nodes;
        ``feature`` is -1 and ``gain`` not finite where a node has no
        allowed split.
        """
        n_nodes = len(level.sizes)
        gains = self._binary_gains if self.binary else self._multiclass_gains
        node, feat, left_n, cut, gains = gains(context, level, distribution)
        # binary: lowest position, then lowest feature; multi-class: the
        # other way round
        major, minor = (left_n, feat) if self.binary else (feat, left_n)
        best = np.full(n_nodes, -np.inf)
        np.maximum.at(best, node, gains)
        tied = np.flatnonzero((gains == best[node]) & np.isfinite(gains))
        key = major[tied] * (int(minor.max(initial=0)) + 1) + minor[tied]
        lowest = np.full(n_nodes, np.iinfo(np.int64).max)
        np.minimum.at(lowest, node[tied], key)
        win = tied[key == lowest[node[tied]]]
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.full(n_nodes, np.nan)
        feature[node[win]] = feat[win]
        threshold[node[win]] = self._thresholds(context, node[win], feat[win], cut[win])
        return feature, threshold, best

    def _binary_gains(self, context, level, distribution):
        """Binary-label candidates of every node and their gains."""
        if self.unit_weight:
            node_weight = level.sizes.astype(np.float64)  # sums of exact 1.0s
            node_positive = distribution[:, 1]
        else:
            # the seed's pairwise ``.sum()`` of each node's rows: no
            # segmented reduction adds in that order
            weight = self._weight[level.rows]
            positive = self._positive[level.rows]
            ends = (level.starts + level.sizes).tolist()
            node_weight, node_positive = np.asarray([
                (weight[a:b].sum(), positive[a:b].sum())
                for a, b in zip(level.starts.tolist(), ends)
            ]).T
        with np.errstate(divide="ignore", invalid="ignore"):
            p = node_positive / node_weight
            node_impurity = _impurity_from_p(self.criterion, p)
        node, feat, left_n, cut, left_p, left_w = self._binary_candidates(
            context, level
        )
        if left_w is None:
            left_w = left_n.astype(np.float64)  # cumsum of exact 1.0s
        total = node_weight[node]
        right_w = total - left_w
        right_p = node_positive[node] - left_p
        gains = _children_gain(
            (total > 0) & (left_w > 0) & (right_w > 0), node_impurity[node], total,
            left_w, _impurity_binary(self.criterion, left_p, left_w),
            right_w, _impurity_binary(self.criterion, right_p, right_w),
        )
        return node, feat, left_n, cut, gains

    def _multiclass_gains(self, context, level, distribution):
        """Multi-class candidates of every node and their gains, scored
        in row blocks that keep each block's (candidates × classes)
        temporaries near :data:`TABLE_CELLS` cells."""
        node_weight = distribution.sum(axis=1)
        node_impurity = _impurity(self.criterion, distribution, node_weight)
        step = max(TABLE_CELLS // self.n_classes, 1)
        parts = [(np.zeros(0, dtype=np.int64),) * 4 + (np.zeros(0),)]
        blocks = self._multiclass_candidates(context, level, distribution)
        for node, feat, left_n, cut, left_counts in blocks:
            gains = np.empty(len(node))
            for lo in range(0, len(node), step):
                at = node[lo:lo + step]
                gains[lo:lo + step] = multiclass_gains(
                    self.criterion, distribution[at], node_weight[at],
                    node_impurity[at], left_counts[lo:lo + step],
                )
            parts.append((node, feat, left_n, cut, gains))
        return tuple(np.concatenate(column) for column in zip(*parts))


class PresortSplitter(SplitterBase):
    """Split candidates and thresholds from a :class:`Presort`.

    One instance serves one ``fit``: it reads the presort's tables and
    never writes them, so one presort serves many fits. The level
    context is the ``(m, N)`` order matrix of the sorted columns: row i
    lists every frontier node's samples in ascending value of column
    ``sorted_features[i]``, node after node, as ``Level.rows`` does.
    """

    def __init__(self, presort, onehot, criterion, min_samples_leaf):
        super().__init__(presort, onehot, criterion, min_samples_leaf)
        self._presort = presort
        self._midpoint = np.full(self.n_features, np.nan)
        self._midpoint[presort.two_valued] = presort.midpoints
        self._sorted_row = np.full(self.n_features, -1)
        self._sorted_row[presort.sorted_features] = np.arange(
            len(presort.sorted_features)
        )

    def root_context(self) -> np.ndarray:
        """The root level's order matrix: the presort's own."""
        return self._presort.order

    # ------------------------------------------------------------------
    # candidate boundaries and thresholds
    # ------------------------------------------------------------------
    def _low_groups(self, level):
        """The two-valued columns on this level: the ``(N, t)`` mask of
        positions holding each column's low value, and the candidate
        ``(node, column)`` cells — those whose low group leaves both
        children ``min_leaf`` samples — with their low-group sizes.
        Sample counts are exact integers, so ``reduceat`` may add them."""
        low = self._presort.low[level.rows]
        left_n = np.add.reduceat(low, level.starts, axis=0, dtype=np.int64)
        room = level.sizes[:, None] - self.min_leaf
        node, column = np.nonzero((left_n >= self.min_leaf) & (left_n <= room))
        return low, node, column, left_n[node, column]

    def _low_sums(self, level, low, payload):
        """``(S, t)`` sums of a per-sample ``payload`` over each node's
        low groups: the seed's cumsum over the column's sorted order, in
        which the low group comes first, rows ascending. A 0/1 integer
        payload (unit weights) is counted, exact in any order; a float
        one is added in row order by one ``bincount`` (a high sample adds
        0.0, which changes no running sum)."""
        if payload.dtype.kind != "f":
            hits = low & (payload[level.rows] != 0)[:, None]
            return np.add.reduceat(hits, level.starts, axis=0, dtype=np.int64)
        n_nodes, t = len(level.sizes), low.shape[1]
        cell = (level.node * t)[:, None] + np.arange(t)
        values = np.where(low, payload[level.rows][:, None], 0.0)
        sums = np.bincount(cell.ravel(), weights=values.ravel(), minlength=n_nodes * t)
        return sums.reshape(n_nodes, t)

    def _sorted_boundaries(self, order, level):
        """``(row, position)`` of every sorted-column boundary, row-major,
        and the level's group-start mask: position 0 of each node and
        each position whose rank differs from its predecessor's."""
        starts = rank_starts(np.take_along_axis(self._presort.ranks, order, axis=1))
        starts[:, level.starts] = True
        row, position = np.nonzero(starts[:, 1:] & level.window(self.min_leaf)[:-1])
        return row, position, starts

    def _binary_candidates(self, order, level):
        """Boundaries of both column classes, with the positive (and,
        when weighted, total) weight left of each: impurity is scored
        only there — for one-hot-heavy matrices a tiny fraction of the
        d*(n-1) positions the argsort splitter scored at every node."""
        low, node, column, pair_n = self._low_groups(level)
        row, position, _ = self._sorted_boundaries(order, level)

        def left_sums(payload):
            return np.concatenate((
                self._low_sums(level, low, payload)[node, column],
                segment_cumsum(payload[order], level, (row, position)),
            ))

        return (
            np.concatenate((node, level.node[position])),
            np.concatenate((
                self._presort.two_valued[column], self._presort.sorted_features[row]
            )),
            np.concatenate((pair_n, level.offset(position) + 1)),
            np.concatenate((np.full(len(node), -1), position)),
            left_sums(self._positive).astype(np.float64),
            None if self.unit_weight else left_sums(self._weight),
        )

    def _multiclass_candidates(self, order, level, distribution):
        """Boundaries and their left class weights: the two-valued
        columns' from one (candidate × class) ``bincount``, the sorted
        columns' in blocks of bounded table size (:func:`feature_blocks`);
        a level with few distinct values is one block."""
        k = self.n_classes
        unit = self.unit_weight
        low, node, column, pair_n = self._low_groups(level)
        if node.size:
            # unit weights count the (sparser, for one-hot columns) high
            # groups, exact integers, and take them from the node's counts
            # (the fig45-adult sweep ran 1.18x faster on 2 cores than with
            # low-group counts); weights add each low group in row order
            slot = np.full((len(level.sizes), low.shape[1]), -1)
            slot[node, column] = np.arange(node.size)
            position, col = np.nonzero(~low if unit else low)
            at = slot[level.node[position], col]
            rows = level.rows[position[at >= 0]]
            table = np.bincount(
                at[at >= 0] * k + self._codes[rows],
                weights=None if unit else self._weight[rows],
                minlength=node.size * k,
            ).reshape(-1, k)
            left_counts = distribution[node] - table if unit else table
            feat = self._presort.two_valued[column]
            yield node, feat, pair_n, np.full(node.size, -1), left_counts
        row, position, starts = self._sorted_boundaries(order, level)
        if unit:
            blocks = feature_blocks(starts, k)
        else:
            blocks = ((r, r + 1) for r in np.unique(row).tolist())
        for lo, hi in blocks:
            a, b = np.searchsorted(row, (lo, hi))
            if a == b:
                continue
            pos = position[a:b]
            node = level.node[pos]
            if unit:
                left_counts = group_left_counts(
                    starts[lo:hi], self._codes[order[lo:hi]], k,
                    row[a:b] - lo, pos, level.starts[node],
                )
            else:
                # weighted partial sums depend on summation order: the
                # seed's per-node cumsum of the (n, k) one-hot rows
                left_counts = segment_cumsum(
                    self.onehot[order[lo]].T, level, (slice(None), pos)
                ).T
            yield (node, self._presort.sorted_features[row[a:b]],
                   level.offset(pos) + 1, pos, left_counts)

    def _thresholds(self, order, node, feat, cut):
        """A two-valued column's midpoint; a sorted column's boundary
        pair's midpoint, read back from the raw matrix (identical floats
        to averaging the node's sorted values)."""
        threshold = self._midpoint[feat]
        at = cut >= 0
        row, position, feat = self._sorted_row[feat[at]], cut[at], feat[at]
        lo = self.X[order[row, position], feat]
        hi = self.X[order[row, position + 1], feat]
        threshold[at] = 0.5 * (lo + hi)
        return threshold

    # ------------------------------------------------------------------
    # the next level
    # ------------------------------------------------------------------
    def partition(self, order, level, side, go_left):
        """The next level's order matrix: each position's ``side`` (1: a
        kept left child, 2: a kept right child, 0: gone) selects its
        sample, by one stable compression per side, so the kept left
        children come first, then the kept right ones, as in the next
        ``Level``. Compression keeps each child's per-column order exactly
        what re-argsorting the child would produce (mergesort ties resolve
        to ascending row ids in both). ``go_left`` is for the histogram
        backend."""
        status = np.zeros(self.n_samples, dtype=np.int8)
        status[level.rows] = side
        status = status[order].ravel()
        m = order.shape[0]
        return np.concatenate([
            np.compress(status == s, order).reshape(m, np.count_nonzero(side == s))
            for s in (1, 2)
        ], axis=1)


# ----------------------------------------------------------------------
# running sums, candidate groups and the multi-class group table
# ----------------------------------------------------------------------
def segment_cumsum(values, level, at):
    """Running sums along the last axis of ``values`` (laid out like
    ``level.rows``), restarted at every node, read at the index ``at``
    (its last entry indexes positions).

    Integer values (unit weights) are exact in any order: one cumsum less
    each node's preceding total. Float values are added in sequence from
    each node's first position, as the seed's per-node cumsum did: the
    nodes of one size class ``[2^(e-1), 2^e)`` are padded to one width
    and summed row by row, so a padded block holds fewer than twice the
    cells it sums.
    """
    if values.dtype.kind != "f":
        # counts below n, which int32 sample ids already bound
        total = np.cumsum(values, axis=-1, dtype=np.int32)
        before = np.zeros(values.shape[:-1] + level.sizes.shape, dtype=total.dtype)
        before[..., 1:] = total[..., level.starts[1:] - 1]
        return total[at] - before[at[:-1] + (level.node[at[-1]],)]
    out = np.empty_like(values)
    size_class = np.frexp(level.sizes)[1]
    for e in np.unique(size_class).tolist():
        nodes = np.flatnonzero(size_class == e)
        columns = np.arange(level.sizes[nodes].max())
        inside = columns < level.sizes[nodes, None]
        index = np.where(inside, level.starts[nodes, None] + columns, 0)
        out[..., index[inside]] = np.cumsum(values[..., index], axis=-1)[..., inside]
    return out[at]


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


def group_left_counts(starts, sorted_codes, n_classes, feat, pos, first):
    """Left class counts at each boundary, from one class-count table.

    Groups are numbered feature-major (1-based) by one cumsum over
    ``starts``; one offset ``bincount`` over ``group * k + class`` fills
    the (groups × k) table, and its cumsum over groups minus the total
    before the group at the node's ``first`` position is the left count
    at every group end (a node's first position always starts a group).

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
    before = group[feat, first] - 1  # the group before the node's first
    key = group  # reused in place: group ids are no longer needed
    key *= n_classes
    key += sorted_codes
    table = np.bincount(key.ravel(), minlength=(n_groups + 1) * n_classes)
    table = table.reshape(n_groups + 1, n_classes)
    np.cumsum(table, axis=0, out=table)
    return (table[end] - table[before]).astype(np.float64)


def multiclass_gains(criterion, node_counts, node_weight, node_impurity, left_counts):
    """Gain of every candidate in ``left_counts``, ``-inf`` where a side
    is empty.

    ``left_counts`` is the ``(M, k)`` float64 table of the candidates'
    left class weights; ``node_counts``, ``node_weight`` and
    ``node_impurity`` are each candidate's node's. Every operation is
    row-wise, so each row's gain is the float the seed's per-feature loop
    computed for it.
    """
    right_counts = node_counts - left_counts
    left_weight = left_counts.sum(axis=1)
    right_weight = right_counts.sum(axis=1)
    return _children_gain(
        (left_weight > 0) & (right_weight > 0), node_impurity, node_weight,
        left_weight, _impurity(criterion, left_counts, left_weight),
        right_weight, _impurity(criterion, right_counts, right_weight),
    )


# ----------------------------------------------------------------------
# the shared gain kernel and impurity functions
# ----------------------------------------------------------------------
def _children_gain(
    ok, node_impurity, node_weight, left_w, left_impurity, right_w, right_impurity
):
    """Impurity decrease of each candidate; ``-inf`` where not allowed.

    Shared by every search: the binary one with two running statistics
    (total and positive weight), the general one with full class-count
    vectors.
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
