"""Histogram-based split finding for million-row tree induction.

The exact presorted backend (:mod:`repro.learn.splitter`) is O(m·n) *per
level* just to carry its sorted columns' order, with cumsums over every
node's full columns to score candidates — the right trade at paper scale
(≤33k rows), but the per-level gather traffic alone dominates the fit
long before a million rows. This module trades exact thresholds on
high-cardinality features for bounded per-node work:

* :class:`HistogramBinning` discretizes the matrix **once** (per fit, or
  per ``fit_candidates`` call) into at most 256 bins per feature (uint8
  codes). Features with at most 256 distinct values keep one bin per
  value — the split search over them is *exact*, byte-identical to the
  presort backend (one-hot columns and the int32-coded categoricals from
  the frame layer are already in this regime). Denser features get an
  equal-count quantile sketch of the sorted values.
* :class:`HistogramSplitter` keeps one class-count histogram per frontier
  node, built by one offset ``bincount`` per statistic over the keys
  ``(node · d + feature) · B + bin`` (times K plus the class for
  multi-class labels), and scores gains only at bin boundaries through the
  same level-wide search the presort backend uses — O(d·n_bins)
  candidates per node instead of O(d·n).
* Sibling histograms come from the **subtraction trick**: only each split
  node's smaller child is accumulated; the larger child's histogram is
  ``parent − smaller``, exact in the integer unit-weight counts. Per
  level, at most half the frontier's rows are touched.
* A frontier stores its histograms only while they fit in
  :data:`HISTOGRAM_CELLS`. A wider one, and every level below it, is
  scored in blocks of nodes whose histograms are accumulated directly and
  dropped once scored, and every search scores at most
  :data:`SEARCH_CELLS` cells at once, so an unbounded-depth fit holds a
  bounded amount whatever its frontier's width.

Below the bin-degeneracy limit (every feature ≤256 distinct values, unit
sample weights) the induced tree is node-for-node identical to
:class:`~repro.learn.splitter.PresortSplitter`: same candidate set, the
same integer running statistics fed through the same impurity
expressions, the same tie-breaking, and the same boundary-midpoint
thresholds. Beyond it, thresholds move to midpoints between global bin
edges and non-unit weights are summed per bin instead of in sorted row
order, so results are deterministic but not bit-pinned to the exact
backend.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from .splitter import SplitterBase

MAX_BINS = 256

# (feature, row) keys one accumulation block may hold: bounds the key and
# weight temporaries of a million-row level to a few MB each
ACCUMULATE_CELLS = 1 << 20

# histogram cells, over all statistics, a frontier may store for the
# subtraction trick (8 MB of 8-byte cells): a wider frontier is scored in
# blocks of nodes accumulated directly, so no fit holds more at once
HISTOGRAM_CELLS = 1 << 20

# histogram cells the search scores at once: its candidate arrays, one
# entry per occupied bin, are its largest temporaries
SEARCH_CELLS = 1 << 18


class HistogramBinning:
    """Per-feature uint8 bin codes of a matrix, built once.

    ``codes`` is feature-major ``(d, n)``. For feature j, ``n_bins[j]``
    bins are described by ``lower[j]`` / ``upper[j]``: the smallest and
    largest raw value falling in each bin (so the threshold between two
    bins is the midpoint of ``upper`` of the left one and ``lower`` of
    the right one — exactly the presort boundary midpoint whenever each
    bin holds a single distinct value); both are ``(d, max_bins)``, NaN
    past a feature's bins. Like :class:`~repro.learn.splitter.Presort`,
    it carries the C-ordered float64 ``matrix`` it was built from.
    """

    __slots__ = ("matrix", "codes", "n_bins", "lower", "upper")

    def __init__(self, X, max_bins: int = MAX_BINS):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"HistogramBinning expects a 2-D matrix, got {X.shape}")
        if not 2 <= max_bins <= MAX_BINS:
            raise ValueError(f"max_bins must lie in [2, {MAX_BINS}], got {max_bins}")
        self.matrix = X
        n, d = X.shape
        with telemetry.span("learn.histogram_build", rows=n, features=d):
            self._build(X, n, d, max_bins)

    def _build(self, X, n, d, max_bins):
        self.codes = np.empty((d, n), dtype=np.uint8)
        self.n_bins = np.empty(d, dtype=np.int32)
        self.lower = np.full((d, max_bins), np.nan)
        self.upper = np.full((d, max_bins), np.nan)
        for j in range(d):
            column = X[:, j]
            ordered = np.sort(column)
            # cut points are actual data values; bin b holds values in
            # (cuts[b-1], cuts[b]] with searchsorted 'left' placement
            if n == 0:
                cuts = np.zeros(1)
            else:
                boundary = np.empty(n, dtype=bool)
                boundary[0] = True
                np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
                n_distinct = int(boundary.sum())
                if n_distinct <= max_bins:
                    cuts = ordered[boundary]
                else:
                    # equal-count quantile sketch over the sorted copy;
                    # duplicates collapse, so every cut is a distinct value
                    picks = np.linspace(0, n - 1, max_bins).round().astype(np.int64)
                    cuts = np.unique(ordered[picks])
                    if cuts[-1] != ordered[-1]:  # pragma: no cover - linspace ends at n-1
                        cuts = np.append(cuts, ordered[-1])
            codes = np.searchsorted(cuts, column, side="left")
            # non-finite or out-of-range values land in the last bin
            np.minimum(codes, len(cuts) - 1, out=codes)
            self.codes[j] = codes.astype(np.uint8)
            self.n_bins[j] = len(cuts)
            ends = np.searchsorted(ordered, cuts, side="right")
            starts = np.empty_like(ends)
            starts[0] = 0
            starts[1:] = ends[:-1]
            # every cut is a data value, so each bin is globally non-empty
            self.upper[j, : len(cuts)] = cuts
            if n:
                self.lower[j, : len(cuts)] = ordered[np.minimum(starts, n - 1)]


class HistogramSplitter(SplitterBase):
    """Best-split search over the frontier's class-count histograms.

    Peer of :class:`~repro.learn.splitter.PresortSplitter` for the
    level-wise grower: the same ``root_context`` / ``best_splits`` /
    ``partition`` surface, with the level context being the frontier
    nodes' histograms instead of a sorted-order matrix. The search itself
    is :class:`~repro.learn.splitter.SplitterBase`'s; this backend
    supplies only the candidate bins, their left statistics and the
    thresholds.
    """

    def __init__(self, binning, onehot, criterion, min_samples_leaf):
        super().__init__(binning, onehot, criterion, min_samples_leaf)
        self._bins = binning.codes
        self._max_bins = B = int(binning.n_bins.max()) if self.n_features else 1
        self._lower = binning.lower[:, :B]
        self._upper = binning.upper[:, :B]
        # statistics per node: count and positive (and weight); count and
        # the K class weights
        stats = (2 if self.unit_weight else 3) if self.binary else 1 + self.n_classes
        cells = stats * max(self.n_features, 1) * B
        self._max_nodes = max(1, HISTOGRAM_CELLS // cells)
        self._search_nodes = max(1, SEARCH_CELLS // cells)

    # ------------------------------------------------------------------
    # level context: histograms
    # ------------------------------------------------------------------
    def root_context(self):
        return self._accumulate(
            np.arange(self.n_samples), np.zeros(self.n_samples, dtype=np.int64), 1
        )

    def _accumulate(self, rows, node, n_nodes):
        """Histogram tuple of ``n_nodes`` nodes, given their rows (each
        node's ascending) and each row's node.

        Binary: ``(count, weight_or_None, positive)`` each ``(S, d, B)``;
        general: ``(count, class_weights)`` with class weights
        ``(S, d, B, K)``. Each statistic is one offset ``bincount`` per
        block of features (one block below :data:`ACCUMULATE_CELLS`
        keys), which adds every cell's rows in row order. Unit-weight
        statistics stay integral (int64), so sibling subtraction is exact.
        """
        d, B, K = self.n_features, self._max_bins, self.n_classes
        count = np.empty((n_nodes, d, B), dtype=np.int64)
        dtype = np.int64 if self.unit_weight else np.float64
        if self.binary:
            positive = np.empty(count.shape, dtype=dtype)
            weight = None if self.unit_weight else np.empty(count.shape)
            parts = (count, weight, positive)
        else:
            class_w = np.empty(count.shape + (K,), dtype=dtype)
            parts = (count, class_w)
        codes, every_bin = self._codes[rows], np.take(self._bins, rows, axis=1)
        by_class = (node * K + codes) * B
        by_node = None if self.unit_weight else node * B
        step = max(1, min(d, ACCUMULATE_CELLS // max(len(rows), 1)))
        for lo in range(0, d, step):
            hi = min(lo + step, d)
            bins = every_bin[lo:hi]
            if self.unit_weight:
                # one (node, class, bin) count table per feature; a bin's
                # rows are its sum over the classes
                key = _keys(bins, by_class, n_nodes * K * B)
                table = _tally(key, (hi - lo, n_nodes, K, B)).transpose(1, 0, 3, 2)
                count[:, lo:hi] = table.sum(axis=-1)
                if self.binary:
                    positive[:, lo:hi] = table[..., 1]
                else:
                    class_w[:, lo:hi] = table
                continue
            key = _keys(bins, by_node, n_nodes * B)
            shape = (hi - lo, n_nodes, B)
            count[:, lo:hi] = _tally(key, shape).swapaxes(0, 1)
            if self.binary:
                pairs = ((weight, self._weight), (positive, self._positive))
                for part, payload in pairs:
                    part[:, lo:hi] = _tally(key, shape, payload[rows]).swapaxes(0, 1)
            else:
                key = _keys(bins, by_class, n_nodes * K * B)
                table = _tally(key, (hi - lo, n_nodes, K, B), self._weight[rows])
                class_w[:, lo:hi] = table.transpose(1, 0, 3, 2)
        return parts

    def best_splits(self, context, level, distribution):
        """The shared search, over blocks of at most ``_search_nodes``
        nodes: slices of the stored histograms, or, for a frontier too wide
        to store (``context`` is None), histograms accumulated directly and
        dropped once scored."""
        step, parts = self._search_nodes, []
        for a in range(0, len(level.sizes), step):
            block = level.nodes(a, a + step)
            if context is None:
                histograms = self._accumulate(block.rows, block.node, len(block.sizes))
            else:
                histograms = tuple(
                    None if part is None else part[a:a + step] for part in context
                )
            parts.append(super().best_splits(histograms, block, distribution[a:a + step]))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def partition(self, context, level, side, go_left):
        """The kept children's histograms (lefts, then rights, as in the
        next ``Level``), via the subtraction trick; None once a frontier
        holds more than ``_max_nodes`` nodes, and below such a frontier.

        Only each split node's smaller child is accumulated; its
        sibling's histograms are the parent's minus the child's — exact
        for the integral unit-weight statistics, and clipped at zero for
        float weights so accumulated rounding can never produce a (tiny)
        negative bin mass.
        """
        kept = np.logical_or.reduceat(
            np.stack((side == 1, side == 2)), level.starts, axis=1
        )
        if context is None or np.count_nonzero(kept) > self._max_nodes:
            return None
        need = kept[0] | kept[1]
        left_n = np.add.reduceat(go_left, level.starts, dtype=np.int64)
        small_is_left = left_n <= level.sizes - left_n
        # each needed node's smaller child's rows, node after node
        in_small = np.repeat(need, level.sizes)
        in_small &= go_left == np.repeat(small_is_left, level.sizes)
        small_n = np.minimum(left_n, level.sizes - left_n)[need]
        small = self._accumulate(
            level.rows.take(np.flatnonzero(in_small)),
            np.repeat(np.arange(len(small_n)), small_n),
            len(small_n),
        )
        choose = small_is_left[need]
        children = []
        for parent, part in zip(context, small):
            if parent is None:
                children.append(None)
                continue
            big = parent[need]
            big -= part
            if big.dtype != np.int64:
                np.maximum(big, 0.0, out=big)
            small_left = choose.reshape((-1,) + (1,) * (part.ndim - 1))
            left = np.where(small_left, part, big)[kept[0][need]]
            right = np.where(small_left, big, part)[kept[1][need]]
            children.append(np.concatenate((left, right)))
        return tuple(children)

    # ------------------------------------------------------------------
    # candidate bins and thresholds
    # ------------------------------------------------------------------
    def _candidate_bins(self, level, count):
        """``(node, feat, bins, left_n)`` of every candidate: a boundary
        sits after each non-empty bin inside the min-leaf window of split
        *positions* — the feasibility rule the presort window encodes."""
        left_n = np.cumsum(count, axis=2)
        room = level.sizes[:, None, None] - self.min_leaf
        node, feat, bins = np.nonzero(
            (count > 0) & (left_n >= self.min_leaf) & (left_n <= room)
        )
        return node, feat, bins, left_n[node, feat, bins]

    def _binary_candidates(self, context, level):
        count, weight, positive = context
        node, feat, bins, left_n = self._candidate_bins(level, count)
        left_p = np.cumsum(positive, axis=2, dtype=np.float64)[node, feat, bins]
        left_w = None if weight is None else np.cumsum(weight, axis=2)[node, feat, bins]
        return node, feat, left_n, bins, left_p, left_w

    def _multiclass_candidates(self, context, level, distribution):
        """Every node's candidates as one block."""
        count, class_w = context
        node, feat, bins, left_n = self._candidate_bins(level, count)
        left_counts = np.cumsum(class_w, axis=2, dtype=np.float64)[node, feat, bins]
        yield node, feat, left_n, bins, left_counts

    def _thresholds(self, context, node, feat, bins):
        """Midpoint between a bin's upper edge and the next *occupied*
        bin's lower edge in that node — in the one-value-per-bin regime,
        exactly the presort midpoint of the boundary pair."""
        later = context[0][node, feat] > 0
        later &= np.arange(self._max_bins) > bins[:, None]
        following = later.argmax(axis=1)
        return 0.5 * (self._upper[feat, bins] + self._lower[feat, following])


def _keys(bins, offset, cells):
    """Offset ``bincount`` keys of a ``(features, rows)`` bin block: each
    row's ``offset`` plus its bin, one stride of ``cells`` per feature."""
    key = bins + offset
    if len(bins) > 1:
        key += (np.arange(len(bins)) * cells)[:, None]
    return key


def _tally(key, shape, weights=None):
    """One offset ``bincount`` of a ``(features, rows)`` key block into a
    table of ``shape``; ``weights`` are per row, the same for every
    feature. The ravel runs feature by feature, rows in order."""
    if weights is not None:
        weights = np.broadcast_to(weights, key.shape).ravel()
    table = np.bincount(key.ravel(), weights=weights, minlength=int(np.prod(shape)))
    return table.reshape(shape)
