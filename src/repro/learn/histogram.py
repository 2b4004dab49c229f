"""Histogram-based split finding for million-row tree induction.

The exact presorted backend (:mod:`repro.learn.splitter`) is O(d·n) *per
level* just to maintain its sorted-order matrix, with float64 cumsums over
every node's full columns to score candidates — the right trade at paper
scale (≤33k rows), but the per-level gather traffic alone dominates the
fit long before a million rows. This module trades exact thresholds on
high-cardinality features for bounded per-node work:

* :class:`HistogramBinning` discretizes the matrix **once** (per fit, or
  per ``fit_candidates`` call) into at most 256 bins per feature (uint8
  codes). Features with at most 256 distinct values keep one bin per
  value — the split search over them is *exact*, byte-identical to the
  presort backend (one-hot columns and the int32-coded categoricals from
  the frame layer are already in this regime). Denser features get an
  equal-count quantile sketch of the sorted values.
* :class:`HistogramSplitter` accumulates per-node class-count histograms
  with ``bincount`` and scores gains only at bin boundaries through the
  same search the presort backend uses — O(d·n_bins) candidates per
  node instead of O(d·n).
* Sibling histograms come from the **subtraction trick**: only the
  smaller child is ever re-accumulated; the larger child's histogram is
  ``parent − smaller``, exact in the integer unit-weight counts. Per
  level, at most half the node's rows are touched.

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


class HistogramBinning:
    """Per-feature uint8 bin codes of a matrix, built once.

    ``codes`` is feature-major ``(d, n)``. For feature j, ``n_bins[j]``
    bins are described by ``lower[j]`` / ``upper[j]``: the smallest and
    largest raw value falling in each bin (so the threshold between two
    bins is the midpoint of ``upper`` of the left one and ``lower`` of
    the right one — exactly the presort boundary midpoint whenever each
    bin holds a single distinct value). Like
    :class:`~repro.learn.splitter.Presort`, it carries the float64
    ``matrix`` it was built from.
    """

    __slots__ = ("matrix", "codes", "n_bins", "lower", "upper")

    def __init__(self, X, max_bins: int = MAX_BINS):
        X = np.asarray(X, dtype=np.float64)
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
        self.lower = []
        self.upper = []
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
            self.upper.append(cuts)
            self.lower.append(ordered[np.minimum(starts, n - 1)])


class HistogramSplitter(SplitterBase):
    """Best-split search over per-node class-count histograms.

    Drop-in peer of :class:`~repro.learn.splitter.PresortSplitter` for
    the tree-growing loop: the same ``root_context`` /
    ``node_distribution`` / ``best_split_*`` / ``partition`` surface,
    with the per-node context being class-count histograms instead of a
    sorted-order matrix. The search itself is
    :class:`~repro.learn.splitter.SplitterBase`'s; this backend supplies
    only the candidate bins, their left statistics and the thresholds.
    """

    def __init__(self, binning, onehot, criterion, min_samples_leaf):
        super().__init__(binning, onehot, criterion, min_samples_leaf)
        self._binning = binning
        self._codes = binning.codes
        self._max_bins = int(binning.n_bins.max()) if self.n_features else 1

    # ------------------------------------------------------------------
    # node context: histograms
    # ------------------------------------------------------------------
    def root_context(self):
        return self._accumulate(np.arange(self.n_samples))

    def _accumulate(self, indices):
        """Histogram tuple of a node given its sample indices.

        Binary: ``(count, weight_or_None, positive)`` each ``(d, B)``;
        general: ``(count, class_weights)`` with class weights
        ``(d, B, K)``. Unit-weight statistics stay integral (int64), so
        sibling subtraction is exact.
        """
        d, B = self.n_features, self._max_bins
        sub = self._codes[:, indices]
        count = np.empty((d, B), dtype=np.int64)
        if self.binary:
            if self.unit_weight:
                positive = np.empty((d, B), dtype=np.int64)
                pos_rows = np.asarray(self._positive[indices], dtype=bool)
                pos_sub = sub[:, pos_rows]
                for j in range(d):
                    count[j] = np.bincount(sub[j], minlength=B)
                    positive[j] = np.bincount(pos_sub[j], minlength=B)
                return count, None, positive
            positive = np.empty((d, B), dtype=np.float64)
            weight = np.empty((d, B), dtype=np.float64)
            w = self._weight[indices]
            p = self._positive[indices]
            for j in range(d):
                count[j] = np.bincount(sub[j], minlength=B)
                weight[j] = np.bincount(sub[j], weights=w, minlength=B)
                positive[j] = np.bincount(sub[j], weights=p, minlength=B)
            return count, weight, positive
        K = self.onehot.shape[1]
        dtype = np.int64 if self.unit_weight else np.float64
        class_w = np.empty((d, B, K), dtype=dtype)
        sub_onehot = self.onehot[indices]
        for j in range(d):
            count[j] = np.bincount(sub[j], minlength=B)
            for k in range(K):
                column = np.bincount(sub[j], weights=sub_onehot[:, k], minlength=B)
                class_w[j, :, k] = column if dtype is np.float64 else column.astype(np.int64)
        return count, class_w

    def partition(self, context, left_indices, right_indices):
        """Child contexts via the subtraction trick.

        Only the smaller child is re-accumulated; its sibling's
        histograms are the parent's minus the child's — exact for the
        integral unit-weight statistics, and clipped at zero for float
        weights so accumulated rounding can never produce a (tiny)
        negative bin mass.
        """
        left_small = left_indices.size <= right_indices.size
        small = self._accumulate(left_indices if left_small else right_indices)
        big = tuple(
            None
            if part is None
            else (
                parent - part
                if parent.dtype == np.int64
                else np.maximum(parent - part, 0.0)
            )
            for parent, part in zip(context, small)
        )
        return (small, big) if left_small else (big, small)

    # ------------------------------------------------------------------
    # candidate bins and thresholds
    # ------------------------------------------------------------------
    def _candidate_bins(self, n, count):
        """``(feat, bins, left_n)`` of every candidate: a boundary sits
        after each non-empty bin inside the min-leaf window of split
        *positions* — the feasibility rule the presort window encodes."""
        left_n = np.cumsum(count, axis=1)
        feat, bins = np.nonzero(
            (count > 0) & (left_n >= self.min_leaf) & (left_n <= n - self.min_leaf)
        )
        return feat, bins, left_n[feat, bins]

    def _binary_candidates(self, n, context):
        count, weight, positive = context
        feat, bins, left_n = self._candidate_bins(n, count)
        if feat.size == 0:
            return None
        left_p = np.cumsum(positive, axis=1, dtype=np.float64)[feat, bins]
        left_w = None if weight is None else np.cumsum(weight, axis=1)[feat, bins]
        return feat, bins, left_n, left_p, left_w

    def _multiclass_candidates(self, n, context, n_classes):
        """Every feature's candidates as one feature-major block."""
        count, class_w = context
        feat, bins, _ = self._candidate_bins(n, count)
        if feat.size:
            left_counts = np.cumsum(class_w, axis=1, dtype=np.float64)[feat, bins]
            yield 0, feat, bins, left_counts

    def _threshold(self, context, feature: int, bin_index: int) -> float:
        """Midpoint between this bin's upper edge and the next *occupied*
        bin's lower edge — in the one-value-per-bin regime, exactly the
        presort midpoint of the boundary pair."""
        counts_f = context[0][feature]
        following = np.nonzero(counts_f[bin_index + 1 :] > 0)[0]
        next_bin = bin_index + 1 + int(following[0])
        lo = self._binning.upper[feature][bin_index]
        hi = self._binning.lower[feature][next_bin]
        return float(0.5 * (lo + hi))
