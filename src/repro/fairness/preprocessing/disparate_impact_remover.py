"""Disparate impact remover (Feldman et al., KDD 2015).

Edits feature values so that the per-group marginal distributions move
toward a common "median" distribution, while preserving the rank order of
values *within* each group. ``repair_level`` interpolates between no change
(0.0) and full repair (1.0).

Unlike the reference implementation (which repairs a dataset in place), this
version supports the leak-free fit/transform split the FairPrep lifecycle
requires: the per-group quantile functions and the target distribution are
estimated on the training data only, then applied to any split.

Both halves work on a group's rows across all repaired features at once
and give what per-(feature, group) ``np.quantile`` and ``np.interp`` calls
give, bit for bit (a NaN's sign aside: which of two NaNs a NumPy add
returns depends on the element's place in its vector loop):

* ``fit`` gathers each group's rows once. When the block is all finite and
  holds no ``-0.0`` (so values that compare equal are equal bits), one
  ``np.sort(block, axis=0)`` orders every column as NumPy's partition does,
  and :func:`_quantiles` takes all 101 quantiles of each column from it
  with NumPy's ``linear`` gather and lerp, copied with its ``t >= 0.5``
  branch. Any other block goes through ``np.quantile(block, grid,
  axis=0)``, which keeps NumPy's NaN and infinity answers. The median
  curves of all features come from one ``np.median`` over the stacked
  group curves.
* ``transform`` gathers a group's rows in blocks of at most
  ``_BLOCK_ELEMENTS`` values, each C-ordered. In a block, a *two-valued*
  column, whose rows all equal its min or its max, has a repair target
  that is a function of its value, so only the min and max of every
  column are interpolated, by :func:`_interp`, a copy of ``np.interp``'s
  C kernel over many rows at once, and one ``np.where`` spreads them over
  the block. Other columns keep their ``np.interp`` pair, in row order.
  Over a sorted curve ``np.interp``'s answer for an input does not depend
  on the other inputs, so the blocks may split a group; over a curve that
  is not sorted (it holds a NaN) it does, so such a group goes through in
  one block, as before. The blend ``(1 - level) * x + level * target`` is
  the same elementwise arithmetic as before, done in place.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ...serialize import serializable
from ..dataset import BinaryLabelDataset

#: Most values ``transform`` repairs at a time: a group's rows go through
#: in blocks of this many values, which bounds its temporaries.
_BLOCK_ELEMENTS = 1 << 16


def _block_index(rows: np.ndarray, columns, width: int):
    """Index of the block of ``rows`` and ``columns`` in a matrix of
    ``width`` columns: just the rows when ``columns`` are every column in
    order, which gathers whole rows into a C-ordered block with no second,
    column-wise gather."""
    if columns == list(range(width)):
        return rows
    return rows[:, None], np.asarray(columns, dtype=np.intp)


def _sorts_like_partition(block: np.ndarray) -> bool:
    """True when every value is finite and no zero is negative: equal values
    are then equal bits, so a sort orders each column exactly as the
    partition inside ``np.quantile`` does."""
    return bool(np.isfinite(block).all()) and not (
        np.signbit(block) & (block == 0)
    ).any()


def _quantiles(block: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``np.quantile(block, grid, axis=0)``, bit for bit, as (columns, grid)."""
    if not _sorts_like_partition(block):
        return np.ascontiguousarray(np.quantile(block, grid, axis=0).T)
    n = block.shape[0]
    # NumPy's _get_indexes for method="linear" (grid lies in [0, 1])
    virtual = (n - 1) * grid
    previous = np.floor(virtual)
    following = previous + 1
    above = virtual >= n - 1
    previous[above] = -1
    following[above] = -1
    previous = previous.astype(np.intp)
    following = following.astype(np.intp)
    gamma = (virtual - previous)[:, None]

    ordered = np.sort(block, axis=0)
    lower, upper = ordered[previous], ordered[following]

    # NumPy's _lerp
    difference = upper - lower
    result = np.add(lower, difference * gamma)
    np.subtract(upper, difference * (1 - gamma), out=result, where=gamma >= 0.5)
    return np.ascontiguousarray(result.T)


def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray, left=None, right=None):
    """``np.interp(x[i], xp[i], fp[i], left, right)`` for every row ``i``.

    ``x`` is (rows, k); ``xp`` and ``fp`` are (rows, points) or one shared
    (points,) row, with at least two points. A copy of NumPy's C kernel
    (``arr_interp``) for rows of ``xp`` that are sorted: its binary search
    then returns the last ``j`` with ``xp[j] <= x`` from any starting guess.
    The branches are taken in the kernel's order: NaN ``x`` returns ``x``;
    past either end ``left``/``right`` (defaulting to ``fp``'s end points);
    ``j`` at the last point or ``x == xp[j]`` returns ``fp[j]``; otherwise
    the slope from ``j``, and where that gives NaN the slope from ``j + 1``,
    and where that too gives NaN over a flat ``fp`` step, ``fp[j]``.
    """
    last = xp.shape[-1] - 1
    j = (xp[..., None, :] <= x[..., None]).sum(axis=-1) - 1
    below = np.minimum(np.maximum(j, 0), last - 1)
    rows = np.arange(x.shape[0])[:, None]

    def pick(values, at):
        return values[at] if values.ndim == 1 else values[rows, at]

    x0, x1 = pick(xp, below), pick(xp, below + 1)
    y0, y1 = pick(fp, below), pick(fp, below + 1)
    with np.errstate(all="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        result = slope * (x - x0) + y0
        retry = np.isnan(result)
        if retry.any():
            again = slope * (x - x1) + y1
            flat = np.isnan(again) & (y0 == y1)
            result = np.where(retry, np.where(flat, y0, again), result)
    result = np.where(x == x0, y0, result)
    result = np.where(j == last, fp[..., last:], result)
    result = np.where(j < 0, fp[..., :1] if left is None else left, result)
    past = fp[..., last:] if right is None else right
    result = np.where(x > xp[..., last:], past, result)
    return np.where(np.isnan(x), x, result)


def _repair_block(x, curves, medians, ascending, grid, level) -> None:
    """Repair ``x``, a C-ordered block of one group's rows, in place.

    ``curves`` and ``medians`` hold each column's group and median quantile
    curve; ``ascending`` marks the sorted ``curves``.
    """
    # position of each column's min and max within the group's training
    # distribution, then the median distribution's value there
    low, high = x.min(axis=0), x.max(axis=0)
    quantiles = _interp(np.stack([low, high], axis=1), curves, grid, 0.0, 1.0)
    scaled = level * _interp(quantiles, grid, medians)
    at_high = x == high
    target = np.where(at_high, scaled[:, 1], scaled[:, 0])
    at_either = np.logical_or(at_high, x == low, out=at_high)
    for k in np.flatnonzero(~(at_either.all(axis=0) & ascending)):
        position = np.interp(x[:, k], curves[k], grid, left=0.0, right=1.0)
        target[:, k] = level * np.interp(position, grid, medians[k])
    x *= 1.0 - level
    x += target


@serializable
class DisparateImpactRemover:
    """Rank-preserving feature repair toward a between-group median distribution.

    Parameters
    ----------
    repair_level:
        0.0 = identity; 1.0 = every group's marginal becomes the common
        median distribution.
    sensitive_attribute:
        Protected attribute whose values define the groups. Defaults to the
        dataset's first protected attribute.
    features_to_repair:
        Names of feature columns to repair; defaults to all features.
    """

    def __init__(
        self,
        repair_level: float = 1.0,
        sensitive_attribute: Optional[str] = None,
        features_to_repair: Optional[Sequence[str]] = None,
    ):
        if not 0.0 <= repair_level <= 1.0:
            raise ValueError("repair_level must lie in [0, 1]")
        self.repair_level = repair_level
        self.sensitive_attribute = sensitive_attribute
        self.features_to_repair = (
            None if features_to_repair is None else list(features_to_repair)
        )

    # ------------------------------------------------------------------
    def fit(self, dataset: BinaryLabelDataset) -> "DisparateImpactRemover":
        """Estimate per-group quantile functions and the median distribution."""
        attribute = self.sensitive_attribute or dataset.protected_attribute_names[0]
        sensitive = dataset.protected_column(attribute)
        self.attribute_ = attribute
        self.group_values_ = sorted(set(np.unique(sensitive)))
        if len(self.group_values_) < 2:
            raise ValueError(
                f"sensitive attribute {attribute!r} has a single value; "
                "nothing to repair"
            )
        names = self.features_to_repair or list(dataset.feature_names)
        missing = [n for n in names if n not in dataset.feature_names]
        if missing:
            raise KeyError(f"features not in dataset: {missing}")
        self.repaired_features_ = names

        quantile_grid = np.linspace(0.0, 1.0, 101)
        self.quantile_grid_ = quantile_grid
        # per feature: per group quantile values + the cross-group median curve
        unique = list(dict.fromkeys(names))
        columns = [dataset.feature_names.index(name) for name in unique]
        width = len(dataset.feature_names)
        groups = self._groups(sensitive)
        curves = [
            _quantiles(
                dataset.features[_block_index(np.flatnonzero(mask), columns, width)],
                quantile_grid,
            )
            for _, mask in groups
        ]
        medians = np.median(np.stack(curves), axis=0)
        self.group_quantiles_: Dict[str, Dict[float, np.ndarray]] = {}
        self.median_quantiles_: Dict[str, np.ndarray] = {}
        for f, name in enumerate(unique):
            self.group_quantiles_[name] = {
                value: per_group[f].copy()
                for (value, _), per_group in zip(groups, curves)
            }
            self.median_quantiles_[name] = medians[f].copy()
        return self

    def _groups(self, sensitive: np.ndarray):
        """(value, row mask) of each fitted group that has rows, built once
        for all features: ``fit`` gives every feature the same groups."""
        masks = ((value, sensitive == value) for value in self.group_values_)
        return [(value, mask) for value, mask in masks if mask.any()]

    def transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        """Repair a dataset's features using the fitted distributions."""
        if not hasattr(self, "median_quantiles_"):
            raise RuntimeError("DisparateImpactRemover must be fit before transform")
        out = dataset.copy()
        if self.repair_level == 0.0:
            return out
        groups = self._groups(dataset.protected_column(self.attribute_))
        # a name listed k times is repaired k times, each pass from the last
        pending = list(self.repaired_features_)
        while pending:
            names = list(dict.fromkeys(pending))
            for name in names:
                pending.remove(name)
            self._repair(out, names, groups)
        return out

    def _repair(self, out: BinaryLabelDataset, names, groups) -> None:
        """Repair the distinct features ``names`` of ``out`` in place."""
        columns = [out.feature_names.index(n) for n in names]
        width = len(out.feature_names)
        medians = np.array([self.median_quantiles_[n] for n in names])
        # rows of a group never seen in training keep their values
        for value, mask in groups:
            rows = np.flatnonzero(mask)
            curves = np.array([self.group_quantiles_[n][value] for n in names])
            ascending = (curves[:, 1:] >= curves[:, :-1]).all(axis=1)
            # over an unsorted curve np.interp's answer depends on the order
            # of its inputs, so such a group goes through in one piece
            step = len(rows)
            if ascending.all():
                step = max(1, _BLOCK_ELEMENTS // len(names))
            for start in range(0, len(rows), step):
                index = _block_index(rows[start : start + step], columns, width)
                block = out.features[index]
                _repair_block(
                    block,
                    curves,
                    medians,
                    ascending,
                    self.quantile_grid_,
                    self.repair_level,
                )
                out.features[index] = block

    def fit_transform(self, dataset: BinaryLabelDataset) -> BinaryLabelDataset:
        return self.fit(dataset).transform(dataset)

    def to_state(self) -> dict:
        if not hasattr(self, "median_quantiles_"):
            raise RuntimeError(
                "DisparateImpactRemover must be fit before serialization"
            )
        return {
            "params": {
                "repair_level": self.repair_level,
                "sensitive_attribute": self.sensitive_attribute,
                "features_to_repair": self.features_to_repair,
            },
            "attribute_": self.attribute_,
            "group_values_": [float(v) for v in self.group_values_],
            "repaired_features_": list(self.repaired_features_),
            "quantile_grid_": self.quantile_grid_,
            # group values are floats: keep them next to their curves in
            # lists rather than stringifying them into JSON object keys
            "group_quantiles_": [
                [name, [[float(v), curve] for v, curve in sorted(per_group.items())]]
                for name, per_group in self.group_quantiles_.items()
            ],
            "median_quantiles_": [
                [name, curve] for name, curve in self.median_quantiles_.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "DisparateImpactRemover":
        instance = cls(**state["params"])
        instance.attribute_ = state["attribute_"]
        instance.group_values_ = [float(v) for v in state["group_values_"]]
        instance.repaired_features_ = list(state["repaired_features_"])
        instance.quantile_grid_ = np.asarray(state["quantile_grid_"], dtype=np.float64)
        instance.group_quantiles_ = {
            name: {
                float(v): np.asarray(curve, dtype=np.float64) for v, curve in pairs
            }
            for name, pairs in state["group_quantiles_"]
        }
        instance.median_quantiles_ = {
            name: np.asarray(curve, dtype=np.float64)
            for name, curve in state["median_quantiles_"]
        }
        return instance
