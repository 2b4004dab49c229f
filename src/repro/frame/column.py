"""Typed columns for the :mod:`repro.frame` DataFrame substrate.

FairPrep's lifecycle needs only two column kinds:

* ``numeric`` -- stored as ``float64``, with ``NaN`` marking missing values.
* ``categorical`` -- dictionary-encoded: stored as ``int32`` *codes* into a
  sorted *category table* of strings, with code ``-1`` marking missing
  values. The familiar ``object``-array view (strings with ``None`` for
  missing) is materialized lazily via :attr:`Column.values` /
  :meth:`Column.decoded`, so callers that predate the columnar storage keep
  working unchanged.

The coded representation is what makes the featurization hot paths
vectorizable: one-hot encoding becomes a code remap plus a fancy-index
scatter, frequency/target encoding become ``bincount`` table lookups, and
group-by masks become ``codes == k`` comparisons — no per-value Python
loops anywhere on the hot path.

Invariants of the categorical storage:

* the category table is a unique, ascending-sorted (by ``str`` ordering)
  ``object`` array of strings — sortedness is what lets every lookup use
  ``np.searchsorted``;
* codes lie in ``[-1, len(categories) - 1]``; ``-1`` means missing;
* the table may contain categories that no code currently references
  (e.g. after :meth:`mask`); semantics are defined by the decoded values.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_KINDS = (NUMERIC, CATEGORICAL)


def _is_missing_scalar(v) -> bool:
    """True for the two missing sentinels: None and float NaN."""
    if v is None:
        return True
    if isinstance(v, (float, np.floating)) and np.isnan(v):
        return True
    return False


def _encode_values(values) -> Tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode arbitrary values into ``(codes, categories)``.

    ``categories`` comes out unique and ascending-sorted; missing entries
    (None / NaN) become code ``-1``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "US":
        # fast path: string arrays (e.g. rng.choice output) have no missing
        categories, inverse = np.unique(values, return_inverse=True)
        return inverse.astype(np.int32, copy=False), categories.astype(object)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    elif not isinstance(values, list):
        values = list(values)
    # single-pass dictionary build: one dict lookup per value, deferring
    # stringification and sorting to the (small) set of distinct raw keys
    index: dict = {}
    try:
        provisional = np.asarray(
            [
                -1 if (v is None or v != v) else index.setdefault(v, len(index))
                for v in values
            ],
            dtype=np.int32,
        )
    except (TypeError, ValueError):
        index = None  # unhashable values or exotic __ne__
    if index is not None and any(type(k) is not str for k in index):
        # numeric equality merges str-distinct keys (True == 1, 1 == 1.0),
        # which would lose categories; only string keys are collision-free
        index = None
    if index is None:
        index = {}
        provisional = np.asarray(
            [
                -1
                if _is_missing_scalar(v)
                else index.setdefault(str(v), len(index))
                for v in values
            ],
            dtype=np.int32,
        )
    if not index:
        return provisional, np.empty(0, dtype=object)
    # table and positions read one str array, which drops trailing NULs:
    # "a\0" codes as "a" instead of past the end of the table
    strings = np.asarray([str(k) for k in index], dtype=str)
    categories = np.unique(strings).astype(object)
    positions = np.searchsorted(categories, strings.astype(object)).astype(np.int32)
    lut = np.append(positions, np.int32(-1))
    return lut[provisional], categories


def sorted_position(table: np.ndarray, value: str) -> int:
    """Position of ``value`` in a sorted category table, or ``-1`` if absent."""
    k = len(table)
    if k == 0:
        return -1
    pos = int(np.searchsorted(table, value))
    return pos if pos < k and table[pos] == value else -1


def _union_categories(pools) -> np.ndarray:
    """Canonical (sorted, unique) category table covering every pool."""
    merged = [category for pool in pools for category in pool]
    if not merged:
        return np.empty(0, dtype=object)
    return np.unique(np.asarray(merged, dtype=str)).astype(object)


def remap_table(
    categories: np.ndarray, target: np.ndarray, default: int
) -> np.ndarray:
    """Positions of ``categories`` inside sorted ``target`` (``default`` if absent).

    Returns a lookup table of length ``len(categories) + 1`` whose final
    entry is ``-1``, so that indexing it with codes maps missing (``-1``)
    to missing.
    """
    k = len(categories)
    m = len(target)
    lut = np.empty(k + 1, dtype=np.int32)
    if m == 0:
        lut[:k] = default
    elif k:
        pos = np.searchsorted(target, categories)
        clipped = np.minimum(pos, m - 1)
        found = target[clipped] == categories
        lut[:k] = np.where(found, clipped, default)
    lut[k] = -1
    return lut


class Column:
    """A single named, typed column of values with missing-value support."""

    __slots__ = ("name", "kind", "_data", "_codes", "_categories", "_decoded")

    def __init__(self, name: str, values: np.ndarray, kind: str):
        if kind not in _KINDS:
            raise ValueError(f"unknown column kind {kind!r}; expected one of {_KINDS}")
        if not isinstance(name, str) or not name:
            raise ValueError("column name must be a non-empty string")
        self.name = name
        self.kind = kind
        self._decoded = None
        if kind == NUMERIC:
            self._data = np.asarray(values, dtype=np.float64)
            self._codes = None
            self._categories = None
        else:
            self._data = None
            self._codes, self._categories = _encode_values(values)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def numeric(name: str, values: Iterable) -> "Column":
        """Build a numeric column; ``None`` entries become ``NaN``."""
        if isinstance(values, np.ndarray) and values.dtype.kind in "fiub":
            return Column(name, values.astype(np.float64), NUMERIC)
        arr = np.asarray(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        return Column(name, arr, NUMERIC)

    @staticmethod
    def categorical(name: str, values: Iterable) -> "Column":
        """Build a categorical column; missing entries decode as ``None``."""
        return Column(name, values if isinstance(values, np.ndarray) else list(values), CATEGORICAL)

    @staticmethod
    def from_codes(name: str, codes, categories) -> "Column":
        """Build a categorical column directly from codes + category table.

        ``categories`` need not be sorted or deduplicated; codes are remapped
        onto the canonical sorted table when necessary. Code ``-1`` means
        missing; codes outside ``[-1, len(categories) - 1]`` are rejected.
        """
        codes = np.asarray(codes, dtype=np.int32)
        raw = np.empty(len(categories), dtype=object)
        raw[:] = [str(c) for c in categories]
        if codes.size and (codes.min() < -1 or codes.max() >= len(raw)):
            raise ValueError(
                f"codes outside [-1, {len(raw) - 1}] for column {name!r}"
            )
        if len(raw) == 0:
            return Column._with_codes(name, codes, raw)
        canonical = np.unique(raw.astype(str)).astype(object)
        if len(canonical) == len(raw) and bool(np.all(canonical == raw)):
            return Column._with_codes(name, codes, canonical)
        lut = remap_table(raw, canonical, default=-1)
        return Column._with_codes(name, lut[codes], canonical)

    @staticmethod
    def _with_codes(name: str, codes: np.ndarray, categories: np.ndarray) -> "Column":
        """Internal zero-copy constructor; trusts the storage invariants."""
        col = Column.__new__(Column)
        col.name = name
        col.kind = CATEGORICAL
        col._data = None
        col._codes = codes
        col._categories = categories
        col._decoded = None
        return col

    @staticmethod
    def from_values(name: str, values, kind: Optional[str] = None) -> "Column":
        """Build a column, inferring the kind when not given.

        Inference: if every non-missing value is a number (or numeric string
        is *not* considered numeric -- strings stay categorical), the column
        is numeric; otherwise categorical.
        """
        if isinstance(values, Column):
            return values.copy().rename(name)
        if kind is not None:
            if kind == NUMERIC:
                return Column.numeric(name, values)
            return Column.categorical(name, values)
        values = list(values) if not isinstance(values, np.ndarray) else values
        if isinstance(values, np.ndarray):
            if values.dtype.kind in "fiub":
                return Column.numeric(name, values.astype(np.float64))
            if values.dtype.kind in "US":
                return Column.categorical(name, values)
        inferred_numeric = True
        for v in values:
            if v is None:
                continue
            if isinstance(v, bool):
                continue
            if isinstance(v, (int, float, np.integer, np.floating)):
                if isinstance(v, float) and np.isnan(v):
                    continue
                continue
            inferred_numeric = False
            break
        if inferred_numeric:
            return Column.numeric(name, [None if _is_missing_scalar(v) else v for v in values])
        return Column.categorical(name, values)

    # ------------------------------------------------------------------
    # storage views
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The column's value array.

        Numeric columns return the backing ``float64`` array. Categorical
        columns return a lazily-materialized (and cached) ``object`` array of
        strings with ``None`` for missing — a *view for reading*: mutating it
        does not write back into the coded storage.
        """
        if self.kind == NUMERIC:
            return self._data
        if self._decoded is None:
            self._decoded = self._decode_table(fill=None)[self._codes]
        return self._decoded

    @property
    def codes(self) -> np.ndarray:
        """Dictionary codes (int32, ``-1`` = missing); categorical only."""
        if not self.is_categorical:
            raise TypeError(f"codes on numeric column {self.name!r}")
        return self._codes

    @property
    def categories(self) -> np.ndarray:
        """Sorted category table (object array of str); categorical only."""
        if not self.is_categorical:
            raise TypeError(f"categories on numeric column {self.name!r}")
        return self._categories

    def decoded(self) -> np.ndarray:
        """A fresh, caller-owned copy of the decoded value array."""
        return self.values.copy()

    def _decode_table(self, fill) -> np.ndarray:
        """Category lookup table with ``fill`` in the final (missing) slot."""
        table = np.empty(len(self._categories) + 1, dtype=object)
        table[: len(self._categories)] = self._categories
        table[len(self._categories)] = fill
        return table

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data) if self.kind == NUMERIC else len(self._codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name!r}, kind={self.kind}, n={len(self)})"

    def copy(self) -> "Column":
        if self.is_numeric:
            return Column(self.name, self._data.copy(), NUMERIC)
        # the category table is immutable-by-convention and safely shared
        return Column._with_codes(self.name, self._codes.copy(), self._categories)

    def rename(self, name: str) -> "Column":
        if self.is_numeric:
            return Column(name, self._data, NUMERIC)
        return Column._with_codes(name, self._codes, self._categories)

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    # ------------------------------------------------------------------
    # missing values
    # ------------------------------------------------------------------
    def missing_mask(self) -> np.ndarray:
        """Boolean array that is True where the value is missing."""
        if self.is_numeric:
            return np.isnan(self._data)
        return self._codes < 0

    def num_missing(self) -> int:
        return int(self.missing_mask().sum())

    def has_missing(self) -> bool:
        return bool(self.missing_mask().any())

    def fill_missing(self, fill_value) -> "Column":
        """Return a copy with missing entries replaced by ``fill_value``."""
        if self.is_numeric:
            out = self._data.copy()
            out[np.isnan(out)] = float(fill_value)
            return Column(self.name, out, NUMERIC)
        fill = str(fill_value)
        code, categories, codes = self._ensure_category(fill)
        if codes is self._codes:  # _ensure_category copies when it inserts
            codes = codes.copy()
        codes[codes < 0] = code
        return Column._with_codes(self.name, codes, categories)

    def _ensure_category(self, category: str) -> Tuple[int, np.ndarray, np.ndarray]:
        """(code of ``category``, category table, codes) — inserting if new."""
        k = len(self._categories)
        pos = int(np.searchsorted(self._categories, category)) if k else 0
        if pos < k and self._categories[pos] == category:
            return pos, self._categories, self._codes
        categories = np.empty(k + 1, dtype=object)
        categories[:pos] = self._categories[:pos]
        categories[pos] = category
        categories[pos + 1 :] = self._categories[pos:]
        codes = self._codes.copy()
        codes[codes >= pos] += 1
        return pos, categories, codes

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        indices = np.asarray(indices)
        if self.is_numeric:
            return Column(self.name, self._data[indices], NUMERIC)
        return Column._with_codes(self.name, self._codes[indices], self._categories)

    def mask(self, boolean_mask: np.ndarray) -> "Column":
        boolean_mask = np.asarray(boolean_mask, dtype=bool)
        if len(boolean_mask) != len(self):
            raise ValueError(
                f"mask length {len(boolean_mask)} != column length {len(self)}"
            )
        if self.is_numeric:
            return Column(self.name, self._data[boolean_mask], NUMERIC)
        return Column._with_codes(
            self.name, self._codes[boolean_mask], self._categories
        )

    def set_where(self, boolean_mask: np.ndarray, new_values) -> "Column":
        """Return a copy where positions selected by the mask are replaced."""
        boolean_mask = np.asarray(boolean_mask, dtype=bool)
        if self.is_numeric:
            out = self._data.copy()
            out[boolean_mask] = np.asarray(new_values, dtype=np.float64)
            return Column(self.name, out, NUMERIC)
        n_selected = int(boolean_mask.sum())
        if np.isscalar(new_values) or isinstance(new_values, str) or new_values is None:
            replacements = [new_values] * n_selected
        else:
            replacements = list(new_values)
        repl_missing = np.asarray(
            [_is_missing_scalar(v) for v in replacements], dtype=bool
        )
        repl_strings = np.asarray(
            ["" if m else str(v) for v, m in zip(replacements, repl_missing)],
            dtype=object,
        )
        present = ~repl_missing
        union = _union_categories([self._categories, repl_strings[present]])
        lut = remap_table(self._categories, union, default=-1)
        codes = lut[self._codes]
        repl_codes = np.full(n_selected, -1, dtype=np.int32)
        if present.any():
            repl_codes[present] = np.searchsorted(
                union, repl_strings[present]
            ).astype(np.int32)
        codes[boolean_mask] = repl_codes
        return Column._with_codes(self.name, codes, union)

    # ------------------------------------------------------------------
    # vectorized comparisons
    # ------------------------------------------------------------------
    def eq(self, value) -> np.ndarray:
        """Boolean mask where the column equals ``value`` (missing → False)."""
        if self.is_numeric:
            try:
                target = float(value)
            except (TypeError, ValueError):
                return np.zeros(len(self), dtype=bool)
            with np.errstate(invalid="ignore"):
                return self._data == target
        code = self._category_code(str(value))
        if code < 0:
            return np.zeros(len(self), dtype=bool)
        return self._codes == code

    def isin(self, values: Iterable) -> np.ndarray:
        """Boolean mask of membership in ``values`` (missing → False)."""
        if self.is_numeric:
            numeric = []
            for v in values:
                try:
                    numeric.append(float(v))
                # lint: allow(silent-except) -- isin() defines membership
                # of an unparseable value as simply False, not an error
                except (TypeError, ValueError):
                    continue
            return np.isin(self._data, numeric)
        wanted = [self._category_code(str(v)) for v in values]
        wanted = [c for c in wanted if c >= 0]
        if not wanted:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self._codes, wanted)

    def _category_code(self, category: str) -> int:
        """Code of ``category`` in the table, or ``-1`` if absent."""
        return sorted_position(self._categories, category)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def unique(self) -> List:
        """Distinct non-missing values, in first-seen order."""
        if self.is_numeric:
            seen = {}
            for v in self._data:
                if _is_missing_scalar(v):
                    continue
                if v not in seen:
                    seen[v] = None
            return list(seen.keys())
        uniq, first = np.unique(self._codes, return_index=True)
        order = np.argsort(first, kind="stable")
        return [self._categories[c] for c in uniq[order] if c >= 0]

    def value_counts(self) -> dict:
        """Counts of non-missing values, ordered by decreasing count."""
        if self.is_numeric:
            counts: dict = {}
            for v in self._data:
                if _is_missing_scalar(v):
                    continue
                counts[v] = counts.get(v, 0) + 1
            return dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))
        present = self._codes[self._codes >= 0]
        bins = np.bincount(present, minlength=len(self._categories))
        order = sorted(np.nonzero(bins)[0], key=lambda c: (-bins[c], str(self._categories[c])))
        return {self._categories[c]: int(bins[c]) for c in order}

    def mode(self):
        """Most frequent non-missing value; None if the column is all-missing."""
        counts = self.value_counts()
        if not counts:
            return None
        return next(iter(counts))

    def mean(self) -> float:
        return self._numeric_stat("mean")

    def std(self) -> float:
        return self._numeric_stat("std")

    def min(self) -> float:
        return self._numeric_stat("min")

    def max(self) -> float:
        return self._numeric_stat("max")

    def _numeric_stat(self, stat: str) -> float:
        if not self.is_numeric:
            raise TypeError(f"{stat}() on categorical column {self.name!r}")
        present = self._data[~np.isnan(self._data)]
        if present.size == 0:
            return float("nan")
        return float(getattr(present, stat)())

    def equals(self, other: "Column") -> bool:
        if not isinstance(other, Column):
            return False
        if self.kind != other.kind or len(self) != len(other):
            return False
        if self.is_numeric:
            a, b = self._data, other._data
            both_nan = np.isnan(a) & np.isnan(b)
            return bool(np.all(both_nan | (a == b)))
        if len(self._categories) == len(other._categories) and bool(
            np.all(self._categories == other._categories)
        ):
            return bool(np.array_equal(self._codes, other._codes))
        # different tables: remap the other side's codes into this table;
        # categories absent from this table map to -2 and can never match
        lut = remap_table(other._categories, self._categories, default=-2)
        return bool(np.array_equal(lut[other._codes], self._codes))


def concat_columns(columns: Sequence[Column]) -> Column:
    """Stack several same-kind, same-name columns vertically."""
    if not columns:
        raise ValueError("need at least one column to concatenate")
    first = columns[0]
    for col in columns[1:]:
        if col.kind != first.kind:
            raise ValueError(
                f"cannot concat kinds {first.kind!r} and {col.kind!r} "
                f"for column {first.name!r}"
            )
    if first.is_numeric:
        values = np.concatenate([c._data for c in columns])
        return Column(first.name, values, NUMERIC)
    tables = [c._categories for c in columns]
    if all(
        len(t) == len(tables[0]) and bool(np.all(t == tables[0])) for t in tables[1:]
    ):
        union = tables[0]
        codes = np.concatenate([c._codes for c in columns])
    else:
        union = _union_categories(tables)
        codes = np.concatenate(
            [remap_table(c._categories, union, default=-1)[c._codes] for c in columns]
        )
    return Column._with_codes(first.name, codes, union)
