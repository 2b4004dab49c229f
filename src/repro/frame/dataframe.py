"""A small columnar DataFrame, sufficient for the FairPrep lifecycle.

The original FairPrep manipulates pandas dataframes for a handful of
operations: column selection, boolean masking, row slicing, missing-value
introspection, adding/replacing columns, and conversion to numpy matrices.
:class:`DataFrame` implements exactly that surface on top of
:class:`repro.frame.column.Column`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .column import Column, concat_columns


class DataFrame:
    """An immutable-by-convention, ordered collection of typed columns."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise ValueError("a DataFrame needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names: {dupes}")
        self._columns: Dict[str, Column] = {c.name: c for c in columns}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(
        data: Dict[str, Iterable],
        kinds: Optional[Dict[str, str]] = None,
    ) -> "DataFrame":
        """Build from ``{name: values}``; ``kinds`` may pin column kinds."""
        kinds = kinds or {}
        columns = [
            Column.from_values(name, values, kinds.get(name))
            for name, values in data.items()
        ]
        return DataFrame(columns)

    @staticmethod
    def from_rows(
        rows: Sequence[dict],
        column_order: Optional[Sequence[str]] = None,
        kinds: Optional[Dict[str, str]] = None,
    ) -> "DataFrame":
        """Build from a list of dict-rows (all rows must share keys)."""
        if not rows:
            raise ValueError("need at least one row")
        names = list(column_order) if column_order else list(rows[0].keys())
        data = {name: [row.get(name) for row in rows] for name in names}
        return DataFrame.from_dict(data, kinds=kinds)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._columns.keys())

    @property
    def num_rows(self) -> int:
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def shape(self) -> tuple:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        """Raw value array of a column (shared, do not mutate)."""
        return self.col(name).values

    def col(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.columns}"
            ) from None

    def kinds(self) -> Dict[str, str]:
        return {name: col.kind for name, col in self._columns.items()}

    def numeric_columns(self) -> List[str]:
        return [n for n, c in self._columns.items() if c.is_numeric]

    def categorical_columns(self) -> List[str]:
        return [n for n, c in self._columns.items() if c.is_categorical]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataFrame(rows={self.num_rows}, columns={self.columns})"

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "DataFrame":
        """Project onto a subset of columns, in the given order."""
        return DataFrame([self.col(n) for n in names])

    def drop(self, names: Sequence[str]) -> "DataFrame":
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"cannot drop absent columns {missing}")
        keep = [n for n in self.columns if n not in set(names)]
        return self.select(keep)

    def take(self, indices) -> "DataFrame":
        """Row subset / reorder by integer indices."""
        indices = np.asarray(indices)
        return DataFrame([c.take(indices) for c in self._columns.values()])

    def mask(self, boolean_mask) -> "DataFrame":
        """Row subset by boolean mask."""
        boolean_mask = np.asarray(boolean_mask, dtype=bool)
        return DataFrame([c.mask(boolean_mask) for c in self._columns.values()])

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(np.arange(min(n, self.num_rows)))

    # ------------------------------------------------------------------
    # mutation-by-copy
    # ------------------------------------------------------------------
    def with_column(self, column: Column) -> "DataFrame":
        """Add or replace a column, returning a new frame."""
        if len(column) != self.num_rows:
            raise ValueError(
                f"column length {len(column)} != frame rows {self.num_rows}"
            )
        cols = []
        replaced = False
        for existing in self._columns.values():
            if existing.name == column.name:
                cols.append(column)
                replaced = True
            else:
                cols.append(existing)
        if not replaced:
            cols.append(column)
        return DataFrame(cols)

    def with_values(self, name: str, values, kind: Optional[str] = None) -> "DataFrame":
        """Add or replace a column from raw values."""
        if kind is None and name in self._columns:
            kind = self._columns[name].kind
        return self.with_column(Column.from_values(name, values, kind))

    def rename(self, mapping: Dict[str, str]) -> "DataFrame":
        cols = [
            c.rename(mapping.get(c.name, c.name)) for c in self._columns.values()
        ]
        return DataFrame(cols)

    def copy(self) -> "DataFrame":
        return DataFrame([c.copy() for c in self._columns.values()])

    # ------------------------------------------------------------------
    # missing values
    # ------------------------------------------------------------------
    def missing_mask(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Row mask that is True where *any* of the columns is missing."""
        names = list(columns) if columns is not None else self.columns
        mask = np.zeros(self.num_rows, dtype=bool)
        for name in names:
            mask |= self.col(name).missing_mask()
        return mask

    def complete_mask(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        return ~self.missing_mask(columns)

    def dropna(self, columns: Optional[Sequence[str]] = None) -> "DataFrame":
        """Complete-case analysis: keep only rows without missing values."""
        return self.mask(self.complete_mask(columns))

    def num_incomplete_rows(self) -> int:
        return int(self.missing_mask().sum())

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_rows(self) -> List[dict]:
        names = self.columns
        arrays = [self._columns[n].values for n in names]
        return [
            {name: arr[i] for name, arr in zip(names, arrays)}
            for i in range(self.num_rows)
        ]

    def to_matrix(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Numeric matrix of the given (numeric) columns."""
        names = list(columns) if columns is not None else self.numeric_columns()
        bad = [n for n in names if not self.col(n).is_numeric]
        if bad:
            raise TypeError(f"to_matrix() on categorical columns {bad}")
        if not names:
            return np.empty((self.num_rows, 0), dtype=np.float64)
        return np.column_stack([self.col(n).values for n in names])

    def equals(self, other: "DataFrame") -> bool:
        if not isinstance(other, DataFrame):
            return False
        if self.columns != other.columns:
            return False
        return all(
            self.col(n).equals(other.col(n)) for n in self.columns
        )


def concat_rows(frames: Sequence[DataFrame]) -> DataFrame:
    """Stack frames vertically; all must share the same column schema."""
    if not frames:
        raise ValueError("need at least one frame")
    first = frames[0]
    for f in frames[1:]:
        if f.columns != first.columns:
            raise ValueError(
                f"schema mismatch: {first.columns} vs {f.columns}"
            )
        if f.kinds() != first.kinds():
            raise ValueError("column kind mismatch between frames")
    columns = [
        concat_columns([f.col(name) for f in frames]) for name in first.columns
    ]
    return DataFrame(columns)


def train_validation_test_masks(
    num_rows: int,
    train_fraction: float,
    validation_fraction: float,
    seed: int,
) -> tuple:
    """Random, seeded, disjoint row masks for a 3-way split.

    This is the paper's 70/10/20 split primitive: reproducible via the seed,
    and exhaustive (every row lands in exactly one split).
    """
    if not 0 < train_fraction < 1 or not 0 < validation_fraction < 1:
        raise ValueError("fractions must lie in (0, 1)")
    if train_fraction + validation_fraction >= 1:
        raise ValueError("train + validation fractions must leave room for test")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_rows)
    n_train = int(round(train_fraction * num_rows))
    n_val = int(round(validation_fraction * num_rows))
    train_idx = order[:n_train]
    val_idx = order[n_train : n_train + n_val]
    test_idx = order[n_train + n_val :]
    masks = []
    for idx in (train_idx, val_idx, test_idx):
        m = np.zeros(num_rows, dtype=bool)
        m[idx] = True
        masks.append(m)
    return tuple(masks)
