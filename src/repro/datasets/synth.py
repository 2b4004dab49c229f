"""Scaled synthetic inflation of the paper datasets.

The four paper datasets top out at ~33k rows; million-row grids and
batch-scoring benchmarks need the same *fairness structure* at 30–300×
the size. :func:`inflate` resamples a source frame to any target row
count with a **stratified bootstrap**: rows are drawn per joint cell of
(every protected attribute's privileged indicator × the binary label),
with cell sizes assigned by largest-remainder proportional allocation.
That construction preserves exactly the statistics the fairness metrics
read — per-protected-group base rates, label marginals, and their joint
— up to the ±1-row rounding of each cell, while per-cell bootstrap keeps
all within-cell feature correlations (each synthetic row *is* a source
row). Missing values inflate along with everything else, so MNAR
missingness structure survives too.

Everything is driven by one ``np.random.default_rng(seed)``: the same
``(name, n_rows, seed)`` always produces the identical frame.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..frame import DataFrame
from .base import DatasetSpec


def inflate(
    frame: DataFrame, spec: DatasetSpec, n_rows: int, seed: int = 0
) -> DataFrame:
    """Resample ``frame`` to ``n_rows`` rows, preserving fairness joints.

    Stratifies on the joint of every protected attribute's privileged
    indicator and the binary label, allocates the target size across
    cells by largest remainder, bootstraps within each cell, and shuffles
    globally so row order carries no cell signal.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if frame.num_rows == 0:
        raise ValueError("cannot inflate an empty frame")
    cells = _cell_ids(frame, spec)
    rng = np.random.default_rng(seed)
    n_cells = int(cells.max()) + 1
    counts = np.bincount(cells, minlength=n_cells)
    targets = _largest_remainder(counts, n_rows)
    picks = np.empty(n_rows, dtype=np.int64)
    cursor = 0
    for cell in range(n_cells):
        size = int(targets[cell])
        if size == 0:
            continue
        members = np.nonzero(cells == cell)[0]
        picks[cursor : cursor + size] = members[
            rng.integers(0, len(members), size)
        ]
        cursor += size
    return frame.take(picks[rng.permutation(n_rows)])


def synthesize(
    name: str, n_rows: int, seed: int = 0
) -> Tuple[DataFrame, DatasetSpec]:
    """Load a registered dataset at full size and inflate it to ``n_rows``."""
    from . import load_dataset

    frame, spec = load_dataset(name)
    return inflate(frame, spec, n_rows, seed=seed), spec


def group_label_marginals(
    frame: DataFrame, spec: DatasetSpec
) -> Dict[str, Dict[str, float]]:
    """Favorable-label rate per (protected attribute, group) plus sizes.

    The report the CLI prints and the acceptance test compares: for each
    protected attribute, the privileged/unprivileged group fractions and
    their favorable-label base rates.
    """
    label = spec.label_binary(frame)
    n = frame.num_rows
    report: Dict[str, Dict[str, float]] = {}
    for attribute in spec.protected_attributes:
        privileged = attribute.binary_column(frame) == 1.0
        n_priv = int(privileged.sum())
        report[attribute.column] = {
            "privileged_fraction": n_priv / n,
            "privileged_base_rate": (
                float(label[privileged].mean()) if n_priv else float("nan")
            ),
            "unprivileged_base_rate": (
                float(label[~privileged].mean()) if n_priv < n else float("nan")
            ),
        }
    report["__label__"] = {"favorable_rate": float(label.mean())}
    return report


def _cell_ids(frame: DataFrame, spec: DatasetSpec) -> np.ndarray:
    """Joint stratification cell of every row (protected bits × label)."""
    cells = spec.label_binary(frame).astype(np.int64)
    for attribute in spec.protected_attributes:
        cells = 2 * cells + attribute.binary_column(frame).astype(np.int64)
    return cells


def _largest_remainder(counts: np.ndarray, total: int) -> np.ndarray:
    """Proportional integer allocation of ``total`` across ``counts``.

    Floors the exact quotas, then hands the leftover units to the cells
    with the largest fractional parts (ties to the lower cell id, which
    keeps the allocation deterministic). Empty source cells get nothing,
    so every allocated cell can actually be bootstrapped from.
    """
    quotas = counts * (total / counts.sum())
    floors = np.floor(quotas).astype(np.int64)
    leftover = total - int(floors.sum())
    if leftover:
        remainders = quotas - floors
        # stable sort descending by remainder: ties break to lower id
        order = np.argsort(-remainders, kind="stable")[:leftover]
        floors[order] += 1
    return floors
