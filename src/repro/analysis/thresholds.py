"""Decision-threshold sweeps over prediction scores.

Post-processing interventions (reject option, calibrated equalized odds)
act on scores; this module exposes the underlying accuracy/fairness-vs-
threshold curves so users can see *why* an intervention picked its
operating point — part of the paper's human-in-the-loop direction.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..fairness import BinaryLabelDataset, BinaryLabelDatasetMetric
from ..fairness.metrics.classification_metric import GROUP_CONTRASTS


def threshold_sweep(
    dataset_true: BinaryLabelDataset,
    scores: np.ndarray,
    unprivileged_groups,
    privileged_groups,
    num_thresholds: int = 21,
) -> List[Dict[str, float]]:
    """Metrics at evenly spaced decision thresholds over the scores.

    Returns one row per threshold with accuracy, balanced accuracy,
    selection rate, statistical parity difference and disparate impact.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != dataset_true.num_instances:
        raise ValueError("scores length does not match the dataset")
    if num_thresholds < 2:
        raise ValueError("need at least 2 thresholds")
    groups = BinaryLabelDatasetMetric(
        dataset_true, unprivileged_groups, privileged_groups
    )
    rows = []
    for threshold in np.linspace(0.0, 1.0, num_thresholds):
        labels = np.where(
            scores >= threshold,
            dataset_true.favorable_label,
            dataset_true.unfavorable_label,
        )
        overall, unprivileged, privileged = (
            groups.confusion_table(labels, stratum)[1] for stratum in (None, False, True)
        )
        row = {"threshold": float(threshold)}
        for name in ("accuracy", "balanced_accuracy", "selection_rate"):
            row[name] = overall[name]
        for name in ("statistical_parity_difference", "disparate_impact"):
            row[name] = GROUP_CONTRASTS[name](unprivileged, privileged)
        rows.append(row)
    return rows


def best_threshold(
    sweep: List[Dict[str, float]],
    objective: str = "balanced_accuracy",
    fairness_metric: str = "statistical_parity_difference",
    fairness_bound: float = None,
) -> Dict[str, float]:
    """Pick the sweep row maximizing the objective, optionally subject to
    ``|fairness_metric| <= fairness_bound``; falls back to the least-
    violating row when the bound is infeasible."""
    if not sweep:
        raise ValueError("empty sweep")
    candidates = sweep
    if fairness_bound is not None:
        feasible = [
            row
            for row in sweep
            if not np.isnan(row[fairness_metric])
            and abs(row[fairness_metric]) <= fairness_bound
        ]
        if feasible:
            candidates = feasible
        else:
            return min(
                sweep,
                key=lambda row: (
                    np.inf
                    if np.isnan(row[fairness_metric])
                    else abs(row[fairness_metric])
                ),
            )
    return max(
        candidates,
        key=lambda row: (
            -np.inf if np.isnan(row[objective]) else row[objective]
        ),
    )
