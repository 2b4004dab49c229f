"""Accuracy-oriented classification metrics.

These are the "company standard accuracy metrics" side of the paper. The
weighted TP/FP/TN/FN table of :func:`binary_counts` and the measures
:func:`confusion_measures` reads from it are also the only confusion-table
code behind :mod:`repro.fairness.metrics`, the reject-option search and the
threshold sweep.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def _weights(sample_weight, n: int) -> np.ndarray:
    if sample_weight is None:
        return np.ones(n, dtype=np.float64)
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    if len(sample_weight) != n:
        raise ValueError("sample_weight length mismatch")
    return sample_weight


def accuracy_score(y_true, y_pred, sample_weight=None) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    w = _weights(sample_weight, len(y_true))
    if w.sum() == 0:
        return float("nan")
    return float(np.average((y_true == y_pred).astype(np.float64), weights=w))


def confusion_matrix(
    y_true, y_pred, labels: Optional[Sequence] = None, sample_weight=None
) -> np.ndarray:
    """Weighted confusion matrix; rows = true label, columns = prediction.

    Runs on the evaluation path of every grid run, so the accumulation is
    vectorized: labels are mapped to codes with a searchsorted lookup and
    the cell sums come from one flat 2-D bincount. Falls back to the
    row-at-a-time dict accumulation only for label sets numpy cannot sort
    or that contain duplicates.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if labels is None:
        labels = np.unique(np.concatenate([y_true, y_pred]))
    labels = list(labels)
    w = _weights(sample_weight, len(y_true))
    if not labels:
        return _confusion_matrix_loop(y_true, y_pred, labels, w)
    try:
        label_array = np.asarray(labels)
        if "O" in (label_array.dtype.kind, y_true.dtype.kind, y_pred.dtype.kind):
            # object arrays sort/search element-by-element in Python —
            # the dict accumulation is faster and has the exact semantics
            raise TypeError
        sorter = np.argsort(label_array, kind="mergesort")
        ordered = label_array[sorter]
        if (ordered[:-1] == ordered[1:]).any():
            raise TypeError  # duplicate labels: defer to the dict semantics
        t_codes, t_ok = _label_codes(ordered, sorter, y_true)
        p_codes, p_ok = _label_codes(ordered, sorter, y_pred)
    except TypeError:
        return _confusion_matrix_loop(y_true, y_pred, labels, w)
    bad = ~(t_ok & p_ok)
    if bad.any():
        first = int(np.argmax(bad))
        raise ValueError(
            f"label outside provided label set: {y_true[first]!r}/{y_pred[first]!r}"
        )
    n_labels = len(labels)
    # bincount accumulates in input order — the same order (and therefore
    # the same floating-point sums) as the row-at-a-time loop
    return np.bincount(
        t_codes * n_labels + p_codes, weights=w, minlength=n_labels * n_labels
    ).reshape(n_labels, n_labels)


def _label_codes(ordered, sorter, values):
    """Positions of ``values`` in the original label list, via the sorted
    view; second return marks values actually present."""
    positions = np.searchsorted(ordered, values)
    positions = np.clip(positions, 0, len(ordered) - 1)
    ok = ordered[positions] == values
    return sorter[positions], ok


def _confusion_matrix_loop(y_true, y_pred, labels, w):
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.float64)
    for t, p, weight in zip(y_true, y_pred, w):
        if t not in index or p not in index:
            raise ValueError(f"label outside provided label set: {t!r}/{p!r}")
        matrix[index[t], index[p]] += weight
    return matrix


def binary_counts(y_true, y_pred, positive_label, sample_weight=None) -> dict:
    """Weighted TP/FP/TN/FN for a designated positive label."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    w = _weights(sample_weight, len(y_true))
    true_pos = y_true == positive_label
    pred_pos = y_pred == positive_label
    return {
        "TP": float(w[true_pos & pred_pos].sum()),
        "FP": float(w[~true_pos & pred_pos].sum()),
        "TN": float(w[~true_pos & ~pred_pos].sum()),
        "FN": float(w[true_pos & ~pred_pos].sum()),
    }


def _safe_divide(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else float("nan")


def confusion_measures(counts: dict) -> dict:
    """The 25 measures of one :func:`binary_counts` table.

    A ratio over an empty (zero-weight) denominator is NaN.
    """
    tp, fp, tn, fn = counts["TP"], counts["FP"], counts["TN"], counts["FN"]
    total = tp + fp + tn + fn
    actual_pos = tp + fn
    actual_neg = tn + fp
    pred_pos = tp + fp
    pred_neg = tn + fn
    tpr = _safe_divide(tp, actual_pos)
    tnr = _safe_divide(tn, actual_neg)
    ppv = _safe_divide(tp, pred_pos)
    accuracy = _safe_divide(tp + tn, total)
    f1 = (
        float("nan")
        if np.isnan(ppv) or np.isnan(tpr) or (ppv + tpr) == 0
        else 2.0 * ppv * tpr / (ppv + tpr)
    )
    return {
        "num_instances": total,
        "num_positives": actual_pos,
        "num_negatives": actual_neg,
        "base_rate": _safe_divide(actual_pos, total),
        "num_true_positives": tp,
        "num_false_positives": fp,
        "num_true_negatives": tn,
        "num_false_negatives": fn,
        "num_pred_positives": pred_pos,
        "num_pred_negatives": pred_neg,
        "selection_rate": _safe_divide(pred_pos, total),
        "true_positive_rate": tpr,
        "true_negative_rate": tnr,
        "false_positive_rate": _safe_divide(fp, actual_neg),
        "false_negative_rate": _safe_divide(fn, actual_pos),
        "positive_predictive_value": ppv,
        "negative_predictive_value": _safe_divide(tn, pred_neg),
        "false_discovery_rate": _safe_divide(fp, pred_pos),
        "false_omission_rate": _safe_divide(fn, pred_neg),
        "accuracy": accuracy,
        "error_rate": float("nan") if np.isnan(accuracy) else 1.0 - accuracy,
        "balanced_accuracy": 0.5 * (tpr + tnr),
        "precision": ppv,
        "recall": tpr,
        "f1": f1,
    }


def _measure(name, y_true, y_pred, positive_label, sample_weight) -> float:
    counts = binary_counts(y_true, y_pred, positive_label, sample_weight)
    return confusion_measures(counts)[name]


def precision_score(y_true, y_pred, positive_label=1, sample_weight=None) -> float:
    return _measure("precision", y_true, y_pred, positive_label, sample_weight)


def recall_score(y_true, y_pred, positive_label=1, sample_weight=None) -> float:
    return _measure("recall", y_true, y_pred, positive_label, sample_weight)


def f1_score(y_true, y_pred, positive_label=1, sample_weight=None) -> float:
    return _measure("f1", y_true, y_pred, positive_label, sample_weight)


def balanced_accuracy_score(y_true, y_pred, positive_label=1, sample_weight=None) -> float:
    return _measure("balanced_accuracy", y_true, y_pred, positive_label, sample_weight)


def roc_auc_score(y_true, scores, positive_label=1, sample_weight=None) -> float:
    """Area under the ROC curve via the weighted U statistic (ties averaged)."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    w = _weights(sample_weight, len(y_true))
    positive = y_true == positive_label
    if w[positive].sum() == 0 or w[~positive].sum() == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    return _weighted_auc(scores[order], positive[order], w[order])


def _weighted_auc(sorted_scores, sorted_pos, sorted_w) -> float:
    """U-statistic AUC on score-sorted data with average tie credit."""
    w_pos_total = sorted_w[sorted_pos].sum()
    w_neg_total = sorted_w[~sorted_pos].sum()
    u = 0.0
    neg_below = 0.0
    i = 0
    n = len(sorted_scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        block = slice(i, j + 1)
        block_pos_w = sorted_w[block][sorted_pos[block]].sum()
        block_neg_w = sorted_w[block][~sorted_pos[block]].sum()
        u += block_pos_w * (neg_below + block_neg_w / 2.0)
        neg_below += block_neg_w
        i = j + 1
    return float(u / (w_pos_total * w_neg_total))


def log_loss(y_true, proba, positive_label=1, sample_weight=None, eps=1e-15) -> float:
    """Weighted binary cross-entropy on positive-class probabilities."""
    y_true = np.asarray(y_true)
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim == 2:
        proba = proba[:, 1]
    proba = np.clip(proba, eps, 1.0 - eps)
    w = _weights(sample_weight, len(y_true))
    t = (y_true == positive_label).astype(np.float64)
    losses = -(t * np.log(proba) + (1.0 - t) * np.log(1.0 - proba))
    return float(np.average(losses, weights=w))


def brier_score(y_true, proba, positive_label=1, sample_weight=None) -> float:
    y_true = np.asarray(y_true)
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim == 2:
        proba = proba[:, 1]
    w = _weights(sample_weight, len(y_true))
    t = (y_true == positive_label).astype(np.float64)
    return float(np.average((proba - t) ** 2, weights=w))
