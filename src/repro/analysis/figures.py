"""Per-figure series: regenerate the paper's evaluation panels from runs.

Each ``figureN_series`` function consumes :class:`repro.core.RunResult`
records produced by the corresponding benchmark sweep and returns the data
behind the paper's plot panels, plus the shape-level checks EXPERIMENTS.md
reports (variance reduction, failure rates, significance calls).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core import RunResult
from .stats import (
    failure_rate,
    ks_distance,
    no_significant_difference,
    summary,
    variance_ratio,
)

# the three fairness measures Figure 2 plots against accuracy
FAIRNESS_METRICS = {
    "DI": "group__disparate_impact",
    "FNRD": "group__false_negative_rate_difference",
    "FPRD": "group__false_positive_rate_difference",
}

ACCURACY = "overall__accuracy"


def _learner_base(result: RunResult) -> str:
    name = result.best_candidate.learner
    return name.split("(")[0]


def _is_tuned(result: RunResult) -> bool:
    return "(tuned)" in result.best_candidate.learner


def _intervention(result: RunResult) -> str:
    pre = result.components.get("pre_processor", "NoIntervention")
    post = result.components.get("post_processor", "NoIntervention")
    if pre != "NoIntervention":
        return pre
    if post != "NoIntervention":
        return post
    return "no intervention"


def _scaled(result: RunResult) -> bool:
    return result.components.get("scaler") != "NoOpScaler"


def _imputation(result: RunResult) -> str:
    return result.components.get("missing_value_handler", "")


# ---------------------------------------------------------------------------
# Figure 2: impact of hyperparameter tuning (germancredit)
# ---------------------------------------------------------------------------
def figure2_series(results: Sequence[RunResult]) -> Dict:
    """Panels keyed by (learner, intervention, fairness metric).

    Each panel holds the tuned and untuned scatter points
    ``(fairness_value, accuracy)`` and the summary statistics the paper's
    claim rests on: tuned runs shift to higher accuracy and lower variance
    of the fairness outcome.
    """
    panels: Dict = {}
    for metric_label, metric_key in FAIRNESS_METRICS.items():
        for result in results:
            key = (_learner_base(result), _intervention(result), metric_label)
            panel = panels.setdefault(
                key,
                {"tuned": {"fairness": [], "accuracy": []},
                 "untuned": {"fairness": [], "accuracy": []}},
            )
            bucket = panel["tuned" if _is_tuned(result) else "untuned"]
            bucket["fairness"].append(result.test_metrics.get(metric_key, float("nan")))
            bucket["accuracy"].append(result.test_metrics.get(ACCURACY, float("nan")))

    for key, panel in panels.items():
        tuned, untuned = panel["tuned"], panel["untuned"]
        panel["summary"] = {
            "tuned_accuracy": summary(tuned["accuracy"]),
            "untuned_accuracy": summary(untuned["accuracy"]),
            "tuned_fairness": summary(tuned["fairness"]),
            "untuned_fairness": summary(untuned["fairness"]),
            "fairness_variance_ratio": variance_ratio(
                tuned["fairness"], untuned["fairness"]
            ),
            "accuracy_gain": (
                summary(tuned["accuracy"])["mean"]
                - summary(untuned["accuracy"])["mean"]
            ),
        }
    return panels


def figure2_shape_checks(panels: Dict) -> Dict[str, float]:
    """Aggregate shape verdicts: in what fraction of panels does tuning
    (a) not hurt mean accuracy and (b) reduce fairness-outcome variance?"""
    accuracy_wins = []
    variance_wins = []
    for panel in panels.values():
        s = panel["summary"]
        if not np.isnan(s["accuracy_gain"]):
            accuracy_wins.append(s["accuracy_gain"] >= -0.005)
        ratio = s["fairness_variance_ratio"]
        if not np.isnan(ratio):
            variance_wins.append(ratio <= 1.0)
    return {
        "panels": len(panels),
        "accuracy_not_hurt_fraction": float(np.mean(accuracy_wins)) if accuracy_wins else float("nan"),
        "variance_reduced_fraction": float(np.mean(variance_wins)) if variance_wins else float("nan"),
    }


# ---------------------------------------------------------------------------
# Figure 3: impact of feature scaling (ricci)
# ---------------------------------------------------------------------------
def figure3_series(results: Sequence[RunResult]) -> Dict:
    """Panels keyed by (learner, intervention) with scaled/unscaled points."""
    panels: Dict = {}
    for result in results:
        key = (_learner_base(result), _intervention(result))
        panel = panels.setdefault(
            key,
            {"scaling": {"accuracy": [], "DI": []},
             "no scaling": {"accuracy": [], "DI": []}},
        )
        bucket = panel["scaling" if _scaled(result) else "no scaling"]
        bucket["accuracy"].append(result.test_metrics.get(ACCURACY, float("nan")))
        bucket["DI"].append(
            result.test_metrics.get(FAIRNESS_METRICS["DI"], float("nan"))
        )
    for panel in panels.values():
        panel["summary"] = {
            "scaled_accuracy": summary(panel["scaling"]["accuracy"]),
            "unscaled_accuracy": summary(panel["no scaling"]["accuracy"]),
            "unscaled_failure_rate": failure_rate(panel["no scaling"]["accuracy"]),
            "scaled_failure_rate": failure_rate(panel["scaling"]["accuracy"]),
            "accuracy_ks_distance": ks_distance(
                panel["scaling"]["accuracy"], panel["no scaling"]["accuracy"]
            ),
        }
    return panels


def figure3_shape_checks(panels: Dict) -> Dict[str, float]:
    """LR should fail often without scaling; trees should be indifferent."""
    lr_failures, dt_distance = [], []
    for (learner, _), panel in panels.items():
        if learner == "LogisticRegression":
            lr_failures.append(panel["summary"]["unscaled_failure_rate"])
        elif learner == "DecisionTree":
            dt_distance.append(panel["summary"]["accuracy_ks_distance"])
    return {
        "lr_mean_unscaled_failure_rate": float(np.nanmean(lr_failures)) if lr_failures else float("nan"),
        "dt_mean_scaling_ks_distance": float(np.nanmean(dt_distance)) if dt_distance else float("nan"),
    }


# ---------------------------------------------------------------------------
# Figure 4: imputed vs complete record accuracy (adult)
# ---------------------------------------------------------------------------
def figure4_series(results: Sequence[RunResult]) -> Dict:
    """Panels keyed by (learner, intervention, imputation strategy).

    Per run: accuracy on originally-incomplete (imputed) vs complete test
    records — the red and gray dots of Figure 4.
    """
    panels: Dict = {}
    for result in results:
        if not result.test_metrics_incomplete:
            continue
        key = (_learner_base(result), _intervention(result), _imputation(result))
        panel = panels.setdefault(key, {"imputed": [], "complete": []})
        panel["imputed"].append(
            result.test_metrics_incomplete.get(ACCURACY, float("nan"))
        )
        panel["complete"].append(
            result.test_metrics_complete.get(ACCURACY, float("nan"))
        )
    for panel in panels.values():
        panel["summary"] = {
            "imputed_accuracy": summary(panel["imputed"]),
            "complete_accuracy": summary(panel["complete"]),
            "imputed_minus_complete": (
                summary(panel["imputed"])["mean"] - summary(panel["complete"])["mean"]
            ),
        }
    return panels


def figure4_strategy_comparison(
    panels: Dict, strategy_a: str, strategy_b: str
) -> Dict:
    """Mode vs learned imputation: paired accuracy series + significance."""
    a_values, b_values = [], []
    for (learner, intervention, strategy), panel in panels.items():
        if strategy == strategy_a:
            a_values.extend(panel["imputed"])
        elif strategy == strategy_b:
            b_values.extend(panel["imputed"])
    comparable = len(a_values) >= 3 and len(b_values) >= 3
    return {
        strategy_a: summary(a_values),
        strategy_b: summary(b_values),
        "no_significant_difference": (
            no_significant_difference(a_values, b_values) if comparable else None
        ),
    }


# ---------------------------------------------------------------------------
# Figure 5: complete-case analysis vs inclusion of imputed records (adult)
# ---------------------------------------------------------------------------
def figure5_series(results: Sequence[RunResult]) -> Dict:
    """Panels keyed by (learner, intervention) with complete-case vs imputed
    accuracy/DI point clouds."""
    panels: Dict = {}
    for result in results:
        handler = _imputation(result)
        condition = (
            "complete case" if handler.startswith("CompleteCase") else "imputed"
        )
        key = (_learner_base(result), _intervention(result))
        panel = panels.setdefault(
            key,
            {"complete case": {"accuracy": [], "DI": []},
             "imputed": {"accuracy": [], "DI": []}},
        )
        panel[condition]["accuracy"].append(
            result.test_metrics.get(ACCURACY, float("nan"))
        )
        panel[condition]["DI"].append(
            result.test_metrics.get(FAIRNESS_METRICS["DI"], float("nan"))
        )
    for panel in panels.values():
        cc, imp = panel["complete case"], panel["imputed"]
        comparable = len(cc["DI"]) >= 3 and len(imp["DI"]) >= 3
        panel["summary"] = {
            "complete_case_accuracy": summary(cc["accuracy"]),
            "imputed_accuracy": summary(imp["accuracy"]),
            "complete_case_DI": summary(cc["DI"]),
            "imputed_DI": summary(imp["DI"]),
            "di_no_significant_difference": (
                no_significant_difference(cc["DI"], imp["DI"]) if comparable else None
            ),
        }
    return panels
