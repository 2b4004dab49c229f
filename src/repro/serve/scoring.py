"""Batch + single-record scoring over a frozen pipeline.

The batch path replays the exact featurization/intervention path an
:class:`~repro.core.experiment.Experiment` applies to its held-out test
split — same fitted components, same vectorized code — so a reloaded
pipeline reproduces in-process predictions byte for byte. The single-record
fast path featurizes one record straight from a dict (no DataFrame, no
per-column dictionary encoding) for low-latency point queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.interventions import NoIntervention
from ..core.learners import predict_with_scores
from ..fairness import BinaryLabelDataset, ClassificationMetric
from ..frame import DataFrame
from ..learn import OneHotEncoder
from .artifacts import PipelineArtifact

DROPPED_RECORD_ERROR = (
    "record has missing values and the pipeline's handler drops "
    "incomplete records"
)


@dataclass
class BatchScores:
    """Outcome of scoring a frame.

    ``row_mask`` marks which *input* rows were scored: handlers that drop
    incomplete records (complete-case analysis) shrink the output, and the
    mask maps predictions back onto input positions.
    """

    labels: np.ndarray
    scores: Optional[np.ndarray]
    row_mask: np.ndarray
    predictions: BinaryLabelDataset
    truth: Optional[BinaryLabelDataset] = None

    @property
    def num_scored(self) -> int:
        return len(self.labels)


class ScoringEngine:
    """High-throughput scoring over an exported :class:`PipelineArtifact`."""

    def __init__(self, pipeline: PipelineArtifact, monitor=None):
        self.pipeline = pipeline
        self.monitor = monitor
        self._row_scorer: Optional[_RowScorer] = None

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def score_frame(self, frame: DataFrame) -> BatchScores:
        """Score every (complete) row of a raw-schema DataFrame."""
        pipeline = self.pipeline
        spec = pipeline.spec
        required = spec.feature_columns + [
            spec.protected(pipeline.protected_attribute).column
        ]
        missing_columns = [c for c in required if c not in frame]
        if missing_columns:
            raise KeyError(
                f"frame lacks columns {missing_columns} required by "
                f"the {spec.name} pipeline"
            )
        handled = pipeline.handler.handle_missing(frame)
        # the mask comes from the handler's own drop decision (kept_mask),
        # never from a re-derivation of its criterion: a handler that drops
        # on other columns (say, the protected attribute) would otherwise
        # yield a mask whose popcount disagrees with the scored rows
        row_mask = np.asarray(pipeline.handler.kept_mask(frame), dtype=bool)
        if int(row_mask.sum()) != handled.num_rows:
            raise RuntimeError(
                f"handler {pipeline.handler.name()} kept_mask marks "
                f"{int(row_mask.sum())} rows but handle_missing returned "
                f"{handled.num_rows}; the handler must override kept_mask "
                "to match its own drop decision"
            )
        if handled.num_rows == 0:
            # every row was incomplete and the handler drops such rows
            empty = np.empty(0, dtype=np.float64)
            placeholder = BinaryLabelDataset(
                features=np.zeros((0, len(pipeline.featurizer.feature_names_))),
                labels=empty,
                protected_attributes=np.zeros((0, 1)),
                protected_attribute_names=[pipeline.protected_attribute],
            )
            return BatchScores(
                labels=empty,
                scores=None,
                row_mask=row_mask,
                predictions=placeholder,
            )

        data = pipeline.featurizer.transform(handled, require_label=False)
        # ground truth is only trusted where the label is actually present;
        # spec.label_binary maps a *missing* label to 0.0, which must never
        # be fed to metrics or the monitor as a real unfavorable outcome
        has_label_column = spec.label_column in frame
        if has_label_column:
            label_known = ~handled.col(spec.label_column).missing_mask()
            fully_labeled = bool(label_known.all())
        else:
            label_known = None
            fully_labeled = False
        eval_data = pipeline.pre_processor.transform_eval(data)
        labels, scores = predict_with_scores(pipeline.model, eval_data.features)
        if scores is None and not isinstance(pipeline.post_processor, NoIntervention):
            raise ValueError(
                f"post-processor {pipeline.post_processor.name()} requires "
                "prediction scores but the model provides none"
            )
        predictions = data.with_predictions(labels=labels, scores=scores)
        predictions = pipeline.post_processor.apply(predictions)

        if self.monitor is not None:
            true_labels = None
            if has_label_column:
                true_labels = data.labels.copy()
                true_labels[~label_known] = np.nan  # unlabeled, not unfavorable
            self.monitor.observe_batch(
                groups=data.protected_attributes[:, 0],
                predictions=predictions.labels,
                scores=predictions.scores,
                true_labels=true_labels,
            )
        return BatchScores(
            labels=predictions.labels,
            scores=predictions.scores,
            row_mask=row_mask,
            predictions=predictions,
            truth=data if fully_labeled else None,
        )

    def evaluate_frame(self, frame: DataFrame) -> Dict[str, float]:
        """Score a labeled frame and compute the full fairness metric bundle.

        This is the exact metric computation the experiment layer runs on
        its test split, so reloaded-vs-in-process comparisons can assert
        metric equality, not just label equality.
        """
        batch = self.score_frame(frame)
        return self.evaluate_batch(batch)

    def evaluate_batch(self, batch: BatchScores) -> Dict[str, float]:
        """Metric bundle of an already-scored batch (no second scoring pass)."""
        if batch.truth is None:
            raise ValueError(
                "batch lacks complete ground truth in label column "
                f"{self.pipeline.spec.label_column!r}; cannot evaluate"
            )
        attribute = self.pipeline.protected_attribute
        metric = ClassificationMetric(
            batch.truth,
            batch.predictions,
            unprivileged_groups=[{attribute: 0.0}],
            privileged_groups=[{attribute: 1.0}],
        )
        return metric.all_metrics()

    # ------------------------------------------------------------------
    # single-record fast path
    # ------------------------------------------------------------------
    def score_record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Score one record (a plain dict) without materializing a frame.

        Missing-value handlers with per-record semantics (mode imputation,
        pass-through) are applied inline; handlers that need frame context
        (learned imputation) fall back to the one-row frame path, and
        row-dropping handlers reject incomplete records outright.
        """
        if self._row_scorer is None:
            self._row_scorer = _RowScorer(self.pipeline)
        scorer = self._row_scorer
        if scorer.needs_frame_fallback(record):
            (result,) = self.score_records([record])
            if isinstance(result, Exception):
                raise result
            return result

        features = scorer.featurize(record)
        protected = scorer.protected_value(record)
        pipeline = self.pipeline
        data = BinaryLabelDataset(
            features=features,
            labels=np.zeros(1, dtype=np.float64),
            protected_attributes=np.asarray([[protected]], dtype=np.float64),
            protected_attribute_names=[pipeline.protected_attribute],
            feature_names=pipeline.featurizer.feature_names_,
        )
        eval_data = pipeline.pre_processor.transform_eval(data)
        labels, scores = predict_with_scores(pipeline.model, eval_data.features)
        predictions = data.with_predictions(labels=labels, scores=scores)
        predictions = pipeline.post_processor.apply(predictions)
        label = float(predictions.labels[0])
        score = (
            None if predictions.scores is None else float(predictions.scores[0])
        )
        if self.monitor is not None:
            true_label = _true_label(pipeline.spec, record)
            self.monitor.observe(
                group=protected,
                prediction=label,
                score=score,
                true_label=true_label,
            )
        return self.record_result(label, score)

    def score_records(self, records: List[Dict[str, Any]]) -> List[Any]:
        """Score records in one :meth:`score_frame` pass: per input record,
        its :meth:`record_result` or, where the pipeline's handler dropped
        it, a ``ValueError(DROPPED_RECORD_ERROR)``."""
        scored = self.score_frame(records_to_frame(self.pipeline.spec, records))
        results: List[Any] = []
        for kept, j in zip(scored.row_mask, np.cumsum(scored.row_mask) - 1):
            if not kept:
                results.append(ValueError(DROPPED_RECORD_ERROR))
                continue
            score = None if scored.scores is None else float(scored.scores[j])
            results.append(self.record_result(float(scored.labels[j]), score))
        return results

    def record_result(self, label: float, score: Optional[float]) -> Dict[str, Any]:
        """The single-record response payload for a scored (label, score)."""
        spec = self.pipeline.spec
        return {
            "label": label,
            "score": score,
            "favorable": bool(label == 1.0),
            "decision": spec.favorable_value if label == 1.0 else f"not {spec.favorable_value}",
        }


# ----------------------------------------------------------------------
# per-record featurization
# ----------------------------------------------------------------------
class _RowScorer:
    """Precomputed per-column transforms for frame-free featurization."""

    def __init__(self, pipeline: PipelineArtifact):
        self.pipeline = pipeline
        columns = pipeline.featurizer.columns_
        self.numeric = columns.numeric
        self.categorical = columns.categorical
        self.scaler = getattr(columns, "scaler_", None)
        self.encoder = getattr(columns, "encoder_", None)
        handler = pipeline.handler
        self.fill_values = dict(getattr(handler, "_fill_values", {}) or {})
        self.handler_drops = bool(getattr(handler, "drops_rows", False))
        # learned imputation needs the shared predictor matrix: no fast path
        self.handler_needs_frame = hasattr(handler, "_models")
        protected = pipeline.spec.protected(pipeline.protected_attribute)
        self.protected_column = protected.column
        self.privileged_values = set(protected.privileged_values)
        # missing record values never reach these tables: _value() either
        # imputes them (handler fill statistics) or raises first
        self.onehot_tables: Optional[List[dict]] = None
        if isinstance(self.encoder, OneHotEncoder):
            self.onehot_tables = []
            offset = 0
            for categories in self.encoder.categories_:
                width = len(categories) + 1
                slots = {category: offset + i for i, category in enumerate(categories)}
                self.onehot_tables.append(
                    {"slots": slots, "unseen": offset + width - 1}
                )
                offset += width
            self.onehot_width = offset

    # ------------------------------------------------------------------
    def needs_frame_fallback(self, record: Dict[str, Any]) -> bool:
        if self.handler_needs_frame:
            return True
        if self.handler_drops and any(
            _is_missing(record.get(name))
            for name in self.numeric + self.categorical
        ):
            return True
        return False

    def _value(self, record: Dict[str, Any], name: str):
        value = record.get(name)
        if _is_missing(value):
            if name in self.fill_values:
                return self.fill_values[name]
            raise ValueError(
                f"record is missing feature {name!r} and the pipeline's "
                "handler cannot impute it"
            )
        return value

    def featurize(self, record: Dict[str, Any]) -> np.ndarray:
        blocks: List[np.ndarray] = []
        if self.numeric:
            row = np.asarray(
                [[float(self._value(record, name)) for name in self.numeric]],
                dtype=np.float64,
            )
            blocks.append(self.scaler.transform(row))
        if self.categorical:
            values = [str(self._value(record, name)) for name in self.categorical]
            if self.onehot_tables is not None:
                row = np.zeros((1, self.onehot_width), dtype=np.float64)
                for value, table in zip(values, self.onehot_tables):
                    row[0, table["slots"].get(value, table["unseen"])] = 1.0
                blocks.append(row)
            else:
                from ..frame import Column

                columns = [
                    Column.categorical(name, [value])
                    for name, value in zip(self.categorical, values)
                ]
                blocks.append(self.encoder.transform(columns))
        if not blocks:
            return np.zeros((1, 0))
        return np.hstack(blocks)

    def protected_value(self, record: Dict[str, Any]) -> float:
        value = record.get(self.protected_column)
        if _is_missing(value):
            return 0.0
        return 1.0 if str(value) in self.privileged_values else 0.0


def _is_missing(value) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and value != value:
        return True
    return False


def _true_label(spec, record: Dict[str, Any]) -> Optional[float]:
    value = record.get(spec.label_column)
    if _is_missing(value):
        return None
    return 1.0 if str(value) == str(spec.favorable_value) else 0.0


def records_to_frame(spec, records: List[Dict[str, Any]]) -> DataFrame:
    """Coalesce record dicts into one raw-schema frame (spec column kinds).

    Every column the spec names is materialized, the label column only when
    some record carries it; a record that lacks a column contributes a
    missing value, which is exactly what the pipeline's missing-value
    handler is fit to deal with. One record and a batch of it thus yield
    the same rows.
    """
    kinds = spec.column_kinds()
    label = spec.label_column
    names = [n for n in kinds if n != label or any(label in r for r in records)]
    data = {name: [r.get(name) for r in records] for name in names}
    return DataFrame.from_dict(data, kinds={name: kinds[name] for name in names})
