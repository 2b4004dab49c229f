"""Frame and record scoring over a frozen pipeline.

``score_frame`` replays the exact featurization/intervention path an
:class:`~repro.core.experiment.Experiment` applies to its held-out test
split, so a reloaded pipeline reproduces in-process predictions byte for
byte; it is the general path and the records path's oracle. JSON records
(``score_batch``, ``score_records``, ``score_record``) never become a
frame: the engine compiles the built-in handlers and fitted encoders into
per-column lookup tables at construction and scores records straight into
the matrix ``score_frame`` would build, bit for bit. A pipeline it does not
cover (a custom handler, an SVD embedding) takes the frame path, counted as
``serve.scoring.frame_path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from .. import telemetry
from ..core.interventions import NoIntervention
from ..core.learners import predict_with_scores
from ..core.missing_values import (
    CompleteCaseAnalysis,
    DatawigImputer,
    LearnedImputer,
    ModeImputer,
    NoMissingValues,
)
from ..fairness import BinaryLabelDataset, ClassificationMetric
from ..frame import CATEGORICAL, NUMERIC, Column, DataFrame
from ..learn import FrequencyEncoder, OneHotEncoder, TargetEncoder, nearest_neighbor_indices
from .artifacts import PipelineArtifact

DROPPED_RECORD_ERROR = (
    "record has missing values and the pipeline's handler drops "
    "incomplete records"
)
FRAME_PATH = "serve.scoring.frame_path"


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
        self._compiled = _CompiledPipeline.of(pipeline)

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    def score_frame(self, frame: DataFrame) -> BatchScores:
        """Score every (complete) row of a raw-schema DataFrame."""
        return self._score(*self._prepare_frame(frame))

    def _prepare_frame(self, frame: DataFrame):
        """A frame's ``(data, label_known, row_mask)`` for :meth:`_score`."""
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
            return None, None, row_mask
        data = pipeline.featurizer.transform(handled, require_label=False)
        # ground truth is only trusted where the label is actually present;
        # spec.label_binary maps a *missing* label to 0.0, which must never
        # be fed to metrics or the monitor as a real unfavorable outcome
        label_known = None
        if spec.label_column in frame:
            label_known = ~handled.col(spec.label_column).missing_mask()
        return data, label_known, row_mask

    def _score(self, data, label_known, row_mask, observe: bool = True) -> BatchScores:
        """Intervene, predict and post-process prepared rows; the monitor
        sees them in one ``observe_batch`` unless ``observe`` is False."""
        pipeline = self.pipeline
        if data is None:  # the handler dropped every (incomplete) row
            empty = np.empty(0, dtype=np.float64)
            width = len(pipeline.featurizer.feature_names_)
            placeholder = BinaryLabelDataset(
                np.zeros((0, width)), empty, np.zeros((0, 1)), [pipeline.protected_attribute]
            )
            return BatchScores(empty, None, row_mask, placeholder)
        eval_data = pipeline.pre_processor.transform_eval(data)
        labels, scores = predict_with_scores(pipeline.model, eval_data.features)
        if scores is None and not isinstance(pipeline.post_processor, NoIntervention):
            raise ValueError(
                f"post-processor {pipeline.post_processor.name()} requires "
                "prediction scores but the model provides none"
            )
        predictions = data.with_predictions(labels=labels, scores=scores)
        predictions = pipeline.post_processor.apply(predictions)

        if observe and self.monitor is not None:
            true_labels = None
            if label_known is not None:
                true_labels = data.labels.copy()
                true_labels[~label_known] = np.nan  # unlabeled, not unfavorable
            self.monitor.observe_batch(
                groups=data.protected_attributes[:, 0],
                predictions=predictions.labels,
                scores=predictions.scores,
                true_labels=true_labels,
            )
        fully_labeled = label_known is not None and bool(label_known.all())
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
    # records path
    # ------------------------------------------------------------------
    def score_batch(self, records: List[Dict[str, Any]]) -> BatchScores:
        """What ``score_frame(records_to_frame(spec, records))`` gives,
        through the compiled pipeline when there is one."""
        return self._score(*self._prepare_records(records))

    def _prepare_records(self, records: List[Dict[str, Any]]):
        if self._compiled is not None:
            return self._compiled.prepare(records)
        telemetry.counter(FRAME_PATH).inc()
        return self._prepare_frame(records_to_frame(self.pipeline.spec, records))

    def score_record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Score one record (a plain dict): the one-row :meth:`score_batch`,
        its monitor feed one ``observe``. A record the handler drops raises
        ``ValueError(DROPPED_RECORD_ERROR)``."""
        scored = self._score(*self._prepare_records([record]), observe=False)
        if not scored.row_mask[0]:
            raise ValueError(DROPPED_RECORD_ERROR)
        label = float(scored.labels[0])
        score = None if scored.scores is None else float(scored.scores[0])
        if self.monitor is not None:
            truth = None if scored.truth is None else scored.truth.labels[0]
            group = scored.predictions.protected_attributes[0, 0]
            self.monitor.observe(group, label, score=score, true_label=truth)
        return self.record_result(label, score)

    def score_records(self, records: List[Dict[str, Any]]) -> List[Any]:
        """Score records in one :meth:`score_batch` pass: per input record,
        its :meth:`record_result` or, where the pipeline's handler dropped
        it, a ``ValueError(DROPPED_RECORD_ERROR)``."""
        scored = self.score_batch(records)
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


# ----------------------------------------------------------------------
# the compiled records path
# ----------------------------------------------------------------------
def _layout(columns) -> Optional[list]:
    """Each categorical column's fitted keys and output width in a fitted
    ColumnEncoder; None for an encoder the compiler does not cover (a
    one-hot encoder that refuses missing values among them)."""
    if not columns.categorical:
        return []
    encoder = columns.encoder_
    if type(encoder) is OneHotEncoder and encoder.handle_missing == "category":
        return [(list(keys), len(keys) + 1) for keys in encoder.categories_]
    tables = {FrequencyEncoder: "frequencies_", TargetEncoder: "tables_"}.get(type(encoder))
    return None if tables is None else [(list(t), 1) for t in getattr(encoder, tables)]


class _EncoderTables:
    """A fitted ColumnEncoder compiled: its fitted scaler, and per
    categorical column a lookup into the rows its own encoder's
    ``transform`` gives each fitted key, a missing entry and an unseen one."""

    def __init__(self, columns, layout):
        self.numeric, self.categorical = columns.numeric, columns.categorical
        self.scaler = getattr(columns, "scaler_", None)
        self.tables = []
        if not layout:
            return
        unseen = max((k for keys, _ in layout for k in keys), key=len, default="") + "?"
        size = max(len(keys) for keys, _ in layout) + 2
        probe = columns.encoder_.transform([
            Column.categorical(name, keys + [None] + [unseen] * (size - len(keys) - 1))
            for name, (keys, _) in zip(self.categorical, layout)
        ])
        start = 0
        for keys, width in layout:
            slots = {**{key: i for i, key in enumerate(keys)}, None: len(keys)}
            table = probe[: len(keys) + 2, start : start + width]
            self.tables.append((slots, len(keys) + 1, table))
            start += width

    def encode(self, columns: Dict[str, np.ndarray], n: int) -> np.ndarray:
        """The matrix ``ColumnEncoder.transform`` gives these ``n`` rows."""
        blocks = []
        if self.numeric:
            matrix = np.column_stack([columns[name] for name in self.numeric])
            if np.isnan(matrix).any():
                raise ValueError("missing numeric values reached featurization; "
                                 "run a missing-value handler first")
            blocks.append(self.scaler.transform(matrix))
        for name, (slots, unseen, table) in zip(self.categorical, self.tables):
            blocks.append(table[[slots.get(v, unseen) for v in columns[name]]])
        return np.hstack(blocks) if blocks else np.zeros((n, 0))


def _missing(values: np.ndarray) -> np.ndarray:
    return np.isnan(values) if values.dtype.kind == "f" else np.equal(values, None)


_HANDLERS = (NoMissingValues, CompleteCaseAnalysis, ModeImputer, LearnedImputer, DatawigImputer)


class _CompiledPipeline:
    """A pipeline's preparation of JSON records on per-column arrays:
    ``records_to_frame``'s coercion, a built-in handler, the featurizer."""

    @classmethod
    def of(cls, pipeline: PipelineArtifact) -> Optional["_CompiledPipeline"]:
        """The compiled pipeline, or None where the frame path must run."""
        handler, featurizer = pipeline.handler, pipeline.featurizer
        encoders = [featurizer.columns_]
        if isinstance(handler, LearnedImputer) and handler._encoder is not None:
            encoders.append(handler._encoder)
        layouts = [_layout(columns) for columns in encoders]
        protected = featurizer.spec.protected(featurizer.protected_attribute).column
        categorical = pipeline.spec.column_kinds()[protected] == CATEGORICAL
        if type(handler) not in _HANDLERS or None in layouts or not categorical:
            return None
        return cls(pipeline, [_EncoderTables(*pair) for pair in zip(encoders, layouts)])

    def __init__(self, pipeline: PipelineArtifact, encoders):
        handler, featurizer = pipeline.handler, pipeline.featurizer
        self.kinds = pipeline.spec.column_kinds()
        self.label = pipeline.spec.label_column
        self.featurizer = featurizer
        self.features, *predictors = encoders
        protected = featurizer.spec.protected(featurizer.protected_attribute)
        self.protected = protected.column
        self.privileged = {str(value): 1.0 for value in protected.privileged_values}
        self.favorable = str(featurizer.spec.favorable_value)
        complete = type(handler) in (NoMissingValues, CompleteCaseAnalysis)
        self.complete = handler._feature_columns if complete else []
        self.drops = type(handler) is CompleteCaseAnalysis
        fallback = handler._fallback if isinstance(handler, LearnedImputer) else handler
        self.fills = fallback._fill_values if isinstance(fallback, ModeImputer) else {}
        self.imputer, self.predictors = (handler, *predictors) if predictors else (None, None)

    def prepare(self, records: List[Dict[str, Any]]):
        """``(data, label_known, row_mask)`` as ``_prepare_frame`` gives
        them for ``records_to_frame(spec, records)``."""
        label = self.label
        has_label = any(label in r for r in records)
        columns = {}
        for name, kind in self.kinds.items():
            if name == label and not has_label:
                continue
            if kind == NUMERIC:  # Column.numeric's coercion
                values = [np.nan if (v := r.get(name)) is None else float(v) for r in records]
                columns[name] = np.array(values, dtype=np.float64)
            else:  # _encode_values': None and NaN are missing, the rest a str
                # without trailing NULs, as a frame's category table drops them
                values = [
                    None if (v := r.get(name)) is None or v != v else str(v).rstrip("\x00")
                    for r in records
                ]
                columns[name] = np.array(values, dtype=object)
        kept = self._handle(columns, len(records))
        n = int(kept.sum())
        if not n:
            return None, None, kept
        labels, label_known = np.zeros(n), None
        if has_label:
            labels = (columns[label] == self.favorable).astype(np.float64)
            label_known = ~_missing(columns[label])
        data = BinaryLabelDataset(
            self.features.encode(columns, n),
            labels,
            np.array([self.privileged.get(v, 0.0) for v in columns[self.protected]]),
            [self.featurizer.protected_attribute],
            feature_names=self.featurizer.feature_names_,
        )
        return data, label_known, kept

    def _handle(self, columns: Dict[str, np.ndarray], n: int) -> np.ndarray:
        """The handler's ``handle_missing`` on ``columns``, in place; returns
        its ``kept_mask``. A learned imputer encodes only the rows some
        modelled target misses, and queries its models as it does."""
        kept = np.ones(n, dtype=bool)
        if self.complete:
            incomplete = np.logical_or.reduce([_missing(columns[c]) for c in self.complete])
            if incomplete.any() and not self.drops:
                raise ValueError(
                    f"{int(incomplete.sum())} records have missing values but "
                    "the experiment is configured with NoMissingValues"
                )
            kept = ~incomplete
            for name, values in columns.items():
                columns[name] = values[kept]
        missing = {name: m for name in self.fills if (m := _missing(columns[name])).any()}
        for name, mask in missing.items():
            values, fill = columns[name], self.fills[name]
            values[mask] = float(fill) if values.dtype.kind == "f" else str(fill)
        imputer = self.imputer
        targets, models = ([], {}) if imputer is None else (imputer._targets, imputer._models)
        modelled = [t for t in targets if t in missing and models[t]["kind"] != "fallback"]
        rows = np.logical_or.reduce([missing[t] for t in modelled], initial=False)
        if not rows.any():
            return kept
        encoder = self.predictors
        names = encoder.numeric + encoder.categorical
        matrix = encoder.encode({name: columns[name][rows] for name in names}, int(rows.sum()))
        for target in modelled:
            mask, spec = missing[target], models[target]
            X = imputer._encoder.submatrix(matrix, exclude=target)[mask[rows]]
            if spec["kind"] == "classifier":
                predictions = [str(p) for p in spec["model"].predict(X)]
            else:
                neighbors = nearest_neighbor_indices(
                    spec["train_X"], X, imputer.n_neighbors, train_sq=spec["train_sq"]
                )
                predictions = spec["train_y"][neighbors].mean(axis=1)
            columns[target][mask] = predictions
        return kept
