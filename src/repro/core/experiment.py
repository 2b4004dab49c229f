"""The FairPrep experiment lifecycle (Figure 1 of the paper).

An evaluation run has three phases:

1. **Model selection on training + validation data.** The raw dataset is
   split 70/10/20 (train/validation/test) with the run's seed. The training
   split flows through resampling → missing-value handling → featurization →
   optional pre-processing intervention → classifier training. Each fitted
   transformation is replayed — never refit — on the validation split, and
   each candidate model's predictions on the validation set are scored with
   the full metric bundle (optionally after a post-processing intervention
   fitted on validation predictions).
2. **User-defined choice of the best model** from the validation metrics.
3. **One-shot application to the held-out test set.** The chosen model and
   its fitted transformations are applied to the test split, which user code
   never touches directly (inversion of control). Metrics are additionally
   computed separately for test records that originally had missing values,
   so the effect of data cleaning on affected individuals is visible
   (the paper's Figure 4/5 analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets import DatasetSpec
from ..fairness import BinaryLabelDataset, ClassificationMetric
from ..frame import DataFrame, train_validation_test_masks
from ..learn import StandardScaler
from .components import Learner, MissingValueHandler, PostProcessor, PreProcessor, Resampler
from .featurization import Featurizer
from .interventions import NoIntervention
from .learners import predict_with_scores
from .missing_values import NoMissingValues
from .resamplers import NoResampling
from .results import CandidateResult, ResultsStore, RunResult
from .selection import AccuracySelector, BestModelSelector


@dataclass(frozen=True)
class FeaturizedSplits:
    """Immutable output of the shareable preparation pipeline.

    Everything up to (but excluding) the fairness pre-processing
    intervention: split → resample → missing-value handling → featurization.
    The artifact depends only on the seed, resampler, missing-value handler,
    scaler and encoder — *not* on the learner or intervention — so executor
    backends cache and share it across all grid combinations with the same
    preparation configuration. Consumers must never mutate the contained
    datasets in place.
    """

    seed: int
    train_data: BinaryLabelDataset
    validation_data: BinaryLabelDataset
    test_data: BinaryLabelDataset
    privileged_groups: List[Dict[str, float]]
    unprivileged_groups: List[Dict[str, float]]
    validation_had_missing: np.ndarray
    test_had_missing: np.ndarray
    sizes: Dict[str, int] = field(default_factory=dict)
    # the fitted preparation components ride along so the best pipeline of a
    # run can be exported into a model registry after evaluation
    handler: Optional[MissingValueHandler] = None
    featurizer: Optional[object] = None


@dataclass(frozen=True)
class PreparedData:
    """Immutable, fully prepared inputs for candidate training.

    A :class:`FeaturizedSplits` with the pre-processing intervention fitted
    and applied: ``train_data`` is the (possibly reweighted/repaired)
    training set, while ``validation_data``/``test_data`` keep the
    *unrepaired* annotations that metrics are computed against and
    ``*_eval`` carry the repaired features models predict on.
    """

    seed: int
    train_data: BinaryLabelDataset
    validation_data: BinaryLabelDataset
    test_data: BinaryLabelDataset
    validation_data_eval: BinaryLabelDataset
    test_data_eval: BinaryLabelDataset
    privileged_groups: List[Dict[str, float]]
    unprivileged_groups: List[Dict[str, float]]
    validation_had_missing: np.ndarray
    test_had_missing: np.ndarray
    sizes: Dict[str, int] = field(default_factory=dict)
    handler: Optional[MissingValueHandler] = None
    featurizer: Optional[object] = None
    # the *fitted* pre-processor: executors share PreparedData across
    # experiment instances, so the instance that exports a pipeline may
    # never have fitted its own pre_processor attribute
    pre_processor: Optional[PreProcessor] = None


@dataclass(frozen=True)
class FittedLearner:
    """Immutable output of fitting one learner on :class:`PreparedData`.

    Everything about a candidate that does not depend on the
    post-processing intervention: the fitted model, its grid-search
    ``best_params``, its raw validation predictions (labels and scores
    before any post-processor touches them) and its train-set metrics.
    Executor backends share it across all grid combinations with the
    same pre-processor and learner, which differ only in the
    post-processor fitted on those validation predictions. The prediction
    arrays are read-only; consumers must never mutate the model in place.
    """

    learner: str
    model: object
    best_params: Optional[Dict]
    validation_labels: np.ndarray
    validation_scores: Optional[np.ndarray]
    train_metrics: Dict[str, float]


@dataclass(frozen=True)
class TrainedCandidates:
    """All fitted candidate models with their validation-set outcomes."""

    candidates: List[CandidateResult]
    models: List[Tuple[object, PostProcessor]]
    # the post-processor-independent part, one record per learner
    fitted: Tuple[FittedLearner, ...]
    # the records of the peer sets fitted alongside (see train_candidates)
    peer_fitted: Tuple[Tuple[FittedLearner, ...], ...] = ()


def _read_only(values) -> Optional[np.ndarray]:
    """A flat float64 array that raises on in-place writes (None passes)."""
    if values is None:
        return None
    array = np.asarray(values, dtype=np.float64).ravel()
    array.setflags(write=False)
    return array


class Experiment:
    """A configured, reproducible FairPrep evaluation run.

    Parameters mirror the paper's example: a dataset (frame + spec), a fixed
    random seed, and one component per lifecycle stage. ``learner`` accepts
    a list for multi-candidate model selection.
    """

    def __init__(
        self,
        frame: DataFrame,
        spec: DatasetSpec,
        random_seed: int,
        learner: Union[Learner, Sequence[Learner]],
        missing_value_handler: Optional[MissingValueHandler] = None,
        numeric_attribute_scaler=None,
        resampler: Optional[Resampler] = None,
        pre_processor: Optional[PreProcessor] = None,
        post_processor: Optional[PostProcessor] = None,
        categorical_encoder=None,
        protected_attribute: Optional[str] = None,
        train_fraction: float = 0.7,
        validation_fraction: float = 0.1,
        model_selector: Optional[BestModelSelector] = None,
        results_store: Optional[ResultsStore] = None,
    ):
        spec.validate(frame)
        self.frame = frame
        self.spec = spec
        self.random_seed = int(random_seed)
        self.learners: List[Learner] = (
            list(learner) if isinstance(learner, (list, tuple)) else [learner]
        )
        if not self.learners:
            raise ValueError("at least one learner is required")
        self.missing_value_handler = missing_value_handler or NoMissingValues()
        self.numeric_attribute_scaler = (
            numeric_attribute_scaler
            if numeric_attribute_scaler is not None
            else StandardScaler()
        )
        self.resampler = resampler or NoResampling()
        self.pre_processor = pre_processor or NoIntervention()
        self.post_processor = post_processor or NoIntervention()
        self.categorical_encoder = categorical_encoder
        self.protected_attribute = protected_attribute or spec.default_protected
        self.train_fraction = train_fraction
        self.validation_fraction = validation_fraction
        self.model_selector = model_selector or AccuracySelector()
        self.results_store = results_store

    # ------------------------------------------------------------------
    # staged execution: run() is a thin composition of the three stages so
    # executor backends can cache/share the expensive preparation artifacts
    # ------------------------------------------------------------------
    def run(self, export=None, export_tags=None) -> RunResult:
        prepared = self.prepare()
        trained = self.train_candidates(prepared)
        result = self.evaluate(prepared, trained)
        if export is not None:
            self.export_pipeline(
                prepared, trained, result, registry=export, tags=export_tags
            )
        return result

    def prepare_splits(self) -> FeaturizedSplits:
        """Split → resample → missing-value handling → featurization.

        The returned artifact is independent of the learner and of the
        pre/post intervention, so executors share it across all grid
        combinations with the same ``(seed, resampler, handler, scaler)``
        preparation configuration.
        """
        seed = self.random_seed
        feature_columns = self.spec.feature_columns

        train_mask, validation_mask, test_mask = train_validation_test_masks(
            self.frame.num_rows,
            self.train_fraction,
            self.validation_fraction,
            seed,
        )
        raw_train = self.frame.mask(train_mask)
        raw_validation = self.frame.mask(validation_mask)
        raw_test = self.frame.mask(test_mask)

        raw_train = self.resampler.resample(raw_train, seed)

        handler = self.missing_value_handler
        handler.fit(raw_train, feature_columns, seed)
        train_frame = handler.handle_missing(raw_train)
        validation_frame = handler.handle_missing(raw_validation)
        test_frame = handler.handle_missing(raw_test)

        # which completed rows originally had missing values (empty when the
        # handler drops incomplete rows instead of imputing them)
        if handler.drops_rows:
            validation_had_missing = np.zeros(validation_frame.num_rows, dtype=bool)
            test_had_missing = np.zeros(test_frame.num_rows, dtype=bool)
        else:
            validation_had_missing = raw_validation.missing_mask(feature_columns)
            test_had_missing = raw_test.missing_mask(feature_columns)

        featurizer = Featurizer(
            self.spec,
            numeric_scaler=self.numeric_attribute_scaler,
            protected_attribute=self.protected_attribute,
            categorical_encoder=self.categorical_encoder,
        ).fit(train_frame)

        return FeaturizedSplits(
            seed=seed,
            train_data=featurizer.transform(train_frame),
            validation_data=featurizer.transform(validation_frame),
            test_data=featurizer.transform(test_frame),
            privileged_groups=featurizer.privileged_groups,
            unprivileged_groups=featurizer.unprivileged_groups,
            validation_had_missing=validation_had_missing,
            test_had_missing=test_had_missing,
            sizes={
                "train": train_frame.num_rows,
                "validation": validation_frame.num_rows,
                "test": test_frame.num_rows,
                "test_incomplete": int(test_had_missing.sum()),
            },
            handler=handler,
            featurizer=featurizer,
        )

    def prepare(self, splits: Optional[FeaturizedSplits] = None) -> PreparedData:
        """Fit and apply the pre-processing intervention on featurized splits.

        Pass a cached :class:`FeaturizedSplits` (from :meth:`prepare_splits`
        of any experiment with the same preparation configuration) to skip
        recomputing the split/resample/impute/featurize pipeline.
        """
        if splits is None:
            splits = self.prepare_splits()
        seed = self.random_seed
        self.pre_processor.fit(
            splits.train_data, splits.privileged_groups, splits.unprivileged_groups, seed
        )
        return PreparedData(
            seed=seed,
            train_data=self.pre_processor.transform_train(splits.train_data),
            validation_data=splits.validation_data,
            test_data=splits.test_data,
            validation_data_eval=self.pre_processor.transform_eval(splits.validation_data),
            test_data_eval=self.pre_processor.transform_eval(splits.test_data),
            privileged_groups=splits.privileged_groups,
            unprivileged_groups=splits.unprivileged_groups,
            validation_had_missing=splits.validation_had_missing,
            test_had_missing=splits.test_had_missing,
            sizes=dict(splits.sizes),
            handler=splits.handler,
            featurizer=splits.featurizer,
            pre_processor=self.pre_processor,
        )

    def fit_learners(
        self, prepared: PreparedData, peers: Sequence[PreparedData] = ()
    ) -> List[Tuple[FittedLearner, ...]]:
        """Fit every candidate learner and predict its validation/train sets.

        ``peers`` are further prepared sets of the same seed, a config
        group's other pre-processors: each learner fits ``prepared`` and
        every peer in one :meth:`~repro.core.components.Learner.fit_models`
        call. Returns one record tuple per set, ``prepared`` first. The
        records are independent of the post-processor, so executors share
        them across all grid combinations with the same ``(pre-processor,
        learners)`` on the same :class:`PreparedData`.
        """
        sets = [prepared, *peers]
        fits = [
            learner.fit_models([p.train_data for p in sets], prepared.seed)
            for learner in self.learners
        ]
        return [
            tuple(
                self._fitted_learner(data, learner, model, best_params)
                for learner, (model, best_params) in zip(self.learners, set_fits)
            )
            for data, set_fits in zip(sets, zip(*fits))
        ]

    def _fitted_learner(self, prepared, learner, model, best_params) -> FittedLearner:
        train_pred = self._predict(model, prepared.train_data, prepared.train_data)
        labels, scores = predict_with_scores(model, prepared.validation_data_eval.features)
        return FittedLearner(
            learner=learner.name(),
            model=model,
            best_params=best_params,
            validation_labels=_read_only(labels),
            validation_scores=_read_only(scores),
            train_metrics=self._metrics(prepared.train_data, train_pred),
        )

    def train_candidates(
        self,
        prepared: PreparedData,
        fitted: Optional[Sequence[FittedLearner]] = None,
        peers: Sequence[PreparedData] = (),
    ) -> TrainedCandidates:
        """Train every candidate learner and score it on the validation set.

        Pass cached :class:`FittedLearner` records (from :meth:`fit_learners`
        of any experiment with the same pre-processor and learners on the
        same ``prepared``) to skip re-fitting; only the post-processor is
        then fitted and applied here. Without them the learners are fitted
        on ``prepared`` and on every one of ``peers`` in one
        :meth:`fit_learners` call, whose peer records come back as
        ``peer_fitted``.
        """
        peer_fitted: Tuple[Tuple[FittedLearner, ...], ...] = ()
        if fitted is None:
            fitted, *rest = self.fit_learners(prepared, peers)
            peer_fitted = tuple(rest)
        seed = prepared.seed
        candidates: List[CandidateResult] = []
        models: List[Tuple[object, PostProcessor]] = []
        needs_scores = not isinstance(self.post_processor, NoIntervention)
        for learner_fit in fitted:
            if needs_scores and learner_fit.validation_scores is None:
                raise ValueError(
                    f"post-processor {self.post_processor.name()} requires "
                    "prediction scores but the learner provides none"
                )
            validation_pred = prepared.validation_data.with_predictions(
                labels=learner_fit.validation_labels,
                scores=learner_fit.validation_scores,
            )
            post = self.post_processor.clone()
            post.fit(
                prepared.validation_data,
                validation_pred,
                prepared.privileged_groups,
                prepared.unprivileged_groups,
                seed,
            )
            validation_pred = post.apply(validation_pred)
            best_params = learner_fit.best_params
            candidates.append(
                CandidateResult(
                    learner=learner_fit.learner,
                    validation_metrics=self._metrics(
                        prepared.validation_data, validation_pred
                    ),
                    train_metrics=dict(learner_fit.train_metrics),
                    best_params=None if best_params is None else dict(best_params),
                )
            )
            models.append((learner_fit.model, post))
        return TrainedCandidates(
            candidates=candidates,
            models=models,
            fitted=tuple(fitted),
            peer_fitted=peer_fitted,
        )

    def evaluate(
        self, prepared: PreparedData, trained: TrainedCandidates
    ) -> RunResult:
        """Select the best candidate and apply it once to the test set."""
        candidates = trained.candidates
        best_index = self.model_selector.select(
            [c.validation_metrics for c in candidates]
        )

        best_model, best_post = trained.models[best_index]
        test_pred = self._predict(best_model, prepared.test_data_eval, prepared.test_data)
        test_pred = best_post.apply(test_pred)
        test_metrics = self._metrics(prepared.test_data, test_pred)

        test_had_missing = prepared.test_had_missing
        incomplete_metrics: Dict[str, float] = {}
        complete_metrics: Dict[str, float] = {}
        if test_had_missing.any():
            incomplete_metrics = self._metrics(
                prepared.test_data.subset(test_had_missing),
                test_pred.subset(test_had_missing),
            )
            complete_metrics = self._metrics(
                prepared.test_data.subset(~test_had_missing),
                test_pred.subset(~test_had_missing),
            )

        result = RunResult(
            dataset=self.spec.name,
            random_seed=prepared.seed,
            components=self.component_description(),
            candidates=candidates,
            best_index=best_index,
            test_metrics=test_metrics,
            test_metrics_incomplete=incomplete_metrics,
            test_metrics_complete=complete_metrics,
            sizes=dict(prepared.sizes),
        )
        if self.results_store is not None:
            self.results_store.append(result)
        return result

    # ------------------------------------------------------------------
    # serving export
    # ------------------------------------------------------------------
    def fitted_pipeline(
        self,
        prepared: PreparedData,
        trained: TrainedCandidates,
        best_index: int,
        run_key: Optional[str] = None,
    ):
        """Bundle the chosen candidate's frozen scoring path as an artifact.

        Returns a :class:`~repro.serve.artifacts.PipelineArtifact` carrying
        the fitted handler, featurizer, pre-processor (eval side), model and
        post-processor — everything a fresh process needs to reproduce this
        run's test-set predictions byte for byte.
        """
        from ..serve.artifacts import PipelineArtifact

        if prepared.handler is None or prepared.featurizer is None:
            raise ValueError(
                "prepared data lacks its fitted preparation components; "
                "re-run prepare_splits() with this engine version"
            )
        model, post = trained.models[best_index]
        # the in-process test-set predictions travel with the artifact, so a
        # fresh process can re-score the same raw rows and assert
        # byte-for-byte agreement (the serving smoke check)
        test_pred = post.apply(
            self._predict(model, prepared.test_data_eval, prepared.test_data)
        )
        verification: Dict[str, object] = {"test_labels": test_pred.labels}
        if test_pred.scores is not None:
            verification["test_scores"] = test_pred.scores
        metadata = {
            "dataset": self.spec.name,
            "random_seed": prepared.seed,
            "components": self.component_description(),
            "best_learner": trained.candidates[best_index].learner,
            "sizes": dict(prepared.sizes),
            "train_fraction": self.train_fraction,
            "validation_fraction": self.validation_fraction,
            "num_rows": self.frame.num_rows,
            "verification": verification,
        }
        if run_key is not None:
            metadata["run_key"] = run_key
        return PipelineArtifact(
            spec=self.spec,
            protected_attribute=self.protected_attribute,
            handler=prepared.handler,
            featurizer=prepared.featurizer,
            pre_processor=(
                prepared.pre_processor
                if prepared.pre_processor is not None
                else self.pre_processor
            ),
            model=model,
            post_processor=post,
            metadata=metadata,
        )

    def export_pipeline(
        self,
        prepared: PreparedData,
        trained: TrainedCandidates,
        result: RunResult,
        registry,
        tags=None,
        overwrite: bool = True,
    ):
        """Publish the evaluated run's best pipeline into a registry.

        ``registry`` is a :class:`~repro.serve.registry.ModelRegistry` or a
        filesystem path to create one at. Returns the registry record.
        """
        if isinstance(registry, str):
            from ..serve.registry import ModelRegistry

            registry = ModelRegistry(registry)
        pipeline = self.fitted_pipeline(
            prepared, trained, result.best_index, run_key=result.run_key
        )
        return registry.publish(
            pipeline, result=result, tags=list(tags or ()), overwrite=overwrite
        )

    # ------------------------------------------------------------------
    def component_description(self) -> Dict[str, str]:
        return {
            "resampler": self.resampler.name(),
            "missing_value_handler": self.missing_value_handler.name(),
            "scaler": type(self.numeric_attribute_scaler).__name__,
            "categorical_encoder": (
                "OneHotEncoder"
                if self.categorical_encoder is None
                else type(self.categorical_encoder).__name__
            ),
            "pre_processor": self.pre_processor.name(),
            "post_processor": self.post_processor.name(),
            "protected_attribute": self.protected_attribute,
            "selector": self.model_selector.name(),
            "learners": ",".join(l.name() for l in self.learners),
        }

    def _predict(
        self,
        model,
        eval_data: BinaryLabelDataset,
        annotation_source: BinaryLabelDataset,
    ) -> BinaryLabelDataset:
        """Prediction dataset aligned to the *unrepaired* annotations."""
        labels, scores = predict_with_scores(model, eval_data.features)
        return annotation_source.with_predictions(labels=labels, scores=scores)

    def _metrics(
        self, dataset_true: BinaryLabelDataset, dataset_pred: BinaryLabelDataset
    ) -> Dict[str, float]:
        metric = ClassificationMetric(
            dataset_true,
            dataset_pred,
            unprivileged_groups=[{self.protected_attribute: 0.0}],
            privileged_groups=[{self.protected_attribute: 1.0}],
        )
        return metric.all_metrics()
