"""Component interfaces of the FairPrep lifecycle (Figure 1 of the paper).

Each lifecycle stage is a single, exchangeable component with a narrow
interface (the paper's *componentization* goal). The framework — never user
code — decides which data a component sees: components are fit on training
data only and applied by the framework to the validation and test sets
(*inversion of control*, the paper's data-isolation goal).
"""

from __future__ import annotations

import abc
from typing import Dict

import numpy as np

from ..fairness import BinaryLabelDataset
from ..frame import DataFrame
from ..serialize import init_params


def constructor_params(component) -> Dict[str, object]:
    """Constructor kwargs of a component (public attributes by signature).

    Components follow the convention of storing each constructor argument
    under an attribute of the same name, so a fresh, unfitted copy can be
    rebuilt as ``type(component)(**constructor_params(component))``.
    """
    return {
        name: getattr(component, name)
        for name in init_params(type(component))
        if hasattr(component, name)
    }


def component_fingerprint(component) -> str:
    """Deterministic, parameter-aware description of a component.

    Unlike ``name()`` (a display label), the fingerprint always includes the
    constructor parameters, so two instances fingerprint equal exactly when
    they are interchangeable — the property the plan layer relies on for
    run deduplication and preparation caching.
    """
    if component is None:
        return "None"
    params = constructor_params(component)
    inner = ",".join(f"{key}={params[key]!r}" for key in sorted(params))
    return f"{type(component).__name__}({inner})"


class Resampler(abc.ABC):
    """Optional first stage: resample the raw training frame."""

    @abc.abstractmethod
    def resample(self, train_frame: DataFrame, seed: int) -> DataFrame:
        """Return a (possibly) resampled copy of the training frame."""

    def name(self) -> str:
        return type(self).__name__


class MissingValueHandler(abc.ABC):
    """Second stage: decide how records with missing values are treated.

    ``fit`` only ever receives the raw *training* frame; ``handle_missing``
    is applied by the framework to each split separately.
    """

    @abc.abstractmethod
    def fit(self, train_frame: DataFrame, feature_columns, seed: int) -> "MissingValueHandler":
        """Learn whatever statistics/models imputation needs, on train only."""

    @abc.abstractmethod
    def handle_missing(self, frame: DataFrame) -> DataFrame:
        """Return a frame with no missing values in the feature columns.

        Complete-case analysis may *drop* rows; imputation strategies must
        preserve row count and order.
        """

    @property
    def drops_rows(self) -> bool:
        """True when the strategy removes incomplete records."""
        return False

    def kept_mask(self, frame: DataFrame):
        """Boolean mask over ``frame`` rows that :meth:`handle_missing` keeps.

        This is the handler's *own* drop decision, exposed so callers that
        need to map a handled frame's rows back onto input positions (the
        scoring engine's ``row_mask``) never re-derive the criterion — a
        handler that drops on different columns must override this together
        with ``handle_missing``. Row-preserving handlers keep everything.
        """
        return np.ones(frame.num_rows, dtype=bool)

    def name(self) -> str:
        return type(self).__name__


class Learner(abc.ABC):
    """Fifth stage: train a classifier on the (annotated) training data.

    ``fit_model`` receives the training :class:`BinaryLabelDataset` and the
    run's random seed (for reproducible training, Section 2.5) and returns a
    fitted model exposing ``predict(features)`` and, when available,
    ``predict_proba(features)``.
    """

    @abc.abstractmethod
    def fit_model(self, train_data: BinaryLabelDataset, seed: int):
        """Train and return the fitted model."""

    @property
    def needs_annotated_data(self) -> bool:
        """In-processing learners need group annotations, not just matrices."""
        return False

    def name(self) -> str:
        return type(self).__name__


class PreProcessor(abc.ABC):
    """Optional fourth stage: fairness intervention on the training data."""

    @abc.abstractmethod
    def fit(
        self,
        train_data: BinaryLabelDataset,
        privileged_groups,
        unprivileged_groups,
        seed: int,
    ) -> "PreProcessor":
        """Learn the intervention on training data only."""

    @abc.abstractmethod
    def transform_train(self, train_data: BinaryLabelDataset) -> BinaryLabelDataset:
        """Apply the intervention to the training data (weights/features)."""

    def transform_eval(self, data: BinaryLabelDataset) -> BinaryLabelDataset:
        """Apply the feature-editing part of the intervention to eval data.

        Weight-only interventions (e.g. reweighing) leave evaluation data
        untouched, which is the default.
        """
        return data

    def name(self) -> str:
        return type(self).__name__


class PostProcessor(abc.ABC):
    """Optional seventh stage: adjust predictions after classification."""

    @abc.abstractmethod
    def fit(
        self,
        validation_true: BinaryLabelDataset,
        validation_pred: BinaryLabelDataset,
        privileged_groups,
        unprivileged_groups,
        seed: int,
    ) -> "PostProcessor":
        """Learn the adjustment on validation predictions."""

    @abc.abstractmethod
    def apply(self, predictions: BinaryLabelDataset) -> BinaryLabelDataset:
        """Adjust a prediction dataset."""

    def clone(self) -> "PostProcessor":
        """A fresh, unfitted instance with the same constructor parameters.

        Each model-selection candidate gets its own fitted post-processor,
        so the component must be reconstructible. The default rebuilds from
        constructor parameters stored under same-named attributes; override
        when a post-processor holds state the constructor cannot restore.
        """
        return type(self)(**constructor_params(self))

    def name(self) -> str:
        return type(self).__name__
