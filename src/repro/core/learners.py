"""Learners: the fifth lifecycle stage (baselines + in-processing models).

The two baselines mirror the paper's setup exactly:

* logistic regression = ``SGDClassifier(loss='log')``, tuned over 3 penalty
  types × 4 regularization strengths with 5-fold cross-validation (the
  "60 different settings" of Section 4: 12 candidates × 5 folds);
* decision tree, tuned over 2 split criteria × 3 depths × 4 min-leaf × 3
  min-split values.

Every learner receives the run's seed and propagates it into grid search
and model training (Section 2.5's reproducibility requirement).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..fairness import BinaryLabelDataset
from ..fairness.inprocessing import AdversarialDebiasing as _AdvDebias
from ..fairness.inprocessing import PrejudiceRemover as _PrejudiceRemover
from ..learn import (
    DecisionTreeClassifier,
    GaussianNB,
    GridSearchCV,
    KNeighborsClassifier,
    SGDClassifier,
)
from ..serialize import restore, serializable, state_of
from .components import Learner

LOGISTIC_REGRESSION_GRID: Dict[str, list] = {
    "penalty": ["l2", "l1", "elasticnet"],
    "alpha": [0.00005, 0.0001, 0.005, 0.001],
}

DECISION_TREE_GRID: Dict[str, list] = {
    "criterion": ["gini", "entropy"],
    "max_depth": [3, 5, 10],
    "min_samples_leaf": [1, 5, 10, 20],
    "min_samples_split": [2, 10, 20],
}


def predict_with_scores(model, features: np.ndarray):
    """Labels and scores (None without them) of a fitted learner's model,
    in one pass where the model offers one: the one prediction call of
    experiments and of the scoring service alike."""
    if hasattr(model, "predict_with_scores"):
        return model.predict_with_scores(features)
    return model.predict(features), model.predict_scores(features)


@serializable
class _FittedModel:
    """Uniform wrapper: predictions as favorable/unfavorable float labels."""

    def __init__(self, model, favorable: float, unfavorable: float):
        self._model = model
        self._favorable = favorable
        self._unfavorable = unfavorable

    def predict(self, features: np.ndarray) -> np.ndarray:
        raw = self._model.predict(features)
        return np.asarray(raw, dtype=np.float64)

    def predict_scores(self, features: np.ndarray) -> Optional[np.ndarray]:
        """Favorable-class probabilities, or None when unavailable."""
        proba = getattr(self._model, "predict_proba", None)
        if proba is None:
            return None
        try:
            scores = proba(features)
        except AttributeError:
            return None
        classes = np.asarray(self._model.classes_, dtype=np.float64)
        column = int(np.nonzero(classes == self._favorable)[0][0])
        return scores[:, column]

    # models whose predict() is literally classes_[argmax(predict_proba)],
    # so one proba pass reproduces predict byte for byte; linear models
    # threshold the decision function instead (>= 0 keeps the favorable
    # class on a tied margin, argmax would flip it) and stay on two calls
    _ARGMAX_OF_PROBA = (DecisionTreeClassifier, KNeighborsClassifier)

    def predict_with_scores(self, features: np.ndarray):
        """Labels and scores from one model pass where that is exact.

        ``predict`` followed by ``predict_scores`` runs the underlying
        model twice (a decision tree traverses its nodes per call); when
        both are wanted — every scoring-service request — a single
        ``predict_proba`` serves both for argmax-of-proba models.
        """
        if isinstance(self._model, self._ARGMAX_OF_PROBA):
            proba = self._model.predict_proba(features)
            classes = np.asarray(self._model.classes_, dtype=np.float64)
            column = int(np.nonzero(classes == self._favorable)[0][0])
            labels = np.asarray(
                self._model.classes_[np.argmax(proba, axis=1)],
                dtype=np.float64,
            )
            return labels, proba[:, column]
        return self.predict(features), self.predict_scores(features)

    @property
    def inner(self):
        return self._model

    def to_state(self) -> dict:
        inner = self._model
        if isinstance(inner, GridSearchCV):
            # export the winning estimator; the search bookkeeping is an
            # experiment-time artifact with no serving role
            inner = inner.best_estimator_
        return {
            "model": state_of(inner),
            "favorable": float(self._favorable),
            "unfavorable": float(self._unfavorable),
        }

    @classmethod
    def from_state(cls, state: dict) -> "_FittedModel":
        return cls(
            restore(state["model"]),
            favorable=state["favorable"],
            unfavorable=state["unfavorable"],
        )


class LogisticRegression(Learner):
    """SGD logistic-regression baseline, optionally grid-tuned (5-fold CV)."""

    def __init__(
        self,
        tuned: bool = True,
        param_grid: Optional[Dict[str, list]] = None,
        cv: int = 5,
        max_iter: int = 20,
        batch_size: int = 32,
        n_jobs: Optional[int] = None,
    ):
        self.tuned = tuned
        self.param_grid = dict(param_grid) if param_grid else dict(LOGISTIC_REGRESSION_GRID)
        self.cv = cv
        self.max_iter = max_iter
        self.batch_size = batch_size
        self.n_jobs = n_jobs

    def fit_model(self, train_data: BinaryLabelDataset, seed: int) -> _FittedModel:
        base = SGDClassifier(
            loss="log",
            max_iter=self.max_iter,
            batch_size=self.batch_size,
            random_state=seed,
        )
        X, y, w = train_data.features, train_data.labels, train_data.instance_weights
        if self.tuned:
            search = GridSearchCV(
                base, self.param_grid, cv=self.cv, random_state=seed,
                n_jobs=self.n_jobs,
            )
            search.fit(X, y, sample_weight=w)
            model = search.best_estimator_
            self.last_search_ = search
        else:
            model = base.fit(X, y, sample_weight=w)
        return _FittedModel(model, train_data.favorable_label, train_data.unfavorable_label)

    def name(self) -> str:
        return f"LogisticRegression({'tuned' if self.tuned else 'default'})"


class DecisionTree(Learner):
    """CART baseline, optionally grid-tuned (5-fold CV)."""

    def __init__(
        self,
        tuned: bool = True,
        param_grid: Optional[Dict[str, list]] = None,
        cv: int = 5,
        n_jobs: Optional[int] = None,
    ):
        self.tuned = tuned
        self.param_grid = dict(param_grid) if param_grid else dict(DECISION_TREE_GRID)
        self.cv = cv
        self.n_jobs = n_jobs

    def fit_model(self, train_data: BinaryLabelDataset, seed: int) -> _FittedModel:
        base = DecisionTreeClassifier(random_state=seed)
        X, y, w = train_data.features, train_data.labels, train_data.instance_weights
        if self.tuned:
            search = GridSearchCV(
                base, self.param_grid, cv=self.cv, random_state=seed,
                n_jobs=self.n_jobs,
            )
            search.fit(X, y, sample_weight=w)
            model = search.best_estimator_
            self.last_search_ = search
        else:
            model = base.fit(X, y, sample_weight=w)
        return _FittedModel(model, train_data.favorable_label, train_data.unfavorable_label)

    def name(self) -> str:
        return f"DecisionTree({'tuned' if self.tuned else 'default'})"


class NaiveBayes(Learner):
    """Gaussian naive Bayes baseline (no hyperparameters worth tuning)."""

    def fit_model(self, train_data: BinaryLabelDataset, seed: int) -> _FittedModel:
        model = GaussianNB().fit(
            train_data.features,
            train_data.labels,
            sample_weight=train_data.instance_weights,
        )
        return _FittedModel(model, train_data.favorable_label, train_data.unfavorable_label)


class KNearestNeighbors(Learner):
    """k-NN baseline, optionally tuned over the neighbourhood size.

    Included because the comparison study FairPrep builds on (Friedler et
    al.) evaluates nearest-neighbour baselines; note k-NN ignores instance
    weights, so it composes with feature-editing interventions (di-remover)
    but not with reweighing.
    """

    def __init__(
        self,
        tuned: bool = True,
        neighbor_grid: Optional[list] = None,
        cv: int = 5,
        n_jobs: Optional[int] = None,
    ):
        self.tuned = tuned
        self.neighbor_grid = list(neighbor_grid) if neighbor_grid else [3, 5, 11, 21]
        self.cv = cv
        self.n_jobs = n_jobs

    def fit_model(self, train_data: BinaryLabelDataset, seed: int) -> _FittedModel:
        base = KNeighborsClassifier()
        X, y = train_data.features, train_data.labels
        if self.tuned:
            search = GridSearchCV(
                base,
                {"n_neighbors": self.neighbor_grid},
                cv=self.cv,
                random_state=seed,
                n_jobs=self.n_jobs,
            )
            search.fit(X, y)
            model = search.best_estimator_
            self.last_search_ = search
        else:
            model = base.fit(X, y)
        return _FittedModel(model, train_data.favorable_label, train_data.unfavorable_label)

    def name(self) -> str:
        return f"KNearestNeighbors({'tuned' if self.tuned else 'default'})"


class _InProcessingModel:
    """Adapter exposing predict/predict_scores for fairness in-processors."""

    def __init__(self, model, favorable: float, unfavorable: float):
        self._model = model
        self._favorable = favorable
        self._unfavorable = unfavorable

    def predict(self, features: np.ndarray) -> np.ndarray:
        scores = self._model.predict_proba(features)[:, 1]
        return np.where(scores >= 0.5, self._favorable, self._unfavorable)

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        return self._model.predict_proba(features)[:, 1]

    @property
    def inner(self):
        return self._model


class AdversarialDebiasingLearner(Learner):
    """In-processing intervention: Zhang et al. adversarial debiasing."""

    def __init__(
        self,
        adversary_loss_weight: float = 0.1,
        num_epochs: int = 50,
        batch_size: int = 128,
        debias: bool = True,
    ):
        self.adversary_loss_weight = adversary_loss_weight
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.debias = debias

    @property
    def needs_annotated_data(self) -> bool:
        return True

    def fit_model(self, train_data: BinaryLabelDataset, seed: int) -> _InProcessingModel:
        attribute = train_data.protected_attribute_names[0]
        model = _AdvDebias(
            unprivileged_groups=[{attribute: 0.0}],
            privileged_groups=[{attribute: 1.0}],
            adversary_loss_weight=self.adversary_loss_weight,
            num_epochs=self.num_epochs,
            batch_size=self.batch_size,
            debias=self.debias,
            seed=seed,
        ).fit(train_data)
        return _InProcessingModel(
            model, train_data.favorable_label, train_data.unfavorable_label
        )

    def name(self) -> str:
        return f"AdversarialDebiasing(w={self.adversary_loss_weight})"


class PrejudiceRemoverLearner(Learner):
    """In-processing intervention: fairness-regularized logistic regression."""

    def __init__(self, eta: float = 1.0, max_iter: int = 300):
        self.eta = eta
        self.max_iter = max_iter

    @property
    def needs_annotated_data(self) -> bool:
        return True

    def fit_model(self, train_data: BinaryLabelDataset, seed: int) -> _InProcessingModel:
        attribute = train_data.protected_attribute_names[0]
        model = _PrejudiceRemover(
            unprivileged_groups=[{attribute: 0.0}],
            privileged_groups=[{attribute: 1.0}],
            eta=self.eta,
            max_iter=self.max_iter,
            seed=seed,
        ).fit(train_data)
        return _InProcessingModel(
            model, train_data.favorable_label, train_data.unfavorable_label
        )

    def name(self) -> str:
        return f"PrejudiceRemover(eta={self.eta})"
