"""Seeded data splitting, cross-validation and grid search.

These components implement the best practices the paper enforces
(Sections 2.1, 2.2 and 2.5):

* hyperparameters are selected by k-fold cross-validation on *training*
  data, never on the held-out test set;
* every splitter takes an explicit random seed so that evaluation runs are
  reproducible end to end.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..parallel import run_groups, split_for_balance
from .base import BaseEstimator, clone
from .metrics import accuracy_score


class KFold:
    """Standard k-fold splitter with optional seeded shuffling."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            indices = rng.permutation(n_samples)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test_idx = folds[i]
            train_idx = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train_idx, test_idx


class StratifiedKFold:
    """K-fold that preserves per-class proportions in each fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, y) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y)
        n_samples = len(y)
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(n_samples, dtype=np.int64)
        for klass in np.unique(y):
            members = np.nonzero(y == klass)[0]
            if self.shuffle:
                members = rng.permutation(members)
            if len(members) < self.n_splits:
                raise ValueError(
                    f"class {klass!r} has {len(members)} members, fewer than "
                    f"{self.n_splits} folds"
                )
            fold_of[members] = np.arange(len(members)) % self.n_splits
        indices = np.arange(n_samples)
        for i in range(self.n_splits):
            test_idx = indices[fold_of == i]
            train_idx = indices[fold_of != i]
            yield train_idx, test_idx


def train_test_split(n_samples: int, test_fraction: float, random_state: int):
    """Seeded 2-way index split; returns (train_idx, test_idx)."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(random_state)
    order = rng.permutation(n_samples)
    n_test = int(round(test_fraction * n_samples))
    return order[n_test:], order[:n_test]


class ParameterGrid:
    """Cartesian product over a ``{name: [values]}`` grid, in stable order."""

    def __init__(self, grid: Dict[str, Sequence]):
        if not grid:
            raise ValueError("parameter grid must not be empty")
        for name, values in grid.items():
            if not isinstance(values, (list, tuple)):
                raise TypeError(f"grid entry {name!r} must be a list or tuple")
            if len(values) == 0:
                raise ValueError(f"grid entry {name!r} is empty")
        self.grid = grid

    def __iter__(self) -> Iterator[Dict]:
        names = sorted(self.grid)
        for combo in itertools.product(*(self.grid[n] for n in names)):
            yield dict(zip(names, combo))

    def __len__(self) -> int:
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total


class _SearchContext:
    """Everything a fold worker needs, published once (fork-inherited)."""

    __slots__ = ("estimator", "candidates", "folds", "X", "y", "sample_weight", "score_fn")

    def __init__(self, estimator, candidates, folds, X, y, sample_weight, score_fn):
        self.estimator = estimator
        self.candidates = candidates
        self.folds = folds
        self.X = X
        self.y = y
        self.sample_weight = sample_weight
        self.score_fn = score_fn


def _score_fold_chunk(context: _SearchContext, task) -> List[float]:
    """Fit and score a chunk of candidates on one fold.

    This is the fold-major hot path: the fold's training matrix is sliced
    once and handed to one ``fit_candidates`` call for the whole chunk,
    which shares what it can across the candidates (the tree prepares
    the matrix once and grows one induction per parameter family; SGD
    runs one stacked epoch loop per compatible set of candidates).
    """
    fold_index, candidate_ids = task
    train_idx, valid_idx = context.folds[fold_index]
    X_train = context.X[train_idx]
    y_train = context.y[train_idx]
    X_valid = context.X[valid_idx]
    y_valid = context.y[valid_idx]
    weight = context.sample_weight
    w_train = None if weight is None else weight[train_idx]
    models = context.estimator.fit_candidates(
        [context.candidates[i] for i in candidate_ids],
        X_train,
        y_train,
        sample_weight=w_train,
    )
    return [context.score_fn(model, X_valid, y_valid) for model in models]


class GridSearchCV(BaseEstimator):
    """Exhaustive hyperparameter search with k-fold cross-validation.

    The search only ever sees the data passed to :meth:`fit` — in the
    FairPrep lifecycle that is the training split, which is what makes
    hyperparameter selection leak-free. After the search, the best
    configuration is refit on the full training data.

    The search loop is fold-major: each fold's training matrix is sliced
    exactly once and passed to one ``fit_candidates`` call per chunk of
    candidates, so whatever the estimator prepares from it (the tree's
    presort) is built once per fold, not candidates × folds times. Scores
    are identical to the candidate-major loop because every fit is
    independent.

    Parameters
    ----------
    estimator:
        Template estimator (cloned per candidate and fold).
    param_grid:
        ``{param: [values]}``; nested pipeline params use ``step__param``.
    cv:
        Fold count for :class:`KFold`.
    scoring:
        ``callable(estimator, X, y) -> float``; defaults to accuracy.
    random_state:
        Seeds the fold shuffling (propagated, per Section 2.5).
    n_jobs:
        Fan candidate×fold chunks out over that many forked worker
        processes (``None``/1 = in-process). Results are identical to the
        serial search.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid: Dict[str, Sequence],
        cv: int = 5,
        scoring: Optional[Callable] = None,
        random_state: Optional[int] = None,
        refit: bool = True,
        n_jobs: Optional[int] = None,
    ):
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv = cv
        self.scoring = scoring
        self.random_state = random_state
        self.refit = refit
        self.n_jobs = n_jobs

    def fit(self, X, y, sample_weight=None) -> "GridSearchCV":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        candidates = list(ParameterGrid(self.param_grid))
        folds = list(
            KFold(self.cv, shuffle=True, random_state=self.random_state).split(len(y))
        )
        score_fn = self.scoring or _accuracy_scorer
        weight = None if sample_weight is None else np.asarray(sample_weight)
        context = _SearchContext(
            self.estimator, candidates, folds, X, y, weight, score_fn
        )
        score_table = np.empty((len(candidates), len(folds)), dtype=np.float64)

        tasks = [(fold, list(range(len(candidates)))) for fold in range(len(folds))]
        jobs = 1 if self.n_jobs is None else max(1, int(self.n_jobs))
        if jobs > 1 and len(tasks) < jobs:
            # fewer folds than workers: split candidate chunks so every
            # worker gets something (each chunk re-prepares its fold,
            # which never changes the scores)
            tasks = [
                (fold, chunk)
                for fold, ids in tasks
                for chunk in split_for_balance([ids], (jobs + len(folds) - 1) // len(folds))
            ]

        def on_done(index, task, scores):
            fold_index, candidate_ids = task
            for candidate, score in zip(candidate_ids, scores):
                score_table[candidate, fold_index] = score

        run_groups(context, _score_fold_chunk, tasks, jobs, on_done)

        results: List[Dict] = []
        for index, params in enumerate(candidates):
            fold_scores = score_table[index]
            results.append(
                {
                    "params": params,
                    "mean_score": float(np.nanmean(fold_scores)),
                    "std_score": float(np.nanstd(fold_scores)),
                    "fold_scores": fold_scores.tolist(),
                }
            )
        self.cv_results_ = results
        best = max(
            range(len(results)),
            key=lambda i: (
                -np.inf
                if np.isnan(results[i]["mean_score"])
                else results[i]["mean_score"]
            ),
        )
        self.best_index_ = best
        self.best_params_ = results[best]["params"]
        self.best_score_ = results[best]["mean_score"]
        if self.refit:
            self.best_estimator_ = clone(self.estimator).set_params(**self.best_params_)
            fit_kwargs = {}
            if sample_weight is not None:
                fit_kwargs["sample_weight"] = np.asarray(sample_weight)
            self.best_estimator_.fit(X, y, **fit_kwargs)
        return self

    # delegate prediction to the refit best estimator
    def predict(self, X):
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict(X)

    def predict_proba(self, X):
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict_proba(X)

    def decision_function(self, X):
        self._check_fitted("best_estimator_")
        return self.best_estimator_.decision_function(X)

    @property
    def classes_(self):
        self._check_fitted("best_estimator_")
        return self.best_estimator_.classes_


def cross_val_score(
    estimator: BaseEstimator,
    X,
    y,
    cv: int = 5,
    random_state: Optional[int] = None,
    sample_weight=None,
    scoring: Optional[Callable] = None,
) -> np.ndarray:
    """Per-fold score of a (cloned) estimator under k-fold CV.

    ``scoring`` mirrors :class:`GridSearchCV`: a
    ``callable(estimator, X, y) -> float``, defaulting to accuracy.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    score_fn = scoring or _accuracy_scorer
    scores = []
    for train_idx, valid_idx in KFold(cv, shuffle=True, random_state=random_state).split(len(y)):
        model = clone(estimator)
        fit_kwargs = {}
        if sample_weight is not None:
            fit_kwargs["sample_weight"] = np.asarray(sample_weight)[train_idx]
        model.fit(X[train_idx], y[train_idx], **fit_kwargs)
        scores.append(score_fn(model, X[valid_idx], y[valid_idx]))
    return np.asarray(scores)


def _accuracy_scorer(model, X, y) -> float:
    return accuracy_score(y, model.predict(X))
