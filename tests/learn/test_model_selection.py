"""Unit tests for KFold, StratifiedKFold, ParameterGrid and GridSearchCV."""

import numpy as np
import pytest

from repro.learn import (
    BaseEstimator,
    DecisionTreeClassifier,
    GaussianNB,
    GridSearchCV,
    KFold,
    ParameterGrid,
    Pipeline,
    SGDClassifier,
    StandardScaler,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
)


class TestKFold:
    def test_folds_partition_indices(self):
        folds = list(KFold(5, random_state=0).split(53))
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(53))

    def test_train_test_disjoint(self):
        for train, test in KFold(4, random_state=1).split(40):
            assert len(np.intersect1d(train, test)) == 0

    def test_deterministic(self):
        a = [t.tolist() for _, t in KFold(3, random_state=5).split(30)]
        b = [t.tolist() for _, t in KFold(3, random_state=5).split(30)]
        assert a == b

    def test_no_shuffle_is_contiguous(self):
        folds = list(KFold(2, shuffle=False).split(4))
        assert folds[0][1].tolist() == [0, 1]

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            list(KFold(5).split(3))

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError):
            KFold(1)


class TestStratifiedKFold:
    def test_class_proportions_preserved(self):
        y = np.array([0] * 80 + [1] * 20)
        for _, test in StratifiedKFold(5, random_state=0).split(y):
            positives = (y[test] == 1).sum()
            assert positives == 4

    def test_partition(self):
        y = np.array([0, 1] * 10)
        folds = list(StratifiedKFold(2, random_state=0).split(y))
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(20))

    def test_rare_class_error(self):
        y = np.array([0] * 10 + [1])
        with pytest.raises(ValueError, match="members"):
            list(StratifiedKFold(2).split(y))


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(100, 0.2, random_state=0)
        assert len(train) == 80 and len(test) == 20

    def test_disjoint_exhaustive(self):
        train, test = train_test_split(30, 0.5, random_state=1)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(30))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(10, 1.5, random_state=0)


class TestParameterGrid:
    def test_cartesian_product_size(self):
        grid = ParameterGrid({"a": [1, 2, 3], "b": ["x", "y"]})
        assert len(grid) == 6
        assert len(list(grid)) == 6

    def test_stable_order(self):
        grid = ParameterGrid({"b": [1], "a": [2]})
        first = next(iter(grid))
        assert list(first.keys()) == ["a", "b"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({})

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})

    def test_non_list_rejected(self):
        with pytest.raises(TypeError):
            ParameterGrid({"a": 5})


def _data(seed=0, n=120):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestGridSearchCV:
    def test_finds_reasonable_params_and_refits(self):
        X, y = _data()
        search = GridSearchCV(
            DecisionTreeClassifier(),
            {"max_depth": [1, 3, 5]},
            cv=3,
            random_state=0,
        ).fit(X, y)
        assert search.best_params_["max_depth"] in (1, 3, 5)
        assert search.best_estimator_.score(X, y) > 0.8

    def test_cv_results_structure(self):
        X, y = _data()
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [1, 2]}, cv=3, random_state=0
        ).fit(X, y)
        assert len(search.cv_results_) == 2
        entry = search.cv_results_[0]
        assert set(entry) == {"params", "mean_score", "std_score", "fold_scores"}
        assert len(entry["fold_scores"]) == 3

    def test_best_score_is_max_mean(self):
        X, y = _data()
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [1, 4]}, cv=3, random_state=0
        ).fit(X, y)
        assert search.best_score_ == max(r["mean_score"] for r in search.cv_results_)

    def test_pipeline_param_routing(self):
        X, y = _data()
        pipe = Pipeline([
            ("scaler", StandardScaler()),
            ("learner", SGDClassifier(random_state=0)),
        ])
        search = GridSearchCV(
            pipe,
            {"learner__alpha": [0.0001, 0.01], "learner__penalty": ["l2", "l1"]},
            cv=3,
            random_state=0,
        ).fit(X, y)
        assert set(search.best_params_) == {"learner__alpha", "learner__penalty"}

    def test_sample_weight_passthrough(self):
        X, y = _data()
        w = np.ones(len(y))
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [2]}, cv=3, random_state=0
        ).fit(X, y, sample_weight=w)
        assert hasattr(search, "best_estimator_")

    def test_deterministic_given_seed(self):
        X, y = _data()
        grid = {"max_depth": [1, 2, 3]}
        a = GridSearchCV(DecisionTreeClassifier(), grid, cv=3, random_state=9).fit(X, y)
        b = GridSearchCV(DecisionTreeClassifier(), grid, cv=3, random_state=9).fit(X, y)
        assert a.best_params_ == b.best_params_
        assert [r["fold_scores"] for r in a.cv_results_] == [
            r["fold_scores"] for r in b.cv_results_
        ]

    def test_predict_delegates(self):
        X, y = _data()
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [3]}, cv=3, random_state=0
        ).fit(X, y)
        assert search.predict(X).shape == y.shape
        assert search.predict_proba(X).shape == (len(y), 2)

    def test_custom_scoring(self):
        X, y = _data()

        def always_prefer_depth_one(model, X_val, y_val):
            depth = model.get_params()["max_depth"]
            return 1.0 if depth == 1 else 0.0

        search = GridSearchCV(
            DecisionTreeClassifier(),
            {"max_depth": [1, 5]},
            cv=3,
            scoring=always_prefer_depth_one,
            random_state=0,
        ).fit(X, y)
        assert search.best_params_["max_depth"] == 1


class TestDefaultFitCandidates:
    def test_equals_per_candidate_fits_for_weighted_naive_bayes(self):
        X, y = _data()
        weights = np.random.default_rng(1).uniform(0.2, 3.0, len(y))
        candidates = [{"var_smoothing": v} for v in (1e-9, 1e-3, 0.5)]
        template = GaussianNB()
        models = template.fit_candidates(candidates, X, y, sample_weight=weights)
        assert not any(model is template for model in models)
        for params, model in zip(candidates, models):
            solo = GaussianNB(**params).fit(X, y, sample_weight=weights)
            assert model.get_params() == solo.get_params()
            for name in ("classes_", "theta_", "var_", "class_prior_"):
                np.testing.assert_array_equal(getattr(model, name), getattr(solo, name))

    def test_no_weight_is_not_passed(self):
        class Unweighted(BaseEstimator):
            def __init__(self, c=0):
                self.c = c

            def fit(self, X, y):  # no sample_weight keyword
                self.rows_ = len(y)
                return self

        X, y = _data()
        models = Unweighted().fit_candidates([{"c": 1}, {"c": 2}], X, y)
        assert [(m.c, m.rows_) for m in models] == [(1, len(y)), (2, len(y))]

    def test_grid_search_calls_it_once_per_fold(self, monkeypatch):
        calls = []
        default = BaseEstimator.fit_candidates

        def counting(self, candidates, *args, **kwargs):
            calls.append(len(candidates))
            return default(self, candidates, *args, **kwargs)

        monkeypatch.setattr(BaseEstimator, "fit_candidates", counting)
        X, y = _data()
        GridSearchCV(
            GaussianNB(), {"var_smoothing": [1e-9, 1e-3]}, cv=3, random_state=0
        ).fit(X, y)
        assert calls == [2, 2, 2]


class TestCrossValScore:
    def test_returns_per_fold_scores(self):
        X, y = _data()
        scores = cross_val_score(DecisionTreeClassifier(max_depth=3), X, y, cv=4, random_state=0)
        assert scores.shape == (4,)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_deterministic(self):
        X, y = _data()
        a = cross_val_score(DecisionTreeClassifier(max_depth=2), X, y, cv=3, random_state=1)
        b = cross_val_score(DecisionTreeClassifier(max_depth=2), X, y, cv=3, random_state=1)
        assert np.array_equal(a, b)


class TestCrossValScoreScoring:
    def test_custom_scoring_is_used(self):
        X, y = _data()

        def negative_accuracy(model, X_val, y_val):
            return -np.mean(model.predict(X_val) == y_val)

        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=3), X, y, cv=3, random_state=0,
            scoring=negative_accuracy,
        )
        assert (scores <= 0).all()

    def test_default_scoring_unchanged(self):
        X, y = _data()
        default = cross_val_score(
            DecisionTreeClassifier(max_depth=2), X, y, cv=3, random_state=1
        )
        explicit = cross_val_score(
            DecisionTreeClassifier(max_depth=2), X, y, cv=3, random_state=1,
            scoring=lambda model, X_val, y_val: float(
                np.mean(model.predict(X_val) == y_val)
            ),
        )
        assert np.array_equal(default, explicit)

    def test_scoring_receives_fitted_estimator(self):
        X, y = _data()
        seen = []

        def probe(model, X_val, y_val):
            seen.append(model.depth_)
            return 0.0

        cross_val_score(
            DecisionTreeClassifier(max_depth=2), X, y, cv=3, random_state=0,
            scoring=probe,
        )
        assert len(seen) == 3


class TestGridSearchNJobs:
    def test_parallel_equals_serial(self):
        X, y = _data(n=150)
        grid = {"max_depth": [1, 2, 3], "criterion": ["gini", "entropy"]}
        serial = GridSearchCV(
            DecisionTreeClassifier(), grid, cv=3, random_state=4
        ).fit(X, y)
        fanned = GridSearchCV(
            DecisionTreeClassifier(), grid, cv=3, random_state=4, n_jobs=2
        ).fit(X, y)
        assert serial.cv_results_ == fanned.cv_results_
        assert serial.best_params_ == fanned.best_params_

    def test_parallel_with_custom_unpicklable_scoring(self):
        # fork inherits closures: the scorer never crosses the boundary
        X, y = _data(n=120)
        offset = 0.25

        def shifted(model, X_val, y_val):
            return float(np.mean(model.predict(X_val) == y_val)) + offset

        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [1, 2]}, cv=3,
            random_state=0, scoring=shifted, n_jobs=2,
        ).fit(X, y)
        assert all(r["mean_score"] > offset - 1e-9 for r in search.cv_results_)

    def test_n_jobs_on_non_tree_estimator(self):
        # 121 rows: the three folds train on 80, 81 and 81 rows, so the
        # stacked SGD folds are ragged, and the weights are fractional
        X, y = _data(n=121)
        weights = np.random.default_rng(2).uniform(0.1, 2.5, len(y))
        grid = {"alpha": [0.0001, 0.01], "penalty": ["l2", "elasticnet"]}
        serial = GridSearchCV(
            SGDClassifier(random_state=0), grid, cv=3, random_state=0
        ).fit(X, y, sample_weight=weights)
        for jobs in (2, 3, 4):
            fanned = GridSearchCV(
                SGDClassifier(random_state=0), grid, cv=3, random_state=0, n_jobs=jobs
            ).fit(X, y, sample_weight=weights)
            assert serial.cv_results_ == fanned.cv_results_
