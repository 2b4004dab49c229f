"""Golden tests: vectorized one-vs-rest training is byte-identical to the
per-class loops it replaced (fixed seed, all losses and penalties)."""

import numpy as np
import pytest

from repro.learn import LogisticRegressionGD, SGDClassifier

from .reference_impl import fit_gd_per_target, fit_ovr_per_class


def multiclass(n, d, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    centers = rng.normal(size=(n_classes, d))
    y = np.argmax(X @ centers.T, axis=1)
    return X, np.asarray([f"class_{i}" for i in range(n_classes)], dtype=object)[y]


class TestSGDOneVsRest:
    @pytest.mark.parametrize("loss", ["log", "hinge"])
    @pytest.mark.parametrize("penalty", ["l2", "l1", "elasticnet", "none"])
    def test_coefficients_byte_identical(self, loss, penalty):
        X, y = multiclass(300, 10, 4)
        spec = dict(
            loss=loss, penalty=penalty, max_iter=6, batch_size=32, random_state=5
        )
        model = SGDClassifier(**spec).fit(X, y)
        coef, intercept = fit_ovr_per_class(SGDClassifier(**spec), X, y)
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_without_shuffling(self):
        X, y = multiclass(200, 8, 3, seed=2)
        spec = dict(loss="log", max_iter=4, batch_size=16, shuffle=False, random_state=0)
        model = SGDClassifier(**spec).fit(X, y)
        coef, intercept = fit_ovr_per_class(SGDClassifier(**spec), X, y)
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_many_classes_with_uneven_convergence(self):
        # enough epochs that some classes converge early and drop out of
        # the shared loop while others keep training
        X, y = multiclass(500, 12, 7, seed=4)
        spec = dict(loss="log", max_iter=25, batch_size=64, tol=1e-3, random_state=1)
        model = SGDClassifier(**spec).fit(X, y)
        coef, intercept = fit_ovr_per_class(SGDClassifier(**spec), X, y)
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_predictions_cover_all_classes(self):
        X, y = multiclass(400, 10, 5)
        model = SGDClassifier(loss="log", max_iter=10, random_state=0).fit(X, y)
        assert set(np.unique(model.predict(X))) <= set(np.unique(y))
        assert model.coef_.shape == (5, 10)


class TestLogisticRegressionGDOneVsRest:
    def test_multiclass_byte_identical(self):
        X, y = multiclass(300, 9, 5, seed=1)
        model = LogisticRegressionGD(max_iter=60, random_state=0).fit(X, y)
        coef, intercept = fit_gd_per_target(
            LogisticRegressionGD(max_iter=60, random_state=0), X, y
        )
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_binary_byte_identical(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(250, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = LogisticRegressionGD(max_iter=100, random_state=0).fit(X, y)
        coef, intercept = fit_gd_per_target(
            LogisticRegressionGD(max_iter=100, random_state=0), X, y
        )
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_weighted_byte_identical(self):
        X, y = multiclass(220, 7, 4, seed=6)
        weights = np.random.default_rng(9).random(len(y)) + 0.25
        model = LogisticRegressionGD(max_iter=40, random_state=0).fit(
            X, y, sample_weight=weights
        )
        coef, intercept = fit_gd_per_target(
            LogisticRegressionGD(max_iter=40, random_state=0), X, y, sample_weight=weights
        )
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_uneven_convergence_across_targets(self):
        X, y = multiclass(300, 8, 6, seed=3)
        spec = dict(max_iter=150, tol=1e-5, random_state=0)
        model = LogisticRegressionGD(**spec).fit(X, y)
        coef, intercept = fit_gd_per_target(LogisticRegressionGD(**spec), X, y)
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)

    def test_large_problem_byte_identical(self):
        # 4 targets × 5000 samples = 20,000 stacked cells: larger than any
        # other case here, so the stacked fit is pinned beyond cache size
        X, y = multiclass(5000, 6, 4, seed=12)
        spec = dict(max_iter=30, random_state=0)
        model = LogisticRegressionGD(**spec).fit(X, y)
        coef, intercept = fit_gd_per_target(LogisticRegressionGD(**spec), X, y)
        assert np.array_equal(model.coef_, coef)
        assert np.array_equal(model.intercept_, intercept)
