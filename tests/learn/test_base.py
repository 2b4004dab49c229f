"""Unit tests for the estimator contract in repro.learn.base."""

import numpy as np
import pytest

from repro.learn import (
    DecisionTreeClassifier,
    NotFittedError,
    SGDClassifier,
    StandardScaler,
    check_labels,
    check_matrix,
    check_sample_weight,
    clone,
)
from repro.learn.base import BaseEstimator
from repro.serialize import init_params


class _Toy(BaseEstimator):
    def __init__(self, a=1, b="x", nested=None):
        self.a = a
        self.b = b
        self.nested = nested


class TestParams:
    def test_get_params_reflects_constructor(self):
        toy = _Toy(a=5, b="y")
        assert toy.get_params() == {"a": 5, "b": "y", "nested": None}

    def test_set_params_roundtrip(self):
        toy = _Toy()
        toy.set_params(a=9)
        assert toy.a == 9

    def test_set_params_unknown_raises(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            _Toy().set_params(c=1)

    def test_repr_contains_params(self):
        assert "a=3" in repr(_Toy(a=3))

    def test_param_names_memo_is_per_class(self):
        class _Wider(_Toy):
            def __init__(self, a=1, b="x", nested=None, c=0.5):
                super().__init__(a=a, b=b, nested=nested)
                self.c = c

        class _Inheriting(_Toy):
            pass

        # warm the parent's entry first: a subclass with its own __init__
        # must not see it, one without must see the same names
        assert list(init_params(_Toy)) == ["a", "b", "nested"]
        assert list(init_params(_Wider)) == ["a", "b", "nested", "c"]
        assert list(init_params(_Inheriting)) == ["a", "b", "nested"]
        assert _Wider(c=2.0).get_params() == {"a": 1, "b": "x", "nested": None, "c": 2.0}
        assert clone(_Wider(c=3.0)).c == 3.0
        with pytest.raises(ValueError, match="invalid parameter"):
            _Toy().set_params(c=1)

    def test_param_names_cannot_be_mutated(self):
        names = init_params(_Toy)
        with pytest.raises(TypeError):
            names["mutated"] = None
        assert dict(init_params(_Toy)) == {"a": 1, "b": "x", "nested": None}


class TestClone:
    def test_clone_copies_hyperparameters(self):
        original = SGDClassifier(alpha=0.005, penalty="l1", random_state=3)
        copy = clone(original)
        assert copy.get_params() == original.get_params()

    def test_clone_drops_fitted_state(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = SGDClassifier(random_state=0).fit(X, y)
        fresh = clone(model)
        assert not hasattr(fresh, "coef_")

    def test_clone_deep_copies_nested_estimators(self):
        inner = _Toy(a=7)
        outer = _Toy(nested=inner)
        copy = clone(outer)
        assert copy.nested is not inner
        assert copy.nested.a == 7

    def test_not_fitted_error(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.array([[1.0]]))


class TestValidation:
    def test_check_matrix_promotes_1d(self):
        assert check_matrix(np.array([1.0, 2.0])).shape == (2, 1)

    def test_check_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_matrix(np.array([[np.nan]]))

    def test_check_matrix_rejects_inf(self):
        with pytest.raises(ValueError, match="infinite"):
            check_matrix(np.array([[np.inf]]))

    def test_check_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match="no rows"):
            check_matrix(np.empty((0, 3)))

    def test_check_labels_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            check_labels(np.array([1, 2]), 3)

    def test_check_sample_weight_defaults_to_ones(self):
        w = check_sample_weight(None, 4)
        assert (w == 1.0).all()

    def test_check_sample_weight_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_sample_weight(np.array([1.0, -1.0]), 2)

    def test_check_sample_weight_rejects_all_zero(self):
        with pytest.raises(ValueError, match="zero"):
            check_sample_weight(np.zeros(3), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: SGDClassifier(random_state=0, max_iter=3),
            lambda: DecisionTreeClassifier(max_depth=2),
        ],
        ids=["sgd", "tree"],
    )
    def test_learners_reject_non_finite_sample_weight(self, make_model, value):
        # unchecked, a NaN weight trains an SGD model silently and gives a
        # tree that predicts [0.5, 0.5] for every row
        X = np.random.default_rng(0).normal(size=(60, 3))
        y = X[:, 0] > 0
        weights = np.ones(60)
        weights[5] = value
        with pytest.raises(ValueError, match="finite"):
            make_model().fit(X, y, sample_weight=weights)

    def test_check_sample_weight_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_sample_weight(np.ones(2), 3)
