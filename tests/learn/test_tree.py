"""Unit tests for DecisionTreeClassifier."""

import numpy as np
import pytest

from repro.learn import DecisionTreeClassifier


def _xor(seed=0, n=400):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestFitting:
    def test_fits_xor_perfectly_with_depth(self):
        X, y = _xor()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert model.score(X, y) > 0.98

    def test_depth_limit_respected(self):
        X, y = _xor()
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert model.depth_ <= 2

    def test_stump_on_linear_data(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert model.score(X, y) == 1.0
        assert model.tree_["threshold"][0] == pytest.approx(1.5)

    def test_min_samples_leaf(self):
        X, y = _xor(n=100)
        model = DecisionTreeClassifier(min_samples_leaf=30).fit(X, y)
        # every leaf must hold at least 30 samples
        leaves = model.tree_["feature"] < 0
        assert leaves.any()
        assert np.all(model.tree_["n_samples"][leaves] >= 30)

    def test_min_samples_split_blocks_small_nodes(self):
        X, y = _xor(n=50)
        model = DecisionTreeClassifier(min_samples_split=51).fit(X, y)
        assert model.tree_["feature"][0] < 0  # the root is a leaf

    def test_entropy_criterion(self):
        X, y = _xor()
        model = DecisionTreeClassifier(criterion="entropy", max_depth=4).fit(X, y)
        assert model.score(X, y) > 0.98

    def test_invalid_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="mse").fit(np.ones((4, 1)), [0, 0, 1, 1])

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1).fit(np.ones((4, 1)), [0, 0, 1, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0).fit(np.ones((4, 1)), [0, 0, 1, 1])

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_invalid_max_depth(self, max_depth):
        # a depth below 1 used to fit a root-only tree without complaint
        X, y = _xor(n=60)
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTreeClassifier(max_depth=max_depth).fit(X, y)

    def test_fit_candidates_checks_every_member(self):
        # only each family's deepest member is induced; a shallower
        # member's own fit would raise, so the family fit must too
        X, y = _xor(n=60)
        candidates = [{"max_depth": 3}, {"max_depth": -1}]
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTreeClassifier().fit_candidates(candidates, X, y)

    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        model = DecisionTreeClassifier().fit(X, y)
        assert model.tree_["feature"][0] < 0  # the root is a leaf
        assert list(model.predict(X)) == [1, 1]


class TestScaleInvariance:
    def test_predictions_invariant_to_feature_scaling(self):
        """The Figure 3(b) property: trees don't care about monotone rescaling."""
        X, y = _xor()
        model_raw = DecisionTreeClassifier(max_depth=5).fit(X, y)
        scale = np.array([1000.0, 0.001])
        model_scaled = DecisionTreeClassifier(max_depth=5).fit(X * scale, y)
        assert np.array_equal(model_raw.predict(X), model_scaled.predict(X * scale))


class TestWeights:
    def test_sample_weight_changes_majority(self):
        X = np.array([[0.0], [0.1], [0.2]])
        y = np.array([0, 0, 1])
        w = np.array([1.0, 1.0, 100.0])
        model = DecisionTreeClassifier(min_samples_split=10).fit(
            X, y, sample_weight=w
        )
        # forced leaf; prediction should follow the weighted majority
        assert model.predict(np.array([[0.0]]))[0] == 1

    def test_zero_weight_samples_ignored_in_distribution(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        model = DecisionTreeClassifier(max_depth=1).fit(X, y, sample_weight=w)
        proba = model.predict_proba(np.array([[3.0]]))
        assert proba[0, 1] == pytest.approx(1.0)


class TestPrediction:
    def test_proba_rows_sum_to_one(self):
        X, y = _xor()
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_string_labels(self):
        X, y = _xor(n=100)
        labels = np.where(y == 1, "pos", "neg")
        model = DecisionTreeClassifier(max_depth=4).fit(X, labels)
        assert set(model.predict(X)) <= {"pos", "neg"}

    def test_multiclass(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 3, size=(300, 1))
        y = np.floor(X[:, 0]).astype(int)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_width_mismatch_raises(self):
        X, y = _xor(n=50)
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((2, 7)))

    def test_deterministic(self):
        X, y = _xor()
        a = DecisionTreeClassifier(max_depth=6).fit(X, y)
        b = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))
        assert a.n_leaves_ == b.n_leaves_
