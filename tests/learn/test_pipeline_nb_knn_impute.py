"""Unit tests for Pipeline, GaussianNB, KNeighborsClassifier and SimpleImputer."""

import warnings

import numpy as np
import pytest

from repro.learn import (
    GaussianNB,
    KNeighborsClassifier,
    Pipeline,
    SGDClassifier,
    SimpleImputer,
    StandardScaler,
    make_pipeline,
    nearest_neighbor_indices,
)


def _blobs(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n // 2, 2))
    X1 = rng.normal(4.0, 1.0, size=(n // 2, 2))
    return np.vstack([X0, X1]), np.array([0] * (n // 2) + [1] * (n // 2))


class TestPipeline:
    def test_fit_predict(self):
        X, y = _blobs()
        pipe = Pipeline([
            ("scaler", StandardScaler()),
            ("model", SGDClassifier(random_state=0)),
        ]).fit(X, y)
        assert pipe.score(X, y) > 0.95

    def test_transformers_fit_only_on_training_data(self):
        X_train = np.array([[0.0], [2.0]])
        y_train = np.array([0, 1])
        pipe = Pipeline([
            ("scaler", StandardScaler()),
            ("model", SGDClassifier(random_state=0)),
        ]).fit(X_train, y_train)
        scaler = dict(pipe.steps)["scaler"]
        assert scaler.mean_[0] == 1.0  # mean of train only
        # predicting on new data does not refit the scaler
        pipe.predict(np.array([[100.0]]))
        assert scaler.mean_[0] == 1.0

    def test_param_routing_via_set_params(self):
        pipe = Pipeline([
            ("scaler", StandardScaler()),
            ("model", SGDClassifier()),
        ])
        pipe.set_params(model__alpha=0.5)
        assert dict(pipe.steps)["model"].alpha == 0.5

    def test_bad_param_name(self):
        pipe = Pipeline([("model", SGDClassifier())])
        with pytest.raises(ValueError, match="step__param"):
            pipe.set_params(alpha=0.1)
        with pytest.raises(ValueError, match="unknown pipeline step"):
            pipe.set_params(nope__alpha=0.1)

    def test_duplicate_step_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline([("a", StandardScaler()), ("a", SGDClassifier())])

    def test_step_name_with_dunder_rejected(self):
        with pytest.raises(ValueError, match="__"):
            Pipeline([("a__b", StandardScaler())])

    def test_make_pipeline_names(self):
        pipe = make_pipeline(StandardScaler(), StandardScaler(), SGDClassifier())
        names = [n for n, _ in pipe.steps]
        assert names == ["standardscaler", "standardscaler2", "sgdclassifier"]

    def test_sample_weight_passthrough(self):
        X, y = _blobs(n=40)
        pipe = Pipeline([
            ("scaler", StandardScaler()),
            ("model", SGDClassifier(random_state=0)),
        ])
        pipe.fit(X, y, sample_weight=np.ones(len(y)))
        assert pipe.predict(X).shape == y.shape


class TestGaussianNB:
    def test_learns_blobs(self):
        X, y = _blobs()
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_proba_normalized(self):
        X, y = _blobs()
        proba = GaussianNB().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_priors_follow_weights(self):
        X, y = _blobs(n=100)
        w = np.where(y == 1, 3.0, 1.0)
        model = GaussianNB().fit(X, y, sample_weight=w)
        assert model.class_prior_[1] == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            GaussianNB().fit(np.ones((3, 1)), [1, 1, 1])

    def test_width_check(self):
        X, y = _blobs(n=20)
        model = GaussianNB().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((2, 9)))


class TestKNN:
    def test_learns_blobs(self):
        X, y = _blobs()
        model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_one_neighbor_memorizes(self):
        X, y = _blobs(n=50)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_neighbor_indices_exact(self):
        X = np.array([[0.0], [1.0], [10.0]])
        q = np.array([[0.9]])
        idx = nearest_neighbor_indices(X, q, 2)
        assert idx[0].tolist() == [1, 0]

    def test_large_magnitudes_are_ordered_by_true_distance(self):
        # |q|² overflows: the formula read NaN for every row but [0, 0]
        X = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0], [3e199, 0.0]])
        q = np.array([[1e200, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = nearest_neighbor_indices(X, q, 4)
        assert idx[0].tolist() == [0, 3, 2, 1]

    def test_rows_that_do_not_overflow_keep_their_neighbours(self):
        X = np.array([[0.0], [1.0], [10.0], [-3.0]])
        q = np.array([[0.9], [1e300], [-2.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = nearest_neighbor_indices(X, q, 4)
        alone = nearest_neighbor_indices(X, q[[0, 2]], 4)
        assert idx[[0, 2]].tolist() == alone.tolist() == [[1, 0, 3, 2], [3, 0, 1, 2]]

    def test_one_large_training_row_keeps_the_others_ordered(self):
        # |q|² is finite; only the far row's distance overflows
        X = np.array([[1e200], [0.0], [1.0], [5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = nearest_neighbor_indices(X, np.array([[1.0]]), 4)
        assert idx[0].tolist() == [2, 1, 3, 0]

    def test_large_query_and_larger_training_row(self):
        # the 1e300 row's scaled square still overflows: it ranks last
        X = np.array([[1e300], [0.0], [1.5e200], [-1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = nearest_neighbor_indices(X, np.array([[1e200]]), 4)
        assert idx[0].tolist() == [2, 1, 3, 0]

    def test_k_capped_at_train_size(self):
        X = np.array([[0.0], [1.0]])
        idx = nearest_neighbor_indices(X, X, 10)
        assert idx.shape == (2, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0).fit(np.ones((3, 1)), [0, 1, 0])


class TestSimpleImputer:
    def test_mean_strategy(self):
        X = np.array([[1.0], [3.0], [np.nan]])
        out = SimpleImputer("mean").fit_transform(X)
        assert out[2, 0] == 2.0

    def test_median_strategy(self):
        X = np.array([[1.0], [2.0], [100.0], [np.nan]])
        out = SimpleImputer("median").fit_transform(X)
        assert out[3, 0] == 2.0

    def test_most_frequent(self):
        X = np.array([[1.0], [1.0], [5.0], [np.nan]])
        out = SimpleImputer("most_frequent").fit_transform(X)
        assert out[3, 0] == 1.0

    def test_constant(self):
        X = np.array([[np.nan]])
        out = SimpleImputer("constant", fill_value=-1.0).fit_transform(X)
        assert out[0, 0] == -1.0

    def test_statistics_from_fit_split_only(self):
        imputer = SimpleImputer("mean").fit(np.array([[0.0], [4.0]]))
        out = imputer.transform(np.array([[np.nan], [100.0]]))
        assert out[0, 0] == 2.0

    def test_all_missing_column_uses_fill_value(self):
        X = np.array([[np.nan], [np.nan]])
        out = SimpleImputer("mean", fill_value=9.0).fit_transform(X)
        assert (out == 9.0).all()

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            SimpleImputer("mode")
