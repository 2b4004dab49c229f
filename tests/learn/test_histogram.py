"""Histogram splitter: node-for-node identity below bin degeneracy.

The histogram backend promises *exactness* in the regime where binning
loses nothing: every feature has at most 256 distinct values and sample
weights are unit. There the bins are the distinct values, the per-bin
class counts are the same exact integers the presort backend cumsums in
sorted order, and the resulting trees must match node for node — the
same promise the presort backend makes against the seed implementation,
extended one more hop. These tests pin that with a hypothesis property
suite and with golden ``presort="auto"`` runs on all four paper
datasets; outside the regime they pin determinism and sane structure.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn import (
    DecisionTreeClassifier,
    HistogramBinning,
    HistogramSplitter,
    Presort,
)
from repro.learn import histogram
from repro.learn.splitter import Level
from repro.learn.tree import HISTOGRAM_AUTO_THRESHOLD, TREE_DTYPES

from .reference_impl import ReferenceDecisionTree
from .test_splitter_golden import DATASETS, featurized, tree_signature


def fit_pair(X, y, sample_weight=None, **params):
    exact = DecisionTreeClassifier(**params).fit(
        X, y, sample_weight=sample_weight, presort="exact"
    )
    histogram = DecisionTreeClassifier(**params).fit(
        X, y, sample_weight=sample_weight, presort="histogram"
    )
    return exact, histogram


# ----------------------------------------------------------------------
# hypothesis property: identity below the bin-degeneracy regime
# ----------------------------------------------------------------------
matrix_strategy = st.builds(
    lambda rows, cardinalities, seed: (
        np.random.default_rng(seed)
        .integers(0, cardinalities, size=(rows, len(cardinalities)))
        .astype(np.float64),
        seed,
    ),
    rows=st.integers(min_value=2, max_value=120),
    cardinalities=st.lists(
        st.integers(min_value=1, max_value=40), min_size=1, max_size=6
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestHypothesisIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        data=matrix_strategy,
        criterion=st.sampled_from(["gini", "entropy"]),
        min_leaf=st.integers(min_value=1, max_value=5),
        n_classes=st.integers(min_value=2, max_value=4),
    )
    def test_histogram_equals_presort(self, data, criterion, min_leaf, n_classes):
        X, seed = data
        y = np.random.default_rng(seed + 1).integers(0, n_classes, len(X))
        exact, histogram = fit_pair(
            X, y, criterion=criterion, min_samples_leaf=min_leaf
        )
        assert tree_signature(exact) == tree_signature(histogram)

    @settings(max_examples=25, deadline=None)
    @given(data=matrix_strategy, depth=st.integers(min_value=1, max_value=6))
    def test_identity_survives_depth_limits(self, data, depth):
        X, seed = data
        y = np.random.default_rng(seed + 2).integers(0, 2, len(X))
        exact, histogram = fit_pair(X, y, max_depth=depth)
        assert tree_signature(exact) == tree_signature(histogram)

    @settings(max_examples=25, deadline=None)
    @given(data=matrix_strategy)
    def test_negative_and_fractional_values(self, data):
        # distinct-value bins are about cardinality, not integrality
        X, seed = data
        X = (X - 3.0) * 0.37
        y = np.random.default_rng(seed + 3).integers(0, 2, len(X))
        exact, histogram = fit_pair(X, y)
        assert tree_signature(exact) == tree_signature(histogram)


# ----------------------------------------------------------------------
# golden: presort="auto" on the paper datasets is byte-identical to seed
# ----------------------------------------------------------------------
class TestGoldenAuto:
    @pytest.mark.parametrize("dataset,n_rows", DATASETS)
    def test_auto_matches_seed_trees(self, dataset, n_rows):
        X, y, weights = featurized(dataset, n_rows)
        assert len(X) < HISTOGRAM_AUTO_THRESHOLD  # paper scale stays exact
        for params in (
            {},
            {"criterion": "entropy", "max_depth": 10, "min_samples_leaf": 10},
        ):
            auto = DecisionTreeClassifier(**params).fit(
                X, y, sample_weight=weights, presort="auto"
            )
            seed = ReferenceDecisionTree(**params).fit(X, y, sample_weight=weights)
            assert tree_signature(auto) == tree_signature(seed)

    @pytest.mark.parametrize("dataset,n_rows", [("propublica", 600), ("ricci", None)])
    def test_histogram_matches_seed_trees_in_regime(self, dataset, n_rows):
        # stronger than the auto guarantee: these two featurized matrices
        # have <= 256 distinct values per feature, so even *forcing* the
        # histogram backend reproduces the seed (adult/germancredit carry
        # near-continuous numerics and rely on the auto fallback instead)
        X, y, weights = featurized(dataset, n_rows)
        assert max(len(np.unique(X[:, j])) for j in range(X.shape[1])) <= 256
        model = DecisionTreeClassifier(max_depth=10).fit(
            X, y, sample_weight=weights, presort="histogram"
        )
        seed = ReferenceDecisionTree(max_depth=10).fit(X, y, sample_weight=weights)
        assert tree_signature(model) == tree_signature(seed)


# ----------------------------------------------------------------------
# dispatch, hints, and the sketch regime
# ----------------------------------------------------------------------
def small_problem(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 2, n).astype(float),
        rng.integers(0, 9, n).astype(float),
        rng.integers(0, 40, n).astype(float),
    ])
    y = rng.integers(0, 2, n)
    return X, y


def counting(function, calls):
    """``function``, appending itself to ``calls`` on every call."""

    def wrapper(*args, **kwargs):
        calls.append(function)
        return function(*args, **kwargs)

    return wrapper


class TestDispatch:
    def test_auto_picks_exact_below_threshold(self):
        X, y = small_problem()
        assert DecisionTreeClassifier().fit(X, y).fit_backend_ == "exact"
        # None is no longer an alias of "auto"
        with pytest.raises(ValueError, match="presort must be"):
            DecisionTreeClassifier().fit(X, y, presort=None)

    def test_auto_picks_histogram_above_threshold(self, monkeypatch):
        monkeypatch.setattr("repro.learn.tree.HISTOGRAM_AUTO_THRESHOLD", 100)
        X, y = small_problem()
        assert DecisionTreeClassifier().fit(X, y).fit_backend_ == "histogram"

    def test_prepared_matrix_selects_its_backend(self, monkeypatch):
        X, y = small_problem()
        prepared = [Presort(X), HistogramBinning(X)]
        builds = []
        for cls in (Presort, HistogramBinning):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__, builds))
        backends = [DecisionTreeClassifier().fit(p, y).fit_backend_ for p in prepared]
        assert backends == ["exact", "histogram"]
        assert builds == []  # grown from as it is, never rebuilt

    def test_prepared_binning_equals_histogram_fit(self):
        X, y = small_problem()
        weights = np.random.default_rng(4).uniform(0.5, 2.0, len(y))
        for sample_weight in (None, weights):
            prepared = DecisionTreeClassifier(max_depth=6).fit(
                HistogramBinning(X), y, sample_weight=sample_weight
            )
            plain = DecisionTreeClassifier(max_depth=6).fit(
                X, y, sample_weight=sample_weight, presort="histogram"
            )
            assert prepared.fit_backend_ == "histogram"
            for key in TREE_DTYPES:
                np.testing.assert_array_equal(prepared.tree_[key], plain.tree_[key])

    @pytest.mark.parametrize("presort", ["exact", "histogram"])
    def test_presort_with_prepared_matrix_rejected(self, presort):
        X, y = small_problem()
        for prepared in (Presort(X), HistogramBinning(X)):
            with pytest.raises(ValueError, match="presort must be 'auto'"):
                DecisionTreeClassifier().fit(prepared, y, presort=presort)

    def test_invalid_presort_value_rejected(self):
        X, y = small_problem()
        with pytest.raises(ValueError, match="presort must be"):
            DecisionTreeClassifier().fit(X, y, presort="sometimes")

    def test_fit_candidates_prepares_once_what_auto_picks(self, monkeypatch):
        X, y = small_problem()
        # two families, so two inductions grow from the one preparation
        candidates = [{"max_depth": 2}, {"criterion": "entropy"}]
        originals = [Presort.__init__, HistogramBinning.__init__]
        builds = []
        for cls in (Presort, HistogramBinning):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__, builds))
        DecisionTreeClassifier().fit_candidates(candidates, X, y)
        monkeypatch.setattr("repro.learn.tree.HISTOGRAM_AUTO_THRESHOLD", 100)
        DecisionTreeClassifier().fit_candidates(candidates, X, y)
        assert builds == originals

    def test_fit_candidates_accepts_histogram_backend(self):
        X, y = small_problem()
        template = DecisionTreeClassifier()
        candidates = [{"max_depth": 2}, {"max_depth": 5}]
        family = template.fit_candidates(candidates, X, y, presort="histogram")
        for params, model in zip(candidates, family):
            solo = DecisionTreeClassifier(**params).fit(X, y, presort="histogram")
            assert tree_signature(model) == tree_signature(solo)


def sketch_case(name, n=900):
    """A problem outside the identity regime: non-unit weights, or every
    feature with more than 256 distinct values (unit weights)."""
    rng = np.random.default_rng(sum(map(ord, name)))
    X = np.column_stack([
        rng.integers(0, 2, n).astype(float),
        rng.integers(0, 7, n).astype(float),
        rng.normal(size=n).round(1),
        rng.normal(size=n),
    ])
    signal = X[:, 1] / 7 + X[:, 2] + rng.normal(scale=0.5, size=n)
    if name == "binary-uniform-weights":
        return X, (signal > 0.5).astype(int), rng.uniform(0.1, 3.0, n)
    if name == "binary-integer-weights":
        return X, (signal > 0.5).astype(int), rng.integers(0, 4, n).astype(float)
    if name.startswith("multiclass-"):
        k = int(name.split("-")[1])
        y = np.digitize(signal, np.quantile(signal, np.linspace(0, 1, k + 1)[1:-1]))
        return X, y, rng.uniform(0.1, 3.0, n)
    X = rng.normal(size=(n, 3))
    signal = X[:, 0] + X[:, 1] + rng.normal(scale=0.5, size=n)
    if name == "sketch-multiclass":
        return X, np.digitize(signal, [-1.0, 0.0, 1.0]), None
    return X, (signal > 0).astype(int), None


SKETCH_GOLDENS = {
    ("binary-uniform-weights", "gini"): "5e6b576c2538c0ddb94c7268f4b7ac9b21258c3aa7e09844802c93827401415a",
    ("binary-uniform-weights", "entropy"): "916519bab7972dec4a8aecd611c532d4b82458c4489e4bd1ed3b936ceb2ab6b0",
    ("binary-integer-weights", "gini"): "079a7619491fe5912895fb15f2e6e03c8f5f0ff4243a919d1eb43338aa7d7485",
    ("binary-integer-weights", "entropy"): "ae5f1197da24c302cec9f69e0a160a05ebfe845dd84407602f3daa9d9ce6e723",
    ("multiclass-3", "gini"): "0e6034e497bc8c76abe385cde9cc6eef253a0a30b458a972373f2d6ba4a06d1c",
    ("multiclass-3", "entropy"): "ea878320e4be5e180fc403ae73fb1db1ef46d55ab93e279ae7f511704d74b062",
    ("multiclass-7", "gini"): "89bb30c6f19ded1c3e0b44c8654acf6898cdcb4d58e8d970f00c02aae1834e39",
    ("multiclass-7", "entropy"): "e26791f0b906231ac4e1004c305e52ecb5f7beb4119aa7a336f1f5287b37520f",
    ("sketch-binary", "gini"): "3055067c30b3815ebd3867e45a8ce0146635c45f44339a9feec78ee9c911996e",
    ("sketch-binary", "entropy"): "b35a6d3d872a1dc0b14958658d42f97464a3435d30255ffcb539b9bcb5a20bfe",
    ("sketch-multiclass", "gini"): "34dff99e2e20bb7f0a8585141b610399ddea286884875bd933a574fc136b7e39",
    ("sketch-multiclass", "entropy"): "cf856ac44aa0ef7c47ae312a51032fd29d44e300e8753f4cec600cb2f9fcde22",
}


class TestSketchRegime:
    def test_binning_caps_at_256_bins(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4000, 3))
        binning = HistogramBinning(X)
        assert binning.codes.dtype == np.uint8
        assert int(binning.n_bins.max()) <= 256
        # every row's code is consistent with its bin's bounds
        for j in range(3):
            codes = binning.codes[j]
            assert np.all(X[:, j] <= binning.upper[j][codes])
            assert np.all(X[:, j] >= binning.lower[j][codes])

    def test_dense_features_fit_deterministically(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=3000), rng.uniform(size=3000)])
        y = (X[:, 0] + rng.normal(scale=0.3, size=3000) > 0).astype(int)
        a = DecisionTreeClassifier(max_depth=6).fit(X, y, presort="histogram")
        b = DecisionTreeClassifier(max_depth=6).fit(X, y, presort="histogram")
        assert tree_signature(a) == tree_signature(b)
        # the sketch loses thresholds, not signal: both backends separate
        exact = DecisionTreeClassifier(max_depth=6).fit(X, y, presort="exact")
        agree = np.mean(a.predict(X) == exact.predict(X))
        assert agree > 0.9

    def test_weighted_fit_runs_outside_identity_regime(self):
        X, y = small_problem(600, seed=9)
        weights = np.random.default_rng(9).uniform(0.5, 2.0, len(y))
        model = DecisionTreeClassifier(max_depth=6).fit(
            X, y, sample_weight=weights, presort="histogram"
        )
        assert model.depth_ <= 6
        # node sample counts are real row counts, independent of weights
        assert model.tree_["n_samples"][0] == len(y)

    def test_multiclass_weighted_histogram(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 20, size=(500, 4)).astype(float)
        y = rng.integers(0, 3, 500)
        weights = rng.uniform(0.1, 3.0, 500)
        model = DecisionTreeClassifier(max_depth=5).fit(
            X, y, sample_weight=weights, presort="histogram"
        )
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    @pytest.mark.parametrize("name, criterion", sorted(SKETCH_GOLDENS))
    def test_histogram_trees_match_goldens(self, name, criterion):
        """Histogram trees outside the identity regime, pinned by digest.

        Each digest is the sha256 of a depth-8 histogram fit's
        ``to_state`` node arrays, recorded with NumPy 2.4.6 before the two
        backends shared one split search. Weighted statistics are summed
        per bin, so these trees depend on float summation order: a change
        to how the histogram backend accumulates or scores weights
        changes a digest.
        """
        X, y, weights = sketch_case(name)
        model = DecisionTreeClassifier(criterion=criterion, max_depth=8).fit(
            X, y, sample_weight=weights, presort="histogram"
        )
        state = model.to_state()
        digest = hashlib.sha256()
        for key in TREE_DTYPES:
            digest.update(np.ascontiguousarray(state[key]).tobytes())
        assert digest.hexdigest() == SKETCH_GOLDENS[name, criterion]


class TestSubtractionTrick:
    def test_partition_matches_direct_accumulation(self):
        X, y = small_problem(800, seed=13)
        onehot = np.zeros((len(y), 2))
        onehot[np.arange(len(y)), y] = 1.0
        splitter = HistogramSplitter(HistogramBinning(X), onehot, "gini", 1)
        root = splitter.root_context()
        indices = np.arange(len(y))
        left = indices[X[:, 1] <= 4.0]
        right = indices[X[:, 1] > 4.0]
        # the root level, both children kept: the next level holds the
        # left child's histograms, then the right child's
        go_left = X[:, 1] <= 4.0
        side = np.where(go_left, 1, 2).astype(np.int8)
        level = Level(indices, np.array([len(y)]))
        children = splitter.partition(root, level, side, go_left)
        left_ctx, right_ctx = (
            tuple(None if part is None else part[i : i + 1] for part in children)
            for i in (0, 1)
        )

        def accumulate(rows):
            return splitter._accumulate(rows, np.zeros(len(rows), dtype=np.int64), 1)

        for derived, direct in zip(right_ctx, accumulate(right)):
            if derived is None:
                assert direct is None
            else:
                np.testing.assert_array_equal(derived, direct)
        for derived, direct in zip(left_ctx, accumulate(left)):
            if derived is None:
                assert direct is None
            else:
                np.testing.assert_array_equal(derived, direct)


def noisy_problem(n, n_classes=2, seed=0):
    """Continuous features and noisy labels: an unbounded-depth fit grows
    frontiers of hundreds of nodes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    score = X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    return X, y


class TestFrontierBound:
    """A frontier whose histograms would pass ``HISTOGRAM_CELLS`` is scored
    in node blocks accumulated directly, and nothing below it is stored."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("stored, searched", [(1, 1), (5, 2)])
    def test_blocked_frontiers_grow_the_same_tree(
        self, monkeypatch, n_classes, stored, searched
    ):
        X, y = noisy_problem(1500, n_classes, seed=n_classes)
        whole = DecisionTreeClassifier().fit(X, y, presort="histogram")
        splitter = HistogramSplitter(HistogramBinning(X), np.eye(n_classes)[y], "gini", 1)
        per_node = histogram.HISTOGRAM_CELLS // splitter._max_nodes
        monkeypatch.setattr(histogram, "HISTOGRAM_CELLS", stored * per_node)
        monkeypatch.setattr(histogram, "SEARCH_CELLS", searched * per_node)
        blocked = DecisionTreeClassifier().fit(X, y, presort="histogram")
        assert blocked.depth_ > 8  # frontiers far wider than the blocks
        assert tree_signature(blocked) == tree_signature(whole)

    def test_unbounded_depth_fit_holds_bounded_histograms(self, monkeypatch):
        n = HISTOGRAM_AUTO_THRESHOLD
        X, y = noisy_problem(n)
        stored = []
        partition = HistogramSplitter.partition

        def recording(self, *args):
            context = partition(self, *args)
            cells = 0 if context is None else sum(
                part.size for part in context if part is not None
            )
            stored.append(cells)
            return context

        monkeypatch.setattr(HistogramSplitter, "partition", recording)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        model = DecisionTreeClassifier().fit(X, y)
        peak = tracemalloc.get_traced_memory()[1] - start
        if not tracing:
            tracemalloc.stop()
        assert model.fit_backend_ == "histogram" and model.depth_ > 20
        assert max(stored) <= histogram.HISTOGRAM_CELLS
        assert 0 in stored  # the frontier outgrew the cap
        # the stored frontier is at most 8 MB; the subtraction holds a
        # few copies of it, the search a few of its SEARCH_CELLS block
        assert peak < 4 * 8 * histogram.HISTOGRAM_CELLS
