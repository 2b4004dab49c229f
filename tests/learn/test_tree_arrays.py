"""The fitted tree is its node arrays: prediction, truncation and loading.

``DecisionTreeClassifier.tree_`` holds the same six preorder arrays that
``to_state`` writes into an artifact. These tests pin the three things
built on them: the level-walk ``predict_proba`` is byte-equal to the
frozen graph traversal of :class:`ReferenceDecisionTree`; ``_truncate``
cuts a deep tree into exactly the tree a direct fit builds; and
``from_state`` rejects arrays that are not a tree, in bounded time.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn import DecisionTreeClassifier
from repro.learn.tree import TREE_DTYPES, _truncate

from .reference_impl import ReferenceDecisionTree, _Node
from .test_histogram import matrix_strategy
from .test_splitter_golden import DATASETS, featurized


def as_reference(model):
    """A reference tree holding ``model``'s nodes as a node graph, so the
    frozen graph traversal can predict with trees it cannot fit."""
    tree = model.tree_
    nodes = [
        _Node(distribution=tree["distribution"][i], n_samples=int(tree["n_samples"][i]))
        for i in range(len(tree["feature"]))
    ]
    for i, node in enumerate(nodes):
        if tree["feature"][i] >= 0:
            node.feature = int(tree["feature"][i])
            node.threshold = float(tree["threshold"][i])
            node.left = nodes[tree["left"][i]]
            node.right = nodes[tree["right"][i]]
    reference = ReferenceDecisionTree()
    reference.classes_ = model.classes_
    reference.tree_ = nodes[0]
    return reference


def assert_same_proba(model, reference, X):
    assert model.predict_proba(X).tobytes() == reference.predict_proba(X).tobytes()


class TestLevelWalkMatchesGraphTraversal:
    @pytest.mark.parametrize("dataset,n_rows", DATASETS)
    def test_golden_datasets(self, dataset, n_rows):
        X, y, weights = featurized(dataset, n_rows)
        for params in (dict(), dict(criterion="entropy", max_depth=6, min_samples_leaf=5)):
            model = DecisionTreeClassifier(**params).fit(X, y, sample_weight=weights)
            reference = ReferenceDecisionTree(**params).fit(X, y, sample_weight=weights)
            assert_same_proba(model, reference, X)
            assert_same_proba(model, as_reference(model), X)

    def test_weighted_thirteen_classes(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(500, 6))
        y = rng.integers(0, 13, 500)
        weights = rng.random(500) * 3.0
        model = DecisionTreeClassifier(max_depth=8).fit(X, y, sample_weight=weights)
        reference = ReferenceDecisionTree(max_depth=8).fit(X, y, sample_weight=weights)
        assert_same_proba(model, reference, X)

    @pytest.mark.parametrize("n_classes", [2, 3, 13, 40])
    def test_leaf_probabilities_for_many_class_counts(self, n_classes):
        rng = np.random.default_rng(n_classes)
        X = rng.normal(size=(400, 4))
        y = rng.integers(0, n_classes, 400)
        weights = rng.random(400) + 0.1
        model = DecisionTreeClassifier(max_depth=6).fit(X, y, sample_weight=weights)
        assert_same_proba(model, as_reference(model), X)

    def test_leaf_with_zero_total_weight_predicts_uniform(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 3, 200)
        state = DecisionTreeClassifier(max_depth=3).fit(X, y).to_state()
        leaf = int(np.flatnonzero(state["feature"] < 0)[0])
        state["distribution"][leaf] = 0.0
        model = DecisionTreeClassifier.from_state(state)
        assert_same_proba(model, as_reference(model), X)
        assert np.any(np.all(model.predict_proba(X) == 1.0 / 3.0, axis=1))

    def test_no_rows_and_one_row(self):
        X, y, _ = featurized("germancredit", 300)
        model = DecisionTreeClassifier(max_depth=6).fit(X, y)
        reference = ReferenceDecisionTree(max_depth=6).fit(X, y)
        for predictor in (model, reference):
            with pytest.raises(ValueError, match="no rows"):
                predictor.predict_proba(X[:0])
        for i in range(10):
            assert_same_proba(model, reference, X[i : i + 1])

    def test_chain_tree_deeper_than_recursion_limit(self):
        n = 3 * sys.getrecursionlimit()
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = np.arange(n) % 2
        model = DecisionTreeClassifier(max_depth=None).fit(X, y)
        assert_same_proba(model, as_reference(model), X)


class TestTruncate:
    @settings(max_examples=40, deadline=None)
    @given(
        data=matrix_strategy,
        max_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        min_samples_split=st.integers(min_value=2, max_value=40),
        n_classes=st.integers(min_value=2, max_value=4),
        backend=st.sampled_from(["exact", "histogram"]),
    )
    def test_truncation_equals_direct_fit(
        self, data, max_depth, min_samples_split, n_classes, backend
    ):
        X, seed = data
        y = np.random.default_rng(seed + 4).integers(0, n_classes, len(X))
        deep = DecisionTreeClassifier().fit(X, y, presort=backend)
        tree, depth = _truncate(deep.tree_, deep._node_depth, max_depth, min_samples_split)
        direct = DecisionTreeClassifier(
            max_depth=max_depth, min_samples_split=min_samples_split
        ).fit(X, y, presort=backend)
        for key in TREE_DTYPES:
            assert tree[key].dtype == direct.tree_[key].dtype
            assert np.array_equal(tree[key], direct.tree_[key], equal_nan=True), key
        assert np.array_equal(depth, direct._node_depth)


def reproducer_state():
    X = np.random.default_rng(0).normal(size=(60, 3))
    return DecisionTreeClassifier(max_depth=2).fit(X, X[:, 0] > 0).to_state()


def xor_state():
    X = np.random.default_rng(1).normal(size=(200, 3))
    y = (X[:, 0] > 0) ^ (X[:, 1] > 0)
    state = DecisionTreeClassifier(max_depth=3).fit(X, y).to_state()
    assert state["feature"][1] >= 0  # the root's left child splits again
    return state


def set_entry(key, index, value, make=reproducer_state):
    def corrupt():
        state = make()
        state[key][index] = value
        return state

    return corrupt


def duplicate_child():
    state = xor_state()
    # node 1's right child becomes the root's: still past node 1, but now
    # a child twice while node 1's old right subtree is orphaned
    state["right"][1] = state["right"][0]
    return state


def replace(key, value_of):
    def corrupt():
        state = reproducer_state()
        state[key] = value_of(state[key])
        return state

    return corrupt


MALFORMED = {
    "left_self_loop": set_entry("left", 0, 0),
    "left_negative_wraps": set_entry("left", 0, -2),
    "feature_out_of_range": set_entry("feature", 0, 7),
    "feature_out_of_range_deep": set_entry("feature", 1, 3, make=xor_state),
    "right_past_end": set_entry("right", 0, 3),
    "right_backwards": set_entry("right", 1, 0, make=xor_state),
    "leaf_with_child": set_entry("left", 1, 2),
    "nan_threshold": set_entry("threshold", 0, np.nan),
    "duplicate_child": duplicate_child,
    "distribution_shape": replace("distribution", lambda d: d[:, :1]),
    "short_array": replace("n_samples", lambda a: a[:-1]),
    "no_nodes": replace("feature", lambda a: a[:0]),
}


def load_within(state, seconds=10.0):
    """``from_state``'s exception, asserting it returned within ``seconds``."""
    outcome = {}

    def run():
        try:
            DecisionTreeClassifier.from_state(state)
            outcome["error"] = None
        except Exception as exc:  # the test asserts its type
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "from_state did not return"
    return outcome["error"]


class TestMalformedState:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected_in_bounded_time(self, name):
        error = load_within(MALFORMED[name]())
        assert isinstance(error, ValueError), error

    @pytest.mark.parametrize("make", [reproducer_state, xor_state])
    def test_valid_state_loads(self, make):
        assert load_within(make()) is None

    def test_state_arrays_are_copies(self):
        X = np.random.default_rng(0).normal(size=(60, 3))
        model = DecisionTreeClassifier(max_depth=2).fit(X, X[:, 0] > 0)
        state = model.to_state()
        state["left"][0] = 0
        assert model.tree_["left"][0] == 1
        assert load_within(model.to_state()) is None
