"""Golden tests: the presorted splitter reproduces the seed tree exactly.

The presort backend promises *structural identity* — the same feature /
threshold / gain sequence, node for node — with the per-node argsort
implementation it replaced. These tests hold it to that across the four
benchmark datasets' tuning grids, sample weighting, multi-class labels,
the fit-context hint, and the grid-search family fit.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import missing_values
from repro.core.featurization import Featurizer
from repro.core.learners import DECISION_TREE_GRID, LOGISTIC_REGRESSION_GRID
from repro.core.missing_values import ModeImputer
from repro.datasets import load_dataset
from repro.learn import (
    DecisionTreeClassifier,
    GridSearchCV,
    KFold,
    Presort,
    SGDClassifier,
    accuracy_score,
    clone,
)
from repro.learn import splitter
from repro.learn.model_selection import ParameterGrid
from repro.learn.tree import TREE_DTYPES

from .reference_impl import ReferenceDecisionTree, ReferenceSGDClassifier

# the paper's tree grid, thinned to keep the slow reference fits tractable
TUNING_GRID = {
    "criterion": ["gini", "entropy"],
    "max_depth": [3, 10],
    "min_samples_leaf": [1, 10],
    "min_samples_split": [2, 20],
}

DATASETS = [("adult", 700), ("germancredit", 600), ("propublica", 600), ("ricci", None)]


def featurized(name, n):
    frame, spec = load_dataset(name, n=n, seed=0)
    columns = list(spec.numeric_features) + list(spec.categorical_features)
    frame = ModeImputer().fit(frame, columns, 0).handle_missing(frame)
    data = Featurizer(spec).fit(frame).transform(frame)
    return data.features, data.labels, data.instance_weights


def tree_signature(model):
    """Every node's (feature, threshold, size, distribution), preorder,
    read by following child links; a leaf's feature and threshold are None.

    Reads the node arrays of a :class:`DecisionTreeClassifier` and the
    node graph of the frozen :class:`ReferenceDecisionTree`.
    """
    nodes = []
    if isinstance(model, ReferenceDecisionTree):
        stack = [model.tree_]
        while stack:
            node = stack.pop()
            nodes.append(
                (node.feature, node.threshold, node.n_samples, node.distribution.tobytes())
            )
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return nodes
    tree = model.tree_
    stack = [0]
    while stack:
        i = stack.pop()
        split = tree["feature"][i] >= 0
        nodes.append((
            int(tree["feature"][i]) if split else None,
            float(tree["threshold"][i]) if split else None,
            int(tree["n_samples"][i]),
            tree["distribution"][i].tobytes(),
        ))
        if split:
            stack.append(tree["right"][i])
            stack.append(tree["left"][i])
    return nodes


def assert_same_tree(model, reference):
    assert tree_signature(model) == tree_signature(reference)


class TestNodeForNodeIdentity:
    @pytest.mark.parametrize("dataset,n_rows", DATASETS)
    def test_tuning_grid_trees_match_seed(self, dataset, n_rows):
        X, y, weights = featurized(dataset, n_rows)
        for params in ParameterGrid(TUNING_GRID):
            fast = DecisionTreeClassifier(**params).fit(X, y, sample_weight=weights)
            slow = ReferenceDecisionTree(**params).fit(X, y, sample_weight=weights)
            assert_same_tree(fast, slow)

    def test_arbitrary_sample_weights(self):
        X, y, _ = featurized("germancredit", 400)
        weights = np.random.default_rng(7).random(len(y)) * 3.0
        for criterion in ("gini", "entropy"):
            fast = DecisionTreeClassifier(criterion=criterion, max_depth=8).fit(
                X, y, sample_weight=weights
            )
            slow = ReferenceDecisionTree(criterion=criterion, max_depth=8).fit(
                X, y, sample_weight=weights
            )
            assert_same_tree(fast, slow)

    def test_multiclass_general_criterion_path(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 6))
        y = rng.integers(0, 5, 400)
        for params in (
            dict(criterion="gini", max_depth=6),
            dict(criterion="entropy", max_depth=None, min_samples_leaf=4),
        ):
            assert_same_tree(
                DecisionTreeClassifier(**params).fit(X, y),
                ReferenceDecisionTree(**params).fit(X, y),
            )

    def test_tied_gains_break_identically(self):
        # symmetric one-hot features produce exactly equal gains; the
        # winner must match the seed's argmax order
        X = np.asarray(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]] * 6
        )
        y = np.asarray([0, 1] * 12)
        assert_same_tree(
            DecisionTreeClassifier().fit(X, y), ReferenceDecisionTree().fit(X, y)
        )


def imputer_training_sets(n_rows):
    """Every ``(target, X, y)`` a :class:`LearnedImputer` fits a tree on,
    captured from its own fit of the adult sample."""
    frame, spec = load_dataset("adult", n=n_rows, seed=0)
    captured = []

    class Capturing(DecisionTreeClassifier):
        def fit(self, X, y, *args, **kwargs):
            captured.append((X, y))
            return super().fit(X, y, *args, **kwargs)

    columns = list(spec.numeric_features) + list(spec.categorical_features)
    original = missing_values.DecisionTreeClassifier
    missing_values.DecisionTreeClassifier = Capturing
    try:
        imputer = missing_values.LearnedImputer().fit(frame, columns, 0)
    finally:
        missing_values.DecisionTreeClassifier = original
    return [(target, X, y) for target, (X, y) in zip(imputer._targets, captured)]


@st.composite
def multiclass_problems(draw):
    """Tie-heavy multi-class matrices: small-range integer, one-hot,
    constant, duplicated (so gains tie across features) and continuous
    columns, or one-hot-only matrices; 3-15 classes; min_samples_leaf up
    to n/2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 90))
    n_classes = draw(st.integers(3, 15))
    if draw(st.booleans()):  # one-hot-only: one or two categorical variables
        blocks = []
        for levels in draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)):
            blocks.append(np.eye(levels)[rng.integers(0, levels, n)])
        X = np.hstack(blocks)
    else:
        kinds = draw(st.lists(
            st.sampled_from(["ties", "onehot", "constant", "duplicate", "continuous"]),
            min_size=1, max_size=6,
        ))
        columns = []
        for kind in kinds:
            if kind == "ties":
                columns.append(rng.integers(0, draw(st.integers(2, 5)), n).astype(float))
            elif kind == "onehot":
                columns.append((rng.random(n) < 0.3).astype(float))
            elif kind == "constant":
                columns.append(np.full(n, 2.5))
            elif kind == "duplicate" and columns:
                columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
            else:
                columns.append(np.round(rng.normal(size=n), 1))
        X = np.column_stack(columns)
    y = rng.integers(0, n_classes, n)
    y[:3] = [0, 1, 2]  # at least three classes: the general search
    params = dict(
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        max_depth=draw(st.sampled_from([None, 2, 5])),
        min_samples_leaf=draw(st.integers(1, n // 2)),
    )
    return X, y, params


class TestMulticlassKernel:
    """The group-table multi-class search reproduces the seed's
    per-feature search node for node."""

    @pytest.fixture(scope="class")
    def imputer_sets(self):
        return imputer_training_sets(3000)

    # ROADMAP asks for one imputer golden per dataset with missing
    # values; of the four benchmark datasets only adult has any
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_adult_imputer_trees_match_seed(self, imputer_sets, criterion):
        targets = [target for target, _, _ in imputer_sets]
        assert targets == ["workclass", "occupation", "native_country"]
        for _, X, y in imputer_sets:
            params = dict(criterion=criterion, max_depth=8, min_samples_leaf=5)
            assert len(np.unique(y)) > 2
            assert_same_tree(
                DecisionTreeClassifier(**params).fit(X, y),
                ReferenceDecisionTree(**params).fit(X, y),
            )

    @pytest.mark.parametrize("n_classes", [5, 13])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_weighted_multiclass_matches_seed(self, n_classes, criterion):
        rng = np.random.default_rng(n_classes)
        X = np.column_stack([
            rng.integers(0, 4, 500).astype(float),
            (rng.random(500) < 0.4).astype(float),
            np.round(rng.normal(size=500), 2),
            rng.integers(0, 30, 500).astype(float),
        ])
        y = rng.integers(0, n_classes, 500)
        weights = rng.random(500) * 3.0 + 0.01
        for params in (
            dict(criterion=criterion, max_depth=8),
            dict(criterion=criterion, max_depth=None, min_samples_leaf=7),
        ):
            assert_same_tree(
                DecisionTreeClassifier(**params).fit(X, y, sample_weight=weights),
                ReferenceDecisionTree(**params).fit(X, y, sample_weight=weights),
            )

    @settings(max_examples=60, deadline=None)
    @given(multiclass_problems(), st.sampled_from([1, 64, splitter.TABLE_CELLS]))
    def test_kernel_matches_seed_on_random_multiclass_data(self, problem, cells):
        # a budget of 1 cell gives every feature its own block, so
        # duplicated columns tie across blocks
        X, y, params = problem
        with mock.patch.object(splitter, "TABLE_CELLS", cells):
            ours = DecisionTreeClassifier(**params).fit(X, y)
        assert_same_tree(ours, ReferenceDecisionTree(**params).fit(X, y))

    def test_many_distinct_values_span_blocks_and_match_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1200, 12))
        X[:, 7] = X[:, 2]  # a tie across blocks at every node
        y = rng.integers(0, 10, 1200)
        root = splitter.rank_starts(np.sort(X.T, axis=1))
        blocks = list(splitter.feature_blocks(root, 10))
        assert len(blocks) > 1
        # each block's table: at most the budget plus one feature's groups
        for lo, hi in blocks:
            assert root[lo:hi].sum() * 10 <= splitter.TABLE_CELLS + 1200 * 10
        for criterion in ("gini", "entropy"):
            params = dict(criterion=criterion, max_depth=6, min_samples_leaf=2)
            assert_same_tree(
                DecisionTreeClassifier(**params).fit(X, y),
                ReferenceDecisionTree(**params).fit(X, y),
            )


def reference_arrays(reference):
    """The node arrays of a frozen :class:`ReferenceDecisionTree`, laid
    out in preorder as ``to_state`` stores them."""
    rows = []

    def visit(node):
        i = len(rows)
        rows.append([-1, np.nan, -1, -1, node.n_samples, node.distribution])
        if not node.is_leaf:
            rows[i][:2] = node.feature, node.threshold
            rows[i][2] = visit(node.left)
            rows[i][3] = visit(node.right)
        return i

    visit(reference.tree_)
    return {
        key: np.asarray(column, dtype=dtype)
        for (key, dtype), column in zip(TREE_DTYPES.items(), zip(*rows))
    }


@st.composite
def binary_problems(draw):
    """Binary-label matrices of every column class the presort tells
    apart — constant, two-valued (arbitrary values), few-valued, tied,
    duplicated and continuous — with unit, reweighing-like (a few
    distinct fractions) or random weights that include zeros.

    A "widened" column is a two-valued one whose high value is split in
    two: its first boundary cuts the same rows as the two-valued column,
    so the two tie exactly only if both add the low group's weights in
    the same (sequential) order. Labels may follow a two-valued column,
    a widened one's first, so that tie is often the best split.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 160))
    kinds = draw(st.lists(
        st.sampled_from(
            ["constant", "two", "widened", "few", "ties", "duplicate", "continuous"]
        ),
        min_size=1, max_size=7,
    ))
    columns, pairs = [], []
    for kind in kinds:
        if kind == "constant":
            columns.append(np.full(n, -1.25))
        elif kind in ("two", "widened"):
            lo, hi = draw(st.sampled_from([(0.0, 1.0), (-2.5, 7.0), (-0.5, 3.0)]))
            low = rng.random(n) < draw(st.floats(0.05, 0.95))
            pair = np.where(low, lo, hi)
            if kind == "widened":
                high = np.where(rng.random(n) < 0.5, hi, hi + 1.0)
                columns.append(np.where(low, lo, high))
            columns.insert(draw(st.integers(0, len(columns))), pair)
            pairs.insert(0 if kind == "widened" else len(pairs), low)
        elif kind == "few":
            columns.append(rng.choice([-1.0, 0.5, 2.0], n))
        elif kind == "ties":
            columns.append(rng.integers(0, draw(st.integers(3, 8)), n).astype(float))
        elif kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        else:
            columns.append(np.round(rng.normal(size=n), 2))
    X = np.column_stack(columns)
    y = rng.integers(0, 2, n)
    if pairs and draw(st.booleans()):
        y = np.where(rng.random(n) < 0.8, pairs[0], y).astype(int)
    y[:2] = [0, 1]
    scheme = draw(st.sampled_from(["unit", "reweighing", "random"]))
    weights = None
    if scheme == "reweighing":
        # expected over observed (group, label) frequency, as Reweighing sets
        group = rng.integers(0, 2, n)
        weights = np.empty(n)
        for g in (0, 1):
            for label in (0, 1):
                cell = (group == g) & (y == label)
                if cell.any():
                    expected = np.mean(group == g) * np.mean(y == label)
                    weights[cell] = expected / np.mean(cell)
    elif scheme == "random":
        weights = rng.random(n) * 3.0
        weights[rng.random(n) < 0.25] = 0.0
        weights[0] = 1.0  # a positive total
    params = dict(
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        max_depth=draw(st.sampled_from([None, 1, 2, 5])),
        min_samples_leaf=draw(st.integers(1, n // 2)),
    )
    return X, y, weights, params


class TestBinaryKernel:
    """The level-wise binary search reproduces the seed's per-node search
    node for node, weighted sums included."""

    @settings(max_examples=200, deadline=None)
    @given(binary_problems())
    def test_node_arrays_match_seed_on_random_binary_data(self, problem):
        X, y, weights, params = problem
        ours = DecisionTreeClassifier(**params).fit(X, y, sample_weight=weights)
        reference = ReferenceDecisionTree(**params).fit(X, y, sample_weight=weights)
        seed = reference_arrays(reference)
        for key in TREE_DTYPES:
            assert ours.tree_[key].tobytes() == seed[key].tobytes(), key


class TestPreparedMatrix:
    def test_prepared_presort_does_not_change_the_tree(self):
        X, y, _ = featurized("germancredit", 500)
        prepared = DecisionTreeClassifier(criterion="entropy", max_depth=10).fit(
            Presort(X), y
        )
        plain = DecisionTreeClassifier(criterion="entropy", max_depth=10).fit(X, y)
        assert_same_tree(prepared, plain)

    def test_one_presort_serves_many_candidates(self):
        X, y, _ = featurized("germancredit", 500)
        shared = Presort(X)
        for params in (dict(max_depth=3), dict(max_depth=8), dict(criterion="entropy")):
            prepared = DecisionTreeClassifier(**params).fit(shared, y)
            plain = DecisionTreeClassifier(**params).fit(X, y)
            assert_same_tree(prepared, plain)

    def test_presort_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            Presort(np.zeros(5))


class TestFitCandidates:
    def test_family_fit_equals_individual_fits(self):
        X, y, _ = featurized("germancredit", 500)
        candidates = list(ParameterGrid(TUNING_GRID))
        family = DecisionTreeClassifier().fit_candidates(candidates, X, y)
        for params, model in zip(candidates, family):
            assert model.get_params()["max_depth"] == params["max_depth"]
            assert_same_tree(model, DecisionTreeClassifier(**params).fit(X, y))
            individual = DecisionTreeClassifier(**params).fit(X, y)
            assert model.depth_ == individual.depth_
            assert model.n_leaves_ == individual.n_leaves_

    def test_family_fit_with_unbounded_depth(self):
        X, y, _ = featurized("ricci", None)
        candidates = [
            {"max_depth": 2, "min_samples_leaf": 1},
            {"max_depth": None, "min_samples_leaf": 1},
            {"max_depth": 4, "min_samples_leaf": 1},
        ]
        family = DecisionTreeClassifier().fit_candidates(candidates, X, y)
        for params, model in zip(candidates, family):
            assert_same_tree(model, DecisionTreeClassifier(**params).fit(X, y))

    # the paper's full tree grid: one induction per (criterion,
    # min_samples_leaf) family, every other member a truncation
    @pytest.mark.parametrize("backend", ["exact", "histogram"])
    @pytest.mark.parametrize("dataset,n_rows", DATASETS)
    def test_full_grid_family_fit_equals_individual_fits(self, dataset, n_rows, backend):
        X, y, weights = featurized(dataset, n_rows)
        # a min_samples_split above the root's sample count: a single leaf
        splits = DECISION_TREE_GRID["min_samples_split"] + [len(y) + 1]
        candidates = list(ParameterGrid(dict(DECISION_TREE_GRID, min_samples_split=splits)))
        family = DecisionTreeClassifier().fit_candidates(
            candidates, X, y, sample_weight=weights, presort=backend
        )
        for params, model in zip(candidates, family):
            individual = DecisionTreeClassifier(**params).fit(
                X, y, sample_weight=weights, presort=backend
            )
            assert model.get_params() == individual.get_params()
            assert_same_tree(model, individual)
            assert model.depth_ == individual.depth_
            assert model.n_leaves_ == individual.n_leaves_
            if params["min_samples_split"] > len(y):
                assert model.n_leaves_ == 1

    def test_one_induction_per_criterion_and_leaf(self, monkeypatch):
        X, y, _ = featurized("ricci", None)
        inductions = []
        grow = DecisionTreeClassifier._grow

        def counting(self, *args):
            inductions.append((self.max_depth, self.min_samples_split))
            return grow(self, *args)

        monkeypatch.setattr(DecisionTreeClassifier, "_grow", counting)
        DecisionTreeClassifier().fit_candidates(
            list(ParameterGrid(DECISION_TREE_GRID)), X, y
        )
        assert inductions == [(10, 2)] * 8


class TestGridSearchIdentity:
    """The fold-major, presort-sharing, family-fitting search must score
    exactly like the seed's candidate-major loop."""

    def seed_results(self, make_model, grid, X, y, cv, random_state, sample_weight=None):
        candidates = list(ParameterGrid(grid))
        folds = list(KFold(cv, shuffle=True, random_state=random_state).split(len(y)))
        results = []
        for params in candidates:
            fold_scores = []
            for train_idx, valid_idx in folds:
                model = make_model().set_params(**params)
                kwargs = {}
                if sample_weight is not None:
                    kwargs["sample_weight"] = np.asarray(sample_weight)[train_idx]
                model.fit(X[train_idx], y[train_idx], **kwargs)
                fold_scores.append(
                    accuracy_score(y[valid_idx], model.predict(X[valid_idx]))
                )
            fold_scores = np.asarray(fold_scores, dtype=np.float64)
            results.append(
                {
                    "params": params,
                    "mean_score": float(np.nanmean(fold_scores)),
                    "std_score": float(np.nanstd(fold_scores)),
                    "fold_scores": fold_scores.tolist(),
                }
            )
        return results

    def test_cv_results_byte_identical_to_seed_loop(self):
        X, y, _ = featurized("germancredit", 500)
        grid = {"criterion": ["gini", "entropy"], "max_depth": [3, 5, 10]}
        search = GridSearchCV(DecisionTreeClassifier(), grid, cv=4, random_state=11)
        search.fit(X, y)
        assert search.cv_results_ == self.seed_results(
            ReferenceDecisionTree, grid, X, y, 4, 11
        )

    def test_weighted_cv_results_byte_identical(self):
        X, y, weights = featurized("adult", 500)
        grid = {"criterion": ["gini", "entropy"], "max_depth": [3, 10]}
        search = GridSearchCV(DecisionTreeClassifier(), grid, cv=3, random_state=2)
        search.fit(X, y, sample_weight=weights)
        assert search.cv_results_ == self.seed_results(
            ReferenceDecisionTree, grid, X, y, 3, 2, sample_weight=weights
        )

    def test_n_jobs_matches_serial(self):
        X, y, _ = featurized("germancredit", 400)
        grid = {"criterion": ["gini", "entropy"], "max_depth": [3, 8]}
        serial = GridSearchCV(DecisionTreeClassifier(), grid, cv=3, random_state=0)
        fanned = GridSearchCV(
            DecisionTreeClassifier(), grid, cv=3, random_state=0, n_jobs=3
        )
        assert serial.fit(X, y).cv_results_ == fanned.fit(X, y).cv_results_
        assert serial.best_params_ == fanned.best_params_

    def test_n_jobs_exceeding_folds_splits_candidates(self):
        X, y, _ = featurized("ricci", None)
        grid = {"max_depth": [2, 3, 4, 5]}
        serial = GridSearchCV(DecisionTreeClassifier(), grid, cv=2, random_state=0)
        fanned = GridSearchCV(
            DecisionTreeClassifier(), grid, cv=2, random_state=0, n_jobs=4
        )
        assert serial.fit(X, y).cv_results_ == fanned.fit(X, y).cv_results_

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sgd_cv_results_byte_identical_to_seed_loop(self, weighted):
        X, y, _ = featurized("germancredit", 500)
        weights = np.random.default_rng(3).random(len(y)) + 0.5 if weighted else None
        spec = dict(loss="log", max_iter=20, batch_size=32, random_state=7)
        search = GridSearchCV(
            SGDClassifier(**spec), LOGISTIC_REGRESSION_GRID, cv=5, random_state=7
        )
        search.fit(X, y, sample_weight=weights)
        assert search.cv_results_ == self.seed_results(
            lambda: ReferenceSGDClassifier(**spec),
            LOGISTIC_REGRESSION_GRID, X, y, 5, 7, sample_weight=weights,
        )


class TestDeepTrees:
    def test_chain_tree_deeper_than_recursion_limit(self):
        # alternating labels over a sorted unique feature peel one leaf
        # per level: a comb far deeper than the interpreter stack allows
        n = 3 * sys.getrecursionlimit()
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = np.arange(n) % 2
        model = DecisionTreeClassifier(max_depth=None).fit(X, y)
        assert model.depth_ == n - 1
        assert model.n_leaves_ == n
        assert model.score(X, y) == 1.0

    def test_clone_roundtrip_keeps_hyperparameters(self):
        model = DecisionTreeClassifier(criterion="entropy", max_depth=7)
        assert clone(model).get_params() == model.get_params()
