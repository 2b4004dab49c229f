"""Golden tests: the stacked SGD epoch engine.

``SGDClassifier.fit_candidates`` trains every compatible grid candidate
(and every one-vs-rest class) as one row of a single epoch loop. Each
candidate's coefficients must stay byte-identical to the seed's own
per-candidate binary fit, kept frozen in ``reference_impl``.
"""

import json
import os

import numpy as np
import pytest

from repro import telemetry
from repro.core.featurization import Featurizer
from repro.core.learners import LOGISTIC_REGRESSION_GRID
from repro.core.missing_values import ModeImputer
from repro.datasets import load_dataset
from repro.fairness.preprocessing.reweighing import Reweighing
from repro.learn import SGDClassifier, StandardScaler
from repro.learn import linear
from repro.learn.model_selection import ParameterGrid

from .reference_impl import _sigmoid as reference_sigmoid
from .reference_impl import reference_sgd_fit
from .test_splitter_golden import featurized

# the paper's LR grid plus every penalty branch the engine masks per row
GRID = dict(
    LOGISTIC_REGRESSION_GRID,
    penalty=["l2", "l1", "elasticnet", "none"],
    alpha=LOGISTIC_REGRESSION_GRID["alpha"] + [0.0],
)
EXTRA = [
    {"penalty": "elasticnet", "alpha": 0.0001, "l1_ratio": 0.5},
    {"penalty": "l2", "alpha": 0.0001, "tol": 0.1},
    {"penalty": "l1", "alpha": 0.005, "tol": 0.0},
]
CANDIDATES = list(ParameterGrid(GRID)) + EXTRA
BASE = dict(loss="log", max_iter=20, batch_size=32, random_state=31)


def germancredit(n=600, standardized=False):
    X, y, _ = featurized("germancredit", n)
    return (StandardScaler().fit_transform(X) if standardized else X), y


def reweighed_weights(n=600):
    frame, spec = load_dataset("germancredit", n=n, seed=0)
    columns = list(spec.numeric_features) + list(spec.categorical_features)
    frame = ModeImputer().fit(frame, columns, 0).handle_missing(frame)
    data = Featurizer(spec).fit(frame).transform(frame)
    reweighed = Reweighing(spec.unprivileged_groups(), spec.privileged_groups())
    return reweighed.fit_transform(data).instance_weights


def assert_matches_reference(models, candidates, X, y, sample_weight=None, base=BASE):
    assert len(models) == len(candidates)
    for params, model in zip(candidates, models):
        reference = SGDClassifier(**base).set_params(**params)
        coef, intercept = reference_sgd_fit(reference, X, y, sample_weight)
        assert model.get_params() == reference.get_params()
        assert np.array_equal(model.coef_, coef), params
        assert np.array_equal(model.intercept_, intercept), params


def diverged_rows(run):
    counter = telemetry.counter("learn.sgd.diverged")
    before = counter.value
    result = run()
    return result, counter.value - before


# raw features stop every row after two epochs (the loss rises); on
# standardized ones the rows run for different numbers of epochs
SCALINGS = pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardized"])


class TestStackedCandidatesMatchReference:
    @SCALINGS
    def test_featurized_germancredit(self, standardized):
        X, y = germancredit(standardized=standardized)
        models = SGDClassifier(**BASE).fit_candidates(CANDIDATES, X, y)
        assert_matches_reference(models, CANDIDATES, X, y)

    @SCALINGS
    def test_reweighed_germancredit(self, standardized):
        X, y = germancredit(standardized=standardized)
        weights = reweighed_weights()
        assert len(np.unique(weights)) > 1
        models = SGDClassifier(**BASE).fit_candidates(
            CANDIDATES, X, y, sample_weight=weights
        )
        assert_matches_reference(models, CANDIDATES, X, y, weights)

    @pytest.mark.parametrize("loss", ["log", "hinge"])
    def test_rows_diverge_independently(self, loss):
        # margins overflow at this scale: the small-alpha rows blow up
        # and freeze at ±1e12 while the others keep training
        X, y = germancredit()
        X = X * 1e152
        base = dict(BASE, loss=loss)
        with np.errstate(over="ignore", invalid="ignore"):
            models, frozen = diverged_rows(
                lambda: SGDClassifier(**base).fit_candidates(CANDIDATES, X, y)
            )
            assert_matches_reference(models, CANDIDATES, X, y, base=base)
        if loss == "log":
            assert 0 < frozen < len(CANDIDATES)

    @SCALINGS
    def test_four_class_target(self, standardized):
        X, y = germancredit(standardized=standardized)
        classes = np.random.default_rng(4).integers(0, 4, len(y))
        models = SGDClassifier(**BASE).fit_candidates(CANDIDATES, X, classes)
        assert models[0].coef_.shape == (4, X.shape[1])
        assert_matches_reference(models, CANDIDATES, X, classes)

    def test_weights_zero_over_whole_batches(self):
        X, y = germancredit()
        weights = np.ones(len(y))
        weights[: len(y) // 2] = 0.0
        spec = dict(BASE, shuffle=False)
        models = SGDClassifier(**spec).fit_candidates(
            CANDIDATES, X, y, sample_weight=weights
        )
        assert_matches_reference(models, CANDIDATES, X, y, weights, base=spec)

    def test_schedule_built_in_blocks(self, monkeypatch):
        # a 600-row epoch is 19 batches: blocks of 4 cross every boundary
        monkeypatch.setattr(linear, "_SCHEDULE_BLOCK", 4)
        X, y = germancredit(standardized=True)
        models = SGDClassifier(**BASE).fit_candidates(CANDIDATES, X, y)
        assert_matches_reference(models, CANDIDATES, X, y)

    def test_single_fit_is_the_one_row_stack(self):
        X, y = germancredit()
        for params in CANDIDATES[:: len(CANDIDATES) // 6]:
            model = SGDClassifier(**BASE).set_params(**params).fit(X, y)
            assert_matches_reference([model], [params], X, y)


def test_sigmoid_matches_the_seed_bit_for_bit():
    rng = np.random.default_rng(0)
    z = np.concatenate([
        rng.normal(scale=50.0, size=2000),
        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
         1e308, -1e308, np.inf, -np.inf],
    ])
    assert linear._sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
    assert linear._sigmoid(z.reshape(2, -1)).tobytes() == reference_sigmoid(z).tobytes()
    # NaN stays NaN (its sign bit may differ; the divergence freeze maps
    # every NaN to 0 either way)
    assert np.isnan(linear._sigmoid(np.array([np.nan]))).all()


class TestStacking:
    def record_stacks(self, monkeypatch):
        stacks = []
        engine = linear._train

        def recording(models, *data):
            stacks.append([model.get_params() for model in models])
            return engine(models, *data)

        monkeypatch.setattr(linear, "_train", recording)
        return stacks

    def test_grid_is_one_stack(self, monkeypatch):
        stacks = self.record_stacks(monkeypatch)
        X, y = germancredit(300)
        SGDClassifier(**BASE).fit_candidates(CANDIDATES, X, y)
        assert [len(stack) for stack in stacks] == [len(CANDIDATES)]

    @pytest.mark.parametrize(
        "split", [{"batch_size": [16, 32]}, {"loss": ["log", "hinge"]}]
    )
    def test_other_parameters_split_the_stack(self, monkeypatch, split):
        stacks = self.record_stacks(monkeypatch)
        X, y = germancredit(300)
        grid = dict(LOGISTIC_REGRESSION_GRID, **split)
        candidates = list(ParameterGrid(grid))
        models = SGDClassifier(**BASE).fit_candidates(candidates, X, y)
        (name, values), = split.items()
        assert len(stacks) == len(values)
        for stack, value in zip(stacks, values):
            assert {params[name] for params in stack} == {value}
        assert_matches_reference(models, candidates, X, y)


class TestObservability:
    @pytest.fixture(autouse=True)
    def clean_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        telemetry.reset_for_tests()
        yield
        telemetry.reset_for_tests()

    def test_divergence_counter(self):
        X, y = germancredit(300)
        with np.errstate(over="ignore", invalid="ignore"):
            _, frozen = diverged_rows(
                lambda: SGDClassifier(**BASE).fit_candidates(CANDIDATES, X * 1e152, y)
            )
        assert frozen > 0
        standardized = StandardScaler().fit_transform(X)
        _, frozen = diverged_rows(
            lambda: SGDClassifier(**BASE).fit_candidates(CANDIDATES, standardized, y)
        )
        assert frozen == 0

    def test_one_span_per_engine_call(self):
        telemetry.configure(aggregate=True)
        X, y = germancredit(300)
        before = telemetry.aggregate_state()
        SGDClassifier(**BASE).fit_candidates(
            list(ParameterGrid(dict(LOGISTIC_REGRESSION_GRID, batch_size=[16, 32]))),
            X,
            y,
        )
        delta = telemetry.aggregate_delta(before)
        assert delta["learn.sgd_fit"]["count"] == 2

    def test_span_attributes(self, tmp_path):
        telemetry.configure(trace_dir=str(tmp_path))
        X, y = germancredit(300)
        classes = np.arange(len(y)) % 3
        SGDClassifier(**BASE).fit_candidates(CANDIDATES[:5], X, classes)
        records = []
        for name in os.listdir(tmp_path):
            with open(os.path.join(tmp_path, name)) as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        (span,) = [r for r in records if r["name"] == "learn.sgd_fit"]
        assert span["attrs"] == {"rows": 15, "samples": len(y), "candidates": 5}
