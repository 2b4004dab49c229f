"""Identity suite: the SGD epoch engine over data slices.

``SGDClassifier.fit_slices`` trains every (slice × candidate × class) row
of a grid search's folds, or of a config group's pre-processors, in one
epoch loop. Each slice keeps its own data, permutation and batch schedule,
so every model must be byte-identical to its own ``fit`` on its slice,
and to the seed's frozen per-class fit (``reference_impl``):
ragged slices whose batch counts differ, zero-weight whole batches,
fractional weights, 2- and 4-class targets, every penalty, a ``tol`` that
stops rows at different epochs, and unscaled features that diverge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.learn import SGDClassifier

from .reference_impl import reference_sgd_fit

PENALTIES = ["l2", "l1", "elasticnet", "none"]

candidate_strategy = st.fixed_dictionaries(
    {
        "penalty": st.sampled_from(PENALTIES),
        "alpha": st.sampled_from([0.0, 0.00005, 0.0001, 0.001, 0.005, 0.05]),
        "l1_ratio": st.sampled_from([0.15, 0.5]),
        "tol": st.sampled_from([0.0, 1e-4, 1e-2, 0.1]),
    }
)


@st.composite
def slice_problems(draw, rows=None, features=None, min_slices=1, max_slices=4):
    """Slices of one engine call, their candidates and shared parameters."""
    batch = draw(st.sampled_from([8, 16, 32]))
    n_features = features or draw(st.integers(min_value=1, max_value=12))
    n_classes = draw(st.sampled_from([2, 4]))
    weighting = draw(st.sampled_from(["none", "fractional", "zero-batches"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    sizes = draw(
        st.lists(
            st.sampled_from([63, 64, 65]) | st.integers(min_value=8, max_value=100)
            if rows is None
            else st.just(rows),
            min_size=min_slices,
            max_size=max_slices,
        )
    )
    scale = draw(st.sampled_from([1.0, 1.0, 1e152]))
    slices = []
    for n in sizes:
        X = rng.normal(size=(n, n_features))
        y = (X @ rng.normal(size=n_features) + rng.normal(size=n) > 0).astype(int)
        if n_classes == 4:
            y = y * 2 + rng.integers(0, 2, n)
        y[:2] = [0, 1]  # at least two classes per slice
        if weighting == "none":
            weight = None
        elif weighting == "fractional":
            weight = rng.uniform(0.1, 3.0, n)
        else:
            # whole batches of weight zero (the rows are not shuffled)
            weight = np.ones(n)
            weight[: (n // batch // 2) * batch] = 0.0
        slices.append((X * scale, y, weight))
    candidates = draw(st.lists(candidate_strategy, min_size=1, max_size=4))
    base = dict(
        loss=draw(st.sampled_from(["log", "hinge"])),
        max_iter=draw(st.integers(min_value=1, max_value=6)),
        batch_size=batch,
        shuffle=weighting != "zero-batches",
        random_state=draw(st.integers(min_value=0, max_value=1000)),
    )
    return slices, candidates, base


def diverged_rows(run):
    counter = telemetry.counter("learn.sgd.diverged")
    before = counter.value
    result = run()
    return result, counter.value - before


def assert_each_equals_its_own_fit(slices, candidates, base):
    with np.errstate(over="ignore", invalid="ignore"):
        stacked, frozen = diverged_rows(
            lambda: SGDClassifier(**base).fit_slices(candidates, slices)
        )
        assert len(stacked) == len(slices)
        solo_frozen = 0
        for (X, y, weight), models in zip(slices, stacked):
            assert len(models) == len(candidates)
            for params, model in zip(candidates, models):
                solo, count = diverged_rows(
                    lambda: SGDClassifier(**base).set_params(**params).fit(X, y, weight)
                )
                solo_frozen += count
                assert model.get_params() == solo.get_params()
                assert np.array_equal(model.classes_, solo.classes_)
                assert model.coef_.tobytes() == solo.coef_.tobytes(), params
                assert model.intercept_.tobytes() == solo.intercept_.tobytes(), params
                # and both equal the seed's frozen per-class fit
                coef, intercept = reference_sgd_fit(solo, X, y, weight)
                assert model.coef_.tobytes() == coef.tobytes(), params
                assert model.intercept_.tobytes() == intercept.tobytes(), params
    assert frozen == solo_frozen


@settings(max_examples=60, deadline=None)
@given(problem=slice_problems())
def test_every_slice_model_equals_its_own_fit(problem):
    assert_each_equals_its_own_fit(*problem)


@pytest.mark.parametrize("sizes", [(63, 64, 65), (65, 63), (64, 2, 33)])
@pytest.mark.parametrize("weighting", ["unit", "fractional"])
def test_ragged_slices(sizes, weighting):
    # batch counts differ (2, 2, 3 at batch 32): the 65-row slice steps
    # alone at its one-row third batch, the others skip it
    rng = np.random.default_rng(sum(sizes))
    slices = []
    for n in sizes:
        X = rng.normal(size=(n, 5))
        y = np.arange(n) % 2
        weight = None if weighting == "unit" else rng.uniform(0.2, 2.0, n)
        slices.append((X, y, weight))
    candidates = [
        {"penalty": penalty, "alpha": 0.001, "tol": tol}
        for penalty in PENALTIES
        for tol in (0.0, 0.1)
    ]
    base = dict(loss="log", max_iter=8, batch_size=32, random_state=3)
    assert_each_equals_its_own_fit(slices, candidates, base)


def test_zero_weight_batch_still_scales_and_advances():
    # slice 0's first batch weighs nothing: it is scaled, shrunk and its
    # clock moves on, while slice 1 takes a gradient step in the same step
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 4))
    y = np.arange(64) % 2
    zero_first = np.ones(64)
    zero_first[:32] = 0.0
    slices = [(X, y, zero_first), (X, y, np.linspace(0.5, 1.5, 64))]
    candidates = [{"penalty": "elasticnet", "alpha": 0.005, "l1_ratio": 0.5}]
    base = dict(loss="log", max_iter=4, batch_size=32, shuffle=False, random_state=0)
    assert_each_equals_its_own_fit(slices, candidates, base)


def test_slices_of_different_widths_form_separate_stacks():
    rng = np.random.default_rng(1)
    slices = [
        (rng.normal(size=(40, 3)), np.arange(40) % 2, None),
        (rng.normal(size=(40, 6)), np.arange(40) % 2, None),
    ]
    assert_each_equals_its_own_fit(
        slices, [{"alpha": 0.001}], dict(max_iter=3, random_state=0)
    )


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(problem=slice_problems(rows=4200, features=80, min_slices=3, max_slices=3))
def test_fig45_shape_equals_its_own_fit(problem):
    # a Figures 4/5 config group: three pre-processors' 4200 x 80 training sets
    slices, candidates, base = problem
    assert_each_equals_its_own_fit(slices, candidates[:1], dict(base, max_iter=5))


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(problem=slice_problems())
def test_every_slice_model_equals_its_own_fit_many_examples(problem):
    assert_each_equals_its_own_fit(*problem)
