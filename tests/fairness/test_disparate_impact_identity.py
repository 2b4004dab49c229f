"""Golden: ``DisparateImpactRemover``'s group-block kernels reproduce the
frozen per-(feature, group) remover in ``reference_impl`` bit for bit (NaN
matching NaN): the fitted curves, the ``to_state()`` JSON, and the
transformed features of the training data and of a second dataset, also
after a state round-trip.

A NaN's sign is not compared. When both operands of a NumPy add are NaN,
which one comes out depends on the element's place in the vector loop
(with eight-wide vectors, ``a + b`` over nine NaN pairs takes ``b``'s NaN
for the ninth and ``a``'s for the others), so even the per-column remover
gives an infinite value's repair (``0 * inf + NaN``) a sign that depends
on its group's size.

Inputs mix one-hot, constant, few-valued and continuous columns with ties,
NaN, +-inf, +-1e308 and +-0.0, one-row groups, a group unseen at fit,
subsets (and repeats) of ``features_to_repair``, and repair levels 0, 0.5
and 1. A small block size makes ``transform`` split every group into
several blocks.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from repro.fairness import BinaryLabelDataset, DisparateImpactRemover
from repro.fairness.preprocessing import disparate_impact_remover as kernels

from .reference_impl import ReferenceDisparateImpactRemover

KINDS = ("onehot", "zeros", "extreme", "constant", "few", "continuous", "special")
SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def columns(draw, n):
    kind = draw(st.sampled_from(KINDS))
    if kind == "onehot":
        pool = [0.0, 1.0]
    elif kind == "zeros":
        pool = [-0.0, 0.0, 1.0, -1.0]
    elif kind == "extreme":
        pool = [-np.inf, -1e308, -1.0, 1e308, np.inf]
    elif kind == "constant":
        pool = [draw(st.one_of(FINITE, st.sampled_from(SPECIALS)))]
    elif kind == "few":
        values = st.one_of(MODERATE, st.sampled_from(SPECIALS[3:]))
        pool = draw(st.lists(values, min_size=2, max_size=4))
    elif kind == "continuous":
        return draw(st.lists(st.one_of(MODERATE, FINITE), min_size=n, max_size=n))
    else:
        values = st.one_of(MODERATE, st.sampled_from(SPECIALS))
        pool = draw(st.lists(values, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


def dataset(features, groups) -> BinaryLabelDataset:
    features = np.asarray(features, dtype=np.float64)
    return BinaryLabelDataset(
        features=features,
        labels=np.zeros(len(features)),
        protected_attributes=np.asarray(groups, dtype=np.float64),
        protected_attribute_names=["group"],
        feature_names=[f"x{j}" for j in range(features.shape[1])],
    )


@st.composite
def datasets(draw, n_features, groups, min_rows=1):
    n = draw(st.integers(min_rows, 30))
    features = np.column_stack([draw(columns(n)) for _ in range(n_features)])
    sensitive = draw(st.lists(st.sampled_from(groups), min_size=n, max_size=n))
    return dataset(features.reshape(n, n_features), sensitive)


# three groups over -inf, -1e308 and -1 give a median curve with infinite
# steps: at an input on a grid point only np.interp's ``x == xp[j]`` branch
# keeps the point's own value, its slope branch reads NaN or -inf
STEEP = (
    dataset(
        [[-np.inf]] * 5 + [[-1e308]] * 7 + [[-1.0]] * 2,
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 1, 2],
    ),
    dataset([[0.0]], [0]),
    None,
    0.5,
    kernels._BLOCK_ELEMENTS,
)


@st.composite
def cases(draw):
    n_features = draw(st.integers(1, 5))
    train = draw(datasets(n_features, [0.0, 1.0, 2.0], min_rows=2))
    # at least two groups to repair
    train.protected_attributes[:2, 0] = [0.0, 1.0]
    # 7.0 is a group never seen at fit
    other = draw(datasets(n_features, [0.0, 1.0, 2.0, 7.0]))
    names = train.feature_names
    subsets = st.lists(st.sampled_from(names), min_size=1, max_size=6)
    repair = draw(st.one_of(st.none(), subsets))
    level = draw(st.sampled_from([0.0, 0.5, 1.0]))
    block = draw(st.sampled_from([kernels._BLOCK_ELEMENTS, 1, 7]))
    return train, other, repair, level, block


def bits(array: np.ndarray) -> bytes:
    """The raw bytes of ``array`` with every NaN made the same NaN."""
    return np.where(np.isnan(array), np.nan, array).tobytes()


def state_json(state) -> str:
    """``to_state()`` as JSON, arrays as their dtype and raw bytes."""
    return json.dumps(
        state, sort_keys=True, default=lambda a: [a.dtype.str, bits(a).hex()]
    )


def assert_same_fit(fitted, reference):
    assert fitted.group_values_ == reference.group_values_
    assert list(fitted.group_quantiles_) == list(reference.group_quantiles_)
    for name, per_group in reference.group_quantiles_.items():
        assert list(fitted.group_quantiles_[name]) == list(per_group)
        for value, curve in per_group.items():
            got = fitted.group_quantiles_[name][value]
            assert bits(got) == bits(curve), (name, value)
            # each curve is its own array, not a view into a stacked block
            assert got.base is None and got.flags.c_contiguous
        median = fitted.median_quantiles_[name]
        assert bits(median) == bits(reference.median_quantiles_[name])
        assert median.base is None and median.flags.c_contiguous
    assert state_json(fitted.to_state()) == state_json(reference.to_state())


@settings(max_examples=300, deadline=None)
@given(cases())
@example(STEEP)
def test_matches_the_per_column_reference_bit_for_bit(case):
    train, other, repair, level, block = case
    for data in (train, other):
        groups = data.protected_column("group").tolist()
        note(f"features={data.features.tolist()} groups={groups}")
    params = dict(repair_level=level, features_to_repair=repair)
    small_blocks = mock.patch.object(kernels, "_BLOCK_ELEMENTS", block)
    with np.errstate(all="ignore"), small_blocks:
        fitted = DisparateImpactRemover(**params).fit(train)
        reference = ReferenceDisparateImpactRemover(**params).fit(train)
        assert_same_fit(fitted, reference)
        restored = DisparateImpactRemover.from_state(fitted.to_state())
        for data in (train, other):
            expected = bits(reference.transform(data).features)
            assert bits(fitted.transform(data).features) == expected
            assert bits(restored.transform(data).features) == expected


def test_interp_matches_numpy_on_sorted_curves():
    """The vectorized ``np.interp`` copy, row by row, on sorted curves with
    ties, infinite ends and huge steps, at inputs on, between and beyond
    the points, and NaN."""
    rng = np.random.default_rng(0)
    points = 101
    for trial in range(200):
        xp = np.sort(rng.choice([-1e308, -2.0, -0.0, 0.0, 0.5, 3.0, 1e308], points))
        if trial % 3 == 0:
            xp = np.sort(rng.normal(size=points))
        if trial % 5 == 0:
            xp[0], xp[-1] = -np.inf, np.inf
        fp = rng.choice([-np.inf, -0.0, 0.0, 0.25, 1.0, np.inf, 1e308], points)
        if trial % 2 == 0:
            fp = np.linspace(0.0, 1.0, points)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        x = np.concatenate([rng.choice(xp, 6), rng.normal(size=3), specials])
        with np.errstate(all="ignore"):
            expected = np.interp(x, xp, fp, left=0.0, right=1.0)
            got = kernels._interp(x[None, :], xp[None, :], fp[None, :], 0.0, 1.0)[0]
            assert bits(got) == bits(expected), trial
            expected = np.interp(x, xp, fp)
            got = kernels._interp(x[None, :], xp, fp)[0]
            assert bits(got) == bits(expected), trial
