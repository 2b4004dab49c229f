"""``LearnedImputer.handle_missing`` against its frozen reference.

The live handler starts from the fallback's fill of every feature column,
encodes only the rows some modelled target is missing in, and overwrites
those targets' missing rows with predictions. The frozen copy in
``reference_imputer.py`` fills in a different order and encodes every
row; since encoding is row-wise, both must produce the same frame, with
the same column order, kinds, category tables and bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LearnedImputer
from repro.core.missing_values import _PredictorEncoder
from repro.frame import CATEGORICAL, NUMERIC, DataFrame

from .reference_imputer import reference_handle_missing

KINDS = {
    "num_a": NUMERIC,
    "num_b": NUMERIC,
    "rare": NUMERIC,
    "cat_a": CATEGORICAL,
    "cat_b": CATEGORICAL,
    "mono": CATEGORICAL,
    "label": CATEGORICAL,
}
FEATURES = [name for name in KINDS if name != "label"]


def make_frame(rng, n, p_missing, blank_rows=0, train=True):
    """A frame over :data:`KINDS` with random missingness in the features.

    In a training frame ``rare`` keeps fewer than five observed values and
    ``mono`` a single category, so either becomes a ``"fallback"`` target
    whenever it is one; the first ``blank_rows`` rows miss every feature.
    """
    values = {
        "num_a": rng.normal(size=n).round(3),
        "num_b": rng.integers(0, 5, n).astype(float),
        "rare": rng.normal(size=n),
        "cat_a": rng.choice(["x", "y", "z"], n),
        "cat_b": rng.choice(["p", "q", "r", "s"], n),
        "mono": rng.choice(["m"] if train else ["m", "n"], n),
        "label": rng.choice(["0", "1"], n),
    }
    missing = rng.random((n, len(FEATURES))) < p_missing
    missing[:blank_rows] = True
    if train:
        rare = FEATURES.index("rare")
        missing[:, rare] = True
        missing[rng.choice(n, size=int(rng.integers(0, 5)), replace=False), rare] = False
    data = {}
    for name, column in values.items():
        gone = missing[:, FEATURES.index(name)] if name in FEATURES else np.zeros(n, bool)
        data[name] = [None if g else v.item() for v, g in zip(column, gone)]
    return DataFrame.from_dict(data, kinds=KINDS)


def assert_same_frame(actual, expected):
    assert actual.columns == expected.columns
    assert actual.kinds() == expected.kinds()
    assert actual.equals(expected)
    for name in actual.columns:
        a, b = actual.col(name), expected.col(name)
        if a.is_categorical:
            np.testing.assert_array_equal(a.categories, b.categories)
            np.testing.assert_array_equal(a.codes, b.codes)
        else:
            assert a.values.tobytes() == b.values.tobytes()


def fitted(seed, p_train=0.2, target_columns=None, n_neighbors=3, n=40):
    train = make_frame(np.random.default_rng(seed), n, p_train)
    imputer = LearnedImputer(target_columns=target_columns, n_neighbors=n_neighbors)
    return imputer.fit(train, FEATURES, seed=seed), train


def modelled_missing(imputer, frame):
    """Rows in which some target with a model (not a fallback) is missing."""
    modelled = [t for t in imputer._targets if imputer._models[t]["kind"] != "fallback"]
    return frame.missing_mask(modelled)


class TestHandleMissingGolden:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p_train=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        p_eval=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
        n_eval=st.integers(min_value=1, max_value=30),
        blank_rows=st.integers(min_value=0, max_value=3),
        targets=st.one_of(st.none(), st.lists(st.sampled_from(FEATURES), unique=True)),
        n_neighbors=st.sampled_from([1, 3, 15]),
    )
    def test_matches_reference(
        self, seed, p_train, p_eval, n_eval, blank_rows, targets, n_neighbors
    ):
        imputer, train = fitted(seed, p_train, targets, n_neighbors)
        frame = make_frame(
            np.random.default_rng(seed + 1), n_eval, p_eval, min(blank_rows, n_eval), False
        )
        for split in (train, frame):
            assert_same_frame(
                imputer.handle_missing(split), reference_handle_missing(imputer, split)
            )

    def test_fallback_targets_and_non_target_columns(self):
        # targets of every kind, and cat_b, never missing in training, is
        # no target but misses values in the frame scored
        imputer, _ = fitted(7, target_columns=["num_a", "cat_a", "rare", "mono"])
        kinds = {t: imputer._models[t]["kind"] for t in imputer._targets}
        assert kinds == {
            "num_a": "knn", "cat_a": "classifier", "rare": "fallback", "mono": "fallback"
        }
        frame = make_frame(np.random.default_rng(8), 25, 0.4, blank_rows=2, train=False)
        assert frame.col("cat_b").has_missing()
        out = imputer.handle_missing(frame)
        assert_same_frame(out, reference_handle_missing(imputer, frame))
        assert out.num_incomplete_rows() == 0

    def test_nothing_missing_is_returned_as_is(self, monkeypatch):
        imputer, _ = fitted(3)
        frame = make_frame(np.random.default_rng(4), 12, 0.0, train=False)
        monkeypatch.setattr(_PredictorEncoder, "transform", None)  # never encodes
        out = imputer.handle_missing(frame)
        assert_same_frame(out, frame)


def test_encoder_sees_only_the_predicted_rows(monkeypatch):
    imputer, _ = fitted(11, p_train=0.3)
    frame = make_frame(np.random.default_rng(12), 30, 0.15, train=False)
    predicted = modelled_missing(imputer, frame)
    # some rows need a prediction, some are complete or miss only
    # columns the fallback fills
    assert 0 < predicted.sum() < frame.num_incomplete_rows() < frame.num_rows
    seen = []
    transform = _PredictorEncoder.transform

    def recording(self, rows):
        seen.append(rows.num_rows)
        return transform(self, rows)

    monkeypatch.setattr(_PredictorEncoder, "transform", recording)
    out = imputer.handle_missing(frame)
    assert seen == [int(predicted.sum())]
    monkeypatch.setattr(_PredictorEncoder, "transform", transform)
    assert_same_frame(out, reference_handle_missing(imputer, frame))

