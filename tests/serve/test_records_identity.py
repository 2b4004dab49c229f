"""The compiled records path against its oracle, the frame path.

For random JSON-typed records, ``score_batch``, ``score_records`` and
``score_record`` must give bit for bit what
``score_frame(records_to_frame(spec, records))`` gives: labels, scores, the
row mask or ``DROPPED_RECORD_ERROR``, the exception class, and the monitor
state afterwards. The pipelines cover every built-in handler, the one-hot,
frequency and target encoders, the three scalers, and a learned imputer
with categorical (tree), numeric (kNN) and fallback-kind targets.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import (
    CompleteCaseAnalysis,
    DatawigImputer,
    DecisionTree,
    Experiment,
    LearnedImputer,
    LogisticRegression,
    MissingValueHandler,
    ModeImputer,
    NaiveBayes,
    NoMissingValues,
)
from repro.datasets import load_dataset
from repro.learn import (
    FrequencyEncoder,
    MinMaxScaler,
    NoOpScaler,
    SVDEmbeddingEncoder,
    StandardScaler,
    TargetEncoder,
)
from repro.serve import FairnessMonitor, ScoringEngine, records_to_frame
from repro.serve.scoring import DROPPED_RECORD_ERROR, FRAME_PATH


def _sparse(frame):
    """Adult with a numeric kNN target (hours_per_week, a tenth missing)
    and a fallback-kind one (capital_loss, three observed values)."""
    rng = np.random.default_rng(0)
    hours = frame.col("hours_per_week").values.copy()
    hours[rng.random(frame.num_rows) < 0.1] = np.nan
    loss = np.full(frame.num_rows, np.nan)
    loss[:3] = frame.col("capital_loss").values[:3]
    return frame.with_values("hours_per_week", hours).with_values("capital_loss", loss)


PIPELINES = {
    "no-missing/onehot/standard": dict(
        training="complete", missing_value_handler=NoMissingValues()
    ),
    "complete-case/frequency/minmax": dict(
        missing_value_handler=CompleteCaseAnalysis(),
        categorical_encoder=FrequencyEncoder(),
        numeric_attribute_scaler=MinMaxScaler(),
        learner=NaiveBayes(),
    ),
    "mode/target/noop": dict(
        missing_value_handler=ModeImputer(),
        categorical_encoder=TargetEncoder(),
        numeric_attribute_scaler=NoOpScaler(),
    ),
    "learned/onehot/standard": dict(
        training="sparse",
        missing_value_handler=LearnedImputer(
            target_columns=["workclass", "occupation", "hours_per_week", "capital_loss"]
        ),
        learner=LogisticRegression(tuned=False),
    ),
    "datawig/onehot/standard": dict(missing_value_handler=DatawigImputer()),
}


@pytest.fixture(scope="module")
def adult():
    return load_dataset("adult", n=700)


@pytest.fixture(scope="module")
def pipelines(adult):
    built = {}
    frame, spec = adult
    training = {
        "plain": frame,
        "complete": frame.dropna(spec.feature_columns),
        "sparse": _sparse(frame),
    }
    for name, options in PIPELINES.items():
        options = dict(options)
        data = training[options.pop("training", "plain")]
        options.setdefault("learner", DecisionTree(tuned=False))
        options.setdefault("numeric_attribute_scaler", StandardScaler())
        experiment = Experiment(frame=data, spec=spec, random_seed=3, **options)
        prepared = experiment.prepare()
        trained = experiment.train_candidates(prepared)
        result = experiment.evaluate(prepared, trained)
        built[name] = experiment.fitted_pipeline(prepared, trained, result.best_index)
    return built


def test_learned_pipeline_has_every_target_kind(pipelines):
    models = pipelines["learned/onehot/standard"].handler._models
    kinds = {target: spec["kind"] for target, spec in models.items()}
    assert kinds == {
        "workclass": "classifier",
        "occupation": "classifier",
        "hours_per_week": "knn",
        "capital_loss": "fallback",
    }


def test_built_in_pipelines_compile(pipelines):
    for name, pipeline in pipelines.items():
        assert ScoringEngine(pipeline)._compiled is not None, name


# ----------------------------------------------------------------------
# random JSON-typed records
# ----------------------------------------------------------------------
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    _FLOATS,
    st.just("<missing>"),
    st.text(max_size=4),
)


def _numeric(observed):
    return st.one_of(
        st.sampled_from(observed),
        st.none(),
        _FLOATS,
        st.integers(-(10**6), 10**6),
        _FLOATS.map(repr),  # numeric strings, "nan" and "inf" among them
        st.sampled_from(["inf", "-inf", "NaN", " 7 ", "1_0"]),
    )


def _categorical(observed):
    known = st.sampled_from(observed)
    # a frame's category table drops trailing NULs: "Male\0" reads "Male"
    return st.one_of(known, known.map(lambda v: v + "\x00"), _ODD)


@st.composite
def _records(draw, frame, spec, bad=False, count=st.integers(1, 12)):
    # half the batches are complete and in-domain, so that pipelines which
    # refuse or drop incomplete records also score
    complete = draw(st.booleans())
    strategies = {}
    for name in spec.numeric_features:
        observed = [float(v) for v in frame.col(name).values[:50] if v == v]
        strategies[name] = st.sampled_from(observed) if complete else _numeric(observed)
    for name in spec.categorical_features:
        observed = sorted(set(frame.col(name).unique()))
        strategies[name] = st.sampled_from(observed) if complete else _categorical(observed)
    labels = _categorical([">50K", "<=50K"])
    label_mode = draw(st.sampled_from(["present", "partial", "absent"]))
    records = []
    for _ in range(draw(count)):
        record = {"_rid": draw(st.integers(0, 9))}  # ignored, as perfbench's
        for name, strategy in strategies.items():
            if complete or draw(st.integers(0, 9)):  # a tenth of the keys are absent
                record[name] = draw(strategy)
        if label_mode == "present" or (label_mode == "partial" and draw(st.booleans())):
            record[spec.label_column] = draw(labels)
        records.append(record)
    if bad and not draw(st.integers(0, 4)):
        # now and then a value the numeric coercion refuses
        record = draw(st.sampled_from(records))
        record[draw(st.sampled_from(spec.numeric_features))] = draw(
            st.sampled_from(["abc", [1], {"a": 1}, 10**400])
        )
    return records


def _outcome(call):
    try:
        return call()
    except Exception as error:  # the class is part of the contract
        return type(error)


def _bits(array):
    return None if array is None else (array.dtype.str, array.tobytes())


def _window(monitor):
    state = monitor.state()
    return {key: np.asarray(value).tobytes() if isinstance(value, list) else value
            for key, value in state.items()}


def _engines(pipeline, spec):
    return [
        ScoringEngine(pipeline, monitor=FairnessMonitor(spec.default_protected, window_size=64))
        for _ in range(2)
    ]


def _assert_same_batch(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert _bits(got.labels) == _bits(want.labels)
    assert _bits(got.scores) == _bits(want.scores)
    assert _bits(got.row_mask) == _bits(want.row_mask)
    assert _bits(got.predictions.features) == _bits(want.predictions.features)
    assert _bits(got.predictions.protected_attributes) == _bits(
        want.predictions.protected_attributes
    )
    assert (got.truth is None) == (want.truth is None)


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.mark.parametrize("name", list(PIPELINES))
class TestRecordsPathIsTheFramePath:
    @_SETTINGS
    @given(data=st.data())
    def test_score_batch(self, pipelines, adult, name, data):
        frame, spec = adult
        records = data.draw(_records(frame, spec, bad=True))
        compiled, oracle = _engines(pipelines[name], spec)
        got = _outcome(lambda: compiled.score_batch(records))
        want = _outcome(lambda: oracle.score_frame(records_to_frame(spec, records)))
        _assert_same_batch(got, want)
        assert _window(compiled.monitor) == _window(oracle.monitor)

    @_SETTINGS
    @given(data=st.data())
    def test_score_records(self, pipelines, adult, name, data):
        frame, spec = adult
        records = data.draw(_records(frame, spec))
        compiled, oracle = _engines(pipelines[name], spec)
        got = _outcome(lambda: compiled.score_records(records))
        want = _outcome(lambda: oracle.score_frame(records_to_frame(spec, records)))
        if isinstance(want, type):
            assert got is want
            return
        kept = iter(zip(want.labels, [None] * len(want.labels) if want.scores is None else want.scores))
        for result, scored in zip(got, want.row_mask):
            if not scored:
                assert isinstance(result, ValueError)
                assert str(result) == DROPPED_RECORD_ERROR
                continue
            label, score = next(kept)
            # repr: a NaN score is the same result, though nan != nan
            assert repr(result) == repr(oracle.record_result(
                float(label), None if score is None else float(score)
            ))
        assert len(got) == len(records)
        assert _window(compiled.monitor) == _window(oracle.monitor)

    @_SETTINGS
    @given(data=st.data())
    def test_score_record(self, pipelines, adult, name, data):
        frame, spec = adult
        (record,) = data.draw(_records(frame, spec, bad=True, count=st.just(1)))
        compiled, oracle = _engines(pipelines[name], spec)
        got = _outcome(lambda: compiled.score_record(record))
        want = _outcome(lambda: oracle.score_frame(records_to_frame(spec, [record])))
        if isinstance(want, type):
            assert got is want
        elif not want.row_mask[0]:
            assert got is ValueError
        else:
            score = None if want.scores is None else float(want.scores[0])
            assert repr(got) == repr(oracle.record_result(float(want.labels[0]), score))
        assert _window(compiled.monitor) == _window(oracle.monitor)


# ----------------------------------------------------------------------
# pipelines the compiler does not cover
# ----------------------------------------------------------------------
class _DropNothing(MissingValueHandler):
    """A custom handler: mode imputation under another type."""

    def __init__(self):
        self._imputer = ModeImputer()

    def fit(self, train_frame, feature_columns, seed):
        self._imputer.fit(train_frame, feature_columns, seed)
        return self

    def handle_missing(self, frame):
        return self._imputer.handle_missing(frame)


def _frame_path_count():
    return telemetry.metrics_state()["counters"].get(FRAME_PATH, 0)


def _records_of(frame, count):
    decoded = {c: frame.col(c).values for c in frame.columns}
    return [
        {c: (None if v != v else v) for c, v in ((c, decoded[c][i]) for c in frame.columns)}
        for i in range(count)
    ]


class TestFramePathFallback:
    def test_custom_handler_counts_the_frame_path(self, pipelines, adult):
        frame, spec = adult
        handler = _DropNothing().fit(frame, spec.feature_columns, 3)
        custom = ScoringEngine(_swap_handler(pipelines["mode/target/noop"], handler))
        assert custom._compiled is None
        records = _records_of(frame, 5)
        before = _frame_path_count()
        batch = custom.score_batch(records)
        custom.score_record(records[0])
        assert _frame_path_count() == before + 2
        oracle = custom.score_frame(records_to_frame(spec, records))
        assert _bits(batch.labels) == _bits(oracle.labels)

    def test_learned_imputer_does_not_count(self, pipelines, adult):
        frame, _ = adult
        engine = ScoringEngine(pipelines["learned/onehot/standard"])
        records = _records_of(frame, 5)
        before = _frame_path_count()
        engine.score_batch(records)
        engine.score_record(records[1])
        assert _frame_path_count() == before

    def test_svd_embedding_takes_the_frame_path(self, adult):
        frame, spec = adult
        experiment = Experiment(
            frame=frame, spec=spec, random_seed=3, learner=DecisionTree(tuned=False),
            missing_value_handler=ModeImputer(),
            categorical_encoder=SVDEmbeddingEncoder(n_components=3),
        )
        prepared = experiment.prepare()
        trained = experiment.train_candidates(prepared)
        result = experiment.evaluate(prepared, trained)
        engine = ScoringEngine(experiment.fitted_pipeline(prepared, trained, result.best_index))
        assert engine._compiled is None
        records = _records_of(frame, 4)
        batch = engine.score_batch(records)
        oracle = engine.score_frame(records_to_frame(spec, records))
        assert _bits(batch.labels) == _bits(oracle.labels)


def _swap_handler(pipeline, handler):
    swapped = copy.copy(pipeline)
    swapped.handler = handler
    return swapped
