"""Serving-layer hardening regressions: strict (RFC 8259) JSON responses,
row masks derived from the handler's own drop decision, and batch
payloads whose "records" entries must be objects."""

import copy
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import DecisionTree, Experiment, MissingValueHandler, ModeImputer
from repro.datasets import load_dataset
from repro.serve import (
    FairnessMonitor,
    ModelRegistry,
    ScoringEngine,
    ScoringService,
    dumps_strict,
    json_safe,
    make_server,
)


def _strict_loads(data):
    """A decoder that rejects the bare NaN/Infinity tokens JSON forbids."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token!r} in response")

    return json.loads(data, parse_constant=refuse)


class _NaNEngine:
    """Stub engine whose scores are non-finite (an overflowed margin)."""

    monitor = None

    def score_record(self, record):
        return {
            "label": float("nan"),
            "score": float("inf"),
            "favorable": False,
            "decision": "not granted",
        }


class TestStrictJson:
    def test_json_safe_replaces_non_finite_recursively(self):
        payload = {
            "a": float("nan"),
            "b": [1.0, float("inf"), {"c": float("-inf")}],
            "d": np.float64("nan"),
            "e": "NaN",  # strings pass through untouched
            "f": 3,
        }
        assert json_safe(payload) == {
            "a": None,
            "b": [1.0, None, {"c": None}],
            "d": None,
            "e": "NaN",
            "f": 3,
        }

    def test_dumps_strict_roundtrips_through_strict_decoder(self):
        body = dumps_strict({"score": float("nan")})
        assert _strict_loads(body) == {"score": None}

    def test_nan_score_roundtrips_through_http_strictly(self):
        """Regression: allow_nan=True emitted bare NaN, invalid to strict
        parsers (JSON.parse and json.loads with parse_constant raising)."""
        service = ScoringService(_NaNEngine(), model_id="nan-model")
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/score",
                data=json.dumps({"x": 1}).encode(),
                headers={"Content-Type": "application/json"},
            )
            body = urllib.request.urlopen(request).read()
            out = _strict_loads(body)  # raises on bare NaN/Infinity
            assert out["records_scored"] == 1
            assert out["label"] is None
            assert out["score"] is None
            assert out["favorable"] is False
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_metrics_with_non_finite_monitor_values_stay_strict(self):
        """An undefined disparate impact (privileged group never selected)
        must not make /metrics unparseable."""
        engine = _NaNEngine()
        monitor = FairnessMonitor("sex", window_size=100, min_observations=1)
        engine.monitor = monitor
        # privileged never favorable, unprivileged always: DI = rate/0 = NaN
        groups = np.asarray([1.0, 0.0] * 10)
        monitor.observe_batch(groups, 1.0 - groups)
        assert np.isnan(monitor.snapshot()["disparate_impact"])
        service = ScoringService(engine)
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ).read()
            out = _strict_loads(body)
            assert out["monitor"]["disparate_impact"] is None
            assert any("statistical_parity_difference" in a for a in out["alerts"])
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# row_mask from the handler's own decision
# ----------------------------------------------------------------------
class DropOnMissingProtected(MissingValueHandler):
    """Drops rows whose *protected* value is missing; imputes the rest.

    Its drop criterion deliberately differs from "any feature missing",
    which is what the scoring engine used to assume for every row-dropping
    handler when deriving row_mask.
    """

    def __init__(self, protected_column):
        self.protected_column = protected_column
        self._imputer = ModeImputer()

    def fit(self, train_frame, feature_columns, seed):
        self._imputer.fit(train_frame, feature_columns, seed)
        return self

    def handle_missing(self, frame):
        kept = frame.mask(self.kept_mask(frame))
        return self._imputer.handle_missing(kept)

    def kept_mask(self, frame):
        return ~frame.col(self.protected_column).missing_mask()

    @property
    def drops_rows(self):
        return True


class MisreportingHandler(MissingValueHandler):
    """Drops one extra row beyond what its (inherited) kept_mask claims."""

    def fit(self, train_frame, feature_columns, seed):
        return self

    def handle_missing(self, frame):
        mask = np.ones(frame.num_rows, dtype=bool)
        if frame.num_rows:
            mask[0] = False
        return frame.mask(mask)

    @property
    def drops_rows(self):
        return True


@pytest.fixture(scope="module")
def adult_pipeline(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("registry-mask"))
    frame, spec = load_dataset("adult", n=1500)
    experiment = Experiment(
        frame=frame,
        spec=spec,
        random_seed=5,
        learner=DecisionTree(tuned=False),
        missing_value_handler=ModeImputer(),
    )
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    registry = ModelRegistry(root)
    experiment.export_pipeline(prepared, trained, result, registry=registry)
    model_id = registry.list_models()[0]["model_id"]
    return registry.load_pipeline(model_id), frame, spec


def _row_dicts(frame, count):
    decoded = {c: frame.col(c).values for c in frame.columns}
    out = []
    for i in range(count):
        row = {}
        for name in frame.columns:
            value = decoded[name][i]
            row[name] = value.item() if hasattr(value, "item") else value
        out.append(row)
    return out


class TestRowMaskFromHandler:
    def test_protected_dropping_handler_mask_matches_scored_rows(
        self, adult_pipeline
    ):
        """Regression: a handler whose drop criterion is the protected
        column used to yield a mask whose popcount disagreed with the
        number of scored rows."""
        pipeline, frame, spec = adult_pipeline
        protected_column = spec.protected(pipeline.protected_attribute).column
        handler = DropOnMissingProtected(protected_column).fit(
            frame, spec.feature_columns, seed=5
        )
        pipeline = copy.copy(pipeline)
        pipeline.handler = handler
        engine = ScoringEngine(pipeline)

        from repro.serve import records_to_frame

        records = _row_dicts(frame, 6)
        records[1][protected_column] = None  # dropped by this handler
        records[3][spec.feature_columns[0]] = None  # imputed, NOT dropped
        scoring_frame = records_to_frame(spec, records)
        batch = engine.score_frame(scoring_frame)
        assert batch.row_mask.tolist() == [True, False, True, True, True, True]
        assert int(batch.row_mask.sum()) == len(batch.labels) == 5

    def test_misreporting_handler_fails_loudly(self, adult_pipeline):
        pipeline, frame, spec = adult_pipeline
        handler = MisreportingHandler().fit(frame, spec.feature_columns, seed=5)
        pipeline = copy.copy(pipeline)
        pipeline.handler = handler
        engine = ScoringEngine(pipeline)
        from repro.serve import records_to_frame

        scoring_frame = records_to_frame(spec, _row_dicts(frame, 4))
        with pytest.raises(RuntimeError, match="kept_mask"):
            engine.score_frame(scoring_frame)

    def test_complete_case_mask_still_matches(self, adult_pipeline):
        """The default complete-case handler keeps mask and drop in sync."""
        from repro.core import CompleteCaseAnalysis
        from repro.serve import records_to_frame

        pipeline, frame, spec = adult_pipeline
        handler = CompleteCaseAnalysis().fit(frame, spec.feature_columns, seed=5)
        pipeline = copy.copy(pipeline)
        pipeline.handler = handler
        engine = ScoringEngine(pipeline)
        records = _row_dicts(frame, 5)
        records[2][spec.feature_columns[0]] = None
        batch = engine.score_frame(records_to_frame(spec, records))
        assert batch.row_mask.tolist() == [True, True, False, True, True]
        assert int(batch.row_mask.sum()) == len(batch.labels)


# ----------------------------------------------------------------------
# "records" entries must be objects
# ----------------------------------------------------------------------
class TestRecordsMustBeObjects:
    @pytest.mark.parametrize("records", [[[1]], ["a"], [1, 2], [{}, None]])
    def test_non_object_entry_is_a_value_error(self, adult_pipeline, records):
        """Regression: a non-dict entry raised AttributeError (an HTTP 500)
        or a confusing TypeError instead of the 422 ValueError."""
        pipeline, _, _ = adult_pipeline
        service = ScoringService(ScoringEngine(pipeline))
        with pytest.raises(ValueError, match="list of objects"):
            service.score({"records": records})
        assert service.state()["telemetry"]["counters"]["serve.errors"] == 1

    def test_non_object_entry_answers_422_over_http(self, adult_pipeline):
        pipeline, _, _ = adult_pipeline
        service = ScoringService(ScoringEngine(pipeline))
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/score",
                data=json.dumps({"records": [[1]]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request)
            assert caught.value.code == 422
            body = _strict_loads(caught.value.read())
            assert body == {"error": '"records" must be a list of objects'}
        finally:
            server.shutdown()
            server.server_close()
            service.close()
