"""Tests for the staged execution engine: plan layer + executor backends."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    CalibratedEqOddsPostProcessor,
    DecisionTree,
    DIRemover,
    GridSpec,
    LogisticRegression,
    NoIntervention,
    ParallelExecutor,
    PostProcessor,
    RejectOptionPostProcessor,
    ResultsStore,
    ReweighingPreProcessor,
    SerialExecutor,
    component_fingerprint,
    run_grid,
)
from repro.core import executors
from repro.core.executors import ExecutionPlan, build_experiment, iter_config_group
from repro.core.experiment import Experiment
from repro.datasets import load_dataset


def small_grid():
    return GridSpec(
        seeds=[1, 2],
        learners=[lambda: LogisticRegression(tuned=False)],
        interventions=[NoIntervention, lambda: DIRemover(0.5)],
    )


def run_each_cell(dataset, grid):
    """The uncached reference: ``Experiment.run()`` once per plan cell."""
    plan = ExecutionPlan.for_grid(*dataset, grid)
    results = []
    for config in plan.configs:
        result = build_experiment(plan, config).run()
        result.run_key = config.run_key
        results.append(result)
    return results


@pytest.fixture(scope="module")
def german():
    return load_dataset("germancredit")


@pytest.fixture(scope="module")
def serial_results(german):
    return run_grid(german, small_grid(), executor=SerialExecutor())


class TestPlanExpansion:
    def test_expand_covers_grid_in_order(self):
        grid = small_grid()
        configs = grid.expand("germancredit")
        assert len(configs) == grid.size() == 4
        assert [c.index for c in configs] == [0, 1, 2, 3]
        # product order: seeds outermost, interventions inner
        assert [c.random_seed for c in configs] == [1, 1, 2, 2]

    def test_run_keys_unique_and_deterministic(self):
        first = small_grid().expand("germancredit")
        second = small_grid().expand("germancredit")
        assert len({c.run_key for c in first}) == 4
        assert [c.run_key for c in first] == [c.run_key for c in second]

    def test_prep_key_shared_across_interventions_not_seeds(self):
        configs = small_grid().expand("germancredit")
        by_seed = {}
        for config in configs:
            by_seed.setdefault(config.random_seed, set()).add(config.prep_key)
        # both interventions of one seed share preparation...
        assert all(len(keys) == 1 for keys in by_seed.values())
        # ...but different seeds never do
        assert len({k for keys in by_seed.values() for k in keys}) == 2

    def test_run_key_sensitive_to_component_parameters(self):
        a = GridSpec(
            seeds=[0],
            learners=[lambda: LogisticRegression(tuned=False)],
            interventions=[lambda: DIRemover(0.5)],
        ).expand("germancredit")
        b = GridSpec(
            seeds=[0],
            learners=[lambda: LogisticRegression(tuned=False)],
            interventions=[lambda: DIRemover(1.0)],
        ).expand("germancredit")
        assert a[0].run_key != b[0].run_key

    def test_run_key_sensitive_to_dataset_fingerprint(self, german):
        frame, spec = german
        grid = small_grid()
        full = ExecutionPlan.for_grid(frame, spec, grid)
        half = np.arange(frame.num_rows) < frame.num_rows // 2
        truncated = ExecutionPlan.for_grid(frame.mask(half), spec, grid)
        assert full.configs[0].run_key != truncated.configs[0].run_key

    def test_default_components_fingerprint_like_explicit_ones(self):
        from repro.learn import StandardScaler

        implicit = GridSpec(
            seeds=[0], learners=[lambda: LogisticRegression(tuned=False)]
        ).expand("germancredit")
        explicit = GridSpec(
            seeds=[0],
            learners=[lambda: LogisticRegression(tuned=False)],
            scalers=[StandardScaler],
        ).expand("germancredit")
        assert implicit[0].run_key == explicit[0].run_key
        assert implicit[0].prep_key == explicit[0].prep_key

    def test_run_key_sensitive_to_dataset_and_protected(self):
        grid = small_grid()
        assert (
            grid.expand("germancredit")[0].run_key != grid.expand("ricci")[0].run_key
        )
        assert (
            grid.expand("germancredit", "sex")[0].run_key
            != grid.expand("germancredit", "age")[0].run_key
        )

    def test_config_is_serializable(self):
        import json
        import pickle

        config = small_grid().expand("germancredit")[0]
        assert pickle.loads(pickle.dumps(config)) == config
        assert json.loads(json.dumps(config.to_dict()))["run_key"] == config.run_key

    def test_config_wire_roundtrip_is_lossless(self):
        import json

        from repro.core.plan import RunConfig

        for config in small_grid().expand("germancredit"):
            wire = json.loads(json.dumps(config.to_dict()))
            assert RunConfig.from_dict(wire) == config

    def test_build_experiment_matches_config(self, german):
        frame, spec = german
        plan = ExecutionPlan.for_grid(frame, spec, small_grid())
        experiment = build_experiment(plan, plan.configs[1])
        assert experiment.random_seed == 1
        assert experiment.pre_processor.name() == "DIRemover(0.5)"


class TestExecutorEquivalence:
    def test_parallel_identical_to_serial(self, german, serial_results):
        parallel = run_grid(german, small_grid(), executor=ParallelExecutor(jobs=4))
        assert [r.run_key for r in parallel] == [r.run_key for r in serial_results]
        assert [r.to_json() for r in parallel] == [
            r.to_json() for r in serial_results
        ]

    def test_cache_identical_to_fresh_preparation(self, german, serial_results):
        fresh = run_each_cell(german, small_grid())
        assert [r.to_json() for r in fresh] == [r.to_json() for r in serial_results]

    def test_engine_identical_to_direct_experiment_run(self, german, serial_results):
        frame, spec = german
        direct = Experiment(
            frame,
            spec,
            random_seed=2,
            learner=LogisticRegression(tuned=False),
            pre_processor=DIRemover(0.5),
        ).run()
        engine = serial_results[3]
        assert engine.random_seed == 2
        assert engine.test_metrics == direct.test_metrics
        assert engine.candidates[0].validation_metrics == (
            direct.candidates[0].validation_metrics
        )

    def test_results_carry_run_keys(self, serial_results):
        keys = [r.run_key for r in serial_results]
        assert all(keys) and len(set(keys)) == 4

    def test_jobs_one_runs_in_process(self, german, serial_results):
        one = run_grid(german, small_grid(), jobs=1)
        assert [r.to_json() for r in one] == [r.to_json() for r in serial_results]


class TestResumeAndStore:
    def test_extend_writes_batch(self, tmp_path, serial_results):
        store = ResultsStore(str(tmp_path / "batch.jsonl"))
        store.extend(serial_results)
        loaded = store.load()
        assert [r.to_json() for r in loaded] == [r.to_json() for r in serial_results]
        assert store.run_keys() == {r.run_key for r in serial_results}

    def test_extend_empty_writes_nothing(self, tmp_path):
        store = ResultsStore(str(tmp_path / "empty.jsonl"))
        store.extend([])
        assert store.load() == []

    def test_grid_run_populates_store(self, german, tmp_path, serial_results):
        store = ResultsStore(str(tmp_path / "grid.jsonl"))
        run_grid(german, small_grid(), results_store=store)
        assert store.run_keys() == {r.run_key for r in serial_results}

    def test_resume_skips_completed_without_recompute(
        self, german, tmp_path, serial_results, monkeypatch
    ):
        store = ResultsStore(str(tmp_path / "complete.jsonl"))
        store.extend(serial_results)

        def explode(self, prepared, **kwargs):
            raise AssertionError("resume must not retrain completed runs")

        monkeypatch.setattr(Experiment, "train_candidates", explode)
        resumed = run_grid(german, small_grid(), results_store=store, resume=True)
        assert [r.to_json() for r in resumed] == [
            r.to_json() for r in serial_results
        ]
        # nothing new was appended
        assert len(store.load()) == len(serial_results)

    def test_partial_resume_recomputes_only_missing(
        self, german, tmp_path, serial_results, monkeypatch
    ):
        store = ResultsStore(str(tmp_path / "partial.jsonl"))
        store.extend(serial_results[:2])

        trained = []
        original = Experiment.train_candidates

        def counting(self, prepared, **kwargs):
            trained.append(self.random_seed)
            return original(self, prepared, **kwargs)

        monkeypatch.setattr(Experiment, "train_candidates", counting)
        resumed = run_grid(german, small_grid(), results_store=store, resume=True)
        assert len(trained) == 2  # only the two missing seed-2 runs
        assert [r.to_json() for r in resumed] == [
            r.to_json() for r in serial_results
        ]
        assert len(store.load()) == 4

    def test_crash_mid_group_persists_completed_runs(
        self, german, tmp_path, monkeypatch
    ):
        store = ResultsStore(str(tmp_path / "crash.jsonl"))
        original = Experiment.train_candidates
        executed = []

        def crash_on_third(self, prepared, **kwargs):
            if len(executed) == 2:
                raise KeyboardInterrupt
            executed.append(self.random_seed)
            return original(self, prepared, **kwargs)

        monkeypatch.setattr(Experiment, "train_candidates", crash_on_third)
        with pytest.raises(KeyboardInterrupt):
            run_grid(german, small_grid(), results_store=store)
        # the two runs that finished before the crash were persisted...
        assert len(store.load()) == 2
        # ...so resume only recomputes the remainder
        monkeypatch.setattr(Experiment, "train_candidates", original)
        resumed = run_grid(german, small_grid(), results_store=store, resume=True)
        assert len(resumed) == 4 and len(store.load()) == 4

    def test_parallel_jobs_zero_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)

    def test_resume_tolerates_torn_store_line(self, german, tmp_path, serial_results):
        store = ResultsStore(str(tmp_path / "torn.jsonl"))
        store.extend(serial_results[:2])
        with open(store.path, "a") as handle:
            handle.write('{"dataset": "germancredit", "ran')  # interrupted write
        resumed = run_grid(german, small_grid(), results_store=store, resume=True)
        assert [r.to_json() for r in resumed] == [
            r.to_json() for r in serial_results
        ]
        with pytest.raises(ValueError):
            store.load()  # strict load still surfaces the corruption

    def test_resume_shared_between_run_grid_and_standard_experiment(
        self, german, tmp_path, serial_results, monkeypatch
    ):
        from repro.core.standard_experiments import GermanCreditExperiment

        store = ResultsStore(str(tmp_path / "shared.jsonl"))
        store.extend(serial_results)

        def explode(self, prepared, **kwargs):
            raise AssertionError("entry points must share run fingerprints")

        monkeypatch.setattr(Experiment, "train_candidates", explode)
        resumed = GermanCreditExperiment.run_grid(
            small_grid(), results_store=store, resume=True
        )
        assert [r.to_json() for r in resumed] == [
            r.to_json() for r in serial_results
        ]

    def test_progress_reports_resumed_and_computed(
        self, german, tmp_path, serial_results
    ):
        store = ResultsStore(str(tmp_path / "progress.jsonl"))
        store.extend(serial_results[:2])
        calls = []
        run_grid(
            german,
            small_grid(),
            results_store=store,
            resume=True,
            progress=lambda done, total, result: calls.append((done, total)),
        )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]


class _FailsOnSeedTwo(LogisticRegression):
    """Module-level (fork-picklable) learner that fails for seed 2 only."""

    def __init__(self):
        super().__init__(tuned=False)

    def fit_model(self, train_data, seed):
        if seed == 2:
            raise RuntimeError("injected failure")
        return super().fit_model(train_data, seed)


class TestParallelFailure:
    def test_failed_worker_keeps_other_groups_results(self, german, tmp_path):
        grid = GridSpec(
            seeds=[1, 2],
            learners=[_FailsOnSeedTwo],
            interventions=[NoIntervention, lambda: DIRemover(0.5)],
        )
        store = ResultsStore(str(tmp_path / "failure.jsonl"))
        with pytest.raises(RuntimeError, match="injected failure"):
            run_grid(
                german,
                grid,
                results_store=store,
                executor=ParallelExecutor(jobs=2),
            )
        # the seed-1 group completed in the other worker and was persisted
        stored = store.load()
        assert {r.random_seed for r in stored} == {1}
        assert len(stored) == 2


class _StatefulPost(PostProcessor):
    def __init__(self, threshold=0.5):
        self.threshold = threshold

    def fit(self, validation_true, validation_pred, privileged, unprivileged, seed):
        self.fitted_ = True
        return self

    def apply(self, predictions):
        return predictions


class TestPostProcessorClone:
    def test_default_clone_preserves_params_and_drops_state(self):
        post = _StatefulPost(threshold=0.7)
        post.fit(None, None, None, None, 0)
        fresh = post.clone()
        assert fresh is not post
        assert fresh.threshold == 0.7
        assert not hasattr(fresh, "fitted_")

    @pytest.mark.parametrize(
        "post",
        [
            RejectOptionPostProcessor(num_class_thresh=7, num_ROC_margin=3),
            CalibratedEqOddsPostProcessor(cost_constraint="fnr"),
            NoIntervention(),
        ],
        ids=["reject-option", "cal-eq-odds", "no-intervention"],
    )
    def test_builtin_postprocessors_clone(self, post):
        fresh = post.clone()
        assert type(fresh) is type(post)
        assert component_fingerprint(fresh) == component_fingerprint(post)

    def test_clone_override_wins(self):
        class Custom(_StatefulPost):
            def clone(self):
                return self

        custom = Custom()
        assert custom.clone() is custom


class TestComponentFingerprint:
    def test_parameter_aware(self):
        assert component_fingerprint(DIRemover(0.5)) != component_fingerprint(
            DIRemover(1.0)
        )
        assert component_fingerprint(DIRemover(0.5)) == component_fingerprint(
            DIRemover(0.5)
        )

    def test_none_component(self):
        assert component_fingerprint(None) == "None"


class TestStoreBackedGrids:
    def _spill(self, frame, path) -> str:
        from repro.frame.storage import FrameStoreWriter

        with FrameStoreWriter(str(path)) as writer:
            writer.append(frame)
        return str(path)

    def test_run_grid_from_frame_store_matches_in_memory(
        self, german, serial_results, tmp_path
    ):
        frame, _ = german
        store_dir = self._spill(frame, tmp_path / "store")
        results = run_grid("germancredit", small_grid(), frame_store=store_dir)
        # same metrics as the in-memory run; different run_keys, because
        # the fingerprint now derives from the store manifest, not the name
        assert [r.test_metrics for r in results] == [
            r.test_metrics for r in serial_results
        ]
        assert {r.run_key for r in results}.isdisjoint(
            {r.run_key for r in serial_results}
        )

    def test_identical_stores_agree_on_fingerprints(self, german, tmp_path):
        from repro.core import open_store_dataset

        frame, _ = german
        first = self._spill(frame, tmp_path / "a")
        second = self._spill(frame, tmp_path / "b")
        _, _, fp_a = open_store_dataset("germancredit", first)
        _, _, fp_b = open_store_dataset("germancredit", second)
        assert fp_a == fp_b
        assert fp_a.startswith("store:")
        assert f"rows={frame.num_rows}" in fp_a

    def test_different_store_contents_change_fingerprint(self, german, tmp_path):
        from repro.core import open_store_dataset

        frame, _ = german
        full = self._spill(frame, tmp_path / "full")
        truncated = self._spill(frame.head(500), tmp_path / "half")
        _, _, fp_full = open_store_dataset("germancredit", full)
        _, _, fp_half = open_store_dataset("germancredit", truncated)
        assert fp_full != fp_half

    def test_frame_store_requires_named_dataset(self, german, tmp_path):
        frame, spec = german
        store_dir = self._spill(frame, tmp_path / "store")
        with pytest.raises(ValueError, match="registered dataset name"):
            run_grid((frame, spec), small_grid(), frame_store=store_dir)


# ----------------------------------------------------------------------
# fitted-learner cache: post-processing runs reuse the baseline's fit
# ----------------------------------------------------------------------
FIT_CALLS = []


def _train_digest(train_data) -> str:
    digest = hashlib.sha256(train_data.features.tobytes())
    digest.update(train_data.instance_weights.tobytes())
    return digest.hexdigest()


class _CountingLR(LogisticRegression):
    def fit_model(self, train_data, seed):
        FIT_CALLS.append((seed, self.name(), _train_digest(train_data)))
        return super().fit_model(train_data, seed)


class _CountingDT(DecisionTree):
    def fit_model(self, train_data, seed):
        FIT_CALLS.append((seed, self.name(), _train_digest(train_data)))
        return super().fit_model(train_data, seed)


def post_processing_grid():
    return GridSpec(
        seeds=[1, 2],
        learners=[
            lambda: _CountingLR(tuned=True, param_grid={"alpha": [0.0001, 0.001]}),
            lambda: _CountingDT(tuned=True, param_grid={"max_depth": [3, 5]}),
        ],
        interventions=[
            NoIntervention,
            lambda: DIRemover(0.5),
            RejectOptionPostProcessor,
            CalibratedEqOddsPostProcessor,
        ],
    )


def figure2_shaped_grid():
    return GridSpec(
        seeds=[1],
        learners=[
            lambda: LogisticRegression(tuned=False),
            lambda: DecisionTree(tuned=False),
        ],
        interventions=[
            NoIntervention,
            lambda: DIRemover(0.5),
            lambda: DIRemover(1.0),
            ReweighingPreProcessor,
            lambda: RejectOptionPostProcessor(num_class_thresh=20, num_ROC_margin=15),
            CalibratedEqOddsPostProcessor,
        ],
    )


class _ScorelessModel:
    def __init__(self, model):
        self._model = model

    def predict(self, features):
        return self._model.predict(features)

    def predict_scores(self, features):
        return None


class _ScorelessLearner(LogisticRegression):
    def __init__(self):
        super().__init__(tuned=False)

    def fit_model(self, train_data, seed):
        FIT_CALLS.append((seed, self.name(), _train_digest(train_data)))
        return _ScorelessModel(super().fit_model(train_data, seed))


class _RecordingCache(executors.FittedLearnerCache):
    """Records the number of stored entries after every put."""

    instances = []

    def __init__(self, group):
        super().__init__(group)
        self.sizes = []
        _RecordingCache.instances.append(self)

    def put(self, config, fitted):
        super().put(config, fitted)
        self.sizes.append(len(self))


@pytest.fixture
def fit_calls():
    FIT_CALLS.clear()
    yield FIT_CALLS
    FIT_CALLS.clear()


class TestFittedLearnerCache:
    def test_byte_identical_and_one_fit_per_learner(self, german, fit_calls):
        grid = post_processing_grid()
        cached = run_grid(german, grid, executor=SerialExecutor())
        configs = ExecutionPlan.for_grid(*german, grid).configs
        distinct = {
            (c.random_seed, c.components["pre_processor"], c.components["learners"])
            for c in configs
        }
        assert len(distinct) == 8 and len(configs) == 16
        assert len(fit_calls) == len(distinct)
        assert set(Counter(fit_calls).values()) == {1}

        fit_calls.clear()
        uncached = run_each_cell(german, grid)
        assert len(fit_calls) == len(configs)
        parallel = run_grid(german, grid, executor=ParallelExecutor(jobs=2))
        expected = [r.to_json() for r in uncached]
        assert [r.to_json() for r in cached] == expected
        assert [r.to_json() for r in parallel] == expected

    def test_figure2_group_counts_two_hits_per_learner(self, german, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        telemetry.reset_for_tests()
        try:
            run_grid(german, figure2_shaped_grid(), executor=SerialExecutor())
            counters = telemetry.metrics_state()["counters"]
        finally:
            telemetry.reset_for_tests()
        # reject option and calibrated equalized odds reuse each learner's
        # no-intervention fit
        assert counters["executor.fitted_cache_hits"] == 2 * 2
        # 12 runs over 4 distinct pre-processors
        assert counters["executor.prepared_cache_hits"] == 12 - 4

    def test_scores_check_runs_on_cache_hit(self, german, fit_calls):
        grid = GridSpec(
            seeds=[1],
            learners=[_ScorelessLearner],
            interventions=[NoIntervention, RejectOptionPostProcessor],
        )
        with pytest.raises(ValueError) as uncached:
            run_each_cell(german, grid)
        fit_calls.clear()

        plan = ExecutionPlan.for_grid(*german, grid)
        runs = iter_config_group(plan, plan.configs)
        config, result = next(runs)
        assert config.intervention_index == 0 and result.run_key == config.run_key
        with pytest.raises(ValueError) as cached:
            next(runs)
        # the reject-option run was served the cached fit, and still refused it
        assert len(fit_calls) == 1
        assert str(cached.value) == str(uncached.value)
        assert "requires prediction scores" in str(cached.value)

    def test_entries_evicted_after_last_consumer(self, german, monkeypatch):
        monkeypatch.setattr(executors, "FittedLearnerCache", _RecordingCache)
        _RecordingCache.instances.clear()
        grid = GridSpec(
            seeds=[1],
            learners=[lambda: LogisticRegression(tuned=False)],
            interventions=[
                NoIntervention,
                lambda: DIRemover(0.5),
                RejectOptionPostProcessor,
                CalibratedEqOddsPostProcessor,
            ],
        )
        run_grid(german, grid, executor=SerialExecutor())
        (cache,) = _RecordingCache.instances
        # stored for the two post-processing runs, DIRemover's single-use
        # fit never stored, dropped after its last consumer
        assert cache.sizes == [1, 1, 1, 0]
        assert len(cache) == 0

    def test_single_use_keys_are_never_stored(self, german, monkeypatch):
        monkeypatch.setattr(executors, "FittedLearnerCache", _RecordingCache)
        _RecordingCache.instances.clear()
        run_grid(german, small_grid(), executor=SerialExecutor())
        assert len(_RecordingCache.instances) == 2  # one group per seed
        for cache in _RecordingCache.instances:
            assert cache.sizes == [0, 0]
