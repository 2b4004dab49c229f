"""Artifact format: JSON+npz packing, schema fingerprints, no-pickle."""

import json
import os

import numpy as np
import pytest

from repro.core import DecisionTree, Experiment
from repro.datasets import load_dataset
from repro.serialize import restore, state_of
from repro.serve import PipelineArtifact, load_artifact, save_artifact
from repro.serve.artifacts import ARRAYS_NAME, MANIFEST_NAME


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    frame, spec = load_dataset("germancredit")
    experiment = Experiment(
        frame=frame, spec=spec, random_seed=5, learner=DecisionTree(tuned=False)
    )
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    pipeline = experiment.fitted_pipeline(prepared, trained, result.best_index)
    return experiment, prepared, trained, result, pipeline


class TestPacking:
    def test_roundtrip_nested_arrays(self, tmp_path):
        manifest = {
            "format": "x",
            "nested": {"a": np.arange(5, dtype=np.int32)},
            "listed": [1, "two", np.linspace(0, 1, 7)],
            "none": None,
            "nan": float("nan"),
        }
        save_artifact(str(tmp_path / "art"), manifest)
        loaded = load_artifact(str(tmp_path / "art"))
        assert np.array_equal(loaded["nested"]["a"], manifest["nested"]["a"])
        assert loaded["nested"]["a"].dtype == np.int32
        assert np.array_equal(loaded["listed"][2], manifest["listed"][2])
        assert loaded["listed"][:2] == [1, "two"]
        assert loaded["none"] is None
        assert loaded["nan"] != loaded["nan"]

    def test_object_arrays_rejected(self, tmp_path):
        manifest = {"bad": np.asarray(["a", None], dtype=object)}
        with pytest.raises(TypeError, match="no-pickle"):
            save_artifact(str(tmp_path / "art"), manifest)

    def test_npz_member_never_needs_pickle(self, fitted, tmp_path):
        _, _, _, _, pipeline = fitted
        directory = str(tmp_path / "model")
        pipeline.save(directory)
        assert sorted(os.listdir(directory)) == sorted([MANIFEST_NAME, ARRAYS_NAME])
        # loads with allow_pickle=False (the load path never enables it)
        with np.load(os.path.join(directory, ARRAYS_NAME), allow_pickle=False) as npz:
            assert npz.files
        with open(os.path.join(directory, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["format"] == "fairprep-pipeline"
        assert manifest["version"] == 2


class TestPipelineArtifact:
    def test_save_load_roundtrip_predictions(self, fitted, tmp_path):
        experiment, prepared, trained, result, pipeline = fitted
        directory = str(tmp_path / "model")
        pipeline.save(directory)
        reloaded = PipelineArtifact.load(directory)
        X = prepared.test_data_eval.features
        assert np.array_equal(pipeline.model.predict(X), reloaded.model.predict(X))
        assert np.array_equal(
            pipeline.model.predict_scores(X), reloaded.model.predict_scores(X)
        )
        assert reloaded.spec.to_dict() == pipeline.spec.to_dict()
        assert reloaded.metadata["best_learner"] == result.best_candidate.learner

    def test_schema_fingerprint_detects_tamper(self, fitted, tmp_path):
        _, _, _, _, pipeline = fitted
        directory = str(tmp_path / "model")
        pipeline.save(directory)
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["spec"]["numeric_features"] = ["bogus"]
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            PipelineArtifact.load(directory)

    def test_corrupt_tree_arrays_rejected(self, fitted, tmp_path):
        _, _, _, _, pipeline = fitted
        directory = str(tmp_path / "model")
        pipeline.save(directory)
        manifest = load_artifact(directory)

        def tree_states(node):
            if isinstance(node, dict):
                if "left" in node and "feature" in node:
                    yield node
                for value in node.values():
                    yield from tree_states(value)
            elif isinstance(node, list):
                for value in node:
                    yield from tree_states(value)

        tree = next(tree_states(manifest["components"]["model"]))
        tree["left"][0] = 0  # the root's left child becomes the root itself
        corrupt = str(tmp_path / "corrupt")
        save_artifact(corrupt, manifest)
        with pytest.raises(ValueError, match="tree state"):
            PipelineArtifact.load(corrupt)

    def test_unknown_component_type_rejected(self, fitted, tmp_path):
        _, _, _, _, pipeline = fitted
        directory = str(tmp_path / "model")
        pipeline.save(directory)
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["components"]["model"]["type"] = "os.system"
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="unknown component type"):
            PipelineArtifact.load(directory)

    def test_version_gate(self, fitted, tmp_path):
        # version 1 artifacts stored the learned imputer's encoder in the
        # pre-ColumnEncoder shape, so they are refused, not half-read
        _, _, _, _, pipeline = fitted
        for version in (1, 99):
            manifest = pipeline.to_manifest()
            manifest["version"] = version
            with pytest.raises(ValueError, match="unsupported artifact version"):
                PipelineArtifact.from_manifest(manifest)

    def test_metadata_carries_verification_predictions(self, fitted):
        _, prepared, trained, result, pipeline = fitted
        verification = pipeline.metadata["verification"]
        assert len(verification["test_labels"]) == prepared.test_data.num_instances


class TestSerializeRegistry:
    def test_state_of_requires_registration(self):
        class NotRegistered:
            pass

        with pytest.raises(TypeError, match="not registered"):
            state_of(NotRegistered())

    def test_restore_unknown_type(self):
        with pytest.raises(ValueError, match="unknown component type"):
            restore({"type": "definitely-not-a-component", "state": {}})
