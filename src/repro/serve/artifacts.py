"""Versioned, dependency-free serialization of fitted pipelines.

An exported pipeline is a *directory* with exactly two members:

``manifest.json``
    The component tree — every fitted component's :meth:`to_state` payload
    with numeric arrays replaced by ``{"__array__": "a<n>"}`` references —
    plus format/version headers, the input-schema fingerprint, and free-form
    metadata (run_key, metrics, dataset provenance).
``arrays.npz``
    The referenced numeric arrays, stored losslessly by :func:`numpy.savez`.

Why not pickle: a pickle payload executes arbitrary code on load, so a
model pulled from a shared registry would be an RCE vector. This format
reconstructs components only through the explicit class registry in
:mod:`repro.serialize` and stores nothing but JSON scalars and numeric
arrays — object arrays (which numpy can only persist via pickle) are
rejected at save time.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

import numpy as np

from ..datasets import DatasetSpec
from ..durable import crash_safe_write
from ..serialize import restore, state_of

# importing these modules populates the SERIALIZABLE registry with every
# component an artifact may reference
from ..core import interventions as _interventions  # noqa: F401
from ..core import learners as _learners  # noqa: F401
from ..core import missing_values as _missing_values  # noqa: F401
from ..core.featurization import Featurizer  # noqa: F401
from ..learn import encoders as _encoders  # noqa: F401

ARTIFACT_FORMAT = "fairprep-pipeline"
ARTIFACT_VERSION = 2

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

_ARRAY_KEY = "__array__"


# ----------------------------------------------------------------------
# array hoisting: JSON tree + npz side file
# ----------------------------------------------------------------------
def _pack(tree: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Replace numpy arrays anywhere in a state tree by npz references."""
    if isinstance(tree, np.ndarray):
        if tree.dtype.kind in "OUS":
            raise TypeError(
                "object/string arrays cannot enter an artifact; convert them "
                "to JSON lists in to_state() (the no-pickle contract)"
            )
        key = f"a{len(arrays)}"
        arrays[key] = tree
        return {_ARRAY_KEY: key}
    if isinstance(tree, dict):
        if _ARRAY_KEY in tree:
            raise ValueError(f"state dicts must not use the reserved key {_ARRAY_KEY!r}")
        return {str(k): _pack(v, arrays) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_pack(v, arrays) for v in tree]
    if isinstance(tree, (np.integer,)):
        return int(tree)
    if isinstance(tree, (np.floating,)):
        return float(tree)
    if isinstance(tree, (np.bool_,)):
        return bool(tree)
    return tree


def _unpack(tree: Any, arrays) -> Any:
    """Resolve npz references back into numpy arrays."""
    if isinstance(tree, dict):
        if set(tree.keys()) == {_ARRAY_KEY}:
            return arrays[tree[_ARRAY_KEY]]
        return {k: _unpack(v, arrays) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_unpack(v, arrays) for v in tree]
    return tree


def save_artifact(directory: str, manifest: Dict[str, Any]) -> str:
    """Write a manifest tree (arrays allowed anywhere) as manifest.json + arrays.npz."""
    os.makedirs(directory, exist_ok=True)
    arrays: Dict[str, np.ndarray] = {}
    packed = _pack(manifest, arrays)
    npz_path = os.path.join(directory, ARRAYS_NAME)
    np.savez(npz_path, **arrays)
    with crash_safe_write(os.path.join(directory, MANIFEST_NAME)) as handle:
        # lint: allow(strict-json) -- artifact manifests never cross the
        # wire: load_artifact reads them back with Python's json.load
        # (which parses NaN), and fitted parameters that are legitimately
        # NaN must round-trip unchanged
        json.dump(packed, handle, sort_keys=True, indent=1, allow_nan=True)
    return directory


def load_artifact(directory: str) -> Dict[str, Any]:
    """Read an artifact directory back into a manifest tree with arrays."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path) as handle:
        packed = json.load(handle)
    npz_path = os.path.join(directory, ARRAYS_NAME)
    arrays: Dict[str, np.ndarray] = {}
    if os.path.exists(npz_path):
        # allow_pickle stays False: only plain numeric arrays may load
        with np.load(npz_path, allow_pickle=False) as handle:
            arrays = {key: handle[key] for key in handle.files}
    return _unpack(packed, arrays)


def schema_fingerprint(spec: DatasetSpec, feature_names: List[str]) -> str:
    """Stable digest of the scoring input/output schema.

    Covers the raw input contract (feature columns and their kinds, label
    and protected columns) *and* the featurized output width, so two
    pipelines collide exactly when they can score the same records and emit
    comparable feature vectors.
    """
    payload = {
        "numeric_features": list(spec.numeric_features),
        "categorical_features": list(spec.categorical_features),
        "label_column": spec.label_column,
        "favorable_value": spec.favorable_value,
        "protected": [
            [p.column, list(p.privileged_values)] for p in spec.protected_attributes
        ],
        "feature_names": list(feature_names),
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


class PipelineArtifact:
    """A complete fitted scoring pipeline, ready to persist or serve.

    Bundles the frozen lifecycle path a new record travels at scoring time:
    missing-value handling → featurization → (eval side of the) fairness
    pre-processing intervention → model → fairness post-processing. The
    experiment layer builds instances via
    :meth:`~repro.core.experiment.Experiment.fitted_pipeline`; the registry
    persists and reloads them.
    """

    def __init__(
        self,
        spec: DatasetSpec,
        protected_attribute: str,
        handler,
        featurizer: Featurizer,
        pre_processor,
        model,
        post_processor,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.spec = spec
        self.protected_attribute = protected_attribute
        self.handler = handler
        self.featurizer = featurizer
        self.pre_processor = pre_processor
        self.model = model
        self.post_processor = post_processor
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    def schema_fingerprint(self) -> str:
        return schema_fingerprint(self.spec, self.featurizer.feature_names_)

    def to_manifest(self) -> Dict[str, Any]:
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "schema_fingerprint": self.schema_fingerprint(),
            "spec": self.spec.to_dict(),
            "protected_attribute": self.protected_attribute,
            "components": {
                "handler": state_of(self.handler),
                "featurizer": state_of(self.featurizer),
                "pre_processor": state_of(self.pre_processor),
                "model": state_of(self.model),
                "post_processor": state_of(self.post_processor),
            },
            "metadata": self.metadata,
        }

    @classmethod
    def from_manifest(cls, manifest: Dict[str, Any]) -> "PipelineArtifact":
        if manifest.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                f"not a {ARTIFACT_FORMAT} manifest: format={manifest.get('format')!r}"
            )
        version = manifest.get("version")
        if version != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported artifact version {version!r} "
                f"(this build reads version {ARTIFACT_VERSION})"
            )
        components = manifest["components"]
        artifact = cls(
            spec=DatasetSpec.from_dict(manifest["spec"]),
            protected_attribute=manifest["protected_attribute"],
            handler=restore(components["handler"]),
            featurizer=restore(components["featurizer"]),
            pre_processor=restore(components["pre_processor"]),
            model=restore(components["model"]),
            post_processor=restore(components["post_processor"]),
            metadata=dict(manifest.get("metadata", {})),
        )
        stored = manifest.get("schema_fingerprint")
        actual = artifact.schema_fingerprint()
        if stored is not None and stored != actual:
            raise ValueError(
                f"schema fingerprint mismatch: manifest says {stored}, "
                f"reconstructed pipeline has {actual} — artifact is corrupt "
                "or was edited"
            )
        return artifact

    # ------------------------------------------------------------------
    def save(self, directory: str) -> str:
        return save_artifact(directory, self.to_manifest())

    @classmethod
    def load(cls, directory: str) -> "PipelineArtifact":
        return cls.from_manifest(load_artifact(directory))
