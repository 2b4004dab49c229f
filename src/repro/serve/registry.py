"""File-backed model registry with promote/tag/rollback.

Disk layout (everything human-readable, nothing pickled)::

    <root>/
        registry.json              # model index + tag histories
        models/<model_id>/manifest.json
        models/<model_id>/arrays.npz

``model_id`` defaults to the experiment plan's deterministic ``run_key``
fingerprint (:mod:`repro.core.plan`), so a registry entry links back to the
exact :class:`~repro.core.results.ResultsStore` records of the run that
produced it; pipelines exported outside a grid get a content hash instead.

Tags (e.g. ``production``) keep their full promotion history, so
``rollback`` is a constant-time pointer move to the previously promoted
model — the durable-state lesson this subsystem borrows from replicated
data stores.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from typing import Any, Dict, List, Optional

from ..core.results import ResultsStore, RunResult
from ..durable import crash_safe_write
from .artifacts import PipelineArtifact, save_artifact


class ModelRegistry:
    """Versioned store of exported pipelines on a local filesystem."""

    def __init__(self, root: str, create: bool = True):
        """Open (or, with ``create=True``, initialize) a registry at ``root``.

        Read-only consumers (scoring, serving, listing) should pass
        ``create=False`` so a mistyped path fails loudly instead of
        materializing an empty registry on disk.
        """
        self.root = root
        if not create:
            if not os.path.exists(self.index_path):
                raise FileNotFoundError(
                    f"no model registry at {root!r} (missing registry.json)"
                )
            return
        os.makedirs(self.models_dir, exist_ok=True)
        if not os.path.exists(self.index_path):
            self._write_index({"models": {}, "tags": {}})

    # ------------------------------------------------------------------
    # paths / index
    # ------------------------------------------------------------------
    @property
    def models_dir(self) -> str:
        return os.path.join(self.root, "models")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "registry.json")

    def model_path(self, model_id: str) -> str:
        return os.path.join(self.models_dir, model_id)

    def _read_index(self) -> Dict[str, Any]:
        with open(self.index_path) as handle:
            return json.load(handle)

    def _write_index(self, index: Dict[str, Any]) -> None:
        with crash_safe_write(self.index_path) as handle:
            # lint: allow(strict-json) -- the index never crosses the wire:
            # it is read back only by _read_index (Python json.load, which
            # parses NaN), and fairness metrics with empty groups must
            # round-trip as NaN, not null
            json.dump(index, handle, sort_keys=True, indent=1, allow_nan=True)

    @contextlib.contextmanager
    def _locked(self, timeout: float = 10.0):
        """Advisory cross-process lock around index read-modify-write.

        O_EXCL creation of a ``.lock`` file; concurrent publishers block
        instead of silently dropping each other's index entries.
        """
        lock_path = self.index_path + ".lock"
        deadline = time.time() + timeout
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if time.time() > deadline:
                    raise TimeoutError(
                        f"registry lock {lock_path} held for over {timeout}s; "
                        "remove it if a writer crashed"
                    ) from None
                time.sleep(0.05)
        try:
            yield
        finally:
            os.close(fd)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock_path)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        pipeline: PipelineArtifact,
        result: Optional[RunResult] = None,
        model_id: Optional[str] = None,
        tags: Optional[List[str]] = None,
        overwrite: bool = False,
    ) -> Dict[str, Any]:
        """Persist a pipeline and index it; returns the registry record.

        ``model_id`` defaults to the pipeline metadata's ``run_key`` (the
        plan fingerprint) and falls back to a digest of the manifest.
        ``result`` links the entry to its experiment metrics.
        """
        manifest = pipeline.to_manifest()
        if model_id is None:
            model_id = pipeline.metadata.get("run_key")
        if model_id is None:
            model_id = _content_fingerprint(manifest["components"])
        model_id = str(model_id)
        separators = [os.sep] + ([os.altsep] if os.altsep else [])
        if any(s in model_id for s in separators) or model_id in (".", ".."):
            raise ValueError(f"invalid model id {model_id!r}")

        record: Dict[str, Any] = {
            "model_id": model_id,
            "dataset": pipeline.spec.name,
            "protected_attribute": pipeline.protected_attribute,
            "schema_fingerprint": manifest["schema_fingerprint"],
            "created_at": time.time(),
            # verification arrays live in the artifact itself; the index
            # stays small, JSON-only metadata
            "metadata": {
                k: v for k, v in pipeline.metadata.items() if k != "verification"
            },
        }
        if result is not None:
            record["metrics"] = {
                "test": dict(result.test_metrics),
                "validation": dict(result.best_candidate.validation_metrics),
            }
            record["components"] = dict(result.components)
            record["random_seed"] = result.random_seed
            if result.run_key:
                record["run_key"] = result.run_key
        elif pipeline.metadata.get("run_key"):
            record["run_key"] = pipeline.metadata["run_key"]

        with self._locked():
            index = self._read_index()
            if model_id in index["models"] and not overwrite:
                raise ValueError(
                    f"model {model_id!r} is already registered; pass "
                    "overwrite=True to replace it"
                )
            directory = self.model_path(model_id)
            if os.path.exists(directory) and overwrite:
                shutil.rmtree(directory)
            save_artifact(directory, manifest)
            index["models"][model_id] = record
            self._write_index(index)
        for tag in tags or ():
            self.promote(model_id, tag)
        return record

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def list_models(self) -> List[Dict[str, Any]]:
        index = self._read_index()
        return sorted(
            index["models"].values(), key=lambda record: record.get("created_at", 0.0)
        )

    def tags(self) -> Dict[str, str]:
        """Current tag → model_id mapping."""
        index = self._read_index()
        return {
            tag: history[-1] for tag, history in index["tags"].items() if history
        }

    def resolve(self, reference: str) -> str:
        """Resolve a model id or tag to a model id."""
        index = self._read_index()
        if reference in index["models"]:
            return reference
        history = index["tags"].get(reference)
        if history:
            return history[-1]
        raise KeyError(
            f"{reference!r} is neither a model id nor a tag; "
            f"models: {sorted(index['models'])}, tags: {sorted(index['tags'])}"
        )

    def get_record(self, reference: str) -> Dict[str, Any]:
        return self._read_index()["models"][self.resolve(reference)]

    def load_pipeline(self, reference: str) -> PipelineArtifact:
        """Reload a pipeline by model id or tag (fresh-process safe)."""
        return PipelineArtifact.load(self.model_path(self.resolve(reference)))

    # ------------------------------------------------------------------
    # tag lifecycle
    # ------------------------------------------------------------------
    def promote(self, model_id: str, tag: str = "production") -> None:
        """Point a tag at a model, appending to the tag's history."""
        with self._locked():
            index = self._read_index()
            if model_id not in index["models"]:
                raise KeyError(f"cannot promote unknown model {model_id!r}")
            history = index["tags"].setdefault(tag, [])
            if not history or history[-1] != model_id:
                history.append(model_id)
            self._write_index(index)

    def rollback(self, tag: str = "production") -> str:
        """Drop the tag's current model; returns the restored model id."""
        with self._locked():
            index = self._read_index()
            history = index["tags"].get(tag)
            if not history:
                raise KeyError(f"tag {tag!r} has no promotion history")
            if len(history) < 2:
                raise ValueError(
                    f"tag {tag!r} has no previous model to roll back to "
                    f"(history: {history})"
                )
            history.pop()
            self._write_index(index)
            return history[-1]

    def tag_history(self, tag: str) -> List[str]:
        return list(self._read_index()["tags"].get(tag, []))

    # ------------------------------------------------------------------
    # results linkage
    # ------------------------------------------------------------------
    def results_for(self, reference: str, store: ResultsStore) -> List[RunResult]:
        """Every stored run record matching the model's ``run_key``."""
        record = self.get_record(reference)
        run_key = record.get("run_key")
        if not run_key:
            return []
        return [r for r in store.load(strict=False) if r.run_key == run_key]


def _content_fingerprint(components: Dict[str, Any]) -> str:
    """Deterministic content hash of a manifest's components tree.

    Isolated from :meth:`ModelRegistry.publish` so the canonical-JSON
    payload stays free of wall-clock fields like ``created_at`` — the
    fingerprint must depend only on what the pipeline *is*.
    """
    # lint: allow(strict-json) -- digest input, never wire JSON: a NaN
    # parameter must hash deterministically (the 'NaN' token), not raise
    canonical = json.dumps(
        components, sort_keys=True, default=_digest_default
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def _digest_default(value):
    """JSON fallback for digesting manifests that still hold arrays."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")
