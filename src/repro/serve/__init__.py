"""Model serving: pipeline artifacts, registry, scoring engine, monitoring.

The experiment layer (PRs 1–3) produces fitted pipelines that used to die
with the process. This subsystem makes them durable and usable:

* :mod:`~repro.serve.artifacts` — versioned, dependency-free JSON+npz
  serialization of a complete fitted pipeline (no pickle anywhere);
* :mod:`~repro.serve.registry` — file-backed model registry with
  promote/tag/rollback, keyed by the plan layer's ``run_key`` fingerprints;
* :mod:`~repro.serve.scoring` — scoring engine: frames through the
  vectorized featurization paths, JSON records through the pipeline
  compiled into per-column lookup tables;
* :mod:`~repro.serve.monitor` — sliding-window runtime monitoring of
  accuracy proxies and group fairness metrics with alert thresholds,
  backed by preallocated NumPy ring buffers;
* :mod:`~repro.serve.batching` — micro-batching core that coalesces
  concurrent single-record requests into vectorized scoring passes;
* :mod:`~repro.serve.service` — a stdlib HTTP JSON scoring endpoint
  (keep-alive, strict JSON, bounded-queue load shedding);
* :mod:`~repro.serve.fleet` — pre-forked multi-core worker fleet sharing
  one port through SO_REUSEPORT, with fleet-wide merged monitoring,
  worker respawn, and graceful drain.
"""

from .artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    PipelineArtifact,
    load_artifact,
    save_artifact,
    schema_fingerprint,
)
from .batching import BatcherClosed, MicroBatcher, ServiceOverloaded
from .fleet import FleetView, ServingFleet
from .monitor import Alert, FairnessMonitor
from .registry import ModelRegistry
from .scoring import BatchScores, ScoringEngine, records_to_frame
from .service import ScoringService, dumps_strict, json_safe, make_server

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "Alert",
    "BatchScores",
    "BatcherClosed",
    "FairnessMonitor",
    "FleetView",
    "MicroBatcher",
    "ModelRegistry",
    "PipelineArtifact",
    "ScoringEngine",
    "ScoringService",
    "ServingFleet",
    "ServiceOverloaded",
    "dumps_strict",
    "json_safe",
    "load_artifact",
    "make_server",
    "records_to_frame",
    "save_artifact",
    "schema_fingerprint",
]
