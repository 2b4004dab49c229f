"""Dependency-free component state protocol (the no-pickle contract).

Every fitted component that can leave the experiment process — scalers,
encoders, learners, missing-value handlers, fairness pre/post-processors —
implements a ``to_state()`` / ``from_state()`` round-trip:

* ``to_state()`` returns a tree of JSON scalars, lists, string-keyed dicts
  and **numeric** numpy arrays. Strings and category tables travel as JSON
  lists (never as object arrays, which numpy can only persist via pickle);
  numeric arrays are left as arrays so the artifact layer
  (:mod:`repro.serve.artifacts`) can hoist them losslessly into an ``.npz``
  member.
* ``from_state(state)`` is a classmethod rebuilding a fitted instance whose
  predictions/transforms are byte-identical to the original.

Classes opt in with the :func:`serializable` decorator, which records them
in a registry keyed by class name. Deserialization only ever instantiates
registered classes — a manifest can never name an arbitrary import path,
which is the security rationale for refusing pickle.
"""

from __future__ import annotations

from typing import Any, Dict, Type

import numpy as np

# class-name -> class, for every component that may appear in an artifact
SERIALIZABLE: Dict[str, Type] = {}


def serializable(cls):
    """Class decorator: register a component for state round-trips."""
    if not (hasattr(cls, "to_state") and hasattr(cls, "from_state")):
        raise TypeError(
            f"{cls.__name__} must define to_state()/from_state() to be serializable"
        )
    SERIALIZABLE[cls.__name__] = cls
    return cls


def state_of(component) -> Dict[str, Any]:
    """Tagged state payload: ``{"type": class name, "state": ...}``."""
    name = type(component).__name__
    if name not in SERIALIZABLE:
        raise TypeError(
            f"{name} is not registered for serialization; decorate it with "
            "@serializable and implement to_state()/from_state()"
        )
    return {"type": name, "state": component.to_state()}


def restore(payload: Dict[str, Any]):
    """Rebuild a component from a tagged state payload."""
    name = payload["type"]
    cls = SERIALIZABLE.get(name)
    if cls is None:
        raise ValueError(
            f"unknown component type {name!r} in artifact; known types: "
            f"{sorted(SERIALIZABLE)}"
        )
    return cls.from_state(payload["state"])


# ----------------------------------------------------------------------
# label arrays: class labels may be numeric (favorable/unfavorable floats)
# or strings (e.g. imputer targets); numeric values stay as arrays for the
# lossless npz path, strings become JSON lists
# ----------------------------------------------------------------------
def labels_to_state(labels: np.ndarray) -> Dict[str, Any]:
    labels = np.asarray(labels)
    if labels.dtype.kind in "OUS":
        return {"kind": "str", "values": [str(v) for v in labels.tolist()]}
    return {"kind": "numeric", "values": labels}


def labels_from_state(state: Dict[str, Any]) -> np.ndarray:
    if state["kind"] == "str":
        return np.asarray(state["values"], dtype=object)
    return np.asarray(state["values"])
