"""Dependency-free component state format (the no-pickle contract).

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

Most components declare their state instead of writing the pair: the
decorator ``@serializable(params(), field("mean_", FLOATS), ...)`` installs
the one ``to_state``/``from_state`` pair, which writes the fields in
declared order and rebuilds the component through its constructor. A field
is a state key, an attribute and a codec:

* :func:`params` — the constructor parameters, read by name from the
  instance, under ``"params"`` or spread at the top level of the state;
* :func:`field` — one fitted attribute through a codec: a float64 or int64
  array (:data:`FLOATS`, :data:`INTS`), a label array (:data:`LABELS`), a
  float or int scalar (:data:`FLOAT`, :data:`INT`), a str list
  (:data:`STRS`), a str→float table (:data:`TABLE`), a list of any of
  these (:func:`each`) or a nested component of a fixed class
  (:func:`nested`). Writing a fitted field that is missing raises
  :class:`NotFittedError`.

States that are not a plain list of fields keep a hand-written pair under
the bare ``@serializable``: ``DecisionTreeClassifier`` (checks its node
arrays on load), ``LabelEncoder``, ``Reweighing``,
``DisparateImpactRemover``, ``LearnedImputer``, ``Featurizer`` with its
``ColumnEncoder``, and ``_FittedModel`` (unwraps a grid search).

Either way the class is recorded in a registry keyed by class name.
Deserialization only ever instantiates registered classes — a manifest can
never name an arbitrary import path, which is the security rationale for
refusing pickle.
"""

from __future__ import annotations

import functools
import inspect
import types
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Type

import numpy as np

# class-name -> class, for every component that may appear in an artifact
SERIALIZABLE: Dict[str, Type] = {}


class NotFittedError(RuntimeError):
    """Raised when a component is used or serialized before fit."""


@functools.lru_cache(maxsize=None)
def init_params(cls) -> Mapping[str, Any]:
    """Named ``__init__`` parameters of a class → their defaults
    (``inspect.Parameter.empty`` when required), in signature order.

    Read once per class: ``inspect.signature`` costs tens of microseconds,
    and ``get_params``/``clone`` and every grid expansion's fingerprints
    ask for it.
    """
    return types.MappingProxyType(
        {
            name: parameter.default
            for name, parameter in inspect.signature(cls.__init__).parameters.items()
            if name != "self"
            and parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
        }
    )


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


# ----------------------------------------------------------------------
# codecs: how one attribute value is written into a state and read back
# ----------------------------------------------------------------------
class Codec(NamedTuple):
    write: Callable[[Any], Any]
    read: Callable[[Any], Any]


def _array(dtype) -> Codec:
    convert = functools.partial(np.asarray, dtype=dtype)
    return Codec(convert, convert)


FLOATS = _array(np.float64)
INTS = _array(np.int64)
LABELS = Codec(labels_to_state, labels_from_state)
FLOAT = Codec(float, float)
INT = Codec(int, int)
STRS = Codec(lambda values: [str(v) for v in values], list)
# string values (a categorical fill) pass through; numbers become floats
TABLE = Codec(
    lambda table: {
        str(k): v if isinstance(v, str) else float(v) for k, v in table.items()
    },
    dict,
)


def each(codec: Codec) -> Codec:
    """A list whose every item goes through ``codec``."""
    return Codec(
        lambda values: [codec.write(v) for v in values],
        lambda values: [codec.read(v) for v in values],
    )


def nested(cls: Type) -> Codec:
    """A nested component of the fixed class ``cls``."""
    return Codec(lambda value: value.to_state(), cls.from_state)


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------
class _Params(NamedTuple):
    key: Optional[str]  # None: the parameters sit at the state's top level


class _Field(NamedTuple):
    key: str
    codec: Codec
    attr: str


def params(key: Optional[str] = "params") -> _Params:
    """The constructor parameters, under ``key`` (``None``: top level).
    Tuples are written as lists and read back as tuples where the
    constructor's default is a tuple."""
    return _Params(key)


def field(key: str, codec: Codec, attr: Optional[str] = None) -> _Field:
    """A fitted attribute (``attr``, default ``key``) stored under ``key``."""
    return _Field(key, codec, key if attr is None else attr)


def _to_state(self) -> dict:
    state: Dict[str, Any] = {}
    for spec in type(self)._state_fields:
        if isinstance(spec, _Params):
            values = _param_values(self)
            state.update(values if spec.key is None else {spec.key: values})
            continue
        value = getattr(self, spec.attr, None)
        if value is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )
        state[spec.key] = spec.codec.write(value)
    return state


def _param_values(instance) -> Dict[str, Any]:
    values = {}
    for name in init_params(type(instance)):
        value = getattr(instance, name)
        values[name] = list(value) if isinstance(value, tuple) else value
    return values


def _from_state(cls, state: dict):
    kwargs: Dict[str, Any] = {}
    for spec in cls._state_fields:
        if isinstance(spec, _Params):
            values = state if spec.key is None else state[spec.key]
            for name, default in init_params(cls).items():
                value = values[name]
                if isinstance(default, tuple) and isinstance(value, list):
                    value = tuple(value)
                kwargs[name] = value
    instance = cls(**kwargs)
    for spec in cls._state_fields:
        if isinstance(spec, _Field):
            setattr(instance, spec.attr, spec.codec.read(state[spec.key]))
    return instance


def serializable(*fields):
    """Register a component for state round-trips.

    ``@serializable(params(), field(...), ...)`` declares the state and
    installs ``to_state``/``from_state``; the bare ``@serializable``
    registers a class that writes its own pair.
    """
    if len(fields) == 1 and isinstance(fields[0], type):
        return _register(fields[0])

    def declare(cls):
        cls._state_fields = fields
        cls.to_state = _to_state
        cls.from_state = classmethod(_from_state)
        return _register(cls)

    return declare


def _register(cls):
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
            "@serializable and declare its state fields or write "
            "to_state()/from_state()"
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
