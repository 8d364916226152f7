"""One serialization protocol for result-shaped objects.

Before this module each result class grew its own ad-hoc ``as_dict``
(:class:`~repro.metrics.collector.CheckpointStats`,
:class:`~repro.analysis.overlap.OverlapReport`,
:class:`~repro.experiments.summary.RunSummary`,
:class:`~repro.experiments.runner.ExperimentSettings`) with no inverse.
The protocol here is the single supported surface:

* :func:`to_dict` — JSON-ready plain data for any participating object;
* :func:`from_dict` — the inverse, accepting either the class or its
  registered name, so stored payloads can be revived generically;
* :func:`register` — class decorator adding the class to the name
  registry (used by caches and trace payloads that store a type tag).

Participating classes implement ``to_dict()`` and a ``from_dict(data)``
classmethod; plain dataclasses get both derived automatically by
:func:`to_dict`/:func:`from_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Type, Union

__all__ = [
    "register",
    "registered",
    "to_dict",
    "from_dict",
    "roundtrip",
    "canonical_json",
]

_REGISTRY: Dict[str, type] = {}


def register(cls):
    """Class decorator: make *cls* revivable by name via :func:`from_dict`."""
    _REGISTRY[cls.__name__] = cls
    return cls


def registered(name: str) -> type:
    """The class registered under *name* (KeyError when unknown)."""
    return _REGISTRY[name]


def to_dict(obj: Any) -> dict:
    """Plain-data (JSON-ready) form of *obj*.

    Dispatch order: the object's own ``to_dict``, then legacy
    ``as_dict``, then :func:`dataclasses.asdict` for plain dataclasses.
    """
    method = getattr(obj, "to_dict", None)
    if callable(method):
        return method()
    method = getattr(obj, "as_dict", None)
    if callable(method):
        return method()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} does not support to_dict()")


def from_dict(target: Union[str, Type], data: dict) -> Any:
    """Revive an object of *target* (a class or a registered name)."""
    cls = registered(target) if isinstance(target, str) else target
    method = getattr(cls, "from_dict", None)
    if callable(method):
        return method(data)
    if dataclasses.is_dataclass(cls):
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})
    raise TypeError(f"{cls.__name__} does not support from_dict()")


def roundtrip(obj: Any) -> Any:
    """``from_dict(type(obj), to_dict(obj))`` — the protocol's contract."""
    return from_dict(type(obj), to_dict(obj))


def canonical_json(data: Any) -> str:
    """Insertion-order-independent JSON text of plain data.

    Keys are sorted recursively and separators are minimal, so two
    structurally equal payloads serialize to the same bytes no matter
    how their dicts were built.  This is the one serialization every
    content address (cache keys, state digests) must go through — the
    order-sanitizer (:mod:`repro.sanitize.ordering`) verifies it.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
