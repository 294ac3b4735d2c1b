"""Canonical content hashing shared by the cache, ledger, and linter.

This module is the layering-neutral home of the repository's one
content-hash definition: a SHA-256 over the canonical JSON encoding of
arbitrarily nested dataclasses, enums, containers, and scalars.  It was
extracted from :mod:`repro.runner.cache` (which re-exports it unchanged)
so that lower layers — :mod:`repro.obs` in particular — can hash material
without importing the runner, keeping the import graph acyclic and the
layer ordering enforceable by ``repro lint`` (rule LAY001).

The hash is a persisted format: cache keys name users' on-disk entries
and the ledger's ``config_hash`` selects the history a run is compared
against.  Its bytes are ``json.dumps(jsonable(material), sort_keys=True,
separators=(",", ":"))``, and the two shortcuts below produce exactly
those bytes:

* A top-level dict whose keys are all exact ``str`` is encoded one value
  at a time: ``json.dumps(k) + ":" + enc(v)`` for each key in sorted
  order, joined by commas inside braces, where ``enc(v)`` is the value's
  own canonical encoding (:func:`canonical_fields`).  Any other
  material is encoded whole.  The run ledger writes each record as
  these same bytes, with its ``run_id`` spliced in, so a record is
  encoded once for both its id and its line.
* The encoding of a frozen dataclass whose ``hash()`` succeeds is
  memoized (bounded, least recently used first out), so a sweep's
  :class:`~repro.config.SystemConfig`, which is part of every pair's
  cache key, is walked and encoded once.  Such a dataclass holds no
  list, dict, set or mutable value-compared dataclass, so its encoding
  cannot change later.  (A dataclass declared ``eq=False`` hashes by
  identity even when mutable; this package declares none.)

  The memo is keyed by object *identity*, not equality:
  ``dataclasses.replace(cfg, frequency_hz=float(cfg.frequency_hz))``
  equals ``cfg`` and hashes alike in Python, yet encodes
  ``1800000000.0`` where ``cfg`` encodes ``1800000000``, so an
  equality-keyed memo would hand one the other's bytes.  Each entry
  holds a reference to its object, so no other object can take over its
  ``id`` while the entry exists.

It must stay dependency-free: importing anything above the error layer
from here would reintroduce exactly the cycle it exists to break.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

#: Exact types ``jsonable`` returns as they are.  Subclasses (``str``- or
#: ``int``-mixin enum members, numpy scalars) take the full branch chain.
_LEAF_TYPES = frozenset((str, int, float, bool, type(None)))

#: Same settings as ``json.dumps(..., sort_keys=True, separators=(",", ":"))``;
#: one shared encoder saves building a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Memoized encodings: ``id(obj) -> (obj, canonical JSON)``.
_MEMO: "OrderedDict[int, Tuple[object, str]]" = OrderedDict()
_MEMO_SIZE = 256


@functools.lru_cache(maxsize=256)
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """Field names of a dataclass type, or None for any other type."""
    if not hasattr(cls, "__dataclass_fields__"):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def jsonable(obj):
    """Recursively convert dataclasses/enums/tuples to JSON-safe values."""
    cls = type(obj)
    if cls in _LEAF_TYPES:
        return obj
    if cls is dict:
        return {str(key): jsonable(value) for key, value in obj.items()}
    if cls is list or cls is tuple:
        return [jsonable(item) for item in obj]
    names = _field_names(cls)
    if names is not None:
        return {name: jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    return obj


def _immutable(obj) -> bool:
    """True for a frozen dataclass instance whose ``hash()`` succeeds."""
    params = getattr(type(obj), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return False
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def _encode(obj) -> str:
    """Canonical JSON of ``obj``, memoized for immutable dataclasses."""
    entry = _MEMO.get(id(obj))
    if entry is not None:
        _MEMO.move_to_end(id(obj))
        return entry[1]
    text = _ENCODER.encode(jsonable(obj))
    if _immutable(obj):
        _MEMO[id(obj)] = (obj, text)
        if len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
    return text


def canonical_fields(material: Dict[str, object]) -> List[str]:
    """``"<key>":<canonical value>`` for each entry of a dict whose keys
    are all exact ``str``, in sorted key order.  Joined by commas inside
    braces, they are the dict's canonical JSON."""
    return [
        _ENCODER.encode(key) + ":" + _encode(material[key])
        for key in sorted(material)
    ]


def canonical_json(material) -> str:
    """The canonical JSON encoding of ``material``: the bytes
    :func:`content_hash` hashes."""
    if type(material) is dict and all(type(key) is str for key in material):
        return "{%s}" % ",".join(canonical_fields(material))
    return _encode(material)


def content_hash(material) -> str:
    """SHA-256 over the canonical JSON encoding of ``material``."""
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()
