"""Canonical content hashing shared by the cache, ledger, and linter.

This module is the layering-neutral home of the repository's one
content-hash definition: a SHA-256 over the canonical JSON encoding of
arbitrarily nested dataclasses, enums, containers, and scalars.  It was
extracted from :mod:`repro.runner.cache` (which re-exports it unchanged)
so that lower layers — :mod:`repro.obs` in particular — can hash material
without importing the runner, keeping the import graph acyclic and the
layer ordering enforceable by ``repro lint`` (rule LAY001).

It must stay dependency-free: importing anything above the error layer
from here would reintroduce exactly the cycle it exists to break.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json


def jsonable(obj):
    """Recursively convert dataclasses/enums/tuples to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    return obj


def content_hash(material) -> str:
    """SHA-256 over the canonical JSON encoding of ``material``."""
    payload = json.dumps(
        jsonable(material), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
