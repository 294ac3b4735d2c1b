"""Whole-program analyzers: the second tier of ``repro lint``.

Per-file rules (:mod:`repro.lint.rules`) check what a single AST can
prove.  Analyzers check invariants that only hold — or break — across
module boundaries: layer ordering, seed threading, cache-key coverage,
and worker-boundary picklability.  Each analyzer is a class with an
``analyzer_id`` (same shape as rule ids), a ``summary``, and a
``check(project)`` generator over a :class:`repro.lint.project.Project`.

Register project-specific analyzers with :func:`register_analyzer`;
``repro lint`` picks them up automatically, and ``--select`` resolves
ids from both tiers.  The machinery itself lives in
:mod:`.base` (imported by the analyzer modules); this package import
only triggers registration.
"""

from __future__ import annotations

from .base import (  # noqa: F401  (re-exported API)
    _ANALYZERS,
    ProjectAnalyzer,
    active_analyzers,
    all_analyzers,
    analyzer_ids,
    get_analyzer,
    register_analyzer,
)

# Import the built-in analyzers so registration happens on package import.
from . import layering  # noqa: E402,F401  (registration side effect)
from . import seeds  # noqa: E402,F401
from . import cachekey  # noqa: E402,F401
from . import pickles  # noqa: E402,F401

__all__ = [
    "ProjectAnalyzer",
    "active_analyzers",
    "all_analyzers",
    "analyzer_ids",
    "get_analyzer",
    "register_analyzer",
    "layering",
    "seeds",
    "cachekey",
    "pickles",
]
