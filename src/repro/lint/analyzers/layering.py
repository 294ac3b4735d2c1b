"""LAY001 — import layering, cycles, and the facade boundary.

The repository's layer ordering, bottom to top::

    errors / hashing / config          (foundations)
    workloads / uarch / stats          (leaf domain layers)
    perf / core / phases               (composition layers)
    obs                                (observability: below the runner)
    runner / reports / api             (orchestration and presentation)

Three invariants are enforced:

* **Leaf layers stay leaf.**  ``workloads``, ``uarch``, and ``stats``
  must not import ``runner``, ``obs``, or ``reports`` — a trace
  generator that needs the runner inverts the architecture.  ``obs``
  must not import ``runner`` (the runner *uses* observability, never
  the reverse).  Lazy (function-level) imports count: a dependency
  deferred is still a dependency.
* **No import cycles.**  Top-level imports must form a DAG; every
  strongly-connected component of size > 1 is an error.  Function-level
  imports are exempt — a deliberately lazy import is the sanctioned way
  to break a cycle, and the finding message says which edge to defer.
* **Examples and docs speak to the facade.**  Code under ``examples/``
  or ``docs/`` may import only ``repro`` / ``repro.api``, judged by
  import target: ``from repro import uarch`` is a deep import too.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from ..engine import Finding
from ..project import Project
from .base import ProjectAnalyzer, register_analyzer

#: layer -> layers it must not import (directly or lazily).
FORBIDDEN_IMPORTS: Dict[str, FrozenSet[str]] = {
    "workloads": frozenset(("runner", "obs", "reports")),
    "uarch": frozenset(("runner", "obs", "reports")),
    "stats": frozenset(("runner", "obs", "reports")),
    "obs": frozenset(("runner",)),
}

#: Directory components marking facade-only code.
FACADE_DIRS: Tuple[str, ...] = ("examples", "docs")


def layer_of(module: str, root: str = "repro") -> str:
    """The layer a dotted module belongs to (``repro.uarch.core`` ->
    ``uarch``; top-level modules are their own layer)."""
    parts = module.split(".")
    if parts[0] != root:
        return parts[0]
    return parts[1] if len(parts) > 1 else parts[0]


@register_analyzer
class LayeringAnalyzer(ProjectAnalyzer):
    """Layer ordering and import-cycle checks over the module graph."""

    analyzer_id = "LAY001"
    summary = "layer ordering holds, imports are acyclic, examples use the facade"

    def __init__(self, root: str = "repro"):
        self.root = root
        self.facade_allowed = frozenset((root, "%s.api" % root))

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_layers(project)
        yield from self._check_cycles(project)
        yield from self._check_facade(project)

    def _check_layers(self, project: Project) -> Iterator[Finding]:
        edges = project.import_edges(toplevel_only=False)
        for module in project.modules():
            layer = layer_of(module, self.root)
            forbidden = FORBIDDEN_IMPORTS.get(layer)
            if not forbidden:
                continue
            path = project.path_of(module)
            for edge in edges[module]:
                target_layer = layer_of(edge["target"], self.root)
                if target_layer not in forbidden:
                    continue
                lazy = "" if edge["toplevel"] else " (even lazily)"
                yield self.finding(
                    path, edge["line"],
                    "layer %r must not import layer %r%s: %s depends on %s"
                    % (layer, target_layer, lazy, module, edge["via"]),
                )

    def _check_cycles(self, project: Project) -> Iterator[Finding]:
        for cycle in project.cycles():
            anchor = cycle[0]
            path = project.path_of(anchor)
            chain = " -> ".join(cycle + [cycle[0]])
            yield self.finding(
                path, 1,
                "import cycle among %d modules: %s (break it by deferring "
                "one edge to a function-level import)"
                % (len(cycle), chain),
            )

    def _in_root(self, dotted: str) -> bool:
        return dotted == self.root or dotted.startswith(self.root + ".")

    def _facade_offender(self, project: Project,
                         record: Dict[str, object]) -> Optional[str]:
        """The first non-facade project import in one record, if any.

        Judged by the import *target*: ``import repro`` and any
        ``from repro.api import ...`` are fine; ``from repro import X``
        is fine only when ``X`` is a re-exported *name*, not a project
        submodule (``from repro import uarch`` is a deep import spelled
        through the root).  Everything else rooted in the project is a
        deep import.
        """
        target = record["module"] or ""
        if record["names"]:
            if not self._in_root(target):
                return None
            if target in self.facade_allowed:
                for name in record["names"]:
                    dotted = "%s.%s" % (target, name)
                    if target == self.root and dotted in project.by_module:
                        return dotted
                return None
            return target
        if self._in_root(target) and target not in self.facade_allowed:
            return target
        return None

    def _check_facade(self, project: Project) -> Iterator[Finding]:
        for module in project.modules():
            summary = project.by_module[module]
            parts = tuple(summary["path"].split("/"))
            if not any(part in FACADE_DIRS for part in parts[:-1]):
                continue
            for record in summary["imports"]:
                offender = self._facade_offender(project, record)
                if offender is not None:
                    yield self.finding(
                        summary["path"], record["line"],
                        "facade-only code deep-imports %r; shipped examples "
                        "and docs must import from %s.api (or the %s top "
                        "level) only" % (offender, self.root, self.root),
                    )
