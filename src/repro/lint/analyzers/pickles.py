"""PKL010 — everything crossing the worker boundary must pickle.

The per-file PKL001 rule checks each class on its own: every exception
with ``__init__`` but no ``__reduce__`` and every function-local
exception or dataclass in the tree, whether or not it reaches the pool.
That misses the failure mode that actually bites: a worker returns a
dataclass whose *field* — two hops of type nesting away, defined in
another module — holds a lock, an open file, a generator, or a plain
class defined inside a function.  The pickle error then surfaces at
result-collection time, attributed to the pool, far from the field that
caused it.

This analyzer walks the full type closure instead:

* **Boundary discovery** — parse the boundary module (default
  ``repro.runner.runner``) for ``ProcessPoolExecutor(initializer=F)``
  keywords and ``pool.submit(F, ...)`` first arguments.  Those ``F``
  are the boundary functions.
* **Signature obligations** — every boundary parameter must carry a
  type annotation, and submitted workers must annotate their return
  type: the closure walk is only as good as the declared types.
* **Closure walk** — annotations are resolved to project classes
  (per-module, through import aliases) and expanded breadth-first
  through dataclass field annotations.  Each class in the closure is
  checked for pickling hazards PKL001 cannot see:

  - a plain class defined inside a function (pickle serializes classes
    by qualified name; a function-local class cannot be found on
    import — PKL001 already reports function-local exceptions and
    dataclasses),
  - a field annotated with an unpicklable type (``Callable``,
    generators, IO handles, locks, threads, sockets).

Identifiers that do not resolve to a project class are assumed to be
stdlib value types and skipped — the analyzer owns project types, not
the standard library.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Finding
from ..project import Project, annotation_identifiers
from .base import ProjectAnalyzer, register_analyzer

#: Annotation tokens that mark a field as unpicklable by construction.
HAZARD_TOKENS = frozenset((
    "Callable", "Lambda", "Generator", "AsyncGenerator", "Iterator",
    "Coroutine", "IO", "TextIO", "BinaryIO", "Lock", "RLock", "Condition",
    "Semaphore", "Thread", "socket", "FrameType", "TracebackType",
))

#: Base-class name fragments identifying exception types.
_EXC_BASES = ("Exception", "Error")


@dataclass(frozen=True)
class PklSpec:
    """Where the process-pool boundary lives."""

    boundary_module: str = "repro.runner.runner"
    pool_constructors: Tuple[str, ...] = (
        "ProcessPoolExecutor", "Pool",
    )


@register_analyzer
class PicklabilityAnalyzer(ProjectAnalyzer):
    """Transitive picklability of the worker result channel."""

    analyzer_id = "PKL010"
    summary = "full type closure of the worker boundary is picklable"

    def __init__(self, spec: Optional[PklSpec] = None):
        self.spec = spec or PklSpec()

    def check(self, project: Project) -> Iterator[Finding]:
        module = self.spec.boundary_module
        tree = project.ast(module)
        if tree is None:
            return  # boundary module not part of this lint run
        path = project.path_of(module)
        initializers, workers = self._boundary_functions(tree)
        roots: List[Tuple[str, str]] = []  # (class-ish identifier, module)
        emitted: Set[Tuple[str, int, str]] = set()

        def emit(where: str, line: int, message: str) -> Iterator[Finding]:
            key = (where, line, message)
            if key not in emitted:
                emitted.add(key)
                yield self.finding(where, line, message)

        functions = project.functions_index()
        for name, kind in sorted(
            [(n, "initializer") for n in initializers]
            + [(n, "worker") for n in workers]
        ):
            record = functions.get("%s.%s" % (module, name))
            if record is None:
                continue  # not project-local (e.g. a stdlib callable)
            for param in record["params"]:
                if param["name"] in ("self", "cls"):
                    continue
                annotation = param["annotation"]
                if annotation is None:
                    yield from emit(
                        path, record["line"],
                        "%s %s() parameter %r is unannotated: its "
                        "picklability cannot be checked at the process-"
                        "pool boundary" % (kind, name, param["name"]),
                    )
                    continue
                yield from self._boundary_annotation(
                    emit, path, record["line"], name, param["name"],
                    annotation,
                )
                roots.extend(
                    (ident, module)
                    for ident in annotation_identifiers(annotation)
                )
            if kind == "worker":
                returns = record["returns"]
                if returns is None:
                    yield from emit(
                        path, record["line"],
                        "worker %s() has no return annotation: the result "
                        "channel's picklability cannot be checked" % name,
                    )
                else:
                    yield from self._boundary_annotation(
                        emit, path, record["line"], name, "return", returns,
                    )
                    roots.extend(
                        (ident, module)
                        for ident in annotation_identifiers(returns)
                    )
        yield from self._closure(project, emit, roots)

    # -- boundary discovery ------------------------------------------------

    def _boundary_functions(
        self, tree: ast.Module
    ) -> Tuple[Set[str], Set[str]]:
        """Names handed to the pool as initializer / submitted worker."""
        initializers: Set[str] = set()
        workers: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if called in self.spec.pool_constructors:
                for keyword in node.keywords:
                    if keyword.arg == "initializer" and isinstance(
                        keyword.value, ast.Name
                    ):
                        initializers.add(keyword.value.id)
            elif called == "submit" and node.args and isinstance(
                node.args[0], ast.Name
            ):
                workers.add(node.args[0].id)
        return initializers, workers

    # -- closure walk ------------------------------------------------------

    def _boundary_annotation(self, emit, path: str, line: int, func: str,
                             slot: str, annotation: str) -> Iterator[Finding]:
        hazard = _hazard_in(annotation)
        if hazard:
            yield from emit(
                path, line,
                "%s() %s is annotated with unpicklable type %r; it cannot "
                "cross the process-pool boundary" % (func, slot, hazard),
            )

    def _closure(self, project: Project, emit,
                 roots: List[Tuple[str, str]]) -> Iterator[Finding]:
        seen: Set[str] = set()
        queue = list(roots)
        while queue:
            name, module = queue.pop(0)
            record = project.resolve_class(name, module)
            if record is None:
                continue  # stdlib or builtin: out of scope
            qual = "%s.%s" % (record["module"], record["qualname"])
            if qual in seen:
                continue
            seen.add(qual)
            cls_path = record["path"]
            if record["nested"] and not (
                record["is_dataclass"] or self._is_exception(record)
            ):
                yield from emit(
                    cls_path, record["line"],
                    "class %s is defined inside a function but reaches the "
                    "process-pool boundary; pickle resolves classes by "
                    "module-level qualified name" % record["qualname"],
                )
            for field in record["fields"]:
                annotation = field["annotation"]
                if not annotation:
                    continue
                hazard = _hazard_in(annotation)
                if hazard:
                    yield from emit(
                        cls_path, field["line"],
                        "field %s.%s is annotated with unpicklable type "
                        "%r but %s crosses the process-pool boundary"
                        % (record["qualname"], field["name"], hazard,
                           record["qualname"]),
                    )
                queue.extend(
                    (ident, record["module"])
                    for ident in annotation_identifiers(annotation)
                )
            # Base classes are part of the pickled state too.
            queue.extend((base, record["module"]) for base in record["bases"])

    @staticmethod
    def _is_exception(record: Dict[str, object]) -> bool:
        return any(
            base.split(".")[-1].endswith(_EXC_BASES)
            for base in record["bases"]
        )


def _hazard_in(annotation: str) -> Optional[str]:
    """The first hazard token appearing as a whole identifier, if any."""
    for ident in _identifiers(annotation):
        tail = ident.split(".")[-1]
        if tail in HAZARD_TOKENS:
            return tail
    return None


def _identifiers(annotation: str) -> Iterator[str]:
    token: List[str] = []
    for char in annotation + " ":
        if char.isalnum() or char in "._":
            token.append(char)
            continue
        if token:
            name = "".join(token).strip(".")
            token = []
            if name and not name[0].isdigit():
                yield name
