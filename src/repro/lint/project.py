"""The whole-program model behind the second tier of ``repro lint``.

The per-file tier (:mod:`repro.lint.rules`) sees one AST at a time; the
analyzers in :mod:`repro.lint.analyzers` need facts that only exist
*between* files — the import graph, where a seed value crosses a function
boundary, which dataclass fields a type closure reaches.  This module
extracts those facts into one :class:`ModuleSummary` per file and links
the summaries into a :class:`Project`.

Two properties shape the design:

* **Summaries are plain data.**  Everything an analyzer needs on every
  run lives in JSON round-trippable dicts/lists/strings — no AST nodes —
  so a summary can be printed, compared, and asserted on in tests.
* **ASTs stay available, lazily.**  A few analyzers (KEY001, PKL010)
  inspect a handful of named modules in depth; :meth:`Project.ast`
  parses those on demand.

Seed-taint summarization
------------------------

For SEED010 each RNG construction site is classified intraprocedurally:

* ``seeded``  — the seed argument traces to a recognizably-seeded source
  (a ``seed``/``rng``-named parameter or attribute, a ``.seed()`` /
  ``.spawn()`` derivation, or an expression built from those);
* ``neutral`` — a pure constant expression (deterministic; whether a
  constant seed is *acceptable* is SEED001's per-file concern);
* ``poison``  — a known-nondeterministic source (``time.time``,
  ``os.urandom``, string ``hash()``, ...) reaches the seed, or there is
  no seed argument at all (OS entropy);
* ``params``  — the seed traces to one or more parameters of an
  enclosing function that are *not* seed-named; the site lists those
  ``(function, parameter)`` dependencies and SEED010 resolves them
  through recorded call sites across the whole project.

Call sites record the same taint classification per argument, which is
what lets the cross-module resolution run entirely on summaries.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Parameter/attribute names that count as carrying threaded randomness.
SEED_NAMES = frozenset(("seed", "rng", "random_state", "generator"))

#: Method names whose call results count as derived (seeded) randomness.
SEED_METHODS = frozenset(("seed", "spawn", "jumped", "derive"))

#: RNG constructors whose seed arguments SEED010 traces.
RNG_CONSTRUCTORS = frozenset((
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
))

#: Calls whose results are nondeterministic across runs: a seed built
#: from any of these can never replay.  ``hash`` is here because string
#: hashing is randomized per interpreter (PYTHONHASHSEED).
POISON_CALLS = frozenset((
    "time.time", "time.time_ns", "time.monotonic", "time.perf_counter",
    "os.urandom", "os.getpid", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "hash", "id", "object",
))

#: Builtins that pass taint through their arguments unchanged.
_TRANSPARENT_CALLS = frozenset((
    "int", "float", "abs", "str", "bytes", "tuple", "list", "min", "max",
    "sum", "divmod", "pow", "round", "sorted",
))

TAINT_SEEDED = "seeded"
TAINT_NEUTRAL = "neutral"
TAINT_POISON = "poison"
TAINT_PARAMS = "params"


def is_seed_name(name: str) -> bool:
    """Does this identifier look like it carries threaded randomness?"""
    base = name.lower().lstrip("_")
    return (
        base in SEED_NAMES
        or "seed" in base
        or base.endswith("rng")
        or base == "ss"  # numpy SeedSequence idiom
    )


def module_name_for(path: Path) -> Tuple[str, bool]:
    """Dotted module name for ``path`` plus an is-package flag.

    Walks up through directories containing ``__init__.py``:
    ``src/repro/uarch/core.py`` maps to ``repro.uarch.core``.  A file
    outside any package (``examples/quickstart.py``) maps to its stem.
    """
    is_package = path.name == "__init__.py"
    parts: List[str] = [] if is_package else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) or path.stem, is_package


class _Taint:
    """One taint verdict: a kind plus (for ``params``) dependencies.

    Dependencies are ``(function_qualname, parameter_name)`` pairs; the
    function is usually the enclosing one but may be ``Class.__init__``
    when the value flowed through ``self.<attr>``.
    """

    __slots__ = ("kind", "deps")

    def __init__(self, kind: str, deps: Optional[Set[Tuple[str, str]]] = None):
        self.kind = kind
        self.deps = deps or set()

    @classmethod
    def combine(cls, taints: Iterable["_Taint"]) -> "_Taint":
        kinds = set()
        deps: Set[Tuple[str, str]] = set()
        for taint in taints:
            kinds.add(taint.kind)
            deps |= taint.deps
        if TAINT_POISON in kinds:
            return cls(TAINT_POISON)
        if TAINT_SEEDED in kinds:
            return cls(TAINT_SEEDED)
        if deps:
            return cls(TAINT_PARAMS, deps)
        return cls(TAINT_NEUTRAL)

    def encode(self):
        """JSON encoding used in summaries ("seeded" or ["params", [...]])."""
        if self.kind == TAINT_PARAMS:
            return [TAINT_PARAMS, sorted(["%s:%s" % d for d in self.deps])]
        return self.kind


class _ModuleExtractor(ast.NodeVisitor):
    """Single-pass extraction of one file's :class:`ModuleSummary` facts."""

    def __init__(self, path: str, module: str, is_package: bool,
                 tree: ast.Module):
        self.path = path
        self.module = module
        self.is_package = is_package
        self.tree = tree
        self.imports: List[Dict[str, object]] = []
        self.aliases: Dict[str, str] = {}
        self.classes: List[Dict[str, object]] = []
        self.functions: List[Dict[str, object]] = []
        self.rng_sites: List[Dict[str, object]] = []
        self.calls: List[Dict[str, object]] = []
        # Traversal state.
        self._class_stack: List[str] = []
        self._func_stack: List[ast.AST] = []
        self._scope_stack: List[Dict[str, List[ast.expr]]] = [{}]
        self._self_assigns: Dict[str, List[Tuple[str, ast.expr]]] = {}

    # -- name resolution ---------------------------------------------------

    def _absolute_module(self, level: int, target: Optional[str]) -> str:
        """Make a (possibly relative) import target absolute."""
        if level == 0:
            return target or ""
        parts = self.module.split(".")
        if not self.is_package:
            parts = parts[:-1]
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        base = ".".join(parts)
        if target:
            return "%s.%s" % (base, target) if base else target
        return base

    def resolve_name(self, func: ast.expr) -> Optional[str]:
        """Dotted name of an expression rooted in a plain name, with the
        root rewritten through the import aliases (like
        :meth:`FileContext.resolve_call`, but relative-import aware)."""
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    # -- visitors ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append({
                "module": alias.name,
                "names": [],
                "line": node.lineno,
                "toplevel": not self._func_stack,
            })
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".", 1)[0]
                self.aliases[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = self._absolute_module(node.level, node.module)
        names = [alias.name for alias in node.names]
        self.imports.append({
            "module": module,
            "names": names,
            "line": node.lineno,
            "toplevel": not self._func_stack,
        })
        for alias in node.names:
            local = alias.asname or alias.name
            if alias.name == "*":
                continue
            self.aliases[local] = "%s.%s" % (module, alias.name)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = ".".join(self._class_stack + [node.name])
        bases = []
        for base in node.bases:
            resolved = self.resolve_name(base)
            if resolved:
                bases.append(resolved)
        fields = []
        methods = []
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                fields.append({
                    "name": item.target.id,
                    "annotation": _unparse(item.annotation),
                    "line": item.lineno,
                })
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(item.name)
        self.classes.append({
            "name": node.name,
            "qualname": qualname,
            "line": node.lineno,
            "bases": bases,
            "decorators": [
                d for d in (
                    self.resolve_name(
                        dec.func if isinstance(dec, ast.Call) else dec
                    )
                    for dec in node.decorator_list
                ) if d
            ],
            "is_dataclass": _has_dataclass_decorator(node),
            "is_enum": any(
                b.split(".")[-1].endswith("Enum") or b.startswith("enum.")
                for b in bases
            ),
            "nested": bool(self._func_stack),
            "methods": methods,
            "fields": fields,
        })
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        qualname = ".".join(self._class_stack + [node.name])
        params = []
        args = node.args
        all_args = list(getattr(args, "posonlyargs", [])) + list(args.args)
        all_args += args.kwonlyargs
        for arg in all_args:
            params.append({
                "name": arg.arg,
                "annotation": _unparse(arg.annotation),
            })
        if args.vararg:
            params.append({"name": args.vararg.arg, "annotation": None})
        if args.kwarg:
            params.append({"name": args.kwarg.arg, "annotation": None})
        self.functions.append({
            "name": node.name,
            "qualname": qualname,
            "line": node.lineno,
            "cls": self._class_stack[-1] if self._class_stack else None,
            "nested": bool(self._func_stack),
            "params": params,
            "returns": _unparse(node.returns),
        })
        # Collect this function's local assignments for taint lookups,
        # and self.<attr> assignments for cross-method resolution.
        scope: Dict[str, List[ast.expr]] = {}
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._record_assign(target, stmt.value, scope, qualname)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._record_assign(stmt.target, stmt.value, scope, qualname)
        self._func_stack.append(node)
        self._scope_stack.append(scope)
        self.generic_visit(node)
        self._scope_stack.pop()
        self._func_stack.pop()

    def _record_assign(self, target, value, scope, qualname) -> None:
        if isinstance(target, ast.Name):
            scope.setdefault(target.id, []).append(value)
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                self._record_assign(element, value, scope, qualname)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._self_assigns.setdefault(target.attr, []).append(
                (qualname, value)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._func_stack:  # module scope
            for target in node.targets:
                self._record_assign(target, node.value, self._scope_stack[0],
                                    "<module>")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._func_stack and node.value is not None:
            self._record_assign(node.target, node.value, self._scope_stack[0],
                                "<module>")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = self.resolve_name(node.func)
        if name in RNG_CONSTRUCTORS:
            self._record_rng_site(node, name)
        else:
            self._record_call_site(node, name)
        self.generic_visit(node)

    # -- taint -------------------------------------------------------------

    def _enclosing(self) -> Tuple[str, Set[str]]:
        """Qualname + parameter-name set of the innermost function."""
        if not self._func_stack:
            return "<module>", set()
        node = self._func_stack[-1]
        # Reconstruct the qualname the same way _visit_function did; the
        # class stack still holds the right prefix while we are inside.
        qualname = ".".join(self._class_stack + [node.name])
        args = node.args
        names = {a.arg for a in getattr(args, "posonlyargs", [])}
        names |= {a.arg for a in args.args}
        names |= {a.arg for a in args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        names.discard("self")
        names.discard("cls")
        return qualname, names

    def _record_rng_site(self, node: ast.Call, constructor: str) -> None:
        qualname, _ = self._enclosing()
        seed_args = list(node.args) + [kw.value for kw in node.keywords]
        if not seed_args:
            taint = _Taint(TAINT_POISON)  # OS entropy: unreplayable
        else:
            taint = _Taint.combine(
                self._taint(arg, set()) for arg in seed_args
            )
        self.rng_sites.append({
            "line": node.lineno,
            "col": node.col_offset,
            "constructor": constructor,
            "function": qualname,
            "status": taint.kind,
            "deps": sorted("%s:%s" % d for d in taint.deps),
        })

    def _record_call_site(self, node: ast.Call, name: Optional[str]) -> None:
        if not node.args and not node.keywords:
            return
        callee = self._callee_qualname(node, name)
        if callee is None:
            return
        qualname, _ = self._enclosing()
        self.calls.append({
            "callee": callee,
            "line": node.lineno,
            "caller": qualname,
            "args": [
                self._taint(arg, set()).encode() for arg in node.args
            ],
            "kwargs": {
                kw.arg: self._taint(kw.value, set()).encode()
                for kw in node.keywords if kw.arg
            },
        })

    def _callee_qualname(self, node: ast.Call, name: Optional[str]
                         ) -> Optional[str]:
        """Project-resolvable callee name, or None to skip the record."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and self._class_stack
        ):
            return "%s.%s.%s" % (
                self.module, self._class_stack[-1], func.attr
            )
        if name is None:
            return None
        root = name.split(".", 1)[0]
        if root == self.module.split(".", 1)[0] or "." not in name:
            # Locally-defined or project-absolute reference.
            if "." not in name:
                return "%s.%s" % (self.module, name)
            return name
        if name.startswith("repro."):
            return name
        return None

    def _taint(self, expr: ast.expr, visited: Set[str]) -> _Taint:
        if isinstance(expr, ast.Constant):
            return _Taint(TAINT_NEUTRAL)
        if isinstance(expr, ast.Name):
            return self._taint_name(expr.id, visited)
        if isinstance(expr, ast.Attribute):
            return self._taint_attribute(expr, visited)
        if isinstance(expr, ast.Call):
            return self._taint_call(expr, visited)
        if isinstance(expr, ast.BinOp):
            return _Taint.combine([
                self._taint(expr.left, visited),
                self._taint(expr.right, visited),
            ])
        if isinstance(expr, ast.UnaryOp):
            return self._taint(expr.operand, visited)
        if isinstance(expr, ast.BoolOp):
            return _Taint.combine(
                self._taint(v, visited) for v in expr.values
            )
        if isinstance(expr, ast.IfExp):
            return _Taint.combine([
                self._taint(expr.body, visited),
                self._taint(expr.orelse, visited),
            ])
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return _Taint.combine(
                self._taint(e, visited) for e in expr.elts
            )
        if isinstance(expr, ast.Subscript):
            return self._taint(expr.value, visited)
        if isinstance(expr, ast.Starred):
            return self._taint(expr.value, visited)
        return _Taint(TAINT_NEUTRAL)

    def _taint_name(self, name: str, visited: Set[str]) -> _Taint:
        qualname, params = self._enclosing()
        if name in params:
            if is_seed_name(name):
                return _Taint(TAINT_SEEDED)
            return _Taint(TAINT_PARAMS, {(qualname, name)})
        if name in visited:
            return _Taint(TAINT_NEUTRAL)
        visited = visited | {name}
        # Innermost scope first, then module scope.
        for scope in (self._scope_stack[-1], self._scope_stack[0]):
            if name in scope:
                return _Taint.combine(
                    self._taint(value, visited) for value in scope[name]
                )
        if is_seed_name(name):
            return _Taint(TAINT_SEEDED)
        return _Taint(TAINT_NEUTRAL)

    def _taint_attribute(self, expr: ast.Attribute, visited: Set[str]
                         ) -> _Taint:
        if is_seed_name(expr.attr):
            return _Taint(TAINT_SEEDED)
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self._self_assigns
        ):
            key = "self.%s" % expr.attr
            if key in visited:
                return _Taint(TAINT_NEUTRAL)
            visited = visited | {key}
            taints = []
            for init_qualname, value in self._self_assigns[expr.attr]:
                taint = self._taint_in_function(
                    value, init_qualname, visited
                )
                taints.append(taint)
            return _Taint.combine(taints)
        return self._taint(expr.value, visited)

    def _taint_in_function(self, expr: ast.expr, qualname: str,
                           visited: Set[str]) -> _Taint:
        """Taint of an expression that lives in another method's body.

        Parameter references resolve against *that* function's signature
        (found by qualname), producing cross-function dependencies like
        ``("Policy.__init__", "start")``.
        """
        params: Set[str] = set()
        for record in self.functions:
            if record["qualname"] == qualname:
                params = {p["name"] for p in record["params"]}
                params.discard("self")
                break
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in params:
                if is_seed_name(node.id):
                    return _Taint(TAINT_SEEDED)
                return _Taint(TAINT_PARAMS, {(qualname, node.id)})
        # No parameter involvement: fall back to ordinary evaluation.
        return self._taint(expr, visited)

    def _taint_call(self, expr: ast.Call, visited: Set[str]) -> _Taint:
        name = self.resolve_name(expr.func)
        if name in POISON_CALLS:
            return _Taint(TAINT_POISON)
        if isinstance(expr.func, ast.Attribute) and (
            expr.func.attr in SEED_METHODS or is_seed_name(expr.func.attr)
        ):
            return _Taint(TAINT_SEEDED)
        if name is not None and is_seed_name(name.split(".")[-1]):
            return _Taint(TAINT_SEEDED)
        arg_taints = [self._taint(a, visited) for a in expr.args]
        arg_taints += [
            self._taint(kw.value, visited) for kw in expr.keywords
        ]
        if name in _TRANSPARENT_CALLS or arg_taints:
            return _Taint.combine(arg_taints)
        return _Taint(TAINT_NEUTRAL)


def _unparse(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return None


def _has_dataclass_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def summarize_module(path: str, tree: ast.Module) -> Dict[str, object]:
    """Extract the JSON-ready :class:`ModuleSummary` facts of one file."""
    module, is_package = module_name_for(Path(path))
    extractor = _ModuleExtractor(path, module, is_package, tree)
    extractor.visit(tree)
    return {
        "path": path,
        "module": module,
        "package": is_package,
        "imports": extractor.imports,
        "aliases": extractor.aliases,
        "classes": extractor.classes,
        "functions": extractor.functions,
        "rng_sites": extractor.rng_sites,
        "calls": extractor.calls,
    }


#: Typing-syntax tokens ignored when extracting class names from an
#: annotation string.
_TYPING_TOKENS = frozenset((
    "Optional", "Union", "List", "Dict", "Tuple", "Set", "FrozenSet",
    "Sequence", "Iterable", "Mapping", "Any", "None", "NoneType", "str",
    "int", "float", "bool", "bytes", "object", "type", "Type", "Literal",
    "typing", "collections", "abc",
))


def annotation_identifiers(annotation: str) -> List[str]:
    """Dotted identifiers referenced by an annotation string.

    ``"Optional[Tuple[PairRecord, ...]]"`` yields ``["PairRecord"]``;
    typing scaffolding and builtins are filtered out, dotted names are
    kept whole (``"obs.Span"`` stays one identifier).
    """
    out: List[str] = []
    token = []
    for char in annotation + " ":
        if char.isalnum() or char in "._":
            token.append(char)
            continue
        if token:
            name = "".join(token).strip(".")
            token = []
            if not name or name[0].isdigit():
                continue
            head = name.split(".", 1)[0]
            if name in _TYPING_TOKENS or head == "typing":
                continue
            out.append(name)
    return out


class Project:
    """Cross-module view over a set of :func:`summarize_module` outputs."""

    def __init__(self, summaries: Sequence[Dict[str, object]]):
        #: path -> summary, in walk order.
        self.by_path: Dict[str, Dict[str, object]] = {
            s["path"]: s for s in summaries
        }
        #: dotted module name -> summary (last writer wins on collisions,
        #: which only happen for same-named scripts outside packages).
        self.by_module: Dict[str, Dict[str, object]] = {}
        for summary in summaries:
            self.by_module[summary["module"]] = summary
        self._ast_cache: Dict[str, Optional[ast.Module]] = {}
        self._functions: Optional[Dict[str, Dict[str, object]]] = None
        self._classes: Optional[Dict[str, Dict[str, object]]] = None

    # -- module / import graph --------------------------------------------

    def modules(self) -> List[str]:
        return sorted(self.by_module)

    def resolve_import_target(self, record: Dict[str, object]
                              ) -> List[Tuple[str, str]]:
        """Project modules one import record points at.

        Returns ``(target_module, via)`` pairs where ``via`` is the
        imported dotted path as written.  ``from repro import obs``
        resolves to ``repro.obs`` (the submodule, not the package init:
        the architectural dependency is on the submodule).
        """
        module = record["module"]
        names = record["names"]
        targets: List[Tuple[str, str]] = []
        if not names:  # plain ``import X.Y``
            if module in self.by_module:
                targets.append((module, module))
            return targets
        for name in names:
            dotted = "%s.%s" % (module, name) if module else name
            if dotted in self.by_module:
                targets.append((dotted, dotted))
            elif module in self.by_module:
                targets.append((module, dotted))
        return targets

    def import_edges(self, toplevel_only: bool = False
                     ) -> Dict[str, List[Dict[str, object]]]:
        """Adjacency of project-internal imports.

        Each edge dict has ``target`` (module), ``via`` (dotted path as
        written), ``line``, and ``toplevel``.
        """
        edges: Dict[str, List[Dict[str, object]]] = {}
        for module in self.modules():
            summary = self.by_module[module]
            out: List[Dict[str, object]] = []
            for record in summary["imports"]:
                if toplevel_only and not record["toplevel"]:
                    continue
                for target, via in self.resolve_import_target(record):
                    if target == module:
                        continue
                    out.append({
                        "target": target,
                        "via": via,
                        "line": record["line"],
                        "toplevel": record["toplevel"],
                    })
            edges[module] = out
        return edges

    def cycles(self) -> List[List[str]]:
        """Strongly-connected components (size > 1) of the top-level
        import graph, each rotated to start at its smallest module."""
        edges = {
            module: sorted({e["target"] for e in out})
            for module, out in self.import_edges(toplevel_only=True).items()
        }
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        components: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: (node, iterator) frames.
            frames = [(node, iter(edges.get(node, ())))]
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while frames:
                current, it = frames[-1]
                advanced = False
                for target in it:
                    if target not in edges:
                        continue
                    if target not in index:
                        index[target] = low[target] = counter[0]
                        counter[0] += 1
                        stack.append(target)
                        on_stack.add(target)
                        frames.append((target, iter(edges.get(target, ()))))
                        advanced = True
                        break
                    if target in on_stack:
                        low[current] = min(low[current], index[target])
                if advanced:
                    continue
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[current])
                if low[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        components.append(component)

        for module in sorted(edges):
            if module not in index:
                strongconnect(module)
        out = []
        for component in components:
            pivot = component.index(min(component))
            out.append(component[pivot:] + component[:pivot])
        return sorted(out)

    # -- symbol indexes ----------------------------------------------------

    def functions_index(self) -> Dict[str, Dict[str, object]]:
        """``module.qualname`` -> function record (with ``module``/``path``
        attached)."""
        if self._functions is None:
            self._functions = {}
            for module in self.modules():
                summary = self.by_module[module]
                for record in summary["functions"]:
                    entry = dict(record)
                    entry["module"] = module
                    entry["path"] = summary["path"]
                    self._functions["%s.%s" % (module, record["qualname"])] \
                        = entry
        return self._functions

    def classes_index(self) -> Dict[str, Dict[str, object]]:
        """``module.qualname`` -> class record (with ``module``/``path``)."""
        if self._classes is None:
            self._classes = {}
            for module in self.modules():
                summary = self.by_module[module]
                for record in summary["classes"]:
                    entry = dict(record)
                    entry["module"] = module
                    entry["path"] = summary["path"]
                    self._classes["%s.%s" % (module, record["qualname"])] \
                        = entry
        return self._classes

    def resolve_class(self, name: str, module: str
                      ) -> Optional[Dict[str, object]]:
        """Resolve a class reference as written in ``module``.

        Tries, in order: an alias imported into the module, a class
        defined in the module, and an absolute dotted path.
        """
        summary = self.by_module.get(module)
        classes = self.classes_index()
        candidates = []
        if summary is not None:
            root = name.split(".", 1)[0]
            aliases = summary["aliases"]
            if root in aliases:
                rest = name.split(".", 1)[1] if "." in name else ""
                resolved = aliases[root] + (("." + rest) if rest else "")
                candidates.append(resolved)
            candidates.append("%s.%s" % (module, name))
        candidates.append(name)
        for candidate in candidates:
            if candidate in classes:
                return classes[candidate]
        return None

    def calls_to(self, qualname: str) -> List[Dict[str, object]]:
        """Every recorded call site whose callee resolves to ``qualname``
        (or to ``qualname`` minus a trailing ``.__init__``)."""
        wanted = {qualname}
        if qualname.endswith(".__init__"):
            wanted.add(qualname[: -len(".__init__")])
        out = []
        for module in self.modules():
            summary = self.by_module[module]
            for call in summary["calls"]:
                callee = call["callee"]
                resolved = self._resolve_callee(callee, module)
                if resolved in wanted or callee in wanted:
                    entry = dict(call)
                    entry["module"] = module
                    entry["path"] = summary["path"]
                    out.append(entry)
        return out

    def _resolve_callee(self, callee: str, module: str) -> str:
        """Follow one alias hop so ``repro.api.TraceGenerator`` and
        re-exports still match the defining module where possible."""
        if callee in self.functions_index() or callee in self.classes_index():
            return callee
        summary = self.by_module.get(module)
        if summary is None:
            return callee
        # ``module.func`` where func was imported from elsewhere.
        prefix = module + "."
        if callee.startswith(prefix):
            local = callee[len(prefix):]
            root = local.split(".", 1)[0]
            aliases = summary["aliases"]
            if root in aliases:
                rest = local.split(".", 1)[1] if "." in local else ""
                return aliases[root] + (("." + rest) if rest else "")
        return callee

    # -- lazy ASTs ---------------------------------------------------------

    def ast(self, module: str) -> Optional[ast.Module]:
        """Parse (and memoize) one module's source on demand."""
        if module not in self._ast_cache:
            summary = self.by_module.get(module)
            tree: Optional[ast.Module] = None
            if summary is not None:
                try:
                    source = Path(summary["path"]).read_text(encoding="utf-8")
                    tree = ast.parse(source, filename=summary["path"])
                except (OSError, SyntaxError, UnicodeDecodeError):
                    tree = None
            self._ast_cache[module] = tree
        return self._ast_cache[module]

    def path_of(self, module: str) -> Optional[str]:
        summary = self.by_module.get(module)
        return None if summary is None else summary["path"]
