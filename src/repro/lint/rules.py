"""The ``repro lint`` rule registry and the built-in rules.

Each rule is a class with a unique ``rule_id`` (three letters + three
digits), a one-line ``summary``, and a ``check(ctx)`` generator yielding
:class:`~repro.lint.engine.Finding` objects.  Register new rules with the
:func:`register` decorator; ``repro lint`` picks them up automatically.

The built-in rules encode this repository's determinism and consistency
contract: the result cache keys simulations by content hash and assumes
bit-identical replay (no ambient randomness), results cross process-pool
and cache boundaries (everything must be reconstructible), and the
counter layer is the single source of truth for perf event names.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from ..errors import LintError
from ..perf import counters as _counters
from .engine import FileContext, Finding

#: Shape every rule id must have (also mirrored by the noqa parser).
_RULE_ID_RE = re.compile(r"[A-Z]{2,4}\d{3}")

#: Registry of rule classes by id, in registration order.
_REGISTRY: Dict[str, Type["Rule"]] = {}


def register(rule_class: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the registry (unique id required)."""
    rule_id = getattr(rule_class, "rule_id", "")
    if not _RULE_ID_RE.fullmatch(rule_id or ""):
        raise LintError(
            "rule id must be 2-4 capitals + three digits, got %r" % rule_id
        )
    if rule_id in _REGISTRY:
        raise LintError("duplicate rule id %r" % rule_id)
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> Tuple["Rule", ...]:
    """One fresh instance of every registered rule."""
    return tuple(cls() for cls in _REGISTRY.values())


def rule_ids() -> Tuple[str, ...]:
    """Registered per-file rule ids, in registration order."""
    return tuple(_REGISTRY)


def get_rule(rule_id: str) -> "Rule":
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise LintError(
            "unknown rule %r (registered: %s)"
            % (rule_id, ", ".join(sorted(_REGISTRY)))
        ) from None


def active_rules(rules: Optional[Sequence] = None) -> Tuple["Rule", ...]:
    """Normalize a rule selection: None means every registered rule;
    strings are looked up by id; rule instances pass through."""
    if rules is None:
        return all_rules()
    out: List[Rule] = []
    for item in rules:
        out.append(get_rule(item) if isinstance(item, str) else item)
    return tuple(out)


class Rule:
    """Base class for lint rules."""

    rule_id: str = "XXX000"
    summary: str = ""
    #: When non-empty, the rule only fires in files whose path contains
    #: one of these directory components.
    only_in: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.only_in:
            return True
        directories = ctx.path_parts[:-1]
        return any(part in directories for part in self.only_in)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(node, self.rule_id, message)


# ---------------------------------------------------------------------------
# RNG001 — no global-state randomness
# ---------------------------------------------------------------------------

#: Seeded RNG constructors and machinery that are fine to call; everything
#: else reached through ``random.*`` or ``numpy.random.*`` draws from (or
#: mutates) interpreter-global state and breaks bit-identical replay.
_RNG_ALLOWED = frozenset((
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
))


@register
class GlobalRandomnessRule(Rule):
    """Calls to module-level RNG functions (``random.random()``,
    ``np.random.rand()``, ``np.random.seed()``, ...) draw from hidden
    global state, so two runs of the same content-hashed input can
    diverge.  All randomness must flow through an explicitly seeded
    ``np.random.Generator`` (or seeded ``random.Random`` instance)."""

    rule_id = "RNG001"
    summary = "no global-state randomness; use a seeded Generator"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node.func)
            if name is None or name in _RNG_ALLOWED:
                continue
            if name.startswith("random.") or name.startswith("numpy.random."):
                yield self._finding(
                    ctx, node,
                    "global-state randomness %r; route it through an "
                    "explicitly seeded np.random.Generator" % name,
                )


# ---------------------------------------------------------------------------
# PKL001 — results and errors must survive pickling
# ---------------------------------------------------------------------------

def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


def _looks_like_exception(node: ast.ClassDef) -> bool:
    return any(
        name.endswith("Error") or name.endswith("Exception")
        or name == "BaseException"
        for name in _base_names(node)
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


@register
class PicklabilityRule(Rule):
    """Exceptions and dataclasses cross the process-pool and result-cache
    boundaries, where they are rebuilt by pickle.  ``Exception.__reduce__``
    replays only ``self.args``, so an exception with a custom ``__init__``
    signature needs a matching ``__reduce__`` — the bug class fixed twice
    in PR 1.  Classes defined inside function bodies can never be
    pickled at all."""

    rule_id = "PKL001"
    summary = "pool/cache-crossing types must be reconstructible"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if not isinstance(inner, ast.ClassDef):
                        continue
                    if _looks_like_exception(inner) or _is_dataclass(inner):
                        yield self._finding(
                            ctx, inner,
                            "class %r is defined inside a function body; "
                            "its instances cannot cross pickle boundaries"
                            % inner.name,
                        )
            elif isinstance(node, ast.ClassDef):
                if not _looks_like_exception(node):
                    continue
                methods = {
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if "__init__" in methods and "__reduce__" not in methods:
                    yield self._finding(
                        ctx, node,
                        "exception %r defines __init__ without __reduce__; "
                        "it will not survive unpickling across the process "
                        "pool" % node.name,
                    )


# ---------------------------------------------------------------------------
# FLT001 — no float equality in the analysis layers
# ---------------------------------------------------------------------------

def _is_floaty(node: ast.expr, ctx: FileContext) -> bool:
    """Heuristic: does this expression smell like a float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand, ctx)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floaty(node.left, ctx) or _is_floaty(node.right, ctx)
    if isinstance(node, ast.Call):
        name = ctx.resolve_call(node.func)
        return name in ("float", "numpy.float64", "numpy.float32")
    return False


@register
class FloatEqualityRule(Rule):
    """``==`` / ``!=`` between floats silently depends on rounding; in the
    statistics and analysis layers a drifting ulp flips cluster counts and
    Pareto fronts.  Compare with an explicit tolerance
    (``math.isclose`` / ``np.isclose``) or restructure the test."""

    rule_id = "FLT001"
    summary = "no ==/!= on float expressions in stats/ and core/"
    only_in = ("stats", "core")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self.applies_to(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floaty(left, ctx) or _is_floaty(right, ctx):
                    yield self._finding(
                        ctx, node,
                        "equality comparison on a float expression; use "
                        "math.isclose/np.isclose or an explicit tolerance",
                    )
                    break


# ---------------------------------------------------------------------------
# CTR001 — perf event names live in repro.perf.counters only
# ---------------------------------------------------------------------------

#: Event-name prefixes derived from the counter registry itself, so this
#: rule needs no literal of its own and tracks new counters automatically.
_COUNTER_NAMES = frozenset(_counters.ALL_COUNTERS)
_COUNTER_PREFIXES = tuple(
    sorted({name.split(".", 1)[0] + "." for name in _COUNTER_NAMES})
)

#: The one module allowed to spell event names out.
_COUNTER_HOME = ("perf", "counters.py")


@register
class RawCounterLiteralRule(Rule):
    """Raw perf-event strings (``"mem_load_uops_retired.l1_hit"``) outside
    ``repro/perf/counters.py`` fork the source of truth: a typo'd literal
    fails at lookup time (or worse, silently with ``dict.get``) instead of
    at import time.  Use the named constants."""

    rule_id = "CTR001"
    summary = "no raw perf-event string literals outside perf/counters.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if tuple(ctx.path_parts[-2:]) == _COUNTER_HOME:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                continue
            if node.lineno in ctx.docstring_lines:
                continue
            value = node.value
            known = value in _COUNTER_NAMES or any(
                value.startswith(prefix) and len(value) > len(prefix)
                and not value[len(prefix):].startswith(" ")
                for prefix in _COUNTER_PREFIXES
            )
            if known:
                yield self._finding(
                    ctx, node,
                    "raw perf-event literal %r; use the named constant "
                    "from repro.perf.counters" % value,
                )


# ---------------------------------------------------------------------------
# MUT001 — no mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset((
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter",
))


def _is_mutable_literal(node: ast.expr, ctx: FileContext) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve_call(node.func) in _MUTABLE_CONSTRUCTORS
    return False


@register
class MutableDefaultRule(Rule):
    """A mutable default argument is created once at definition time and
    shared across every call — state leaks between supposedly independent
    runs, the classic Python footgun.  Default to ``None`` and create the
    container inside the function."""

    rule_id = "MUT001"
    summary = "no mutable default arguments"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default, ctx):
                    name = getattr(node, "name", "<lambda>")
                    yield self._finding(
                        ctx, default,
                        "mutable default argument in %r; default to None "
                        "and build the container in the body" % name,
                    )


# ---------------------------------------------------------------------------
# SEED001 — Generator-constructing public functions take a seed
# ---------------------------------------------------------------------------

_GENERATOR_CONSTRUCTORS = frozenset((
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "random.Random",
))

#: Parameter names that count as "the caller controls the randomness".
_SEED_PARAM_NAMES = frozenset((
    "seed", "rng", "random_state", "generator",
))


def _param_names(node) -> List[str]:
    args = node.args
    params = [a.arg for a in args.posonlyargs] if hasattr(args, "posonlyargs") else []
    params += [a.arg for a in args.args]
    params += [a.arg for a in args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def _names_in(node: ast.AST) -> Iterable[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id


@register
class HardCodedSeedRule(Rule):
    """A public function that builds its own RNG from a hard-coded seed
    cannot be replayed under a different seed and silently couples
    callers to one stream.  Thread the seed (or the Generator itself)
    through the signature, or derive it from instance state.  A
    constructor called with no seed at all draws OS entropy wherever it
    sits; that is SEED010's finding, in public and private code alike."""

    rule_id = "SEED001"
    summary = "public Generator-constructing functions must accept seed/rng"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_") and not (
                name.startswith("__") and name.endswith("__")
            ):
                continue  # private helpers may receive their rng
            params = set(_param_names(node))
            has_seed_param = bool(params & _SEED_PARAM_NAMES)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                resolved = ctx.resolve_call(call.func)
                if resolved not in _GENERATOR_CONSTRUCTORS:
                    continue
                if not call.args and not call.keywords:
                    continue  # no seed at all: SEED010 reports it
                seed_args = list(call.args) + [k.value for k in call.keywords]
                used = set()
                for arg in seed_args:
                    used.update(_names_in(arg))
                derived = used & (params | {"self", "cls"})
                if not derived and not has_seed_param:
                    yield self._finding(
                        ctx, call,
                        "%r hard-codes the seed of %s(); accept a "
                        "seed/rng parameter instead" % (name, resolved),
                    )
