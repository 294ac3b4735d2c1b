"""The ``repro lint`` engine: parse, run rules and analyzers, apply
suppressions.

The engine is deliberately small: it parses each file once, hands the
resulting :class:`FileContext` to every registered rule, summarizes the
file for the whole-program :class:`~repro.lint.project.Project`, runs
every registered analyzer over that project, and filters all findings
through ``# repro: noqa[RULE]`` suppressions.  Rules and analyzers are
plain objects registered with :func:`repro.lint.rules.register` and
:func:`repro.lint.analyzers.register_analyzer`; nothing here knows what
any individual check does.

Determinism note: findings are reported in (path, line, column, rule)
order and directory walks are sorted, so two runs over the same tree
always produce byte-identical output — the same property the result
cache demands of the simulation itself.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import LintError

#: Pseudo rule id attached to files the engine cannot parse.  It is not a
#: registered rule (nothing to configure) but it participates in noqa
#: handling and reporting like any other id.
PARSE_RULE_ID = "PAR000"

#: ``# repro: noqa`` or ``# repro: noqa[RNG001]`` / ``[RNG001,MUT001]``.
#: The lookahead keeps ``noqa-file`` from matching as a bare line noqa.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?!-)"
    r"(?:\[(?P<rules>[A-Z]{2,4}\d{3}(?:\s*,\s*[A-Z]{2,4}\d{3})*)\])?"
)

#: ``# repro: noqa-file`` / ``noqa-file[LAY001]``: suppress for the whole
#: file.  Honored only in the first few lines so the directive is always
#: visible at the top, next to the comment explaining it.
_NOQA_FILE_RE = re.compile(
    r"#\s*repro:\s*noqa-file"
    r"(?:\[(?P<rules>[A-Z]{2,4}\d{3}(?:\s*,\s*[A-Z]{2,4}\d{3})*)\])?"
)

#: How far down a file a ``noqa-file`` directive is honored.
NOQA_FILE_WINDOW = 5


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
        }

    def __str__(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.column, self.rule_id, self.message
        )


class FileContext:
    """Everything a rule may want to know about one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        #: Path components, used by rules scoped to subtrees (FLT001).
        self.path_parts: Tuple[str, ...] = Path(path).parts
        self._docstring_lines: Optional[Set[int]] = None
        self._import_aliases: Optional[Dict[str, str]] = None

    # -- shared per-file analyses (computed once, used by several rules) --

    @property
    def docstring_lines(self) -> Set[int]:
        """Line numbers covered by docstring constants."""
        if self._docstring_lines is None:
            lines: Set[int] = set()
            for node in ast.walk(self.tree):
                if not isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                           ast.AsyncFunctionDef)
                ):
                    continue
                body = getattr(node, "body", [])
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    doc = body[0].value
                    end = getattr(doc, "end_lineno", doc.lineno) or doc.lineno
                    lines.update(range(doc.lineno, end + 1))
            self._docstring_lines = lines
        return self._docstring_lines

    @property
    def import_aliases(self) -> Dict[str, str]:
        """Local name -> fully-qualified dotted name, from the imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
        random`` maps ``random -> numpy.random``; ``from random import
        randint`` maps ``randint -> random.randint``.
        """
        if self._import_aliases is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            aliases[alias.asname] = alias.name
                        else:
                            root = alias.name.split(".", 1)[0]
                            aliases[root] = root
                elif isinstance(node, ast.ImportFrom) and node.module:
                    if node.level:  # relative import: never stdlib/numpy
                        continue
                    for alias in node.names:
                        local = alias.asname or alias.name
                        aliases[local] = "%s.%s" % (node.module, alias.name)
            self._import_aliases = aliases
        return self._import_aliases

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Resolve a call's function expression to a dotted name.

        Follows ``Attribute`` chains down to a root ``Name`` and rewrites
        the root through :attr:`import_aliases`, so ``np.random.rand``
        resolves to ``numpy.random.rand`` under ``import numpy as np``.
        Returns ``None`` for anything not rooted in a plain name
        (e.g. ``self._rng.random``).
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.import_aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


def line_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppression map: line -> rule-id set, or None for "all"."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None  # bare noqa: everything on this line
        else:
            table[lineno] = {r.strip() for r in rules.split(",")}
    return table


def file_suppressions(source: str):
    """File-level suppression from a ``noqa-file`` directive.

    Returns ``...`` when no directive is present, ``None`` for a bare
    ``# repro: noqa-file`` (suppress every rule), or the set of rule
    ids.  Only the first :data:`NOQA_FILE_WINDOW` lines are scanned.
    """
    for text in source.splitlines()[:NOQA_FILE_WINDOW]:
        match = _NOQA_FILE_RE.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            return None
        return {r.strip() for r in rules.split(",")}
    return ...


def _filter_suppressed(findings: Iterable[Finding],
                       source: str) -> List[Finding]:
    """Apply file-level then line-level noqa directives."""
    file_noqa = file_suppressions(source)
    per_line = line_suppressions(source)
    kept = []
    for finding in findings:
        if file_noqa is None:
            continue  # bare noqa-file
        if file_noqa is not ... and finding.rule_id in file_noqa:
            continue
        allowed = per_line.get(finding.line, ...)
        if allowed is None:
            continue  # bare noqa
        if allowed is not ... and finding.rule_id in allowed:
            continue
        kept.append(finding)
    return kept


def _check_source(
    source: str, path: str, rules: Optional[Sequence] = None
) -> Tuple[List[Finding], Optional[ast.Module]]:
    """Parse one file and run the per-file rules over it.

    Returns the suppression-filtered findings, sorted by location, and
    the parsed tree (``None`` when the file does not parse).
    """
    from .rules import active_rules

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 1),
                rule_id=PARSE_RULE_ID,
                message="cannot parse file: %s" % error.msg,
            )
        ], None
    ctx = FileContext(path, source, tree)
    findings = [
        finding for rule in active_rules(rules) for finding in rule.check(ctx)
    ]
    return sorted(_filter_suppressed(findings, source)), tree


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence] = None,
) -> List[Finding]:
    """Lint one source string with the per-file rules and return its
    (suppression-filtered) findings, sorted by location."""
    return _check_source(source, path, rules)[0]


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files and directories into a sorted list of ``*.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(path)
        else:
            raise LintError("no such file or directory: %s" % raw)
    # De-duplicate while keeping the sorted-per-argument order stable.
    seen: Set[Path] = set()
    unique = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


@dataclass
class LintRun:
    """The outcome of one :func:`run_lint` invocation."""

    findings: List[Finding]
    parse_failures: int


def run_lint(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
) -> LintRun:
    """Run both tiers over ``paths``: the per-file rules on every file,
    then the whole-program analyzers on the project the files form.

    ``select`` is a sequence of rule/analyzer ids; ``None`` means
    everything registered.  Parse failures are reported whatever the
    selection.
    """
    from .analyzers import active_analyzers, analyzer_ids
    from .project import Project, summarize_module
    from .rules import active_rules, rule_ids

    rules = analyzers = None
    if select is not None:
        known_rules = set(rule_ids())
        known_analyzers = set(analyzer_ids())
        unknown = sorted(
            set(select) - known_rules - known_analyzers - {PARSE_RULE_ID}
        )
        if unknown:
            raise LintError(
                "unknown rule or analyzer id(s): %s (registered: %s)"
                % (", ".join(unknown),
                   ", ".join(sorted(known_rules | known_analyzers)))
            )
        rules = [s for s in select if s in known_rules]
        analyzers = [s for s in select if s in known_analyzers]

    rule_objects = active_rules(rules)
    findings: List[Finding] = []
    sources: Dict[str, str] = {}
    summaries = []
    # Path order fixes the project's module order, and with it which
    # call site an analyzer message names first.
    for path_str in sorted(str(path) for path in iter_python_files(paths)):
        try:
            source = Path(path_str).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(path_str, 1, 1, PARSE_RULE_ID,
                                    "cannot read file: %s" % error))
            continue
        file_findings, tree = _check_source(source, path_str, rule_objects)
        findings.extend(file_findings)
        if tree is not None:
            sources[path_str] = source
            summaries.append(summarize_module(path_str, tree))

    project = Project(summaries)
    by_path: Dict[str, List[Finding]] = {}
    for analyzer in active_analyzers(analyzers):
        for finding in analyzer.check(project):
            by_path.setdefault(finding.path, []).append(finding)
    for path_str, group in by_path.items():
        findings.extend(_filter_suppressed(group, sources.get(path_str, "")))

    findings.sort()
    parse_failures = sum(
        1 for finding in findings if finding.rule_id == PARSE_RULE_ID
    )
    return LintRun(findings=findings, parse_failures=parse_failures)
