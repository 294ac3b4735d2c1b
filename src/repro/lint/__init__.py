"""``repro.lint`` — the repository's own static-analysis pass.

One pass, two tiers, both always run:

* **Per-file rules** — AST checks a single file can prove: no ambient
  randomness (the result cache assumes bit-identical replay), picklable
  pool/cache-crossing types, no float equality in the analysis layers,
  counter names sourced from :mod:`repro.perf.counters` only, no
  mutable defaults, and no hard-coded seeds in public RNG-constructing
  functions.
* **Whole-program analyzers** — invariants that only hold across module
  boundaries: layer ordering, import cycles and the examples/docs facade
  (LAY001), seed-taint dataflow through the call graph (SEED010),
  cache-key completeness against what the engines actually read
  (KEY001), and transitive picklability of the worker result channel
  (PKL010).

Each concern has exactly one owning check, so a defect is reported once.
Run it as ``python -m repro lint [paths]``; suppress a finding in place
with ``# repro: noqa[RULE001]`` (or a bare ``# repro: noqa``), or a whole
file with a ``# repro: noqa-file[RULE001]`` directive in the first five
lines.  Register project-specific rules with
:func:`repro.lint.rules.register` and analyzers with
:func:`repro.lint.analyzers.register_analyzer`.
"""

from .analyzers import (
    ProjectAnalyzer,
    active_analyzers,
    all_analyzers,
    analyzer_ids,
    get_analyzer,
    register_analyzer,
)
from .engine import (
    PARSE_RULE_ID,
    FileContext,
    Finding,
    LintRun,
    file_suppressions,
    iter_python_files,
    line_suppressions,
    lint_source,
    run_lint,
)
from .project import Project, summarize_module
from .reporters import render, render_json, render_sarif, render_text
from .rules import Rule, active_rules, all_rules, get_rule, register, rule_ids

__all__ = [
    "PARSE_RULE_ID",
    "FileContext",
    "Finding",
    "LintRun",
    "Project",
    "ProjectAnalyzer",
    "Rule",
    "active_analyzers",
    "active_rules",
    "all_analyzers",
    "all_rules",
    "analyzer_ids",
    "file_suppressions",
    "get_analyzer",
    "get_rule",
    "iter_python_files",
    "line_suppressions",
    "lint_source",
    "register",
    "register_analyzer",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "run_lint",
    "summarize_module",
]
