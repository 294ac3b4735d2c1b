"""Engine behavior: suppressions, registry, reporters, CLI, self-check."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import LintError
from repro.lint import (
    Finding,
    Rule,
    get_rule,
    lint_source,
    render,
    render_json,
    render_text,
    run_lint,
)
from repro.lint import rules as rules_module
from repro.lint.rules import register
from repro.reports.cli import main

VIOLATION = textwrap.dedent("""
    import numpy as np
    x = np.random.rand(4)
""")


class TestSuppression:
    def test_targeted_noqa_suppresses_the_named_rule(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(4)  # repro: noqa[RNG001]\n"
        )
        assert lint_source(source) == []

    def test_bare_noqa_suppresses_everything_on_the_line(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(4)  # repro: noqa\n"
        )
        assert lint_source(source) == []

    def test_noqa_for_another_rule_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(4)  # repro: noqa[MUT001]\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["RNG001"]

    def test_noqa_list_suppresses_each_named_rule(self):
        source = (
            "import numpy as np\n"
            "def f(x=[]):\n"
            "    return np.random.rand(4), x  # repro: noqa[RNG001, MUT001]\n"
        )
        # The mutable default sits on line 2, outside the suppressed line.
        assert [f.rule_id for f in lint_source(source)] == ["MUT001"]

    def test_noqa_only_covers_its_own_line(self):
        source = (
            "import numpy as np  # repro: noqa[RNG001]\n"
            "x = np.random.rand(4)\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["RNG001"]


class TestRegistry:
    def test_custom_rule_participates(self):
        class TodoRule(Rule):
            rule_id = "TST901"
            summary = "no TODO markers"

            def check(self, ctx):
                for node in ast.walk(ctx.tree):
                    if (
                        isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and "TODO" in node.value
                    ):
                        yield self._finding(ctx, node, "TODO in string")

        register(TodoRule)
        try:
            findings = lint_source('x = "TODO: later"\n')
            assert "TST901" in [f.rule_id for f in findings]
        finally:
            rules_module._REGISTRY.pop("TST901")

    def test_duplicate_rule_id_rejected(self):
        class Duplicate(Rule):
            rule_id = "RNG001"

            def check(self, ctx):
                return iter(())

        with pytest.raises(LintError, match="duplicate"):
            register(Duplicate)

    def test_malformed_rule_id_rejected(self):
        class Unnamed(Rule):
            rule_id = "lowercase1"

            def check(self, ctx):
                return iter(())

        with pytest.raises(LintError, match="rule id"):
            register(Unnamed)

    def test_unknown_rule_lookup_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            get_rule("ZZZ999")

    def test_rule_selection_by_id(self):
        source = (
            "import numpy as np\n"
            "def f(x=[]):\n"
            "    return np.random.rand(4), x\n"
        )
        only_mut = lint_source(source, rules=["MUT001"])
        assert [f.rule_id for f in only_mut] == ["MUT001"]


class TestPathWalking:
    def test_directory_walk_is_sorted_and_recursive(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text(VIOLATION)
        (tmp_path / "pkg" / "a.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python")
        findings = run_lint([str(tmp_path)]).findings
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="no such file"):
            run_lint([str(tmp_path / "nope")])

    def test_duplicate_arguments_deduplicate(self, tmp_path):
        target = tmp_path / "x.py"
        target.write_text(VIOLATION)
        findings = run_lint([str(target), str(target)]).findings
        assert len(findings) == 1


class TestReporters:
    def make_finding(self):
        return Finding("src/x.py", 3, 7, "RNG001", "message here")

    def test_text_format_is_flake8_style(self):
        text = render_text([self.make_finding()])
        assert "src/x.py:3:7: RNG001 message here" in text
        assert "1 finding (RNG001 x1)" in text

    def test_text_format_clean(self):
        assert "clean" in render_text([])

    def test_json_format_round_trips(self):
        payload = json.loads(render_json([self.make_finding()]))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "RNG001"
        assert payload["findings"][0]["line"] == 3

    def test_unknown_format_raises(self):
        with pytest.raises(LintError, match="format"):
            render([], "yaml")


class TestCLI:
    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATION)
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RNG001" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "good.py"
        target.write_text("def f(seed):\n    return seed\n")
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATION)
        assert main(["lint", "--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_select_subset_of_rules(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATION)
        assert main(["lint", "--select", "MUT001", str(target)]) == 0
        assert main(["lint", "--select", "MUT001,RNG001", str(target)]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RNG001", "PKL001", "FLT001",
                        "CTR001", "MUT001", "SEED001"):
            assert rule_id in out

    def test_missing_path_is_an_internal_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "gone")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSelfCheck:
    def test_repro_source_tree_is_lint_clean(self):
        src_root = Path(repro.__file__).parent
        findings = run_lint([str(src_root)]).findings
        assert findings == [], "\n" + render_text(findings)
