"""Lint infrastructure: one report per defect, SARIF, noqa-file, CLI
semantics."""

import json
from pathlib import Path

from repro.lint import Finding, render_sarif, run_lint
from repro.lint.engine import file_suppressions, line_suppressions
from repro.reports.cli import main

RNG_SOURCE = "import numpy as np\nx = np.random.rand(4)\n"

GOLDEN_SARIF = Path(__file__).parent / "golden_lint.sarif"


#: Four defects in three files, each owned by exactly one check: two
#: deep imports in an example (LAY001), an unseeded generator in a public
#: function (SEED010), and an exception with ``__init__`` but no
#: ``__reduce__`` that reaches the process pool (PKL001).
FOUR_DEFECTS = {
    "examples/demo.py": """\
        from repro.uarch.core import SimulatedCore
        import repro.workloads.generator
    """,
    "repro/gen.py": """\
        import numpy as np


        def fresh():
            return np.random.default_rng()
    """,
    "repro/runner/runner.py": """\
        from concurrent.futures import ProcessPoolExecutor
        from dataclasses import dataclass


        class SweepError(Exception):
            def __init__(self, pair, detail):
                super().__init__(pair + detail)


        @dataclass
        class Result:
            err: SweepError


        def _work(x: int) -> Result:
            raise NotImplementedError


        def sweep(n):
            with ProcessPoolExecutor(max_workers=n) as pool:
                return pool.submit(_work, 1)
    """,
}


class TestOneReportPerDefect:
    def test_each_defect_is_reported_once(self, build_tree):
        root = build_tree(FOUR_DEFECTS)
        run = run_lint([str(root / "examples"), str(root / "repro")])
        assert [
            (Path(f.path).name, f.line, f.rule_id) for f in run.findings
        ] == [
            ("demo.py", 1, "LAY001"),
            ("demo.py", 2, "LAY001"),
            ("gen.py", 5, "SEED010"),
            ("runner.py", 5, "PKL001"),
        ]


class TestSarif:
    def findings(self):
        return [
            Finding(path="src/repro/uarch/core.py", line=24, column=1,
                    rule_id="LAY001",
                    message="layer 'uarch' must not import layer 'obs'"),
            Finding(path="src/repro/gen.py", line=7, column=12,
                    rule_id="SEED010",
                    message="seed of numpy.random.default_rng() traces to "
                            "parameter 'n' of repro.gen.make()"),
        ]

    def test_sarif_matches_the_golden_snapshot(self):
        rendered = render_sarif(self.findings())
        golden = GOLDEN_SARIF.read_text(encoding="utf-8").rstrip("\n")
        assert rendered == golden

    def test_sarif_is_valid_json_with_required_fields(self):
        log = json.loads(render_sarif(self.findings()))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] \
            == ["LAY001", "SEED010"]
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] \
            == "src/repro/uarch/core.py"
        assert location["region"]["startLine"] == 24


class TestNoqaFile:
    def test_bare_noqa_file_suppresses_everything(self):
        assert file_suppressions("# repro: noqa-file\nx = 1\n") is None

    def test_targeted_noqa_file_names_its_rules(self):
        got = file_suppressions("# repro: noqa-file[LAY001,RNG001]\n")
        assert got == {"LAY001", "RNG001"}

    def test_directive_outside_the_window_is_ignored(self):
        source = "\n" * 5 + "# repro: noqa-file[LAY001]\n"
        assert file_suppressions(source) is ...

    def test_noqa_file_is_not_a_line_noqa(self):
        # The lookahead keeps noqa-file from reading as a bare line noqa.
        assert line_suppressions("# repro: noqa-file[LAY001]\n") == {}

    def test_file_directive_filters_per_file_findings(self):
        from repro.lint import lint_source

        source = "# repro: noqa-file[RNG001]\n" + RNG_SOURCE
        assert lint_source(source, "x.py") == []

    def test_file_directive_filters_project_findings(self, build_tree):
        root = build_tree({
            "repro/uarch/core.py":
                "# repro: noqa-file[LAY001]\nimport repro.runner\n",
            "repro/runner/api.py": "x = 1\n",
        })
        run = run_lint([str(root / "repro")])
        assert all(f.rule_id != "LAY001" for f in run.findings)


class TestExitCodes:
    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(RNG_SOURCE)
        assert main(["lint", str(target)]) == 1

    def test_clean_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        assert main(["lint", str(target)]) == 2
        assert "PAR000" in capsys.readouterr().out

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", "--select", "NOPE999", str(target)]) == 2
        assert "lint error" in capsys.readouterr().err

    def test_second_tier_always_runs(self, build_tree, tmp_path, capsys):
        build_tree({
            "repro/uarch/core.py": "import repro.runner\n",
            "repro/runner/api.py": "x = 1\n",
        })
        assert main(["lint", str(tmp_path / "repro")]) == 1
        assert "LAY001" in capsys.readouterr().out

    def test_sarif_output_file(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(RNG_SOURCE)
        out = tmp_path / "report.sarif"
        assert main(["lint", "--format", "sarif", "--output", str(out),
                     str(target)]) == 1
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "RNG001"
