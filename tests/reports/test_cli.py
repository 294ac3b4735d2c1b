"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.reports.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def obs_off_after_test():
    """--trace/--metrics flip process-global obs state; reset per test."""
    obs.disable()
    yield
    obs.disable()


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table10" in out
        assert "fig7" in out


class TestPair:
    def test_characterizes_pair(self, capsys):
        assert main(["--sample-ops", "5000", "pair", "505.mcf_r"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r/ref" in out
        assert "IPC" in out

    def test_size_and_input_flags(self, capsys):
        code = main([
            "--sample-ops", "5000", "pair", "502.gcc_r",
            "--size", "test", "--input", "2",
        ])
        assert code == 0
        assert "502.gcc_r-in3/test" in capsys.readouterr().out

    def test_unknown_benchmark_is_friendly(self, capsys):
        assert main(["pair", "505.mcfff"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["--sample-ops", "5000", "run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Haswell" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["--sample-ops", "5000", "run", "table42"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestPhases:
    def test_phase_detection_subcommand(self, capsys):
        code = main([
            "phases", "502.gcc_r", "--kinds", "compute,memory",
            "--segments", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected phases" in out
        assert "simulation-point estimate" in out

    def test_phases_unknown_kind(self, capsys):
        assert main(["phases", "502.gcc_r", "--kinds", "io"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSharedFlags:
    """The sweep options work before and after the subcommand."""

    def test_flag_after_subcommand(self, capsys):
        assert main(["pair", "505.mcf_r", "--sample-ops", "5000"]) == 0
        assert "505.mcf_r/ref" in capsys.readouterr().out

    def test_subcommand_position_wins(self, capsys):
        # An explicit subcommand value overrides the top-level one ...
        code = main([
            "--sample-ops", "999999999", "pair", "505.mcf_r",
            "--sample-ops", "5000", "--no-cache",
        ])
        assert code == 0
        assert "505.mcf_r/ref" in capsys.readouterr().out

    def test_top_level_value_survives_subcommand_defaults(self, capsys):
        # ... but an absent subcommand flag must NOT clobber the
        # top-level value with its default (SUPPRESS semantics).
        code = main(["--engine", "scalar", "pair", "505.mcf_r",
                     "--sample-ops", "5000", "--no-cache"])
        assert code == 0

    @pytest.mark.parametrize("subcommand", ["run", "pair", "phases"])
    def test_sweep_flags_in_subcommand_help(self, subcommand, capsys):
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        out = capsys.readouterr().out
        for flag in ("--jobs", "--no-cache", "--cache-dir", "--engine",
                     "--trace", "--metrics"):
            assert flag in out, "%s missing %s" % (subcommand, flag)


class TestRunPairs:
    def test_run_pairs_prints_manifest(self, capsys):
        code = main(["run", "--pairs", "2", "--sample-ops", "5000",
                     "--no-cache", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 pairs in" in out
        assert "simulated" in out

    def test_run_pairs_rejects_experiments_too(self, capsys):
        assert main(["run", "table1", "--pairs", "2"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_run_without_work_is_an_error(self, capsys):
        assert main(["run"]) == 1
        assert "nothing to run" in capsys.readouterr().err

    def test_run_pairs_rejects_zero(self, capsys):
        assert main(["run", "--pairs", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_and_metrics_flow(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        code = main([
            "run", "--pairs", "2", "--sample-ops", "5000", "--no-cache",
            "--jobs", "1", "--trace", str(trace_path), "--metrics",
        ])
        assert code == 0
        captured = capsys.readouterr()
        # Prometheus dump on stdout, sink notice on stderr.
        assert "# TYPE repro_suite_runs_total counter" in captured.out
        assert "repro_pairs_total 2" in captured.out
        assert str(trace_path) in captured.err
        # The trace file is parseable JSONL with one suite.run root.
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert any(record["name"] == "suite.run" for record in records)
        # And the CLI turned obs back off on the way out.
        assert not obs.enabled()

    @pytest.mark.parametrize("argv", [
        ["run", "--pairs", "1", "--sample-ops", "5000", "--no-cache",
         "--jobs", "1", "--trace", "{missing}/t.jsonl"],
        ["run", "--pairs", "1", "--sample-ops", "5000", "--no-cache",
         "--jobs", "1", "--profile-stage", "engine.exec",
         "--profile-out", "{missing}/p.txt"],
        ["trace", "export", "{trace}", "-o", "{missing}/x.json"],
    ], ids=["trace", "profile-out", "export"])
    def test_unwritable_output_path_is_one_error_line(
        self, argv, tmp_path, capsys
    ):
        missing = tmp_path / "missing"
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({
            "schema": 2, "id": 1, "parent": None, "name": "suite.run",
            "t0_s": 0.0, "wall_s": 0.1, "pid": 1, "status": "ok",
        }) + "\n")
        argv = [arg.format(missing=missing, trace=trace) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and str(missing) in errors[0]
        assert "Traceback" not in err
        assert not obs.enabled()

    def test_profile_out_without_stage_is_one_error_line(
        self, tmp_path, capsys
    ):
        collapsed = tmp_path / "p.collapsed"
        assert main([
            "run", "--pairs", "1", "--sample-ops", "5000", "--no-cache",
            "--jobs", "1", "--profile-out", str(collapsed),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --profile-out requires --profile-stage"
        ]
        assert captured.out == ""  # no pair ran
        assert not collapsed.exists()
        assert not obs.enabled()

    def test_trace_summarize_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main([
            "run", "--pairs", "2", "--sample-ops", "5000", "--no-cache",
            "--jobs", "1", "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "pair.run" in out
        assert "root(s)" in out

    def test_trace_summarize_tree_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main([
            "pair", "505.mcf_r", "--sample-ops", "5000", "--no-cache",
            "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "pair.run" in out

    def test_trace_file_holds_one_invocation(self, tmp_path, capsys):
        # Span ids restart at 1 in every process: a second run into the
        # same file replaces the first run's spans instead of mixing
        # two trees under each shared id.
        trace_path = tmp_path / "t.jsonl"
        argv = ["pair", "505.mcf_r", "--sample-ops", "2000", "--no-cache",
                "--trace", str(trace_path)]
        assert main(argv) == 0
        one_run = len(trace_path.read_text().splitlines())
        assert main(argv) == 0
        capsys.readouterr()
        spans = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        roots = [span["name"] for span in spans if span["parent"] is None]
        assert len(spans) == one_run and roots == ["suite.run"]

    def test_trace_summarize_missing_file_is_friendly(self, capsys):
        assert main(["trace", "summarize", "/nonexistent/t.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_empty_file_exits_clean(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_trace_commands_on_spans_free_file_exit_clean(
        self, tmp_path, capsys
    ):
        # A file whose every line gets salvaged away is as empty as a
        # zero-byte one; every trace subcommand says so and exits 0.
        salvaged = tmp_path / "salvaged.jsonl"
        salvaged.write_text('{"id": 1}\n')
        with pytest.warns(UserWarning):
            assert main(["trace", "critical-path", str(salvaged)]) == 0
        assert "no spans" in capsys.readouterr().out


class TestTraceAnalysisCli:
    """trace export / critical-path / utilization plus --profile-stage."""

    @pytest.fixture
    def traced(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main([
            "run", "--pairs", "2", "--sample-ops", "5000", "--no-cache",
            "--jobs", "1", "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        return trace_path

    def test_export_chrome_default_output(self, traced, capsys):
        assert main(["trace", "export", str(traced), "--format",
                     "chrome"]) == 0
        out = capsys.readouterr().out
        default = str(traced) + ".chrome.json"
        assert default in out
        document = json.loads(Path(default).read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        names = {e["name"] for e in document["traceEvents"]}
        assert "pair.run" in names and "process_name" in names

    def test_export_chrome_explicit_output(self, traced, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        assert main(["trace", "export", str(traced), "-o",
                     str(out_path)]) == 0
        assert "wrote %s" % out_path in capsys.readouterr().out
        json.loads(out_path.read_text())

    def test_critical_path_report(self, traced, capsys):
        assert main(["trace", "critical-path", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "critical path of suite.run" in out
        assert "chain (time order" in out

    def test_utilization_report(self, traced, capsys):
        assert main(["trace", "utilization", str(traced)]) == 0
        out = capsys.readouterr().out
        assert "sweep window" in out
        assert "pool utilization" in out

    def test_profile_stage_flow(self, tmp_path, capsys):
        collapsed = tmp_path / "profile.collapsed"
        assert main([
            "run", "--pairs", "1", "--sample-ops", "5000", "--no-cache",
            "--jobs", "1", "--profile-stage", "engine.exec",
            "--profile-out", str(collapsed),
        ]) == 0
        captured = capsys.readouterr()
        assert "function" in captured.out  # top-N table on stdout
        assert "self_ms" in captured.out
        assert str(collapsed) in captured.err
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, micros = line.rpartition(" ")
            assert stack and int(micros) > 0
        assert not obs.enabled()


class TestObsLedgerCli:
    """The run-ledger surface: obs history / diff / check."""

    @pytest.fixture()
    def populated_ledger(self, tmp_path, capsys):
        """Two identical CLI sweeps through one cache dir -> 2 ledger runs."""
        cache_dir = tmp_path / "cache"
        argv = ["run", "--pairs", "2", "--sample-ops", "5000",
                "--jobs", "1", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        return cache_dir / "ledger.jsonl"

    def test_history_lists_both_runs(self, populated_ledger, capsys):
        code = main(["obs", "history", "--ledger", str(populated_ledger)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run_id" in out
        assert "2 run(s)" in out

    def test_history_empty_ledger(self, tmp_path, capsys):
        code = main(["obs", "history",
                     "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "holds no runs" in capsys.readouterr().out

    def test_diff_identical_runs_moves_no_characteristic(
        self, populated_ledger, capsys
    ):
        code = main(["obs", "diff", "-2", "-1",
                     "--ledger", str(populated_ledger)])
        assert code == 0
        out = capsys.readouterr().out
        # The second sweep is served from cache, so only the manifest
        # accounting moves — never a characteristic digest.
        assert "inst_retired" not in out
        assert "manifest.cache_hits" in out

    def test_diff_unresolvable_run_is_friendly(
        self, populated_ledger, capsys
    ):
        code = main(["obs", "diff", "zzzz", "-1",
                     "--ledger", str(populated_ledger)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_check_clean_ledger_exits_zero(self, populated_ledger, capsys):
        code = main(["obs", "check", "--ledger", str(populated_ledger)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_check_empty_ledger_exits_zero_with_message(
        self, tmp_path, capsys
    ):
        code = main(["obs", "check",
                     "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_check_perturbed_digest_exits_nonzero(
        self, populated_ledger, capsys
    ):
        """The PR's acceptance criterion: a perturbed characteristic
        digest beyond tolerance turns the exit code nonzero."""
        import copy

        from repro.obs.ledger import RunLedger

        ledger = RunLedger(path=populated_ledger)
        doctored = copy.deepcopy(ledger.runs()[-1])
        pair = sorted(doctored["pairs"])[0]
        doctored["pairs"][pair]["inst_retired.any"] *= 1.5
        doctored["run_id"] = "deadbeef0000"
        ledger.append(doctored)
        code = main(["obs", "check", "--ledger", str(populated_ledger)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "inst_retired.any" in out

    def test_check_metrics_flag_dumps_scores(
        self, populated_ledger, capsys
    ):
        code = main(["obs", "check", "--metrics",
                     "--ledger", str(populated_ledger)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_drift_findings" in out
        assert "repro_paper_rel_error" in out

    def test_older_ledger_bench_lines_are_skipped(
        self, populated_ledger, capsys
    ):
        from repro.obs.ledger import RunLedger
        from tests.obs.test_ledger import LEGACY_BENCH_RECORD

        RunLedger(path=populated_ledger).append(LEGACY_BENCH_RECORD)
        flag = ["--ledger", str(populated_ledger)]
        assert main(["obs", "history"] + flag) == 0
        assert "2 run(s)" in capsys.readouterr().out
        assert main(["obs", "diff", "-2", "-1"] + flag) == 0
        assert "manifest.cache_hits" in capsys.readouterr().out
        assert main(["obs", "check"] + flag) == 0


class TestSalvageWarnings:
    """A skipped ledger or trace line is one ``warning:`` line on stderr,
    naming the file and line, with no library source echoed."""

    @staticmethod
    def stderr_of(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stderr.splitlines()

    def test_obs_history_on_a_bad_ledger_line(self, tmp_path):
        from tests.obs.test_ledger import synthetic_record

        ledger = tmp_path / "l.jsonl"
        ledger.write_bytes(
            json.dumps(synthetic_record()).encode() + b"\n\xff\n")
        assert self.stderr_of("obs", "history", "--ledger", str(ledger)) == [
            "warning: ledger %s:2 is not valid JSON; skipping the line"
            % ledger]

    def test_trace_summarize_on_a_bad_trace_line(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({
            "schema": 2, "id": 1, "parent": None, "name": "suite.run",
            "t0_s": 0.0, "wall_s": 0.1, "pid": 1, "status": "ok",
        }) + "\n" + '{"id": 2, "name": "pair.ru\n')
        assert self.stderr_of("trace", "summarize", str(trace)) == [
            "warning: trace %s:2 is not valid JSON; skipping the line"
            % trace]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
