"""Run-ledger tests: append/read, robustness, resolution, diffing."""

import copy
import json
import os
import subprocess
import sys
import warnings

import pytest

from repro.hashing import canonical_json, content_hash
from repro.obs.drift import check_ledger
from repro.obs.ledger import (
    KIND_RUN,
    LEDGER_ENV,
    LEDGER_SCHEMA,
    LedgerError,
    RunLedger,
    build_run_record,
    characteristic_digest,
    comparability_key,
    default_ledger_path,
    diff_runs,
    render_history,
)
from repro.perf.counters import INST_RETIRED
from repro.reports.cli import main
from repro.runner import SuiteRunner
from repro.workloads.profile import InputSize

OPS = 2_000

#: A line in the shape engine-benchmark runs appended before the ledger
#: dropped that record kind: ledgers written then may still hold it.
LEGACY_BENCH_RECORD = {
    "schema": 1,
    "kind": "bench",
    "time": 50.0,
    "code_version": "1.0.0",
    "bench": {
        "schema": 1,
        "sample_ops": 60_000,
        "repeats": 2,
        "tolerance": 0.2,
        "min_median_speedup": 10.0,
        "pairs": {"505.mcf_r/ref": {"scalar_ms": 67.68, "vector_ms": 2.85,
                                    "speedup": 23.73}},
        "median_speedup": 23.73,
    },
    "run_id": "0b1e2c3d4f5a",
}


#: A run line in the shape traced sweeps appended before the ledger
#: dropped its ``metrics``, ``critical_path_s`` and ``profile_digest``
#: fields; it matches :func:`synthetic_record`'s setup.
LEGACY_ATTRIBUTED_RECORD = {
    "schema": 1,
    "kind": "run",
    "run_id": "bbbbbbbbbbbb",
    "time": 100.0,
    "code_version": "0",
    "config_hash": "cfg",
    "engine": "vector",
    "sample_ops": OPS,
    "warmup_fraction": 0.15,
    "manifest": {"total_pairs": 1, "cache_hits": 0, "cache_misses": 1,
                 "failures": 0, "wall_time_seconds": 1.0},
    "metrics": None,
    "pairs": {"505.mcf_r/ref": {INST_RETIRED: 1e12}},
    "critical_path_s": 1.0,
    "profile_digest": "dddddddddddd",
}


@pytest.fixture(scope="module")
def some_pairs(suite17):
    return suite17.pairs(size=InputSize.REF)[:3]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory, some_pairs):
    """One real sweep plus the runner that produced it."""
    tmp = tmp_path_factory.mktemp("ledger-sweep")
    runner = SuiteRunner(
        sample_ops=OPS, workers=1, cache_dir=tmp / "cache"
    )
    result = runner.run(some_pairs)
    return runner, result


def synthetic_record(run_id="aaaabbbbcccc", time_s=100.0, **overrides):
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": KIND_RUN,
        "run_id": run_id,
        "time": time_s,
        "code_version": "0",
        "config_hash": "cfg",
        "engine": "vector",
        "sample_ops": OPS,
        "warmup_fraction": 0.15,
        "manifest": {"total_pairs": 1, "cache_hits": 0, "cache_misses": 1,
                     "failures": 0, "wall_time_seconds": 1.0},
        "pairs": {"505.mcf_r/ref": {"inst_retired.any": 1e12}},
    }
    record.update(overrides)
    return record


class TestPaths:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "elsewhere.jsonl"))
        assert default_ledger_path(tmp_path / "cache") == (
            tmp_path / "elsewhere.jsonl"
        )
        assert RunLedger().path == tmp_path / "elsewhere.jsonl"

    def test_default_hangs_off_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert default_ledger_path(tmp_path) == tmp_path / "ledger.jsonl"


class TestAppendRead:
    def test_round_trip_preserves_records(self, tmp_path):
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        first = ledger.append(synthetic_record("a" * 12))
        ledger.append(synthetic_record("b" * 12, time_s=200.0))
        records = RunLedger(path=tmp_path / "l.jsonl").records()
        assert [r["run_id"] for r in records] == ["a" * 12, "b" * 12]
        assert records[0] == first

    def test_runs_skip_other_record_kinds(self, tmp_path):
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        ledger.append(synthetic_record("a" * 12))
        ledger.append(LEGACY_BENCH_RECORD)
        assert [r["run_id"] for r in ledger.runs()] == ["a" * 12]
        assert len(ledger.records()) == 2

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunLedger(path=tmp_path / "nope.jsonl").records() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count descriptors")
    def test_appends_leave_no_descriptor_open(self, tmp_path):
        path = tmp_path / "not-yet-created" / "l.jsonl"
        before = len(os.listdir("/proc/self/fd"))
        for run_id in ("a" * 12, "b" * 12, "c" * 12):
            RunLedger(path=path).append(synthetic_record(run_id))
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(RunLedger(path=path).records()) == 3


class TestRobustness:
    def test_corrupt_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path=path)
        ledger.append(synthetic_record("a" * 12))
        ledger.append(synthetic_record("b" * 12))
        # Simulate a writer killed mid-record: a truncated trailing line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "kind": "run", "run_id": "trunc')
        with pytest.warns(UserWarning, match="not valid JSON"):
            records = RunLedger(path=path).records()
        assert [r["run_id"] for r in records] == ["a" * 12, "b" * 12]

    def test_non_utf8_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path=path)
        ledger.append(synthetic_record("a" * 12))
        with open(path, "ab") as handle:
            handle.write(b"\xff\n")
        ledger.append(synthetic_record("b" * 12))
        with pytest.warns(UserWarning, match=r"l\.jsonl:2 is not valid JSON"):
            runs = ledger.runs()
        assert [r["run_id"] for r in runs] == ["a" * 12, "b" * 12]

    def test_warnings_name_the_caller(self, tmp_path):
        # However many repro.obs frames the read went through (runs ->
        # records, or the drift watchdog), the warning points at the
        # code that asked for the records, not at the ledger's source.
        path = tmp_path / "l.jsonl"
        path.write_bytes(json.dumps(synthetic_record()).encode() + b"\n\xff\n")
        ledger = RunLedger(path=path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ledger.records()
            ledger.runs()
            ledger.resolve("-1")
            check_ledger(ledger)
        salvage = [w for w in caught if "not valid JSON" in str(w.message)]
        assert len(salvage) >= 4
        assert {w.filename for w in salvage} == {__file__}

    def test_each_command_reads_the_ledger_once(self, tmp_path):
        # One salvage warning per bad line means one read per command.
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path=path)
        ledger.append(synthetic_record("a" * 12))
        with open(path, "ab") as handle:
            handle.write(b"\xff\n")
        ledger.append(synthetic_record("b" * 12))
        for command in (
            lambda: check_ledger(ledger),
            lambda: main(["obs", "diff", "0", "-1", "--ledger", str(path)]),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                command()
            assert len([w for w in caught
                        if "not valid JSON" in str(w.message)]) == 1

    def test_non_record_json_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text(
            json.dumps(synthetic_record()) + "\n" + '["not", "a", "dict"]\n'
        )
        with pytest.warns(UserWarning, match="not a ledger record"):
            records = RunLedger(path=path).records()
        assert len(records) == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text("\n" + json.dumps(synthetic_record()) + "\n\n")
        assert len(RunLedger(path=path).records()) == 1

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        """Two appender processes never tear each other's lines."""
        path = tmp_path / "l.jsonl"
        script = (
            "import sys\n"
            "from repro.obs.ledger import RunLedger\n"
            "ledger = RunLedger(path=sys.argv[1])\n"
            "for i in range(200):\n"
            "    ledger.append({'schema': 1, 'kind': 'run',\n"
            "                   'tag': sys.argv[2], 'i': i,\n"
            "                   'pad': 'x' * 256})\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), tag],
                env=dict(os.environ),
            )
            for tag in ("one", "two")
        ]
        for proc in procs:
            assert proc.wait() == 0
        records = RunLedger(path=path).records()  # warns on any torn line
        assert len(records) == 400
        for tag in ("one", "two"):
            indices = [r["i"] for r in records if r["tag"] == tag]
            assert indices == sorted(indices)
            assert len(indices) == 200

    def test_many_appenders_leave_no_blank_line(self, tmp_path):
        """More appender processes than cores (at most 16): none mistakes
        another's landing line for a torn one, which would leave a blank
        line behind."""
        path = tmp_path / "l.jsonl"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.obs.ledger import append_line\n"
            "path = Path(sys.argv[1])\n"
            "for i in range(250):\n"
            "    append_line(path, (sys.argv[2] + 'x' * 1000 + '\\n')"
            ".encode())\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), str(tag)],
                env=dict(os.environ),
            )
            for tag in range(min((os.cpu_count() or 1) + 2, 16))
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == 250 * len(procs)
        assert all(line.endswith(b"x" * 1000) for line in lines)


class TestRunRecord:
    def test_sweep_record_contents(self, sweep, some_pairs):
        runner, result = sweep
        record = runner.last_run_record
        assert record is not None
        assert record["schema"] == LEDGER_SCHEMA
        assert record["kind"] == KIND_RUN
        assert record["engine"] == "vector"
        assert record["sample_ops"] == OPS
        assert len(record["run_id"]) == 12
        assert record["manifest"] == result.manifest.as_dict()
        assert sorted(record["pairs"]) == sorted(
            p.pair_name for p in some_pairs
        )
        digest = record["pairs"][some_pairs[0].pair_name]
        assert digest == characteristic_digest(
            result.report(some_pairs[0].pair_name)
        )
        assert len(digest) == 20

    def test_build_run_record_is_deterministic_given_timestamp(self, sweep):
        runner, result = sweep
        kwargs = dict(
            manifest=result.manifest, reports=result.reports,
            config=runner.config, sample_ops=OPS, warmup_fraction=0.15,
            engine="vector", timestamp=123.0,
        )
        assert build_run_record(**kwargs) == build_run_record(**kwargs)

    def test_ledger_line_is_the_record_encoded_once(
        self, tmp_path, some_pairs
    ):
        runner = SuiteRunner(
            sample_ops=OPS, workers=1, cache_dir=tmp_path / "cache"
        )
        runner.run(some_pairs)
        record = runner.last_run_record
        (line,) = runner.ledger.path.read_bytes().splitlines(keepends=True)
        assert json.loads(line) == record
        assert line == (canonical_json(record) + "\n").encode("utf-8")
        rest = {k: v for k, v in record.items() if k != "run_id"}
        assert record["run_id"] == content_hash(rest)[:12]
        # Written once: the record the runner keeps holds no line.
        assert not hasattr(record, "line")

    def test_a_copied_record_is_encoded_afresh(self, tmp_path, sweep):
        runner, result = sweep
        record = build_run_record(
            manifest=result.manifest, reports=result.reports,
            config=runner.config, sample_ops=OPS, warmup_fraction=0.15,
            engine="vector", timestamp=123.0,
        )
        for copied in (copy.copy(record), copy.deepcopy(record),
                       dict(record)):
            assert type(copied) is dict and copied == record
        changed = copy.deepcopy(record)
        changed["pairs"].clear()
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        ledger.append(changed)
        assert ledger.runs() == [changed]

    def test_comparability_key_ignores_code_version(self):
        base = synthetic_record()
        assert comparability_key(base) == comparability_key(
            synthetic_record(code_version="different")
        )
        assert comparability_key(base) != comparability_key(
            synthetic_record(engine="scalar")
        )

    def test_attribution_fields_do_not_affect_comparability(self):
        assert comparability_key(synthetic_record()) == comparability_key(
            LEGACY_ATTRIBUTED_RECORD
        )

    def test_comparable_history_mixes_old_and_new_records(self, tmp_path):
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        ledger.append(synthetic_record("a" * 12))
        ledger.append(LEGACY_ATTRIBUTED_RECORD)
        current = ledger.append(synthetic_record("c" * 12))
        history = ledger.comparable_history(current)
        assert [r["run_id"] for r in history] == ["a" * 12, "b" * 12]
        assert diff_runs(history[0], history[1]) == []


class TestResolve:
    def make_ledger(self, tmp_path):
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        ledger.append(synthetic_record("aaaa" + "0" * 8))
        ledger.append(synthetic_record("bbbb" + "0" * 8))
        ledger.append(synthetic_record("abcd" + "0" * 8))
        return ledger

    def test_resolve_by_index(self, tmp_path):
        ledger = self.make_ledger(tmp_path)
        assert ledger.resolve("-1")["run_id"].startswith("abcd")
        assert ledger.resolve("0")["run_id"].startswith("aaaa")

    def test_resolve_by_prefix(self, tmp_path):
        ledger = self.make_ledger(tmp_path)
        assert ledger.resolve("bbbb")["run_id"].startswith("bbbb")

    def test_ambiguous_prefix_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="ambiguous"):
            self.make_ledger(tmp_path).resolve("a")

    def test_unknown_prefix_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no run id"):
            self.make_ledger(tmp_path).resolve("zzzz")

    def test_out_of_range_index_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="out of range"):
            self.make_ledger(tmp_path).resolve("7")

    def test_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no runs"):
            RunLedger(path=tmp_path / "empty.jsonl").resolve("-1")

    def test_comparable_history_filters_setup_and_self(self, tmp_path):
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        ledger.append(synthetic_record("a" * 12))
        ledger.append(synthetic_record("b" * 12, engine="scalar"))
        current = ledger.append(synthetic_record("c" * 12))
        history = ledger.comparable_history(current)
        assert [r["run_id"] for r in history] == ["a" * 12]


class TestRendering:
    def test_history_table(self):
        text = render_history([synthetic_record()])
        assert "run_id" in text
        assert "aaaabbbbcccc" in text
        assert "1 run(s)" in text

    def test_history_limit_keeps_newest(self):
        runs = [synthetic_record("a" * 12), synthetic_record("b" * 12)]
        text = render_history(runs, limit=1)
        assert "b" * 12 in text and "a" * 12 not in text

    def test_diff_reports_moved_characteristics(self):
        a = synthetic_record("a" * 12)
        b = synthetic_record(
            "b" * 12, pairs={"505.mcf_r/ref": {"inst_retired.any": 2e12}}
        )
        lines = diff_runs(a, b)
        assert any("inst_retired.any" in line for line in lines)

    def test_diff_below_threshold_is_silent(self):
        a = synthetic_record("a" * 12)
        b = synthetic_record("b" * 12)
        assert diff_runs(a, b) == []

    def test_diff_reports_asymmetric_pairs_and_manifest(self):
        a = synthetic_record("a" * 12)
        b = synthetic_record(
            "b" * 12,
            pairs={"541.leela_r/ref": {"inst_retired.any": 1e12}},
            manifest={"total_pairs": 2, "cache_hits": 1, "cache_misses": 1,
                      "failures": 0, "wall_time_seconds": 1.0},
        )
        lines = diff_runs(a, b)
        assert any("only in" in line for line in lines)
        assert any("manifest.total_pairs" in line for line in lines)
