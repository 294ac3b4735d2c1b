"""SuiteRunner <-> run-ledger integration: auto-append policy and safety."""

import builtins

import pytest

from repro import obs
from repro.obs.ledger import LEDGER_ENV, RunLedger
from repro.runner import SuiteRunner
from repro.workloads.profile import InputSize

OPS = 2_000


@pytest.fixture(scope="module")
def some_pairs(suite17):
    return suite17.pairs(size=InputSize.REF)[:2]


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("sample_ops", OPS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return SuiteRunner(**kwargs)


class TestAutoAppend:
    def test_sweep_appends_one_record(self, tmp_path, some_pairs):
        runner = make_runner(tmp_path)
        runner.run(some_pairs)
        assert runner.ledger.path == tmp_path / "cache" / "ledger.jsonl"
        runs = RunLedger(path=runner.ledger.path).runs()
        assert len(runs) == 1
        assert runs[0] == runner.last_run_record
        assert sorted(runs[0]["pairs"]) == sorted(
            p.pair_name for p in some_pairs
        )

    def test_each_sweep_appends(self, tmp_path, some_pairs):
        runner = make_runner(tmp_path)
        runner.run(some_pairs)
        runner.run(some_pairs)
        assert len(RunLedger(path=runner.ledger.path).runs()) == 2

    def test_ledger_write_counted_when_obs_enabled(
        self, tmp_path, some_pairs
    ):
        obs.enable()
        try:
            runner = make_runner(tmp_path)
            runner.run(some_pairs)
            records = obs.tracer().finished()
        finally:
            obs.disable()
        # The written record is the runner's last_run_record; a sweep
        # whose append succeeds leaves no failure marker.
        assert "metrics" not in runner.last_run_record
        assert RunLedger(path=runner.ledger.path).runs() == [
            runner.last_run_record
        ]
        assert "ledger.failure" not in {r["name"] for r in records}


class TestPolicy:
    def test_no_cache_means_no_default_ledger(
        self, tmp_path, some_pairs, monkeypatch
    ):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        runner = make_runner(tmp_path, use_cache=False)
        assert runner.ledger is None
        runner.run(some_pairs)
        assert runner.last_run_record is None
        assert not (tmp_path / "cache").exists()

    def test_env_override_enables_without_cache(
        self, tmp_path, some_pairs, monkeypatch
    ):
        target = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(target))
        runner = make_runner(tmp_path, use_cache=False)
        runner.run(some_pairs)
        assert runner.ledger.path == target
        assert len(RunLedger(path=target).runs()) == 1

    def test_explicit_ledger_path_wins(
        self, tmp_path, some_pairs, monkeypatch
    ):
        target = tmp_path / "explicit.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(target))
        runner = make_runner(tmp_path)
        runner.run(some_pairs)
        assert runner.ledger.path == target
        assert len(RunLedger(path=target).runs()) == 1
        assert not (tmp_path / "cache" / "ledger.jsonl").exists()

    def test_use_ledger_false_disables(self, tmp_path, some_pairs):
        runner = make_runner(tmp_path, use_ledger=False)
        runner.run(some_pairs)
        assert runner.ledger is None
        assert runner.last_run_record is None
        assert not (tmp_path / "cache" / "ledger.jsonl").exists()

    def test_explicit_ledger_object(self, tmp_path, some_pairs, monkeypatch):
        # A default RunLedger, as `repro obs` builds one, reads the
        # ledger the sweep appended to.
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "mine.jsonl"))
        ledger = RunLedger()
        runner = make_runner(tmp_path)
        assert runner.ledger.path == ledger.path
        runner.run(some_pairs)
        assert len(ledger.runs()) == 1


class TestBestEffort:
    def test_unwritable_ledger_never_sinks_a_sweep(
        self, tmp_path, some_pairs, monkeypatch
    ):
        # A directory is unappendable: os.open(O_WRONLY) raises OSError.
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        monkeypatch.setenv(LEDGER_ENV, str(blocked))
        runner = make_runner(tmp_path)
        result = runner.run(some_pairs)
        assert result.ok
        assert runner.last_run_record is None

    def test_write_failure_counted_when_obs_enabled(
        self, tmp_path, some_pairs, monkeypatch
    ):
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        monkeypatch.setenv(LEDGER_ENV, str(blocked))
        obs.enable()
        try:
            runner = make_runner(tmp_path)
            runner.run(some_pairs)
            records = obs.tracer().finished()
        finally:
            obs.disable()
        assert runner.last_run_record is None
        (failure,) = [r for r in records if r["name"] == "ledger.failure"]
        # The OSError subclass the platform raises for a directory.
        assert issubclass(
            getattr(builtins, failure["attrs"]["error_type"]), OSError
        )
        assert failure["attrs"]["path"] == str(blocked)
