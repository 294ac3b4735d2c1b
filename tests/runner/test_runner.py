"""Tests for SuiteRunner: caching, parallelism, fault tolerance, manifest."""

import pytest

from repro.core.characterize import Characterizer
from repro.errors import SimulationError
from repro.perf.session import PerfSession
from repro.runner import ResultCache, SuiteRunner
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017

#: Tiny sample keeps these tests interactive; determinism does not depend
#: on the sample size.
OPS = 2_000


@pytest.fixture(scope="module")
def some_pairs(suite17):
    return suite17.pairs(size=InputSize.REF)[:6]


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("sample_ops", OPS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return SuiteRunner(**kwargs)


class TestCachedRuns:
    def test_second_run_is_served_from_cache(self, tmp_path, some_pairs):
        first = make_runner(tmp_path).run(some_pairs)
        assert first.manifest.cache_hits == 0
        assert first.manifest.cache_misses == len(some_pairs)

        second = make_runner(tmp_path).run(some_pairs)
        assert second.manifest.cache_hits == len(some_pairs)
        assert second.manifest.cache_misses == 0
        assert second.manifest.hit_rate == 1.0

    def test_cached_result_identical_to_fresh_run(self, tmp_path, some_pairs):
        fresh = make_runner(tmp_path).run(some_pairs)
        cached = make_runner(tmp_path).run(some_pairs)
        assert set(fresh.reports) == set(cached.reports)
        for name, report in fresh.reports.items():
            assert dict(report) == dict(cached.reports[name])

    def test_no_cache_escape_hatch(self, tmp_path, some_pairs):
        runner = make_runner(tmp_path, use_cache=False)
        assert runner.cache is None
        runner.run(some_pairs)
        again = runner.run(some_pairs)
        assert again.manifest.cache_hits == 0
        assert not (tmp_path / "cache").exists()

    def test_sample_ops_change_invalidates(self, tmp_path, some_pairs):
        make_runner(tmp_path).run(some_pairs)
        other = make_runner(tmp_path, sample_ops=OPS * 2).run(some_pairs)
        assert other.manifest.cache_hits == 0

    def test_runner_reads_its_shard_once(
        self, tmp_path, some_pairs, monkeypatch
    ):
        reads = []
        real_shard = ResultCache.shard

        def shard(self, *args, **kwargs):
            reads.append(args)
            return real_shard(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "shard", shard)
        runner = make_runner(tmp_path)
        first = runner.run(some_pairs[:3])
        second = runner.run(some_pairs)
        assert len(reads) == 1
        assert first.manifest.cache_misses == 3
        # The first sweep's stores are the second's hits.
        assert [r.cached for r in second.manifest.records] == [
            True, True, True, False, False, False,
        ]
        for name, report in first.reports.items():
            assert dict(second.reports[name]) == dict(report)
        third = runner.run(some_pairs)
        assert third.manifest.cache_hits == len(some_pairs)
        assert len(reads) == 1

    def test_runner_matches_plain_session(self, tmp_path, config, some_pairs):
        runner = make_runner(tmp_path, config=config)
        result = runner.run(some_pairs)
        session = PerfSession(config=config, sample_ops=OPS)
        for pair in some_pairs:
            expected = session.run(pair.profile)
            assert dict(result.reports[pair.pair_name]) == dict(expected)

    def test_corrupt_cache_entry_falls_back_to_simulation(
        self, tmp_path, some_pairs
    ):
        runner = make_runner(tmp_path)
        runner.run(some_pairs)
        cache = ResultCache(tmp_path / "cache")
        (shard,) = (tmp_path / "cache").glob("shard-*.jsonl")
        shard.write_text("{broken\n" * len(some_pairs))
        with pytest.warns(UserWarning, match="not valid JSON"):
            rerun = make_runner(tmp_path).run(some_pairs)
        assert rerun.manifest.cache_hits == 0
        assert len(rerun.reports) == len(some_pairs)
        with pytest.warns(UserWarning, match="not valid JSON"):
            assert cache.entry_count() == len(some_pairs)  # rewritten

    def test_one_cache_serves_each_config_its_own_entries(
        self, tmp_path, config, some_pairs
    ):
        cache = ResultCache(tmp_path / "cache")
        runners = [
            make_runner(tmp_path, cache=cache, config=c)
            for c in (config, config.with_predictor("bimodal"))
        ]
        fresh = [runner.run(some_pairs) for runner in runners]
        cached = [runner.run(some_pairs) for runner in runners]
        assert len(list(cache.directory.glob("shard-*.jsonl"))) == 2
        for first, second in zip(fresh, cached):
            assert second.manifest.cache_hits == len(some_pairs)
            for name, report in first.reports.items():
                assert dict(report) == dict(second.reports[name])
        assert any(
            dict(fresh[0].reports[name]) != dict(fresh[1].reports[name])
            for name in fresh[0].reports
        )

    @pytest.mark.parametrize("bad", [b"{broken", b"\xff", b'{"key": "'],
                             ids=["corrupt", "non-utf8", "truncated"])
    def test_bad_shard_line_is_resimulated_and_appended_again(
        self, tmp_path, some_pairs, bad
    ):
        make_runner(tmp_path).run(some_pairs)
        (shard,) = (tmp_path / "cache").glob("shard-*.jsonl")
        lines = shard.read_bytes().splitlines()
        # The last pair's line, torn or mangled: a killed writer's tail.
        shard.write_bytes(b"".join(line + b"\n" for line in lines[:-1]) + bad)
        with pytest.warns(UserWarning, match=r"cache shard .*:%d is not"
                          % len(lines)):
            rerun = make_runner(tmp_path).run(some_pairs)
        assert rerun.manifest.cache_misses == 1
        assert rerun.manifest.records[-1].cached is False
        with pytest.warns(UserWarning, match="is not valid JSON") as caught:
            third = make_runner(tmp_path).run(some_pairs)
        # Attributed to the code that ran the sweep, not to the runner.
        assert {w.filename for w in caught} == {__file__}
        assert third.manifest.cache_hits == len(some_pairs)
        for name, report in third.reports.items():
            assert dict(report) == dict(rerun.reports[name])


class TestParallelism:
    def test_pool_matches_inline(self, tmp_path, some_pairs):
        inline = make_runner(tmp_path, use_cache=False).run(some_pairs)
        pooled = SuiteRunner(
            sample_ops=OPS, workers=2, use_cache=False
        ).run(some_pairs)
        assert set(inline.reports) == set(pooled.reports)
        for name, report in inline.reports.items():
            assert dict(report) == dict(pooled.reports[name])

    def test_pool_strict_mode_isolates_failures(self, suite17):
        pairs = [
            suite17.find_pair("627.cam4_s"),
            suite17.find_pair("505.mcf_r"),
            suite17.find_pair("525.x264_r-in1"),
        ]
        result = SuiteRunner(
            sample_ops=OPS, workers=2, use_cache=False
        ).run(pairs, strict_errors=True)
        assert {f.pair_name for f in result.failures} == {"627.cam4_s/ref"}
        assert set(result.reports) == {"505.mcf_r/ref", "525.x264_r-in1/ref"}

    def test_rejects_bad_worker_and_retry_counts(self):
        with pytest.raises(SimulationError):
            SuiteRunner(workers=0)
        with pytest.raises(SimulationError):
            SuiteRunner(retries=-1)


class TestFaultTolerance:
    def test_strict_collection_error_recorded_not_raised(
        self, tmp_path, suite17
    ):
        pairs = [
            suite17.find_pair("627.cam4_s"),
            suite17.find_pair("505.mcf_r"),
        ]
        result = make_runner(tmp_path).run(pairs, strict_errors=True)
        assert not result.ok
        (failure,) = result.failures
        assert failure.pair_name == "627.cam4_s/ref"
        assert failure.error_type == "CollectionError"
        assert "505.mcf_r/ref" in result.reports

    def test_strict_failure_never_cached(self, tmp_path, suite17):
        pairs = [suite17.find_pair("627.cam4_s")]
        make_runner(tmp_path).run(pairs)  # non-strict: collects + caches
        strict = make_runner(tmp_path).run(pairs, strict_errors=True)
        # The cached counters must not mask the strict-mode failure.
        assert not strict.ok and not strict.reports

    def test_transient_failure_retried_once(self, tmp_path, mcf_ref):
        runner = make_runner(tmp_path, use_cache=False, retries=1)
        real_run = runner._session.run
        calls = []

        def flaky(profile):
            calls.append(profile.pair_name)
            if len(calls) == 1:
                raise RuntimeError("transient worker death")
            return real_run(profile)

        runner._session.run = flaky
        result = runner.run([mcf_ref])
        assert result.ok
        (record,) = result.manifest.records
        assert record.attempts == 2 and not record.failed

    def test_persistent_failure_becomes_pair_failure(self, tmp_path, mcf_ref):
        runner = make_runner(tmp_path, use_cache=False, retries=1)

        def broken(profile):
            raise RuntimeError("always broken")

        runner._session.run = broken
        result = runner.run([mcf_ref])
        (failure,) = result.failures
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2  # initial + one bounded retry
        assert result.manifest.failure_count == 1


class TestManifest:
    def test_manifest_accounting(self, tmp_path, some_pairs):
        seen = []
        runner = make_runner(
            tmp_path, progress=lambda done, total, rec: seen.append((done, total, rec))
        )
        result = runner.run(some_pairs)
        manifest = result.manifest
        assert manifest.total_pairs == len(some_pairs)
        assert manifest.workers == 1
        assert manifest.cache_hits + manifest.cache_misses == len(some_pairs)
        assert manifest.wall_time_seconds > 0
        assert [r.pair_name for r in manifest.records] == [
            p.pair_name for p in some_pairs
        ]
        assert all(r.seconds >= 0 for r in manifest.records)
        assert seen[-1][0] == len(some_pairs)
        assert {done for done, _, _ in seen} == set(
            range(1, len(some_pairs) + 1)
        )

    def test_manifest_as_dict_is_json_ready(self, tmp_path, some_pairs):
        import json

        manifest = make_runner(tmp_path).run(some_pairs).manifest
        payload = json.dumps(manifest.as_dict())
        assert "cache_misses" in payload

    def test_duplicate_pairs_deduplicated(self, tmp_path, mcf_ref):
        result = make_runner(tmp_path).run([mcf_ref, mcf_ref])
        assert result.manifest.total_pairs == 1

    def test_rejects_non_pair_items(self, tmp_path):
        with pytest.raises(SimulationError):
            make_runner(tmp_path).run(["505.mcf_r"])


class TestCharacterizerIntegration:
    def test_runner_backed_characterizer_matches_serial(
        self, tmp_path, config, suite17
    ):
        serial = Characterizer(runner=SuiteRunner(
            config=config, sample_ops=OPS, workers=1, use_cache=False,
            use_ledger=False,
        ))
        backed = Characterizer(runner=make_runner(tmp_path, config=config))
        a = serial.characterize(suite17, size=InputSize.REF)
        b = backed.characterize(suite17, size=InputSize.REF)
        assert [m.pair_name for m in a] == [m.pair_name for m in b]
        assert [m.ipc for m in a] == [m.ipc for m in b]

    def test_strict_runner_characterizer_skips_failures(
        self, tmp_path, config, suite17
    ):
        backed = Characterizer(
            runner=make_runner(tmp_path, config=config), strict_errors=True
        )
        metrics = backed.characterize(suite17, size=InputSize.REF)
        assert "627.cam4_s/ref" in backed.failures
        assert all(m.pair_name != "627.cam4_s/ref" for m in metrics)



class TestCounterConsistencyGate:
    """Inconsistent counters become structured failures, never reports."""

    def corrupt(self, values):
        from repro.perf import counters as C

        bad = dict(values)
        bad[C.BR_MISP] = bad[C.BR_ALL] * 3 + 1e6  # mispredicts > branches
        return bad

    def test_session_refuses_to_emit_inconsistent_report(self, mcf_ref):
        from repro.errors import CounterValidationError
        from repro.perf.report import CounterReport

        report = PerfSession(sample_ops=OPS).run(mcf_ref)
        with pytest.raises(CounterValidationError):
            CounterReport(mcf_ref, self.corrupt(dict(report))).require_valid()

    def test_inconsistent_report_becomes_pair_failure(
        self, tmp_path, mcf_ref, monkeypatch
    ):
        from repro.perf.report import CounterReport

        runner = make_runner(tmp_path, retries=0)
        reference = dict(PerfSession(sample_ops=OPS).run(mcf_ref))
        bad = self.corrupt(reference)

        def run_bad(profile):
            # Bypass the session-level gate to prove the runner has its own.
            return CounterReport(profile, bad)

        monkeypatch.setattr(runner._session, "run", run_bad)
        result = runner.run([mcf_ref])

        assert result.reports == {}
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.pair_name == mcf_ref.pair_name
        assert failure.error_type == "CounterValidationError"
        assert "exceed all branches" in failure.message
        record = result.manifest.records[0]
        assert record.failed and record.error == "CounterValidationError"

    def test_inconsistent_report_is_never_cached(
        self, tmp_path, mcf_ref, monkeypatch
    ):
        from repro.perf.report import CounterReport

        runner = make_runner(tmp_path, retries=0)
        bad = self.corrupt(dict(PerfSession(sample_ops=OPS).run(mcf_ref)))
        monkeypatch.setattr(
            runner._session, "run",
            lambda profile: CounterReport(profile, bad),
        )
        runner.run([mcf_ref])
        assert ResultCache(tmp_path / "cache").entry_count() == 0

    def test_inconsistent_cache_entry_is_resimulated(self, tmp_path, mcf_ref):
        runner = make_runner(tmp_path)
        first = runner.run([mcf_ref])
        assert first.manifest.cache_misses == 1

        cache = ResultCache(tmp_path / "cache")
        engine = runner._session.resolved_engine
        key = cache.key(
            runner.config, mcf_ref, OPS, runner.warmup_fraction,
            engine=engine,
        )
        shard = cache.shard(
            runner.config, OPS, runner.warmup_fraction, engine=engine
        )
        poisoned = self.corrupt(cache.load(key, shard))
        cache.store(key, mcf_ref.pair_name, poisoned, shard)

        rerun = make_runner(tmp_path).run([mcf_ref])
        assert rerun.manifest.cache_hits == 0
        assert rerun.failures == ()
        report = rerun.report(mcf_ref.pair_name)
        assert report.validate() == ()
