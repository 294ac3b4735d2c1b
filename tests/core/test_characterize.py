"""Tests for the Characterizer."""

import pytest

from repro.core.characterize import Characterizer
from repro.errors import CollectionError, SimulationError
from repro.perf.session import PerfSession
from repro.workloads.profile import InputSize, MiniSuite
from tests.test_examples import load_example


class TestMemoization:
    def test_reports_are_memoized(self, characterizer, mcf_ref):
        assert characterizer.report(mcf_ref) is characterizer.report(mcf_ref)

    def test_metrics_reuse_reports(self, characterizer, mcf_ref):
        a = characterizer.metrics(mcf_ref)
        b = characterizer.metrics(mcf_ref)
        assert a == b


class TestCharacterize:
    def test_ref_pair_count(self, ref_metrics17):
        assert len(ref_metrics17) == 64

    def test_all_sizes_count(self, all_metrics17):
        assert len(all_metrics17) == 194

    def test_mini_suite_filter(self, characterizer, suite17):
        fp = characterizer.characterize(
            suite17, size=InputSize.REF, mini_suite=MiniSuite.RATE_FP
        )
        assert len(fp) == 14  # 13 apps, bwaves has two ref inputs
        assert all(m.suite is MiniSuite.RATE_FP for m in fp)


class TestBenchmarkMeans:
    def test_one_entry_per_application(self, app_means17):
        assert len(app_means17) == 43
        assert len({m.benchmark for m in app_means17}) == 43

    def test_multi_input_apps_are_averaged(self, characterizer, suite17):
        means = characterizer.benchmark_means(suite17)
        gcc = next(m for m in means if m.benchmark == "502.gcc_r")
        singles = characterizer.characterize(suite17, size=InputSize.REF)
        gcc_pairs = [m for m in singles if m.benchmark == "502.gcc_r"]
        assert len(gcc_pairs) == 5
        expected = sum(m.ipc for m in gcc_pairs) / 5
        assert gcc.ipc == pytest.approx(expected)
        assert gcc.input_name == ""

    def test_single_input_apps_pass_through(self, characterizer, suite17):
        means = characterizer.benchmark_means(suite17)
        mcf = next(m for m in means if m.benchmark == "505.mcf_r")
        direct = characterizer.metrics(
            suite17.get("505.mcf_r").profile(InputSize.REF)
        )
        assert mcf == direct


class TestDefaultRunner:
    """``Characterizer()`` collects on an inline, uncached runner: the
    same counters a bare session gives, with nothing on disk."""

    @pytest.fixture(scope="class")
    def default(self):
        return Characterizer()

    @pytest.mark.parametrize("name, size", [
        ("505.mcf_r", InputSize.REF), ("525.x264_r", InputSize.TEST),
    ])
    def test_reports_match_a_bare_session(self, default, suite17, name, size):
        profile = suite17.get(name).profile(size)
        assert dict(default.report(profile)) == dict(
            PerfSession().run(profile)
        )

    def test_custom_profile_matches_a_bare_session(self, default):
        profile = load_example("custom_workload").kv_store_profile()
        assert dict(default.report(profile)) == dict(
            PerfSession().run(profile)
        )

    def test_runs_inline_and_writes_nothing(
        self, tmp_path, monkeypatch, mcf_ref
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        characterizer = Characterizer()
        assert characterizer.runner.workers == 1
        characterizer.report(mcf_ref)
        assert list(tmp_path.iterdir()) == []

    def test_failing_pair_is_retried_then_raised(self, mcf_ref):
        characterizer = Characterizer()
        calls = []

        def broken(profile):
            calls.append(profile.pair_name)
            raise RuntimeError("injected failure")

        characterizer.runner._session.run = broken
        with pytest.raises(SimulationError, match="RuntimeError"):
            characterizer.report(mcf_ref)
        assert calls == [mcf_ref.pair_name] * 2


class TestStrictErrors:
    def test_strict_mode_records_failures(self, suite17):
        strict = Characterizer(strict_errors=True)
        cam4 = suite17.get("627.cam4_s").profile(InputSize.REF)
        with pytest.raises(CollectionError):
            strict.report(cam4)
        assert cam4.pair_name in strict.failures

    def test_strict_characterize_skips_failures(self, suite17):
        strict = Characterizer(strict_errors=True)
        metrics = strict.characterize(
            suite17, size=InputSize.REF, mini_suite=MiniSuite.SPEED_FP
        )
        # 11 speed-fp ref pairs minus the cam4 failure.
        assert len(metrics) == 10
        assert all(m.benchmark != "627.cam4_s" for m in metrics)
        assert strict.failures == ("627.cam4_s/ref",)

    def test_strict_characterize_can_raise(self, suite17):
        strict = Characterizer(strict_errors=True)
        with pytest.raises(CollectionError):
            strict.characterize(
                suite17, size=InputSize.REF,
                mini_suite=MiniSuite.SPEED_FP, skip_failures=False,
            )
