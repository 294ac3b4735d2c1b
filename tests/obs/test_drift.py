"""Drift-watchdog tests: robust stats, detection, paper fidelity."""

import math

import pytest

from repro.obs.drift import (
    DriftDetector,
    DriftThresholds,
    check_ledger,
    ewma,
    mad,
    median,
    paper_anchor_vector,
    robust_score,
    sampling_rel_sigma,
)
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger
from repro.workloads.profile import InputSize

#: Large enough that the binomial sampling-noise allowance is tiny and
#: the fidelity band is dominated by paper_rtol.
BIG_OPS = 10**9


def make_record(run_id, pairs, wall_s=1.0, sample_ops=BIG_OPS, **overrides):
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": "run",
        "run_id": run_id,
        "time": 100.0,
        "code_version": "0",
        "config_hash": "cfg",
        "engine": "vector",
        "sample_ops": sample_ops,
        "warmup_fraction": 0.15,
        "manifest": {"total_pairs": len(pairs), "cache_hits": 0,
                     "cache_misses": len(pairs), "failures": 0,
                     "wall_time_seconds": wall_s},
        "pairs": pairs,
    }
    record.update(overrides)
    return record


class TestRobustStats:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_mad_around_median(self):
        assert mad([1.0, 2.0, 3.0, 100.0]) == 1.0

    def test_ewma_weights_newest(self):
        flat = ewma([2.0, 2.0, 2.0], alpha=0.3)
        assert flat == 2.0
        rising = ewma([1.0, 1.0, 10.0], alpha=0.3)
        assert 1.0 < rising < 10.0

    def test_robust_score_scales_with_spread(self):
        score, center = robust_score(10.0, [1.0, 2.0, 3.0])
        assert center == 2.0
        assert score == pytest.approx(0.6745 * 8.0)

    def test_robust_score_zero_spread_signals_infinity(self):
        score, center = robust_score(1.5, [1.0, 1.0, 1.0])
        assert math.isinf(score)
        assert center == 1.0
        score, _ = robust_score(1.0, [1.0, 1.0, 1.0])
        assert score == 0.0


class TestSamplingSigma:
    def anchor(self, suite17):
        profile = suite17.get("505.mcf_r").profile(InputSize.REF)
        return paper_anchor_vector(profile)

    def test_noise_shrinks_with_sample_size(self, suite17):
        anchor = self.anchor(suite17)
        name = "br_inst_exec.all_indirect_jump_non_call_ret"
        small = sampling_rel_sigma(name, anchor, 5_000)
        large = sampling_rel_sigma(name, anchor, 5_000_000)
        assert small > large > 0.0
        assert small == pytest.approx(large * math.sqrt(1000), rel=1e-6)

    def test_rare_subtypes_noisier_than_totals(self, suite17):
        anchor = self.anchor(suite17)
        rare = sampling_rel_sigma(
            "br_inst_exec.all_indirect_jump_non_call_ret", anchor, 5_000
        )
        total = sampling_rel_sigma("inst_retired.any", anchor, 5_000)
        assert rare > total

    def test_footprint_noise_is_constant(self, suite17):
        anchor = self.anchor(suite17)
        assert sampling_rel_sigma("rss", anchor, 5_000) == pytest.approx(
            1.0 / math.sqrt(256.0)
        )

    def test_zero_expected_events_unobservable(self, suite17):
        anchor = dict(self.anchor(suite17))
        anchor["br_inst_exec.all_direct_jmp"] = 0.0
        assert math.isinf(
            sampling_rel_sigma("br_inst_exec.all_direct_jmp", anchor, 5_000)
        )


class TestPaperAnchor:
    def test_anchor_matches_profile_mix(self, suite17):
        profile = suite17.get("505.mcf_r").profile(InputSize.REF)
        anchor = paper_anchor_vector(profile)
        assert len(anchor) == 20
        assert anchor["inst_retired.any"] == float(profile.instructions)
        assert anchor["load_uops(%)"] == pytest.approx(
            100.0 * profile.mix.load_fraction
        )
        assert anchor["rss"] == float(profile.memory.rss_bytes)


def anchored_pairs(suite17, *names):
    return {
        name: dict(paper_anchor_vector(
            suite17.get(name.split("/")[0].split("-")[0])
            .profile(InputSize.REF)
        ))
        for name in names
    }


class TestDriftDetection:
    def history(self, suite17, n=3, value=None):
        pairs = anchored_pairs(suite17, "505.mcf_r/ref")
        if value is not None:
            pairs["505.mcf_r/ref"]["inst_retired.any"] = value
        return [
            make_record("hist%08d" % i, pairs) for i in range(n)
        ]

    def test_identical_rerun_is_clean(self, suite17):
        history = self.history(suite17)
        current = make_record("current00000", history[0]["pairs"])
        report = DriftDetector().check(current, history)
        assert report.ok
        assert report.checked_characteristics == 20

    def test_zero_spread_fallback_flags_small_shift(self, suite17):
        history = self.history(suite17)
        pairs = {
            name: dict(digest)
            for name, digest in history[0]["pairs"].items()
        }
        pairs["505.mcf_r/ref"]["inst_retired.any"] *= 1.05
        current = make_record("current00000", pairs)
        report = DriftDetector().check(current, history)
        drift = [f for f in report.findings if f.kind == "drift"]
        assert len(drift) == 1
        assert drift[0].characteristic == "inst_retired.any"
        assert "drifted" in drift[0].describe()

    def test_short_history_skips_drift_with_note(self, suite17):
        history = self.history(suite17, n=1)
        current = make_record("current00000", history[0]["pairs"])
        report = DriftDetector().check(current, history)
        assert report.ok
        assert any("not trusted" in note for note in report.notes)
        # A young ledger still compares every characteristic against
        # the paper anchors, and the header says so.
        assert report.checked_characteristics == 0
        assert report.checked_anchors == 20
        assert report.render().splitlines()[0] == (
            "run current00000: 1 pair(s), 0 drift check(s), "
            "20 fidelity check(s), 1 comparable prior run(s)"
        )

    def test_wall_time_outlier_warns_not_fails(self, suite17):
        history = self.history(suite17)
        current = make_record(
            "current00000", history[0]["pairs"], wall_s=100.0
        )
        report = DriftDetector().check(current, history)
        assert report.ok
        assert [f.kind for f in report.warnings] == ["wall"]

    def test_fail_on_wall_escalates(self, suite17):
        history = self.history(suite17)
        current = make_record(
            "current00000", history[0]["pairs"], wall_s=100.0
        )
        thresholds = DriftThresholds(fail_on_wall=True)
        report = DriftDetector(thresholds).check(current, history)
        assert not report.ok
        assert [f.kind for f in report.findings] == ["wall"]


class TestPaperFidelity:
    def test_on_anchor_values_pass(self, suite17):
        pairs = anchored_pairs(suite17, "505.mcf_r/ref", "519.lbm_r/ref")
        report = DriftDetector().check(make_record("r" * 12, pairs), [])
        assert report.ok
        assert report.checked_pairs == 2

    def test_perturbed_characteristic_fails(self, suite17):
        pairs = anchored_pairs(suite17, "505.mcf_r/ref")
        pairs["505.mcf_r/ref"]["inst_retired.any"] *= 1.5
        report = DriftDetector().check(make_record("r" * 12, pairs), [])
        fidelity = [f for f in report.findings if f.kind == "fidelity"]
        assert len(fidelity) == 1
        assert fidelity[0].score == pytest.approx(0.5)
        assert "paper anchor" in fidelity[0].describe()

    def test_small_sample_noise_is_tolerated(self, suite17):
        """A rare-subtype deviation consistent with binomial noise at a
        small sample size must not be called infidelity."""
        pairs = anchored_pairs(suite17, "505.mcf_r/ref")
        name = "br_inst_exec.all_indirect_jump_non_call_ret"
        pairs["505.mcf_r/ref"][name] *= 1.4
        noisy = make_record("r" * 12, pairs, sample_ops=5_000)
        assert DriftDetector().check(noisy, []).ok
        # The same relative deviation at a huge sample size is real.
        big = make_record("s" * 12, pairs, sample_ops=BIG_OPS)
        assert not DriftDetector().check(big, []).ok

    def test_unknown_pair_skipped(self, suite17):
        pairs = {"999.unknown/ref": {"inst_retired.any": 1.0}}
        report = DriftDetector().check(make_record("r" * 12, pairs), [])
        assert report.ok
        assert report.skipped_pairs == ["999.unknown/ref"]


class TestCheckLedger:
    def test_empty_ledger_is_healthy(self, tmp_path):
        assert check_ledger(RunLedger(path=tmp_path / "l.jsonl")) is None

    def test_scores_newest_against_comparable_history(
        self, tmp_path, suite17
    ):
        ledger = RunLedger(path=tmp_path / "l.jsonl")
        pairs = anchored_pairs(suite17, "505.mcf_r/ref")
        for i in range(4):
            ledger.append(make_record("hist%08d" % i, pairs))
        report = check_ledger(ledger)
        assert report.ok
        assert report.run_id == "hist00000003"
        assert report.history_runs == 3
