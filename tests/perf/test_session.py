"""Tests for PerfSession scaling and error semantics."""

import pytest

from repro.errors import SimulationError
from repro.perf import counters as C
from repro.perf.counters import ALL_COUNTERS
from repro.perf.session import PerfSession
from repro.workloads.profile import InputSize


class TestScaling:
    def test_instruction_count_is_nominal(self, session, mcf_ref):
        report = session.run(mcf_ref)
        assert report[C.INST_RETIRED] == mcf_ref.instructions

    def test_all_counters_collected(self, session, mcf_ref):
        report = session.run(mcf_ref)
        assert set(report) == set(ALL_COUNTERS)

    def test_branch_subtypes_sum_to_total(self, session, mcf_ref):
        report = session.run(mcf_ref)
        total = sum(report[name] for name in (
            C.BR_CONDITIONAL, C.BR_DIRECT_JMP, C.BR_DIRECT_NEAR_CALL,
            C.BR_INDIRECT_JUMP, C.BR_INDIRECT_NEAR_RETURN,
        ))
        assert total == pytest.approx(report[C.BR_ALL])

    def test_wall_time_tracks_anchor(self, session, suite17):
        for name in ("505.mcf_r", "628.pop2_s"):
            profile = suite17.get(name).profile(InputSize.REF)
            report = session.run(profile)
            assert report.wall_time_seconds == pytest.approx(
                profile.exec_time_seconds, rel=0.15
            )

    def test_ipc_tracks_anchor(self, session, suite17):
        for name in ("505.mcf_r", "619.lbm_s", "525.x264_r"):
            profile = suite17.get(name).profile(InputSize.REF)
            report = session.run(profile)
            assert report.ipc == pytest.approx(profile.target_ipc, rel=0.12)

    def test_reports_are_deterministic(self, config, mcf_ref):
        a = PerfSession(config=config, sample_ops=10_000).run(mcf_ref)
        b = PerfSession(config=config, sample_ops=10_000).run(mcf_ref)
        assert dict(a) == dict(b)


class TestErrors:
    def test_rejects_nonpositive_sample(self, config):
        with pytest.raises(SimulationError):
            PerfSession(config=config, sample_ops=0)

    def test_non_strict_mode_collects_cam4(self, session, suite17):
        # A session collects every pair; strict mode is the runner's.
        cam4 = suite17.get("627.cam4_s").profile(InputSize.REF)
        assert cam4.collection_error
        report = session.run(cam4)
        assert report.ipc > 0
