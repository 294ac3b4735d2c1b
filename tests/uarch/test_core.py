"""Tests for the simulated core: end-to-end fidelity against profile
targets on the Table-I configuration, plus responsiveness to config
changes."""

import pytest

from repro.config import haswell_e5_2650l_v3
from repro.errors import SimulationError
from repro.uarch.core import SimulatedCore
from repro.workloads.generator import TraceGenerator
from repro.workloads.profile import InputSize


@pytest.fixture(scope="module")
def core():
    return SimulatedCore(haswell_e5_2650l_v3())


@pytest.fixture(scope="module")
def generator():
    return TraceGenerator(haswell_e5_2650l_v3())


def run_pair(core, generator, suite, name, n_ops=40_000):
    profile = suite.get(name).profile(InputSize.REF)
    trace = generator.generate(profile, n_ops=n_ops)
    return profile, core.run(trace)


class TestFidelity:
    """Simulated rates land on the paper's measured anchors."""

    @pytest.mark.parametrize("name", [
        "505.mcf_r", "525.x264_r", "523.xalancbmk_r", "549.fotonik3d_r",
        "619.lbm_s", "607.cactuBSSN_s",
    ])
    def test_ipc_close_to_target(self, core, generator, suite17, name):
        profile, result = run_pair(core, generator, suite17, name)
        assert result.ipc == pytest.approx(profile.target_ipc, rel=0.12)

    @pytest.mark.parametrize("name", ["505.mcf_r", "549.fotonik3d_r", "619.lbm_s"])
    def test_miss_rates_close_to_targets(self, core, generator, suite17, name):
        profile, result = run_pair(core, generator, suite17, name)
        m1, m2, m3 = result.load_miss_rates
        memory = profile.memory
        assert m1 == pytest.approx(memory.target_l1_miss_rate, rel=0.15)
        assert m2 == pytest.approx(memory.target_l2_miss_rate, rel=0.15)
        assert m3 == pytest.approx(memory.target_l3_miss_rate, rel=0.15)

    @pytest.mark.parametrize("name", ["541.leela_r", "505.mcf_r", "531.deepsjeng_r"])
    def test_mispredict_close_to_target(self, core, generator, suite17, name):
        profile, result = run_pair(core, generator, suite17, name)
        assert result.mispredict_rate == pytest.approx(
            profile.branches.target_mispredict_rate, rel=0.25, abs=0.004
        )

    def test_mix_fractions_match(self, core, generator, suite17):
        profile, result = run_pair(core, generator, suite17, "505.mcf_r")
        loads, stores, branches = result.mix_fractions
        assert loads == pytest.approx(profile.mix.load_fraction, abs=1e-3)
        assert stores == pytest.approx(profile.mix.store_fraction, abs=1e-3)
        assert branches == pytest.approx(profile.mix.branch_fraction, abs=1e-3)

    def test_determinism(self, core, generator, suite17):
        _, a = run_pair(core, generator, suite17, "505.mcf_r", n_ops=10_000)
        _, b = run_pair(core, generator, suite17, "505.mcf_r", n_ops=10_000)
        assert a.ipc == b.ipc
        assert a.load_miss_rates == b.load_miss_rates
        assert a.mispredict_rate == b.mispredict_rate


class TestResponsiveness:
    """The model is calibrated at Table-I but must *respond* elsewhere."""

    def test_wider_l2_rescues_l2_thrashing_app(self, suite17):
        """Keep the program's address stream fixed (generated against the
        reference machine) and widen the L2: the stream that thrashed an
        8-way L2 fits a 32-way one, so the L2 miss rate collapses and IPC
        rises.  Calibration parameters are held at the reference machine's
        values so the hardware effect isn't recalibrated away."""
        from dataclasses import replace

        from repro.config import CacheConfig
        from repro.workloads.calibrate import solve_pipeline_params

        profile = suite17.get("549.fotonik3d_r").profile(InputSize.REF)
        base_config = haswell_e5_2650l_v3()
        wide = replace(
            base_config,
            l2=CacheConfig("L2", 256 * 1024, 32, hit_latency=12,
                           miss_penalty=24),
        )
        trace = TraceGenerator(base_config).generate(profile, n_ops=30_000)
        params = solve_pipeline_params(profile, base_config)
        base_result = SimulatedCore(base_config).run(trace, params=params)
        wide_result = SimulatedCore(wide).run(trace, params=params)
        assert wide_result.load_miss_rates[1] < 0.2 * base_result.load_miss_rates[1]
        assert wide_result.ipc > base_result.ipc

    def test_static_predictor_hurts_branchy_app(self, suite17):
        profile = suite17.get("541.leela_r").profile(InputSize.REF)
        config = haswell_e5_2650l_v3()
        static = config.with_predictor("static")
        generator = TraceGenerator(config)
        trace = generator.generate(profile, n_ops=30_000)
        good = SimulatedCore(config).run(trace)
        bad = SimulatedCore(static).run(trace)
        assert bad.mispredict_rate > good.mispredict_rate
        assert bad.ipc < good.ipc


class TestAccounting:
    def test_window_counts_positive(self, core, generator, suite17):
        _, result = run_pair(core, generator, suite17, "505.mcf_r")
        assert result.window_ops > 0
        assert result.window_conditionals > 0

    def test_subtype_counts_sum_to_branches(self, core, generator, suite17):
        _, result = run_pair(core, generator, suite17, "505.mcf_r")
        assert sum(result.branch_subtypes) == result.trace_branches

    def test_rejects_bad_warmup(self, core, generator, suite17):
        profile = suite17.get("505.mcf_r").profile(InputSize.REF)
        trace = generator.generate(profile, n_ops=1000)
        with pytest.raises(SimulationError):
            core.run(trace, warmup_fraction=1.0)

    def test_accepts_boundary_warmup_fractions(self, core, generator, suite17):
        profile = suite17.get("505.mcf_r").profile(InputSize.REF)
        trace = generator.generate(profile, n_ops=5_000)
        for warmup in (0.0, 0.5):
            assert core.run(trace, warmup_fraction=warmup).ipc > 0

    def test_cpi_breakdown_components_nonnegative(self, core, generator, suite17):
        _, result = run_pair(core, generator, suite17, "505.mcf_r")
        assert result.cpi.base > 0
        assert result.cpi.memory >= 0
        assert result.cpi.branch >= 0
        assert result.params.penalty_scale <= 1.0
