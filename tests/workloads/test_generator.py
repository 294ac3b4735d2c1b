"""Tests for the synthetic trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, SystemConfig, haswell_e5_2650l_v3
from repro.errors import SimulationError
from repro.workloads.generator import (
    BR_CONDITIONAL,
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    NO_BRANCH,
    RegionLayout,
    TraceGenerator,
    _stratified_assign,
)
from repro.workloads.profile import InputSize


@pytest.fixture(scope="module")
def generator():
    return TraceGenerator(haswell_e5_2650l_v3())


@pytest.fixture(scope="module")
def mcf_trace(generator, request):
    suite = request.getfixturevalue("suite17")
    profile = suite.get("505.mcf_r").profile(InputSize.REF)
    return generator.generate(profile, n_ops=30_000)


class TestRegionLayout:
    def test_layout_has_four_regions(self, generator):
        assert len(generator.layout.lines) == 4

    def test_region_sizes(self, generator):
        hot, warm, cool, dram = generator.layout.lines
        config = haswell_e5_2650l_v3()
        assert len(hot) == config.l1d.associativity
        assert len(warm) == 2 * config.l1d.associativity
        assert len(cool) == 2 * config.l2.associativity
        assert len(dram) == 2 * config.l3.associativity + 2

    def test_warm_lines_share_one_l1_set(self, generator):
        config = haswell_e5_2650l_v3()
        sets = {
            (int(a) >> 6) & (config.l1d.num_sets - 1)
            for a in generator.layout.lines[1]
        }
        assert len(sets) == 1

    def test_warm_lines_spread_in_l2(self, generator):
        config = haswell_e5_2650l_v3()
        l2_sets = {}
        for addr in generator.layout.lines[1]:
            key = (int(addr) >> 6) & (config.l2.num_sets - 1)
            l2_sets[key] = l2_sets.get(key, 0) + 1
        # No L2 set holds more lines than the associativity.
        assert max(l2_sets.values()) <= config.l2.associativity

    def test_cool_lines_share_one_l2_set(self, generator):
        config = haswell_e5_2650l_v3()
        sets = {
            (int(a) >> 6) & (config.l2.num_sets - 1)
            for a in generator.layout.lines[2]
        }
        assert len(sets) == 1

    def test_cool_lines_spread_in_l3(self, generator):
        config = haswell_e5_2650l_v3()
        l3_sets = {}
        for addr in generator.layout.lines[2]:
            key = (int(addr) >> 6) & (config.l3.num_sets - 1)
            l3_sets[key] = l3_sets.get(key, 0) + 1
        assert max(l3_sets.values()) <= config.l3.associativity

    def test_dram_lines_share_one_l3_set(self, generator):
        config = haswell_e5_2650l_v3()
        sets = {
            (int(a) >> 6) & (config.l3.num_sets - 1)
            for a in generator.layout.lines[3]
        }
        assert len(sets) == 1

    def test_all_lines_distinct(self, generator):
        all_lines = np.concatenate(generator.layout.lines)
        assert len(np.unique(all_lines)) == len(all_lines)

    def test_rejects_flat_hierarchy(self):
        config = SystemConfig(
            l2=CacheConfig("L2", 32 * 1024, 8, hit_latency=12, miss_penalty=24),
        )
        with pytest.raises(SimulationError):
            RegionLayout(config)


class TestStratifiedAssign:
    def test_exact_counts(self):
        rng = np.random.default_rng(1)
        out, counts = _stratified_assign(1000, (0.25, 0.10), (1, 2), 0, rng)
        assert counts == [250, 100]
        assert int(np.count_nonzero(out == 1)) == 250
        assert int(np.count_nonzero(out == 2)) == 100
        assert int(np.count_nonzero(out == 0)) == 650

    def test_rounding_preserves_total(self):
        rng = np.random.default_rng(2)
        out, counts = _stratified_assign(7, (0.5, 0.3), (1, 2), 0, rng)
        assert len(out) == 7
        assert sum(counts) <= 7

    @given(
        n=st.integers(min_value=1, max_value=5000),
        f1=st.floats(min_value=0, max_value=0.5),
        f2=st.floats(min_value=0, max_value=0.5),
    )
    @settings(max_examples=100)
    def test_counts_within_one_of_expectation(self, n, f1, f2):
        rng = np.random.default_rng(3)
        out, _ = _stratified_assign(n, (f1, f2), (1, 2), 0, rng)
        assert abs(int(np.count_nonzero(out == 1)) - f1 * n) <= 1
        assert abs(int(np.count_nonzero(out == 2)) - f2 * n) <= 1
        assert len(out) == n


class TestTraceGeneration:
    def test_rejects_nonpositive_ops(self, generator, mcf_ref):
        with pytest.raises(SimulationError):
            generator.generate(mcf_ref, n_ops=0)

    def test_trace_length(self, mcf_trace):
        assert mcf_trace.n_ops == 30_000
        for array in (mcf_trace.kind, mcf_trace.addr, mcf_trace.btype,
                      mcf_trace.site, mcf_trace.taken, mcf_trace.new_page):
            assert array.shape == (30_000,)

    def test_mix_fractions_match_profile(self, mcf_trace):
        profile = mcf_trace.profile
        n = mcf_trace.n_ops
        assert mcf_trace.n_loads / n == pytest.approx(
            profile.mix.load_fraction, abs=1e-3)
        assert mcf_trace.n_stores / n == pytest.approx(
            profile.mix.store_fraction, abs=1e-3)
        assert mcf_trace.n_branches / n == pytest.approx(
            profile.mix.branch_fraction, abs=1e-3)

    def test_determinism(self, generator, mcf_ref):
        a = generator.generate(mcf_ref, n_ops=5000)
        b = generator.generate(mcf_ref, n_ops=5000)
        assert np.array_equal(a.kind, b.kind)
        assert np.array_equal(a.addr, b.addr)
        assert np.array_equal(a.taken, b.taken)

    def test_different_seeds_differ(self, generator, mcf_ref):
        a = generator.generate(mcf_ref, n_ops=5000, seed=1)
        b = generator.generate(mcf_ref, n_ops=5000, seed=2)
        assert not np.array_equal(a.kind, b.kind)

    def test_memory_ops_have_addresses(self, mcf_trace):
        mem = (mcf_trace.kind == KIND_LOAD) | (mcf_trace.kind == KIND_STORE)
        assert (mcf_trace.addr[mem] >= 0).all()
        assert (mcf_trace.addr[~mem] == -1).all()

    def test_addresses_come_from_layout(self, generator, mcf_trace):
        valid = set()
        for lines in generator.layout.lines:
            valid.update(int(a) for a in lines)
        mem = mcf_trace.addr[mcf_trace.addr >= 0]
        assert set(int(a) for a in np.unique(mem)) <= valid

    def test_region_fractions_match_targets(self, mcf_trace):
        mem = mcf_trace.region[mcf_trace.region != 255]
        fractions = [
            int(np.count_nonzero(mem == region)) / len(mem) for region in range(4)
        ]
        expected = mcf_trace.regions.as_tuple()
        for measured, target in zip(fractions, expected):
            assert measured == pytest.approx(target, abs=2e-3)

    def test_branch_subtypes_only_on_branches(self, mcf_trace):
        branch = mcf_trace.kind == KIND_BRANCH
        assert (mcf_trace.btype[~branch] == NO_BRANCH).all()
        assert (mcf_trace.btype[branch] != NO_BRANCH).all()

    def test_unconditional_branches_taken(self, mcf_trace):
        branch = mcf_trace.kind == KIND_BRANCH
        uncond = branch & (mcf_trace.btype != BR_CONDITIONAL)
        assert mcf_trace.taken[uncond].all()

    def test_conditional_sites_assigned(self, mcf_trace):
        cond = (mcf_trace.kind == KIND_BRANCH) & (
            mcf_trace.btype == BR_CONDITIONAL
        )
        assert (mcf_trace.site[cond] >= 0).all()
        assert (mcf_trace.site[~cond] == -1).all()

    def test_branch_subtype_counts_sum(self, mcf_trace):
        assert sum(mcf_trace.branch_subtype_counts()) == mcf_trace.n_branches

    def test_alu_ops_exist(self, mcf_trace):
        assert mcf_trace.count(KIND_ALU) > 0

    def test_pages_per_touch_bounded(self, generator, suite17):
        for name in ("505.mcf_r", "548.exchange2_r", "657.xz_s"):
            profile = suite17.get(name).profile(InputSize.REF)
            trace = generator.generate(profile, n_ops=10_000)
            assert 0 < trace.pages_per_touch <= 1.0

    def test_footprint_events_present(self, generator, suite17):
        xz = suite17.get("657.xz_s").profile(InputSize.REF)
        trace = generator.generate(xz, n_ops=10_000)
        assert int(np.count_nonzero(trace.new_page)) > 0
