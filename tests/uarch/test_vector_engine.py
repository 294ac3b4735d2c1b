"""Scalar/vector engine parity: the vector fast path must be *exact*.

The vectorized engine is only allowed to exist because it changes
nothing: every ``CoreResult`` field — integer counters bit-for-bit,
derived floats bit-for-bit (both engines share one composition path) —
must equal the scalar op-loop's.  These tests pin that guarantee per
predictor family, per replacement policy, per warmup window, at the
session/report level, and over randomized profiles and cache geometries
(hypothesis).  The engine's two kernels, the cyclic-sweep check and the
grouped counter scan, are also checked against their definitions.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SystemConfig, haswell_e5_2650l_v3
from repro.errors import ConfigError, SimulationError
from repro.perf.session import PerfSession
from repro.phases.generator import PhasedTraceGenerator, slice_trace
from repro.phases.workload import PhasedWorkload, Schedule, make_phases
from repro.uarch.branch import TournamentPredictor, make_predictor
from repro.uarch.cache import Cache
from repro.uarch.core import ENGINES, SimulatedCore
from repro.uarch import vector
from repro.workloads.generator import TraceGenerator
from repro.workloads.profile import (
    BranchBehavior,
    BranchMix,
    InputSize,
    InstructionMix,
    MemoryBehavior,
    MiniSuite,
    WorkloadProfile,
)
from repro.workloads.spec2017 import cpu2017

from tests.perf.test_validate import workload_profiles

OPS = 20_000


def result_dict(result):
    return dataclasses.asdict(result)


def assert_results_equal(scalar, vec):
    assert result_dict(scalar) == result_dict(vec)


def policy_config(policy: str) -> SystemConfig:
    """A small power-of-two geometry valid for every policy (incl. plru)."""
    return SystemConfig(
        l1d=CacheConfig("L1D", 16384, 4, replacement=policy),
        l2=CacheConfig("L2", 65536, 4, hit_latency=12, miss_penalty=24,
                       replacement=policy),
        l3=CacheConfig("L3", 524288, 8, hit_latency=36, miss_penalty=174,
                       shared=True, replacement=policy),
    )


@pytest.fixture(scope="module")
def haswell():
    return haswell_e5_2650l_v3()


@pytest.fixture(scope="module")
def mcf_trace(haswell, mcf_ref):
    return TraceGenerator(haswell).generate(mcf_ref, n_ops=OPS)


class TestParity:
    @pytest.mark.parametrize("predictor", [
        "static", "bimodal", "gshare", "two_level", "tournament",
    ])
    def test_every_predictor_family(self, haswell, mcf_ref, predictor):
        config = haswell.with_predictor(predictor)
        trace = TraceGenerator(config).generate(mcf_ref, n_ops=OPS)
        core = SimulatedCore(config)
        assert core.resolve_engine(trace) == "vector"
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="vector"),
        )

    @pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
    def test_every_supported_replacement_policy(self, mcf_ref, policy):
        config = policy_config(policy)
        trace = TraceGenerator(config).generate(mcf_ref, n_ops=OPS)
        core = SimulatedCore(config)
        assert core.resolve_engine(trace) == "vector"
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="vector"),
        )

    @pytest.mark.parametrize("name", [
        "505.mcf_r", "525.x264_r", "548.exchange2_r", "503.bwaves_r",
        "519.lbm_r", "541.leela_r",
    ])
    def test_suite_pairs_use_vector_and_agree(self, haswell, suite17, name):
        profile = suite17.get(name).profile(InputSize.REF)
        trace = TraceGenerator(haswell).generate(profile, n_ops=OPS)
        core = SimulatedCore(haswell)
        assert core.resolve_engine(trace) == "vector"
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="vector"),
        )

    @pytest.mark.parametrize("warmup", [0.0, 0.15, 0.4])
    def test_warmup_windows(self, haswell, mcf_trace, warmup):
        core = SimulatedCore(haswell)
        assert_results_equal(
            core.run(mcf_trace, warmup_fraction=warmup, engine="scalar"),
            core.run(mcf_trace, warmup_fraction=warmup, engine="vector"),
        )


class TestFallback:
    def test_random_replacement_is_unsupported(self, mcf_ref):
        config = policy_config("random")
        trace = TraceGenerator(config).generate(mcf_ref, n_ops=OPS)
        core = SimulatedCore(config)
        assert vector.unsupported_reason(config, trace) is not None
        # auto silently falls back...
        assert core.resolve_engine(trace) == "scalar"
        # ...while an explicit request fails loudly, naming the reason.
        with pytest.raises(SimulationError, match="vector engine unsupported"):
            core.run(trace, engine="vector")
        # The auto run still works and equals the scalar reference.
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="auto"),
        )

    def test_unknown_engine_rejected_everywhere(self, haswell, mcf_trace):
        core = SimulatedCore(haswell)
        with pytest.raises(ConfigError, match="unknown engine"):
            core.resolve_engine(mcf_trace, engine="simd")
        with pytest.raises(ConfigError, match="unknown engine"):
            core.run(mcf_trace, engine="simd")
        assert set(ENGINES) == {"scalar", "vector", "auto"}

    @pytest.mark.parametrize("cut", ["phased", "slice"])
    def test_phase_traces_stay_on_scalar(self, haswell, mcf_ref, cut):
        # Concatenated phase segments and a slice of them restart or cut
        # each region's sweep mid-cycle: only the op loop replays them.
        workload = PhasedWorkload(
            "mcf-phased",
            make_phases(mcf_ref, ["compute", "memory", "branchy"]),
            Schedule.round_robin(3, 6000, 6),
        )
        trace = PhasedTraceGenerator(haswell).generate(workload).trace
        if cut == "slice":
            trace = slice_trace(trace, 1000, 13000)
        core = SimulatedCore(haswell)
        assert core.resolve_engine(trace) == "scalar"
        with pytest.raises(SimulationError, match="vector engine unsupported"):
            core.run(trace, engine="vector")
        assert_results_equal(
            core.run(trace, engine="scalar"),
            core.run(trace, engine="auto"),
        )

    @staticmethod
    def with_runs(trace, edit):
        """``trace`` rebuilt with ``edit`` applied to a writable copy of
        its address runs (and of its region stream)."""
        runs = [run.copy() for run in trace.region_addrs]
        regions = trace.mem_region.copy()
        edit(runs, regions)
        return dataclasses.replace(
            trace, mem_region=regions, region_addrs=tuple(runs)
        )

    def assert_verdict(self, config, trace, reason):
        assert vector.analyze_trace(config, trace) == (reason, None)
        assert SimulatedCore(config).resolve_engine(trace) == "scalar"

    def test_sentinel_address_in_a_run(self, haswell, mcf_trace):
        def edit(runs, regions):
            runs[2][0] = -1
        self.assert_verdict(haswell, self.with_runs(mcf_trace, edit),
                            "memory op with a sentinel address")

    def test_region_without_a_run_has_no_addresses(self, haswell, mcf_trace):
        def edit(runs, regions):
            del runs[3]
        self.assert_verdict(haswell, self.with_runs(mcf_trace, edit),
                            "memory op with a sentinel address")

    def test_unknown_region_id(self, haswell, mcf_trace):
        def edit(runs, regions):
            # The first dram access moves to a fifth region, address and all.
            first = int(np.flatnonzero(regions == 3)[0])
            regions[first] = 4
            runs.append(runs[3][:1])
            runs[3] = runs[3][1:]
        self.assert_verdict(haswell, self.with_runs(mcf_trace, edit),
                            "memory op with an unknown region id")

    def test_run_out_of_cyclic_order(self, haswell, mcf_trace):
        def edit(runs, regions):
            runs[1] = runs[1][::-1].copy()
        self.assert_verdict(haswell, self.with_runs(mcf_trace, edit),
                            "region 1 is not a cyclic sweep of its line set")

    def test_unsupported_reason_is_cheap_and_stable(self, haswell, mcf_trace):
        assert vector.unsupported_reason(haswell, mcf_trace) is None
        config = policy_config("random")
        reason = vector.unsupported_reason(config)
        assert reason is not None and "random" in reason


def session_on(engine: str, sample_ops: int = OPS) -> PerfSession:
    """A session whose core runs ``engine`` on every trace, where a
    session's own runs pick it per trace (``"auto"``)."""
    session = PerfSession(sample_ops=sample_ops)
    session._core.run = functools.partial(session._core.run, engine=engine)
    return session


class TestSessionParity:
    def test_session_reports_identical(self, mcf_ref):
        scalar = session_on("scalar").run(mcf_ref)
        vec = session_on("vector").run(mcf_ref)
        auto = PerfSession(sample_ops=OPS).run(mcf_ref)
        assert dict(scalar) == dict(vec) == dict(auto)

    def test_resolved_engine_exposed(self, mcf_ref):
        assert PerfSession(sample_ops=OPS).resolved_engine == "vector"
        session = PerfSession(
            config=policy_config("random"), sample_ops=OPS
        )
        assert session.resolved_engine == "scalar"


# Module-level sessions so hypothesis examples share warm state.
_SCALAR_SESSION = session_on("scalar", 6_000)
_AUTO_SESSION = PerfSession(sample_ops=6_000)
_GENERATOR = TraceGenerator(haswell_e5_2650l_v3())


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(profile=workload_profiles())
def test_report_parity_over_random_profiles(profile):
    """Property: whatever engine auto picks, the report is the scalar one."""
    scalar = _SCALAR_SESSION.run(profile)
    auto = _AUTO_SESSION.run(profile)
    assert dict(scalar) == dict(auto)
    assert auto.validate() == ()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(profile=workload_profiles())
def test_core_parity_over_random_profiles(profile):
    """Property: when the analysis accepts a trace, results are identical."""
    trace = _GENERATOR.generate(profile, n_ops=6_000)
    core = SimulatedCore(haswell_e5_2650l_v3())
    scalar = core.run(trace, engine="scalar")
    if core.resolve_engine(trace) == "vector":
        assert_results_equal(scalar, core.run(trace, engine="vector"))
    else:
        assert_results_equal(scalar, core.run(trace, engine="auto"))


PREDICTORS = ("static", "bimodal", "gshare", "two_level", "tournament")


@st.composite
def geometries(draw):
    """Valid hierarchies: power-of-two set counts growing strictly from L1
    to L3, one replacement policy throughout, and any predictor family."""
    policy = draw(st.sampled_from(["lru", "fifo", "plru"]))
    # Tree-PLRU needs a perfect binary tree of ways.
    ways = (st.sampled_from([1, 2, 4, 8, 16]) if policy == "plru"
            else st.integers(1, 16))
    l1_bits = draw(st.integers(5, 7))
    l2_bits = draw(st.integers(l1_bits + 1, 10))
    l3_bits = draw(st.integers(l2_bits + 1, 13))

    def level(name, set_bits, **latencies):
        associativity = draw(ways)
        return CacheConfig(name, (1 << set_bits) * associativity * 64,
                           associativity, replacement=policy, **latencies)

    return SystemConfig(
        l1d=level("L1D", l1_bits),
        l2=level("L2", l2_bits, hit_latency=12, miss_penalty=24),
        l3=level("L3", l3_bits, hit_latency=36, miss_penalty=174),
        branch_predictor=draw(st.sampled_from(PREDICTORS)),
    )


def ablation_plru_config() -> SystemConfig:
    """``bench_ablation_replacement.py``'s PLRU config: Table I with
    8-way tree-PLRU L1D and L2 (the 15-way L3 stays LRU)."""
    base = haswell_e5_2650l_v3()
    return dataclasses.replace(
        base,
        l1d=dataclasses.replace(base.l1d, replacement="plru"),
        l2=dataclasses.replace(base.l2, replacement="plru"),
    )


def tiny_plru_config() -> SystemConfig:
    """1-way L1D and L2 and an 8-way L3, all tree-PLRU."""
    def level(name, size_bytes, ways, **latencies):
        return CacheConfig(name, size_bytes, ways, replacement="plru",
                           **latencies)

    return SystemConfig(
        l1d=level("L1D", 2048, 1),
        l2=level("L2", 4096, 1, hit_latency=12, miss_penalty=24),
        l3=level("L3", 65536, 8, hit_latency=36, miss_penalty=174),
        branch_predictor="static",
    )


#: A profile :func:`workload_profiles` can draw.  On
#: :func:`tiny_plru_config` the lines of its DRAM region over-subscribe
#: one L3 set, and tree-PLRU keeps some of them.
HYPO_PROFILE = WorkloadProfile(
    benchmark="999.hypo_r",
    input_name="",
    suite=MiniSuite.RATE_INT,
    input_size=InputSize.TEST,
    instructions=1e9,
    target_ipc=1.0,
    exec_time_seconds=1.0,
    threads=1,
    mix=InstructionMix(0.3125, 0.125, 0.25,
                       BranchMix(0.2, 0.2, 0.2, 0.2, 0.2)),
    memory=MemoryBehavior(
        target_l1_miss_rate=0.75,
        target_l2_miss_rate=0.0625,
        target_l3_miss_rate=0.09375,
        rss_bytes=1e6,
        vsz_bytes=1e6,
    ),
    branches=BranchBehavior(target_mispredict_rate=0.0, taken_bias=1.0),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=geometries(), profile=workload_profiles())
@example(config=policy_config("lru").with_predictor("gshare"),
         profile=cpu2017().get("505.mcf_r").profile(InputSize.REF))
@example(config=policy_config("fifo").with_predictor("two_level"),
         profile=cpu2017().get("525.x264_r").profile(InputSize.REF))
@example(config=policy_config("plru").with_predictor("bimodal"),
         profile=cpu2017().get("519.lbm_r").profile(InputSize.REF))
@example(config=tiny_plru_config(), profile=HYPO_PROFILE)
@example(config=ablation_plru_config(),
         profile=cpu2017().get("510.parest_r").profile(InputSize.REF))
def test_core_parity_over_random_geometries(config, profile):
    """Property: the geometry proof, memoized per config, never lets the
    vector engine disagree with the op loop.  The first three examples
    run vector; in the last two, tree-PLRU keeps lines of an
    over-subscribed set, so they must fall back to scalar."""
    trace = TraceGenerator(config).generate(profile, n_ops=6_000)
    core = SimulatedCore(config)
    event("engine: %s" % core.resolve_engine(trace))
    assert_results_equal(
        core.run(trace, engine="scalar"), core.run(trace, engine="auto")
    )


#: Sweeps the scalar replay below runs after priming.  Every case there
#: repeats its set's state within ``ways + 1`` sweeps.
ORACLE_SWEEPS = 40


@pytest.mark.parametrize("ways", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
def test_thrash_proof_matches_a_one_set_replay(policy, ways):
    """A region over-subscribing one L1D set is proved to thrash there
    exactly when the scalar cache never hits on it after priming.  LRU
    and FIFO never do; tree-PLRU with four or more ways keeps lines of
    a set that holds a little more than ``ways`` of them."""
    l1_sets = 4
    config = SystemConfig(
        l1d=CacheConfig("L1D", l1_sets * ways * 64, ways,
                        replacement=policy),
        l2=CacheConfig("L2", 256 * 8 * 64, 8, hit_latency=12,
                       miss_penalty=24),
        l3=CacheConfig("L3", 1024 * 16 * 64, 16, hit_latency=36,
                       miss_penalty=174, shared=True),
    )
    empty = np.array([], dtype=np.int64)
    verdicts = {}
    for n_lines in range(ways + 1, 2 * ways + 3):
        # Every l1_sets-th line: one L1D set, and a set of its own in L2.
        lines = np.arange(n_lines, dtype=np.int64) * l1_sets * 64
        cache = Cache(config.l1d)
        for addr in lines.tolist():
            cache.access(addr)
        cache.reset_stats()
        for _ in range(ORACLE_SWEEPS):
            for addr in lines.tolist():
                cache.access(addr)
        reason, hit_levels = vector._region_levels(
            config, [lines, empty, empty, empty]
        )
        if reason is None:
            assert hit_levels[0] == 2  # thrashes L1D, fits L2
        verdicts[n_lines] = (reason is None, cache.stats.hits == 0)
    assert all(
        accepted == never_hits for accepted, never_hits in verdicts.values()
    ), verdicts


# ---------------------------------------------------------------------------
# The kernels against their definitions
# ---------------------------------------------------------------------------

def unique_sweep_lines(stream):
    """The definition the sweep check implements: ``stream`` is a cyclic
    sweep of its line set when it equals ``unique(stream)[arange(n) % L]``."""
    lines = np.unique(stream)
    if stream.size and not np.array_equal(
        stream, lines[np.arange(stream.size) % lines.size]
    ):
        return None
    return lines


@st.composite
def sweep_streams(draw):
    """Full and truncated sweeps (empty and one-line ones included), then
    perhaps rotated, with two entries swapped, or with one repeated."""
    lines = sorted(draw(st.sets(st.integers(0, 1 << 40), min_size=1,
                                max_size=10)))
    length = draw(st.integers(0, 6 * len(lines)))
    stream = [lines[index % len(lines)] for index in range(length)]
    edit = draw(st.sampled_from(["none", "rotate", "swap", "repeat"]))
    if stream and edit == "rotate":
        cut = draw(st.integers(0, len(stream) - 1))
        stream = stream[cut:] + stream[:cut]
    elif stream and edit == "swap":
        i = draw(st.integers(0, len(stream) - 1))
        j = draw(st.integers(0, len(stream) - 1))
        stream[i], stream[j] = stream[j], stream[i]
    elif stream and edit == "repeat":
        i = draw(st.integers(0, len(stream) - 1))
        stream.insert(i, stream[i])
    return stream


@settings(max_examples=400, deadline=None)
@given(stream=st.one_of(
    sweep_streams(), st.lists(st.integers(0, 4), max_size=24)
))
# Two lines swapped in the third period: comparing only the first
# period against the second would accept it.
@example(stream=[1, 2, 3, 1, 2, 3, 1, 3, 2, 1, 2, 3])
@example(stream=[])
@example(stream=[7])
# Periods past the bounded prefix the first non-increase is looked for
# in, so the whole run is searched: three sweeps of 200 lines, a period
# one past the prefix, a strictly increasing run with no drop at all,
# and a first drop past the prefix that breaks the sweep.
@example(stream=list(range(0, 2_000, 10)) * 3)
@example(stream=list(range(vector._PERIOD_PREFIX + 1)) * 2)
@example(stream=list(range(vector._PERIOD_PREFIX)) * 2 + [0])
@example(stream=list(range(500)))
@example(stream=list(range(300)) + [5, 6])
def test_sweep_check_matches_the_unique_definition(stream):
    stream = np.asarray(stream, dtype=np.int64)
    expected = unique_sweep_lines(stream)
    lines = vector._sweep_lines(stream)
    if expected is None:
        assert lines is None
    else:
        assert lines is not None and lines.tolist() == expected.tolist()


def replay_counters(keys, steps, init):
    """Sequential replay of a table of 2-bit saturating counters: each
    access's state before its step, in stream order."""
    table = {}
    before = []
    for key, step in zip(keys, steps):
        state = table.get(key, init)
        before.append(state)
        table[key] = min(3, max(0, state + step))
    return before


@st.composite
def counter_streams(draw):
    """Table indices below and above 2**16 (so every key dtype is
    exercised) and steps in {-1, 0, +1}, from none to mostly zero."""
    pool = draw(st.lists(
        st.one_of(st.integers(0, 255), st.integers(256, 65_535),
                  st.integers(65_536, 1 << 22)),
        min_size=1, max_size=6, unique=True,
    ))
    length = draw(st.integers(0, 400))
    keys = draw(st.lists(st.sampled_from(pool), min_size=length,
                         max_size=length))
    zeros = draw(st.integers(0, 18))
    steps = draw(st.lists(st.sampled_from([-1, 1] + [0] * zeros),
                          min_size=length, max_size=length))
    return keys, steps, draw(st.integers(0, 3))


#: 400 alternating steps: no window of them ever becomes constant.
ALTERNATING = [1, -1] * 200


@settings(max_examples=300, deadline=None)
@given(stream=counter_streams())
# One key, alternating: the scan runs every one of its log2(n) rounds.
@example(stream=([9] * 400, ALTERNATING, 2))
# One key, a run of +1 and then alternation: the constant prefixes'
# shifts pass ±3 and saturate while the alternating windows keep the
# scan going.
@example(stream=([9] * 400, [1] * 200 + ALTERNATING[:200], 0))
# No zero step: the dense path, with no compaction.
@example(stream=([3, 70_000, 3, 300] * 50, [1] * 200, 1))
# Every access starts its own group.
@example(stream=(list(range(0, 80_000, 2_000)), ALTERNATING[:40], 3))
def test_counter_scan_matches_a_sequential_replay(stream):
    keys, steps, init = stream
    groups = vector._KeyGroups(np.asarray(keys, dtype=np.int64))
    states = groups.counter_states(np.asarray(steps, dtype=np.int32), init)
    assert states.tolist() == replay_counters(keys, steps, init)


#: Every predictor family the engines model.
FAMILIES = ("static", "bimodal", "gshare", "two_level", "tournament")


def replay_window_mispredicts(name, sites, taken, warmup):
    """The scalar engine's count: a sequential replay of the predictor,
    whose statistics restart at the ``warmup``-th conditional."""
    predictor = make_predictor(name)
    for position, (site, outcome) in enumerate(zip(sites, taken)):
        if position == warmup:
            predictor.reset_stats()
        predictor.access(site, outcome)
    return predictor.stats.mispredictions


def disagreeing_stream(pool, n, rng):
    """A stream that makes the tournament's bimodal and gshare tables
    disagree wherever a site of ``pool`` lets them (on most accesses):
    it takes the first such site with a drawn outcome, and otherwise a
    drawn site whose shared prediction proves wrong."""
    predictor = TournamentPredictor()
    sites, taken = [], []
    for _ in range(n):
        site = next((site for site in pool
                     if predictor._bimodal.predict(site)
                     != predictor._gshare.predict(site)), None)
        if site is None:
            site = pool[int(rng.integers(len(pool)))]
            outcome = not predictor._bimodal.predict(site)
        else:
            outcome = bool(rng.integers(2))
        predictor.access(site, outcome)
        sites.append(site)
        taken.append(outcome)
    return np.asarray(sites, dtype=np.int32), np.asarray(taken, dtype=bool)


def drawn_stream(pool, n, bias, rng):
    """``n`` conditionals over ``pool``'s sites, taken with ``bias``."""
    sites = np.asarray(pool, dtype=np.int32)[rng.integers(0, len(pool), n)]
    return sites, rng.random(n) < bias


#: Sites that fold onto shared table entries: for each gshare spread 0
#: to 15 (which the 4-bit history folds onto 16 entries), a site, a site
#: 4,096 above it (every table aliases the two) and one 1,024 above it
#: (only the two-level table's 1,024 site slots alias those).
ALIASING_SITES = [
    spread * pow(0x9E3779B1, -1, 4096) % 4096 + offset
    for spread in range(16) for offset in (0, 1024, 4096)
]


@st.composite
def branch_streams(draw):
    """Conditional streams: drawn ones, all-taken ones (bimodal and
    gshare never disagree) and disagreeing ones, on site pools anywhere
    in int32 or from :data:`ALIASING_SITES`, from empty to past the
    4,096 conditionals below which the warmup is half."""
    shape = draw(st.sampled_from(["drawn", "all taken", "disagreeing"]))
    event(shape)
    pool = draw(st.lists(
        st.one_of(st.integers(-2**31, 2**31 - 1),
                  st.sampled_from(ALIASING_SITES)),
        min_size=1, max_size=16, unique=True,
    ))
    n = draw(st.integers(0, 1_500 if shape == "disagreeing" else 6_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "disagreeing":
        return disagreeing_stream(pool, n, rng)
    bias = 1.0 if shape == "all taken" else draw(st.floats(0.0, 1.0))
    return drawn_stream(pool, n, bias, rng)


@settings(max_examples=60, deadline=None)
@given(stream=branch_streams())
@example(stream=drawn_stream([5], 0, 0.5, np.random.default_rng(0)))
@example(stream=drawn_stream([5], 3_000, 0.5, np.random.default_rng(1)))
@example(stream=drawn_stream(list(range(8)), 5_000, 1.0,
                             np.random.default_rng(2)))
@example(stream=disagreeing_stream(list(range(16)), 1_200,
                                   np.random.default_rng(3)))
@example(stream=drawn_stream(ALIASING_SITES, 5_000, 0.7,
                             np.random.default_rng(4)))
def test_window_count_matches_a_scalar_replay(stream):
    sites, taken = stream
    warmup = vector._conditional_warmup(sites.size, 0.15)
    if sites.size < 4_096:
        assert warmup == sites.size // 2
    for name in FAMILIES:
        assert vector._window_mispredicts(name, sites, taken, warmup) == (
            replay_window_mispredicts(
                name, sites.tolist(), taken.tolist(), warmup
            )
        ), name
