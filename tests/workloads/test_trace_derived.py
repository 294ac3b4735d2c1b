"""A trace's shared op indices, streams and counts against their
definitions.

:class:`SyntheticTrace` derives its memory-op, branch and conditional-
branch indices, its memory-op streams (``addr`` and ``region`` at the
memory ops), its conditional-branch streams (``site`` and ``taken`` at
the conditionals), per-kind counts and branch-subtype counts once per
instance, and :meth:`TraceGenerator.generate` hands over every one of
them, computed while generating.  Every consumer (both engines, the
core's composition, the session's span attributes) reads them instead
of rebuilding masks and gathers, so each must equal its definition on
every kind of trace: generated, phase-concatenated, sliced and
``replace``-d.  A trace built from another must derive its own values,
never inherit its source's.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import haswell_e5_2650l_v3
from repro.phases.generator import PhasedTraceGenerator, slice_trace
from repro.phases.workload import PhasedWorkload, Schedule, make_phases
from repro.workloads.generator import (
    BR_CONDITIONAL,
    BR_DIRECT_CALL,
    BR_DIRECT_JUMP,
    BR_INDIRECT_JUMP,
    BR_INDIRECT_RETURN,
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    NO_BRANCH,
    TraceGenerator,
)
from repro.workloads.profile import InputSize
from tests.workloads.test_generator_edges import edge_profile

GENERATOR = TraceGenerator(haswell_e5_2650l_v3())

KINDS = (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH)
SUBTYPES = (BR_CONDITIONAL, BR_DIRECT_JUMP, BR_DIRECT_CALL,
            BR_INDIRECT_JUMP, BR_INDIRECT_RETURN)
#: The derived values a trace keeps in its instance ``__dict__``.
SHARED = ("mem_idx", "branch_idx", "cond_idx", "mem_addr", "mem_region",
          "cond_site", "cond_taken", "kind_counts", "_subtype_counts")
#: The op indices, which are ``intp`` arrays.
INDICES = ("mem_idx", "branch_idx", "cond_idx")
#: Each stream and the trace array it gathers (and takes its dtype from).
STREAMS = {"mem_addr": "addr", "mem_region": "region",
           "cond_site": "site", "cond_taken": "taken"}


def definitions(trace) -> dict:
    """Every derived value from the trace's arrays, by its definition."""
    kind, btype = trace.kind, trace.btype
    branch = kind == KIND_BRANCH
    branch_types = btype[branch]
    memory = (kind == KIND_LOAD) | (kind == KIND_STORE)
    conditional = branch & (btype == BR_CONDITIONAL)
    return {
        "mem_idx": np.flatnonzero(memory),
        "branch_idx": np.flatnonzero(branch),
        "cond_idx": np.flatnonzero(conditional),
        "mem_addr": trace.addr[memory],
        "mem_region": trace.region[memory],
        "cond_site": trace.site[conditional],
        "cond_taken": trace.taken[conditional],
        "kind_counts": tuple(
            int(np.count_nonzero(kind == value)) for value in KINDS
        ),
        "branch_subtype_counts": tuple(
            int(np.count_nonzero(branch_types == subtype))
            for subtype in SUBTYPES
        ),
    }


def derived(trace) -> dict:
    """Every derived value as the trace serves it."""
    return {
        "mem_idx": trace.mem_idx,
        "branch_idx": trace.branch_idx,
        "cond_idx": trace.cond_idx,
        **{name: getattr(trace, name) for name in STREAMS},
        "kind_counts": trace.kind_counts,
        "branch_subtype_counts": trace.branch_subtype_counts(),
    }


def assert_matches_definitions(trace) -> None:
    expected, served = definitions(trace), derived(trace)
    for name in INDICES:
        assert served[name].dtype == np.intp, name
    for name, source in STREAMS.items():
        assert served[name].dtype == getattr(trace, source).dtype, name
    for name in INDICES + tuple(STREAMS):
        assert np.array_equal(served[name], expected[name]), name
        assert not served[name].flags.writeable, name
    for name in ("kind_counts", "branch_subtype_counts"):
        assert served[name] == expected[name], name
        assert all(type(count) is int for count in served[name]), name
    kind = trace.kind
    assert trace.n_loads == np.count_nonzero(kind == KIND_LOAD)
    assert trace.n_stores == np.count_nonzero(kind == KIND_STORE)
    assert trace.n_branches == np.count_nonzero(kind == KIND_BRANCH)
    for value in KINDS + (7, NO_BRANCH, -1):
        assert trace.count(value) == np.count_nonzero(kind == value), value


def assert_differs_from(copy, source) -> None:
    """Every derived value of ``copy`` differs from ``source``'s."""
    ours, theirs = derived(copy), derived(source)
    for name in ours:
        if name in INDICES or name in STREAMS:
            assert not np.array_equal(ours[name], theirs[name]), name
        else:
            assert ours[name] != theirs[name], name


@pytest.fixture(scope="module")
def source(suite17):
    """A generated trace whose derived values have all been read."""
    profile = suite17.get("505.mcf_r").profile(InputSize.REF)
    trace = GENERATOR.generate(profile, n_ops=12_000)
    derived(trace)
    return trace


class TestGeneratedTraces:
    @pytest.mark.parametrize("name, size", [
        ("505.mcf_r", "ref"), ("519.lbm_r", "ref"),
        ("548.exchange2_r", "ref"), ("525.x264_r", "test"),
    ])
    @pytest.mark.parametrize("n_ops", [60_000, 6_001, 1])
    def test_handed_over_values_match_definitions(
        self, suite17, name, size, n_ops
    ):
        profile = suite17.get(name).profile(InputSize(size))
        trace = GENERATOR.generate(profile, n_ops=n_ops)
        # The generator hands every derived value over: no consumer
        # derives one.
        assert set(SHARED) <= set(vars(trace))
        assert_matches_definitions(trace)

    @pytest.mark.parametrize("overrides", [
        {"branches": 0.0}, {"stores": 0.0},
        {"loads": 0.001, "stores": 0.0, "branches": 0.0},
        {"loads": 0.0, "stores": 0.0},
    ], ids=["no-branches", "no-stores", "alu-only", "no-memory"])
    def test_empty_streams_match_definitions(self, overrides):
        trace = GENERATOR.generate(edge_profile(**overrides), n_ops=5000)
        assert set(SHARED) <= set(vars(trace))
        assert_matches_definitions(trace)


@pytest.fixture(scope="module")
def phased(config, suite17):
    """A phase-concatenated trace."""
    base = suite17.get("502.gcc_r").profile(InputSize.REF)
    workload = PhasedWorkload(
        "gcc-phased",
        make_phases(base, ["compute", "memory", "branchy"]),
        Schedule.round_robin(3, 2000, 6),
    )
    return PhasedTraceGenerator(config).generate(workload).trace


class TestDerivedTraces:
    def test_phased_trace_derives_its_own(self, phased):
        trace = phased
        assert not set(SHARED) & set(vars(trace))
        assert_matches_definitions(trace)

    def test_slice_derives_its_own(self, source):
        part = slice_trace(source, 1000, 4000)
        assert not set(SHARED) & set(vars(part))
        assert_matches_definitions(part)
        assert_differs_from(part, source)
        # Reading the slice's values leaves the source's alone.
        assert_matches_definitions(source)

    def test_replace_derives_its_own(self, source):
        kind = source.kind.copy()
        kind[: kind.size // 2] = KIND_ALU
        copy = dataclasses.replace(source, kind=kind)
        assert not set(SHARED) & set(vars(copy))
        assert_matches_definitions(copy)
        assert_differs_from(copy, source)
        assert_matches_definitions(source)


class TestReadOnlyArrays:
    """The values are derived from ``kind``, ``btype``, ``addr``,
    ``region``, ``site`` and ``taken``, so a built trace refuses an
    in-place edit of any of them instead of serving values that no longer
    match them."""

    BUILDS = ("generated", "phased", "slice", "replace")

    @staticmethod
    def build(kind, source, phased, names):
        return {
            "generated": lambda: source,
            "phased": lambda: phased,
            "slice": lambda: slice_trace(source, 1000, 4000),
            "replace": lambda: dataclasses.replace(source, **{
                name: getattr(source, name).copy() for name in names
            }),
        }[kind]()

    @pytest.mark.parametrize("build", BUILDS)
    def test_kind_and_btype_cannot_be_edited(self, source, phased, build):
        trace = self.build(build, source, phased, ("kind", "btype"))
        for name in ("kind", "btype"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = KIND_ALU
        assert_matches_definitions(trace)

    @pytest.mark.parametrize("build", BUILDS)
    def test_stream_sources_cannot_be_edited(self, source, phased, build):
        trace = self.build(build, source, phased, tuple(STREAMS.values()))
        for name in STREAMS.values():
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0
        assert_matches_definitions(trace)
