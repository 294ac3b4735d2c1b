"""A trace's streams and derived values against their definitions.

:class:`SyntheticTrace` holds what generation draws: ``kind``, the memory
ops' region and page-touch streams, the branches' subtype stream, the
conditionals' sites and outcomes, and one address run per region.  The op
indices, the memory ops' store flags and interleaved addresses, the
per-kind, branch-subtype and (region, is-store) counts, and the
full-length arrays (``addr``, ``region``, ``btype``, ``site``, ``taken``,
``new_page``) are derived from those on first read; :func:`draw` and
:meth:`TraceGenerator.place` hand the counts and store flags over,
computed while generating.  Every consumer (both engines, the core's
composition, the session's span attributes) reads these values instead
of rebuilding masks and gathers, so each must equal its definition over
the full-length arrays on every kind of trace: generated, edge-profile,
phase-concatenated, sliced and rebuilt with ``dataclasses.replace``.  The
full-length arrays of a phase trace and of a slice are held to the
segments' and the source's, so the streams those traces are built from
are too.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import haswell_e5_2650l_v3
from repro.errors import SimulationError
from repro.perf.session import PerfSession
from repro.phases.generator import PhasedTraceGenerator, slice_trace
from repro.phases.workload import PhasedWorkload, Schedule, make_phases
from repro.uarch.core import SimulatedCore
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
    N_REGIONS,
    NO_BRANCH,
    NO_REGION,
    SyntheticTrace,
    TraceGenerator,
)
from repro.workloads.profile import InputSize
from tests.workloads.test_generator_edges import edge_profile

GENERATOR = TraceGenerator(haswell_e5_2650l_v3())

KINDS = (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH)
SUBTYPES = (BR_CONDITIONAL, BR_DIRECT_JUMP, BR_DIRECT_CALL,
            BR_INDIRECT_JUMP, BR_INDIRECT_RETURN)
#: Every full-length array and its dtype.
ARRAYS = {"kind": np.uint8, "addr": np.int64, "region": np.uint8,
          "btype": np.uint8, "site": np.int32, "taken": np.bool_,
          "new_page": np.bool_}
#: The streams a trace holds, each over its own ops, and their dtypes.
STREAMS = {"mem_region": np.uint8, "mem_new_page": np.bool_,
           "branch_subtype": np.uint8, "cond_site": np.int32,
           "cond_taken": np.bool_}
#: The derived streams and op indices, and their dtypes.
DERIVED = {"mem_is_store": np.bool_, "mem_addr": np.int64,
           "mem_idx": np.intp, "branch_idx": np.intp, "cond_idx": np.intp}
#: The derived counts, and how a trace serves each.
COUNTS = {
    "kind_counts": lambda trace: trace.kind_counts,
    "branch_subtype_counts": lambda trace: trace.branch_subtype_counts(),
    "region_store_counts": lambda trace: trace.region_store_counts,
}
#: What a trace holds.
FIELDS = {field.name for field in dataclasses.fields(SyntheticTrace)}
#: What the generator hands over, under the names of the definitions.
HANDED_OVER = ("kind_counts", "_subtype_counts", "region_store_counts",
               "mem_is_store")
#: What a run reads none of: the full-length arrays (``kind`` aside), the
#: interleaved addresses and the op indices.
BUILT_ON_READ = tuple(name for name in ARRAYS if name != "kind") + (
    "mem_addr", "mem_idx", "branch_idx", "cond_idx")


def full_arrays(trace) -> dict:
    return {name: getattr(trace, name) for name in ARRAYS}


def definitions(arrays) -> dict:
    """Every stream, run, index and count, by its definition over the
    full-length arrays."""
    kind, btype = arrays["kind"], arrays["btype"]
    memory = (kind == KIND_LOAD) | (kind == KIND_STORE)
    branch = kind == KIND_BRANCH
    conditional = branch & (btype == BR_CONDITIONAL)
    mem_region = arrays["region"][memory]
    mem_addr = arrays["addr"][memory]
    mem_is_store = kind[memory] == KIND_STORE
    return {
        "mem_region": mem_region,
        "mem_new_page": arrays["new_page"][memory],
        "branch_subtype": btype[branch],
        "cond_site": arrays["site"][conditional],
        "cond_taken": arrays["taken"][conditional],
        "mem_is_store": mem_is_store,
        "mem_addr": mem_addr,
        "mem_idx": np.flatnonzero(memory),
        "branch_idx": np.flatnonzero(branch),
        "cond_idx": np.flatnonzero(conditional),
        "region_addrs": tuple(
            mem_addr[mem_region == region] for region in range(N_REGIONS)
        ),
        "kind_counts": tuple(
            int(np.count_nonzero(kind == value)) for value in KINDS
        ),
        "branch_subtype_counts": tuple(
            int(np.count_nonzero(btype[branch] == subtype))
            for subtype in SUBTYPES
        ),
        "region_store_counts": tuple(
            int(np.count_nonzero((mem_region == region)
                                 & (mem_is_store == is_store)))
            for region in range(N_REGIONS) for is_store in (False, True)
        ),
    }


def assert_full_arrays_hold_their_sentinels(arrays) -> None:
    """Off its ops, each full-length array holds its sentinel."""
    kind, btype = arrays["kind"], arrays["btype"]
    memory = (kind == KIND_LOAD) | (kind == KIND_STORE)
    branch = kind == KIND_BRANCH
    conditional = branch & (btype == BR_CONDITIONAL)
    assert (arrays["addr"][~memory] == -1).all()
    assert (arrays["region"][~memory] == NO_REGION).all()
    assert not arrays["new_page"][~memory].any()
    assert (btype[~branch] == NO_BRANCH).all()
    assert (arrays["site"][~conditional] == -1).all()
    assert arrays["taken"][branch & ~conditional].all()
    assert not arrays["taken"][~branch].any()


def assert_matches_definitions(trace, arrays=None) -> None:
    """Every value ``trace`` serves equals its definition over ``arrays``
    (by default the trace's own full-length arrays), with its dtype, and
    is read-only."""
    if arrays is None:
        arrays = full_arrays(trace)
    assert_full_arrays_hold_their_sentinels(arrays)
    expected = definitions(arrays)
    served_arrays = {**full_arrays(trace),
                     **{name: getattr(trace, name)
                        for name in (*STREAMS, *DERIVED)}}
    dtypes = {**ARRAYS, **STREAMS, **DERIVED}
    for name, served in served_arrays.items():
        assert served.dtype == dtypes[name], name
        assert served.ndim == 1, name
        assert np.array_equal(served, expected.get(name, arrays.get(name))), name
        assert not served.flags.writeable, name
    assert len(trace.region_addrs) == N_REGIONS
    for run, expected_run in zip(trace.region_addrs, expected["region_addrs"]):
        assert run.dtype == np.int64
        assert np.array_equal(run, expected_run)
        assert not run.flags.writeable
    for name, serve in COUNTS.items():
        assert serve(trace) == expected[name], name
        assert all(type(count) is int for count in serve(trace)), name
    kind = trace.kind
    assert trace.n_ops == kind.size
    assert trace.n_loads == np.count_nonzero(kind == KIND_LOAD)
    assert trace.n_stores == np.count_nonzero(kind == KIND_STORE)
    assert trace.n_branches == np.count_nonzero(kind == KIND_BRANCH)
    for value in KINDS + (7, NO_BRANCH, -1):
        assert trace.count(value) == np.count_nonzero(kind == value), value


def assert_differs_from(copy, source, names) -> None:
    """Each of ``names`` differs between ``copy`` and ``source``."""
    for name in names:
        assert not np.array_equal(getattr(copy, name), getattr(source, name)), name


@pytest.fixture(scope="module")
def source_profile(suite17):
    return suite17.get("505.mcf_r").profile(InputSize.REF)


@pytest.fixture(scope="module")
def source(source_profile):
    """A generated trace whose derived values have all been read."""
    trace = GENERATOR.generate(source_profile, n_ops=12_000)
    assert_matches_definitions(trace)
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
        # The generator hands its counts and store flags over, and
        # nothing else: none of the values derived on read, and no proof
        # or hit level for the engine.
        assert set(vars(trace)) == FIELDS | set(HANDED_OVER)
        assert_matches_definitions(trace)
        # Its addresses are its region stream, placed on the layout.
        assert np.array_equal(
            trace.mem_addr, GENERATOR.layout.place(trace.mem_region)
        )

    @pytest.mark.parametrize("overrides", [
        {"branches": 0.0}, {"stores": 0.0},
        {"loads": 0.001, "stores": 0.0, "branches": 0.0},
        {"loads": 0.0, "stores": 0.0},
    ], ids=["no-branches", "no-stores", "alu-only", "no-memory"])
    def test_empty_streams_match_definitions(self, overrides):
        trace = GENERATOR.generate(edge_profile(**overrides), n_ops=5000)
        assert set(vars(trace)) == FIELDS | set(HANDED_OVER)
        assert_matches_definitions(trace)


@pytest.fixture(scope="module")
def phased_parts(config, suite17):
    """A phase-concatenated trace and its segments, generated alone."""
    base = suite17.get("502.gcc_r").profile(InputSize.REF)
    workload = PhasedWorkload(
        "gcc-phased",
        make_phases(base, ["compute", "memory", "branchy"]),
        Schedule.round_robin(3, 2000, 6),
    )
    generator = TraceGenerator(config)
    segments = [
        generator.generate(workload.phases[phase], n_ops=ops,
                           seed=workload.phases[phase].seed("segment-%d" % index))
        for index, (phase, ops) in enumerate(workload.schedule.segments)
    ]
    return PhasedTraceGenerator(config).generate(workload).trace, segments


@pytest.fixture(scope="module")
def phased(phased_parts):
    """A phase-concatenated trace."""
    return phased_parts[0]


class TestDerivedTraces:
    def test_phased_trace_derives_its_own(self, phased_parts):
        trace, segments = phased_parts
        # Its arrays are the segments' arrays end to end.
        assert_matches_definitions(trace, {
            name: np.concatenate([getattr(segment, name) for segment in segments])
            for name in ARRAYS
        })
        assert trace.kind_counts == tuple(
            sum(counts) for counts in zip(*(s.kind_counts for s in segments))
        )

    def test_slice_derives_its_own(self, source):
        part = slice_trace(source, 1000, 4000)
        assert_matches_definitions(part, {
            name: array[1000:4000] for name, array in full_arrays(source).items()
        })
        assert_differs_from(part, source, (*ARRAYS, *STREAMS, *DERIVED))
        # Reading the slice's values leaves the source's alone.
        assert_matches_definitions(source)

    @pytest.mark.parametrize("start, stop", [
        (0, 12_000), (0, 1), (11_999, 12_000), (5_000, 5_003), (3, 11_000),
    ])
    def test_slices_cut_every_stream_and_run(self, source, phased, start, stop):
        for trace in (source, phased):
            assert_matches_definitions(slice_trace(trace, start, stop), {
                name: array[start:stop]
                for name, array in full_arrays(trace).items()
            })

    def test_replace_derives_its_own(self, source):
        # Same kind counts in reverse order: the streams still fit, and
        # every value that reads the positions is derived anew.
        copy = dataclasses.replace(source, kind=source.kind[::-1].copy())
        assert not {"addr", "mem_addr", "branch_idx", "cond_idx"} & set(vars(copy))
        assert_matches_definitions(copy)
        assert_differs_from(copy, source, (
            "kind", "addr", "region", "btype", "site", "taken", "new_page",
            "mem_idx", "branch_idx", "cond_idx", "mem_is_store",
        ))
        assert_matches_definitions(source)

    def test_replace_with_a_kind_that_disagrees_is_refused(self, source):
        kind = source.kind.copy()
        kind[: kind.size // 2] = KIND_ALU
        with pytest.raises(SimulationError, match="mem_region holds"):
            dataclasses.replace(source, kind=kind)


class TestConstruction:
    """A trace refuses, when it is built, streams that disagree with
    ``kind`` (or with ``branch_subtype`` and ``mem_region``, which fix
    the conditionals and each region's accesses)."""

    @pytest.mark.parametrize("name", list(STREAMS))
    @pytest.mark.parametrize("cut", ["short", "long"])
    def test_stream_of_the_wrong_length_is_refused(self, source, name, cut):
        stream = getattr(source, name)
        stream = stream[:-1] if cut == "short" else np.append(stream, stream[:1])
        with pytest.raises(SimulationError, match="trace %s holds" % name):
            dataclasses.replace(source, **{name: stream})

    @pytest.mark.parametrize("name", ["kind", *STREAMS])
    def test_stream_of_the_wrong_dtype_is_refused(self, source, name):
        stream = getattr(source, name).astype(np.int64)
        with pytest.raises(SimulationError, match="trace %s must be" % name):
            dataclasses.replace(source, **{name: stream})

    def test_run_of_the_wrong_length_is_refused(self, source):
        runs = list(source.region_addrs)
        runs[1] = runs[1][:-1]
        with pytest.raises(SimulationError, match=r"region_addrs\[1\] holds"):
            dataclasses.replace(source, region_addrs=tuple(runs))

    def test_fewer_runs_leave_their_regions_unplaced(self, source):
        # A region with no run has no addresses: -1, the sentinel.
        trace = dataclasses.replace(source, region_addrs=source.region_addrs[:2])
        placed = source.mem_region < 2
        assert np.array_equal(trace.mem_addr[placed], source.mem_addr[placed])
        assert (trace.mem_addr[~placed] == -1).all()


class TestRunsBuildNoFullLengthArray:
    """A run reads the streams, runs and counts only: neither engine's
    vector path nor the session builds a full-length array, the
    interleaved addresses or an op index."""

    def test_core_run(self, config, source_profile):
        trace = GENERATOR.generate(source_profile, n_ops=6_000)
        core = SimulatedCore(config)
        assert core.resolve_engine(trace) == "vector"
        core.run(trace)
        assert not set(BUILT_ON_READ) & set(vars(trace))

    def test_session_run(self, monkeypatch, source_profile):
        traces = []
        generate = TraceGenerator.generate

        def recording(self, *args, **kwargs):
            traces.append(generate(self, *args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(TraceGenerator, "generate", recording)
        PerfSession(sample_ops=6_000).run(source_profile)
        assert len(traces) == 1
        assert not set(BUILT_ON_READ) & set(vars(traces[0]))


class TestReadOnlyArrays:
    """The values are derived from the held streams and runs, so a built
    trace refuses an in-place edit of any of them, and of any derived
    array, instead of serving values that no longer match them."""

    BUILDS = ("generated", "phased", "slice", "replace")

    @staticmethod
    def build(kind, source, phased, names):
        """A trace of kind ``kind``; "replace" rebuilds ``source`` with
        fresh, writable copies of the ``names`` streams and of its runs."""
        return {
            "generated": lambda: source,
            "phased": lambda: phased,
            "slice": lambda: slice_trace(source, 1000, 4000),
            "replace": lambda: dataclasses.replace(
                source,
                region_addrs=tuple(run.copy() for run in source.region_addrs),
                **{name: getattr(source, name).copy() for name in names},
            ),
        }[kind]()

    @pytest.mark.parametrize("build", BUILDS)
    def test_kind_and_btype_cannot_be_edited(self, source, phased, build):
        trace = self.build(build, source, phased, ("kind", "branch_subtype"))
        for name in ("kind", "branch_subtype", "btype"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = KIND_ALU
        assert_matches_definitions(trace)

    @pytest.mark.parametrize("build", BUILDS)
    def test_stream_sources_cannot_be_edited(self, source, phased, build):
        trace = self.build(build, source, phased, tuple(STREAMS))
        names = (*STREAMS, *DERIVED, *ARRAYS)
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0
        for run in trace.region_addrs:
            with pytest.raises(ValueError, match="read-only"):
                run[:1] = 0
        assert_matches_definitions(trace)
