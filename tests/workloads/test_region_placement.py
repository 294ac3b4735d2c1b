"""Address placement against its definition.

:meth:`RegionLayout.place` turns a trace's memory-op region stream into
byte addresses: one cyclic cursor per region runs over the merged stream,
so the ``k``-th access to region ``r`` gets ``lines[r][k % len(lines[r])]``
and every region's accesses, in stream order, read
``lines[r][arange(k_r) % L_r]``.  The golden-trace digests pin it on the
shipped layouts; this property holds it to that definition on drawn line
sets and streams.

A trace's draws read no config, so one :func:`draw` placed on a layout
(:meth:`TraceGenerator.place`) must equal :meth:`TraceGenerator.generate`
on that layout's config, byte for byte, whichever layouts it was placed on
before.
"""

import copy
import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.config import haswell_e5_2650l_v3
from repro.workloads.generator import (
    NO_REGION,
    RegionLayout,
    TraceGenerator,
    draw,
)
from repro.workloads.profile import InputSize

LAYOUT = RegionLayout(haswell_e5_2650l_v3())


def placed_by_definition(lines, stream) -> list:
    """A sequential replay: one cursor per region, advanced per access;
    an id outside the layout gets -1."""
    cursors = [0] * len(lines)
    placed = []
    for region in stream:
        if region >= len(lines):
            placed.append(-1)
            continue
        region_lines = lines[region]
        placed.append(int(region_lines[cursors[region] % len(region_lines)]))
        cursors[region] += 1
    return placed


def place(lines, stream) -> np.ndarray:
    layout = copy.copy(LAYOUT)
    layout.lines = tuple(np.asarray(each, dtype=np.int64) for each in lines)
    return layout.place(np.asarray(stream, dtype=np.uint8))


line_sets = st.lists(
    st.lists(st.integers(0, 1 << 40), min_size=1, max_size=40),
    min_size=4, max_size=4,
)
streams = st.lists(
    st.one_of(st.integers(0, 3), st.just(NO_REGION)), max_size=300
)


@settings(max_examples=300, deadline=None)
@given(lines=line_sets, stream=streams)
# Region 2 absent, with the others present.
@example(lines=[[64, 128], [1, 2, 3], [5], [7, 8]], stream=[0, 1, 3, 0, 1])
# A single access.
@example(lines=[[10, 20, 30], [1], [2], [3]], stream=[0])
# Fewer accesses than lines, in every region.
@example(lines=[list(range(8)), list(range(100, 116)), [7, 9, 11],
                list(range(200, 232))],
         stream=[3, 0, 1, 0, 2, 3, 1])
@example(lines=[[1], [2], [3], [4]], stream=[])
def test_place_matches_one_cyclic_cursor_per_region(lines, stream):
    placed = place(lines, stream)
    assert placed.dtype == np.int64
    assert placed.tolist() == placed_by_definition(lines, stream)


def test_generate_places_its_region_stream(suite17):
    """A generated trace's addresses are its region stream, placed."""
    generator = TraceGenerator(haswell_e5_2650l_v3())
    for name in ("505.mcf_r", "519.lbm_r", "548.exchange2_r"):
        profile = suite17.get(name).profile(InputSize.REF)
        trace = generator.generate(profile, n_ops=20_000)
        mem = trace.mem_idx
        assert np.array_equal(
            trace.addr[mem], generator.layout.place(trace.region[mem])
        )


def _layouts():
    """Table I, the quarter-size L3 (the dram region's lines move) and a
    32-way L2 (the cool region's lines move too)."""
    base = haswell_e5_2650l_v3()
    wide_l2 = dataclasses.replace(
        base, l2=dataclasses.replace(base.l2, associativity=32)
    )
    return tuple(TraceGenerator(config) for config in
                 (base, base.with_l3_scaled(0.25), wide_l2))


GENERATORS = _layouts()
#: The pairs a cold sweep simulates.
PAIRS = api.cpu2017().pairs(size=None) + api.cpu2006().pairs(
    size=api.InputSize.REF
)
#: Every full-length array of a trace.
ARRAYS = ("kind", "addr", "region", "btype", "site", "taken", "new_page")


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PAIRS), n_ops=st.integers(1, 20_000),
       seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)))
@example(pair=PAIRS[0], n_ops=60_000, seed=None)
def test_one_draw_placed_on_each_layout_equals_generate(pair, n_ops, seed):
    drawn = draw(pair.profile, n_ops, seed)
    assert drawn.region_addrs == ()
    # Each layout places the draw itself, and the trace the previous
    # layout placed (whose arrays have all been read by then).
    previous = drawn
    for generator in GENERATORS:
        generated = generator.generate(pair.profile, n_ops, seed)
        for placed in (generator.place(drawn), generator.place(previous)):
            for name in ARRAYS:
                ours, theirs = getattr(placed, name), getattr(generated, name)
                assert ours.dtype == theirs.dtype, name
                assert ours.tobytes() == theirs.tobytes(), name
        previous = placed
    # Placing leaves the draw as it was: no addresses.
    assert drawn.region_addrs == ()
    assert (drawn.mem_addr == -1).all()
