"""Deterministic synthetic micro-op trace generation.

A :class:`TraceGenerator` turns a :class:`~repro.workloads.profile.
WorkloadProfile` into a :class:`SyntheticTrace`: flat numpy arrays of
micro-op kinds, memory addresses, and branch outcomes that the simulated
core in :mod:`repro.uarch.core` executes.

Memory addresses are laid out per the region scheme described in
:mod:`repro.workloads.calibrate`: each region is a small set of cache lines
engineered (for the configured hierarchy geometry) to hit exactly one cache
level under cyclic access, so the profile's per-level miss-rate targets are
met by construction rather than by hoping a random stream lands right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import SimulationError
from .calibrate import BranchKnobs, RegionFractions, branch_knobs, solve_region_fractions
from .profile import WorkloadProfile

# Micro-op kinds.
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3

# Branch subtypes (order matches BranchMix.as_tuple()).
BR_CONDITIONAL = 0
BR_DIRECT_JUMP = 1
BR_DIRECT_CALL = 2
BR_INDIRECT_JUMP = 3
BR_INDIRECT_RETURN = 4

#: Every kind in ``KIND_*`` order, and the number of branch subtypes.
_KINDS = (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH)
_N_SUBTYPES = BR_INDIRECT_RETURN + 1

#: Sentinel for "not a branch" / "not a memory op".
NO_BRANCH = 255
NO_REGION = 255

#: Conditional-branch site pools (predictor tables learn per-site state).
#: Kept small so table-based predictors converge within the simulated
#: sample the way they converge within seconds on a native run.
N_EASY_SITES = 32
N_HARD_SITES = 16

#: Minimum expected first-touch events per trace; rarer events are boosted
#: (each event then stands for ``pages_per_touch`` pages) so footprints far
#: smaller than sampling resolution remain observable.  256 events put the
#: binomial noise on the RSS estimate near 6% relative.
MIN_TOUCH_EVENTS = 256

#: Page size used by the footprint model.
PAGE_SIZE = 4096


@dataclass(frozen=True)
class SyntheticTrace:
    """A generated micro-op stream plus its generation metadata.

    All arrays share one length (``n_ops``).  Non-memory ops carry
    ``addr == -1`` and ``region == NO_REGION``; non-branch ops carry
    ``btype == NO_BRANCH`` and ``site == -1``.

    The op indices and counts below are derived from ``kind`` and
    ``btype`` once per instance and shared, read-only, by every consumer,
    and so are the memory-op streams (``addr`` and ``region`` at
    ``mem_idx``) and the conditional-branch streams (``site`` and
    ``taken`` at ``cond_idx``) that both engines read.  Building a trace
    marks every array those values read read-only, so an edit raises
    instead of leaving a derived value stale.  The values live in the
    instance ``__dict__``, not in fields: ``dataclasses.replace`` (and
    with it :func:`~repro.phases.generator.slice_trace`) builds a trace
    that derives its own.  :meth:`TraceGenerator.generate` hands over
    every one of these values, computed on the way.
    """

    profile: WorkloadProfile
    kind: np.ndarray       # uint8, KIND_*
    addr: np.ndarray       # int64, byte address of memory ops, -1 otherwise
    region: np.ndarray     # uint8, region index of memory ops
    btype: np.ndarray      # uint8, BR_* subtype of branch ops
    site: np.ndarray       # int32, branch site id (conditionals), -1 otherwise
    taken: np.ndarray      # bool, branch outcome
    new_page: np.ndarray   # bool, first-touch page event (memory ops)
    pages_per_touch: float  # pages represented by each first-touch event
    regions: RegionFractions
    knobs: BranchKnobs
    seed: int

    def __post_init__(self) -> None:
        for array in (self.kind, self.btype, self.addr, self.region,
                      self.site, self.taken):
            _read_only(array)

    @property
    def n_ops(self) -> int:
        return int(self.kind.shape[0])

    @cached_property
    def mem_idx(self) -> np.ndarray:
        """Positions of the memory ops (loads and stores), ascending."""
        kind = self.kind
        return _read_only(
            np.flatnonzero((kind == KIND_LOAD) | (kind == KIND_STORE))
        )

    @cached_property
    def branch_idx(self) -> np.ndarray:
        """Positions of the branch ops, ascending."""
        return _read_only(np.flatnonzero(self.kind == KIND_BRANCH))

    @cached_property
    def cond_idx(self) -> np.ndarray:
        """Positions of the conditional branches, ascending."""
        branches = self.branch_idx
        return _read_only(branches[self.btype[branches] == BR_CONDITIONAL])

    @cached_property
    def mem_addr(self) -> np.ndarray:
        """Byte addresses of the memory ops, in stream order."""
        return _read_only(self.addr[self.mem_idx])

    @cached_property
    def mem_region(self) -> np.ndarray:
        """Region ids of the memory ops, in stream order."""
        return _read_only(self.region[self.mem_idx])

    @cached_property
    def cond_site(self) -> np.ndarray:
        """Site ids of the conditional branches, in stream order."""
        return _read_only(self.site[self.cond_idx])

    @cached_property
    def cond_taken(self) -> np.ndarray:
        """Outcomes of the conditional branches, in stream order."""
        return _read_only(self.taken[self.cond_idx])

    @cached_property
    def kind_counts(self) -> Tuple[int, int, int, int]:
        """Op counts indexed by kind (ALU, load, store, branch)."""
        return tuple(int(np.count_nonzero(self.kind == kind)) for kind in _KINDS)

    @cached_property
    def _subtype_counts(self) -> Tuple[int, int, int, int, int]:
        counts = np.bincount(self.btype[self.branch_idx], minlength=_N_SUBTYPES)
        return tuple(int(count) for count in counts[:_N_SUBTYPES])

    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kind == kind))

    @property
    def n_loads(self) -> int:
        return self.kind_counts[KIND_LOAD]

    @property
    def n_stores(self) -> int:
        return self.kind_counts[KIND_STORE]

    @property
    def n_branches(self) -> int:
        return self.kind_counts[KIND_BRANCH]

    def branch_subtype_counts(self) -> Tuple[int, int, int, int, int]:
        """Executed-branch counts in counter order (cond, djmp, call, ijmp,
        iret)."""
        return self._subtype_counts


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _log2(value: int) -> int:
    return int(value).bit_length() - 1


def _stratified_assign(n, fractions, labels, default_label, rng) -> np.ndarray:
    """Assign exactly ``round(f * n)`` slots to each label, shuffled.

    Everything left over gets ``default_label``.  Rounding is largest-
    remainder so totals always add up to ``n``.

    The labels are built and shuffled at ``np.intp`` width and returned
    as ``uint8``: ``Generator.shuffle`` swaps pointer-sized items
    directly and other widths through a ``memcpy`` per swap, taking the
    same draws either way (docs/methodology.md §2).
    """
    raw = [fraction * n for fraction in fractions]
    counts = [int(value) for value in raw]
    spare = n - sum(counts)
    for i in sorted(range(len(raw)), key=lambda i: raw[i] - counts[i],
                    reverse=True):
        if spare > 0 and raw[i] - counts[i] >= 0.5:
            counts[i] += 1
            spare -= 1
    out = np.full(n, default_label, dtype=np.intp)
    cursor = 0
    for label, count in zip(labels, counts):
        out[cursor:cursor + count] = label
        cursor += count
    rng.shuffle(out)
    return out.astype(np.uint8)


class RegionLayout:
    """Cache-line addresses of the four regions for one hierarchy geometry.

    The layout places each region's lines so cyclic access defeats LRU at
    every level the region must miss and fits comfortably at the level it
    must hit (see :mod:`repro.workloads.calibrate`).
    """

    # L1 set indices reserved for the thrashing regions.
    _WARM_SET = 1
    _COOL_SET = 2
    _DRAM_SET = 3
    _HOT_FIRST_SET = 8

    def __init__(self, config: SystemConfig):
        l1, l2, l3 = config.l1d, config.l2, config.l3
        offset_bits = _log2(l1.line_size)
        l1_bits = _log2(l1.num_sets)
        l2_bits = _log2(l2.num_sets)
        l3_bits = _log2(l3.num_sets)
        if not (l1.num_sets > self._HOT_FIRST_SET + l1.associativity):
            raise SimulationError("L1 too small for the region layout")
        if not (l2.num_sets > l1.num_sets and l3.num_sets > l2.num_sets):
            raise SimulationError(
                "region layout requires strictly growing set counts "
                "(L1 %d, L2 %d, L3 %d)" % (l1.num_sets, l2.num_sets, l3.num_sets)
            )

        hot_count = l1.associativity
        warm_count = 2 * l1.associativity
        cool_count = 2 * l2.associativity
        dram_count = 2 * max(l1.associativity, l2.associativity, l3.associativity) + 2

        # Hot: one line in each of `hot_count` distinct L1 sets -> L1 hits.
        hot = [
            (self._HOT_FIRST_SET + i) << offset_bits for i in range(hot_count)
        ]
        # Warm: all in L1 set _WARM_SET (cyclic > associativity -> thrash),
        # spread across L2 sets via the bits just above the L1 index.
        warm = [
            (i << (offset_bits + l1_bits)) | (self._WARM_SET << offset_bits)
            for i in range(warm_count)
        ]
        # Cool: all in L2 set _COOL_SET (which pins the L1 set too), spread
        # across L3 sets via the bits just above the L2 index.
        cool = [
            (i << (offset_bits + l2_bits)) | (self._COOL_SET << offset_bits)
            for i in range(cool_count)
        ]
        # Dram: all in L3 set _DRAM_SET (pinning L2 and L1 sets as well).
        dram = [
            (i << (offset_bits + l3_bits)) | (self._DRAM_SET << offset_bits)
            for i in range(dram_count)
        ]
        self.lines = (
            np.asarray(hot, dtype=np.int64),
            np.asarray(warm, dtype=np.int64),
            np.asarray(cool, dtype=np.int64),
            np.asarray(dram, dtype=np.int64),
        )

    def place(self, mem_region: np.ndarray) -> np.ndarray:
        """Byte addresses for a memory-op region stream.

        One cyclic cursor per region runs over the whole stream, so
        interleaved loads and stores share each region's sweep: the
        ``k``-th access to region ``r`` gets ``lines[r][k % len(lines[r])]``.
        Each region is filled with one ``np.tile`` of its lines (docs/
        methodology.md §2).  An id outside the layout gets ``-1``, the
        trace's no-address sentinel.
        """
        addr = np.full(mem_region.shape[0], -1, dtype=np.int64)
        for region_id, lines in enumerate(self.lines):
            hits = np.flatnonzero(mem_region == region_id)
            if hits.size:
                sweeps = -(-hits.size // lines.size)
                addr[hits] = np.tile(lines, sweeps)[:hits.size]
        return addr

    def compulsory_lines(self) -> int:
        """Total distinct lines (bounds the cold-miss transient)."""
        return int(sum(len(lines) for lines in self.lines))


class TraceGenerator:
    """Generates synthetic traces for one system configuration."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.layout = RegionLayout(config)

    def generate(
        self,
        profile: WorkloadProfile,
        n_ops: int = 200_000,
        seed: int = None,
    ) -> SyntheticTrace:
        """Generate a trace of ``n_ops`` micro-ops for ``profile``.

        The RNG seed defaults to a stable hash of the pair identity, so
        repeated calls (and repeated test runs) see identical traces.
        """
        if n_ops <= 0:
            raise SimulationError("n_ops must be positive")
        if seed is None:
            seed = profile.seed()
        rng = np.random.default_rng(seed)
        mix = profile.mix

        # --- micro-op kinds -------------------------------------------------
        # Stratified: exact per-kind counts (rounded from the mix), then a
        # seeded shuffle.  This keeps tiny fractions exactly proportional
        # instead of at the mercy of Bernoulli noise.
        kind = _stratified_assign(
            n_ops,
            (mix.load_fraction, mix.store_fraction, mix.branch_fraction),
            (KIND_LOAD, KIND_STORE, KIND_BRANCH),
            KIND_ALU,
            rng,
        )

        # --- memory addresses ----------------------------------------------
        mem = profile.memory
        regions = solve_region_fractions(
            mem.target_l1_miss_rate, mem.target_l2_miss_rate, mem.target_l3_miss_rate
        )
        mem_idx = np.flatnonzero((kind == KIND_LOAD) | (kind == KIND_STORE))
        # Regions are dealt in memory-op space: mem_region[i] belongs to
        # the op at mem_idx[i].  Loads and stores are stratified
        # independently: the paper's miss rates are *load* miss rates, so
        # the load sub-stream must carry the exact region proportions
        # rather than a random share of a combined assignment.
        is_store = kind[mem_idx] == KIND_STORE
        # Integer positions: a boolean-mask assignment is about twice as
        # slow.
        loads, stores = np.flatnonzero(~is_store), np.flatnonzero(is_store)
        mem_region = np.zeros(mem_idx.size, dtype=np.uint8)
        hot, warm, cool, dram = regions.as_tuple()
        for stream in (loads, stores):
            if stream.size:
                mem_region[stream] = _stratified_assign(
                    stream.size, (warm, cool, dram), (1, 2, 3), 0, rng
                )
        mem_addr = self.layout.place(mem_region)
        addr = np.full(n_ops, -1, dtype=np.int64)
        addr[mem_idx] = mem_addr
        region = np.full(n_ops, NO_REGION, dtype=np.uint8)
        region[mem_idx] = mem_region

        # --- footprint first-touch events ------------------------------------
        # Each memory op first-touches a page with the probability implied
        # by the profile's RSS over the nominal run.  When that probability
        # is too small to observe in the sample, the event rate is boosted
        # and each event stands for `pages_per_touch` pages instead.
        new_page = np.zeros(n_ops, dtype=bool)
        pages_per_touch = 1.0
        if mem_idx.size:
            nominal_mem_ops = profile.instructions * max(mix.memory_fraction, 1e-9)
            p_touch = min(1.0, mem.rss_bytes / (PAGE_SIZE * nominal_mem_ops))
            p_floor = min(1.0, MIN_TOUCH_EVENTS / mem_idx.size)
            if 0 < p_touch < p_floor:
                # Boost the event rate to p_floor; each event then stands
                # for proportionally *fewer* pages so the expectation is
                # unchanged.
                pages_per_touch = p_touch / p_floor
                p_touch = p_floor
            new_page[mem_idx] = rng.random(mem_idx.size) < p_touch

        # --- branches ---------------------------------------------------------
        knobs = branch_knobs(profile)
        btype = np.full(n_ops, NO_BRANCH, dtype=np.uint8)
        site = np.full(n_ops, -1, dtype=np.int32)
        taken = np.zeros(n_ops, dtype=bool)
        br_idx = np.flatnonzero(kind == KIND_BRANCH)
        cond = br_idx
        cond_site = np.empty(0, dtype=np.int32)
        cond_taken = np.empty(0, dtype=bool)
        # at_least[k]: the branches of subtype k or later.
        at_least = [int(br_idx.size)] + [0] * _N_SUBTYPES
        if br_idx.size:
            subtype_cum = np.cumsum(np.asarray(mix.branch_mix.as_tuple()))
            draws = rng.random(br_idx.size) * subtype_cum[-1]
            # np.searchsorted(subtype_cum, draws, side="right") capped at
            # the last subtype: the count of the first four edges at or
            # below each draw.  Four comparison passes beat one binary
            # search per draw.  The edges never decrease, so a draw is
            # past edge k-1 exactly when its subtype is k or later.
            subtype = np.zeros(br_idx.size, dtype=np.uint8)
            for later, edge in enumerate(subtype_cum[:BR_INDIRECT_RETURN], 1):
                past = draws >= edge
                subtype += past
                at_least[later] = int(np.count_nonzero(past))
            btype[br_idx] = subtype
            # Unconditional branches are always taken.
            taken[br_idx] = True

            cond = br_idx[subtype == BR_CONDITIONAL]
            if cond.size:
                hard_mask = rng.random(cond.size) < knobs.hard_fraction
                cond_site = np.where(
                    hard_mask,
                    N_EASY_SITES + rng.integers(0, N_HARD_SITES, cond.size),
                    rng.integers(0, N_EASY_SITES, cond.size),
                ).astype(np.int32)
                site[cond] = cond_site
                base_direction = (cond_site & 1).astype(bool)
                # One batched draw for both outcome streams.  PCG64 fills
                # C-order, so row 0 is exactly the flip draw and row 1 the
                # hard-outcome draw of the formerly separate calls —
                # seed-for-seed identical, locked by the golden-trace test.
                outcome_draws = rng.random((2, cond.size))
                easy_outcome = base_direction ^ (outcome_draws[0] < knobs.easy_flip)
                hard_outcome = outcome_draws[1] < 0.5
                cond_taken = np.where(hard_mask, hard_outcome, easy_outcome)
                taken[cond] = cond_taken

        trace = SyntheticTrace(
            profile=profile,
            kind=kind,
            addr=addr,
            region=region,
            btype=btype,
            site=site,
            taken=taken,
            new_page=new_page,
            pages_per_touch=pages_per_touch,
            regions=regions,
            knobs=knobs,
            seed=seed,
        )
        # Hand over the indices, streams and counts computed on the way,
        # under the names (and with the types) of their definitions.
        n_branches = int(br_idx.size)
        vars(trace).update(
            kind_counts=(n_ops - int(mem_idx.size) - n_branches,
                         int(loads.size), int(stores.size), n_branches),
            _subtype_counts=tuple(
                count - later for count, later in zip(at_least, at_least[1:])
            ),
            mem_idx=_read_only(mem_idx),
            branch_idx=_read_only(br_idx),
            cond_idx=_read_only(cond),
            mem_addr=_read_only(mem_addr),
            mem_region=_read_only(mem_region),
            cond_site=_read_only(cond_site),
            cond_taken=_read_only(cond_taken),
        )
        return trace
