"""Deterministic synthetic micro-op trace generation.

A :class:`TraceGenerator` turns a :class:`~repro.workloads.profile.
WorkloadProfile` into a :class:`SyntheticTrace`: flat numpy arrays of
micro-op kinds, memory addresses, and branch outcomes that the simulated
core in :mod:`repro.uarch.core` executes.  Generation is two steps:
:func:`draw` takes every random draw and reads no config, and
:meth:`TraceGenerator.place` gives the memory ops the config's addresses.

Memory addresses are laid out per the region scheme described in
:mod:`repro.workloads.calibrate`: each region is a small set of cache lines
engineered (for the configured hierarchy geometry) to hit exactly one cache
level under cyclic access, so the profile's per-level miss-rate targets are
met by construction rather than by hoping a random stream lands right.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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

#: The regions, hot, warm, cool and dram, are ids 0 to 3.
N_REGIONS = 4

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

    A trace holds what generation draws, each stream over the ops it
    describes: ``kind`` over all ``n_ops`` micro-ops; ``mem_region`` and
    ``mem_new_page`` over the memory ops (loads and stores), in stream
    order; ``branch_subtype`` over the branches; ``cond_site`` and
    ``cond_taken`` over the conditional branches.  ``region_addrs[r]`` is
    region ``r``'s run of byte addresses: the addresses of the memory ops
    with ``mem_region == r``, in stream order.  A memory op whose region
    has no run has no address (``-1``).

    Everything else is derived from these on first read, read-only, and
    kept: the op indices (``mem_idx``, ``branch_idx``, ``cond_idx``), the
    memory ops' store flags and interleaved addresses (``mem_is_store``,
    ``mem_addr``), the per-kind, branch-subtype and (region, is-store)
    counts, and the full-length arrays ``addr``, ``region``, ``btype``,
    ``site``, ``taken`` and ``new_page``.  In those, non-memory ops carry
    ``addr == -1`` and ``region == NO_REGION``, non-branch ops ``btype ==
    NO_BRANCH``, ops other than conditionals ``site == -1``, and
    unconditional branches ``taken``.  Building a trace marks the arrays
    it holds read-only, so no edit can leave a derived value stale, and
    refuses streams whose dtypes or lengths disagree with ``kind``,
    ``branch_subtype`` and ``mem_region``.  A trace built from another
    derives its own values.  :func:`draw` hands over the counts and store
    flags it computes on the way, and :meth:`TraceGenerator.place` carries
    them over to the placed trace, which reads the same streams.
    """

    profile: WorkloadProfile
    kind: np.ndarray            # uint8 (n_ops,), KIND_*
    mem_region: np.ndarray      # uint8 (memory ops,), region index
    mem_new_page: np.ndarray    # bool (memory ops,), first-touch page event
    branch_subtype: np.ndarray  # uint8 (branches,), BR_* subtype
    cond_site: np.ndarray       # int32 (conditionals,), branch site id
    cond_taken: np.ndarray      # bool (conditionals,), branch outcome
    region_addrs: Tuple[np.ndarray, ...]  # int64 per region, see above
    pages_per_touch: float  # pages represented by each first-touch event
    regions: RegionFractions
    knobs: BranchKnobs
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "region_addrs", tuple(self.region_addrs))
        held = [(name, getattr(self, name)) for name in STREAM_DTYPES]
        held += [("region_addrs[%d]" % region, run)
                 for region, run in enumerate(self.region_addrs)]
        for name, array in held:
            dtype = STREAM_DTYPES.get(name, _ADDRESS_DTYPE)
            if array.dtype != dtype or array.ndim != 1:
                raise SimulationError(
                    "trace %s must be a 1-D %s array, not %d-D %s"
                    % (name, dtype, array.ndim, array.dtype)
                )
            _read_only(array)
        _, n_loads, n_stores, n_branches = self.kind_counts
        n_cond = self._subtype_counts[BR_CONDITIONAL]
        for name, length in (
            ("mem_region", n_loads + n_stores),
            ("mem_new_page", n_loads + n_stores),
            ("branch_subtype", n_branches),
            ("cond_site", n_cond),
            ("cond_taken", n_cond),
        ):
            _check_length(name, getattr(self, name), length)
        codes = self.region_store_counts
        for region, run in enumerate(self.region_addrs):
            _check_length(
                "region_addrs[%d]" % region, run,
                codes[2 * region] + codes[2 * region + 1]
                if region < N_REGIONS
                else int(np.count_nonzero(self.mem_region == region)),
            )

    @classmethod
    def _seeded(cls, derived: dict, **values) -> "SyntheticTrace":
        """A trace built with ``derived`` values already in place, which
        its construction checks then read instead of deriving."""
        trace = cls.__new__(cls)
        vars(trace).update(derived)
        trace.__init__(**values)
        return trace

    def _with_region_addrs(self, region_addrs) -> "SyntheticTrace":
        """This trace's draws with other per-region address runs: the
        values derived from the streams alone carry over, the addresses
        are derived anew."""
        values = {field.name: getattr(self, field.name)
                  for field in fields(self)}
        values["region_addrs"] = region_addrs
        carried = {name: value for name, value in vars(self).items()
                   if name not in values and name not in ("mem_addr", "addr")}
        return type(self)._seeded(carried, **values)

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
        return _read_only(
            self.branch_idx[self.branch_subtype == BR_CONDITIONAL]
        )

    @cached_property
    def mem_is_store(self) -> np.ndarray:
        """Whether each memory op is a store, in stream order."""
        return _read_only(self.kind[self.mem_idx] == KIND_STORE)

    @cached_property
    def mem_addr(self) -> np.ndarray:
        """Byte addresses of the memory ops, in stream order."""
        return _read_only(_interleave(self.mem_region, self.region_addrs))

    @cached_property
    def addr(self) -> np.ndarray:
        """int64 byte address of every op, -1 off the memory ops."""
        return _spread(self.n_ops, -1, self.mem_idx, self.mem_addr)

    @cached_property
    def region(self) -> np.ndarray:
        """uint8 region of every op, NO_REGION off the memory ops."""
        return _spread(self.n_ops, NO_REGION, self.mem_idx, self.mem_region)

    @cached_property
    def new_page(self) -> np.ndarray:
        """bool first-touch page event of every op (memory ops only)."""
        return _spread(self.n_ops, False, self.mem_idx, self.mem_new_page)

    @cached_property
    def btype(self) -> np.ndarray:
        """uint8 branch subtype of every op, NO_BRANCH off the branches."""
        return _spread(
            self.n_ops, NO_BRANCH, self.branch_idx, self.branch_subtype
        )

    @cached_property
    def site(self) -> np.ndarray:
        """int32 site id of every op, -1 off the conditional branches."""
        return _spread(self.n_ops, -1, self.cond_idx, self.cond_site)

    @cached_property
    def taken(self) -> np.ndarray:
        """bool outcome of every op: unconditional branches are always
        taken, conditionals as drawn, other ops never."""
        taken = np.zeros(self.n_ops, dtype=bool)
        taken[self.branch_idx] = True
        taken[self.cond_idx] = self.cond_taken
        return _read_only(taken)

    @cached_property
    def kind_counts(self) -> Tuple[int, int, int, int]:
        """Op counts indexed by kind (ALU, load, store, branch)."""
        return tuple(int(np.count_nonzero(self.kind == kind)) for kind in _KINDS)

    @cached_property
    def _subtype_counts(self) -> Tuple[int, int, int, int, int]:
        counts = np.bincount(self.branch_subtype, minlength=_N_SUBTYPES)
        return tuple(int(count) for count in counts[:_N_SUBTYPES])

    @cached_property
    def region_store_counts(self) -> Tuple[int, ...]:
        """Memory-op counts per (region, is-store) code ``2 * region +
        is_store``, over the ``N_REGIONS`` regions."""
        codes = self.mem_region.astype(np.intp) * 2 + self.mem_is_store
        counts = np.bincount(codes, minlength=2 * N_REGIONS)
        return tuple(int(count) for count in counts[:2 * N_REGIONS])

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


#: Each stream a trace holds (over all ops, the memory ops, the branches
#: or the conditionals) and its dtype; every address run is int64.
STREAM_DTYPES = {
    "kind": np.dtype(np.uint8),
    "mem_region": np.dtype(np.uint8),
    "mem_new_page": np.dtype(np.bool_),
    "branch_subtype": np.dtype(np.uint8),
    "cond_site": np.dtype(np.int32),
    "cond_taken": np.dtype(np.bool_),
}
_ADDRESS_DTYPE = np.dtype(np.int64)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_length(name: str, array: np.ndarray, length: int) -> None:
    if array.shape[0] != length:
        raise SimulationError(
            "trace %s holds %d values, not %d" % (name, array.shape[0], length)
        )


def _spread(n_ops: int, fill, positions: np.ndarray, values: np.ndarray):
    """A read-only full-length array: ``values`` at ``positions``, ``fill``
    elsewhere, in ``values``'s dtype."""
    out = np.full(n_ops, fill, dtype=values.dtype)
    out[positions] = values
    return _read_only(out)


def _interleave(mem_region: np.ndarray, runs) -> np.ndarray:
    """The memory-op addresses of per-region runs: run ``r`` in order at
    the ops with ``mem_region == r``, ``-1`` at an op whose region has no
    run."""
    addr = np.full(mem_region.shape[0], -1, dtype=np.int64)
    for region, run in enumerate(runs):
        if run.size:
            addr[mem_region == region] = run
    return addr


def _log2(value: int) -> int:
    return int(value).bit_length() - 1


def _stratified_assign(n, fractions, labels, default_label, rng):
    """Assign exactly ``round(f * n)`` slots to each label, shuffled.

    Everything left over gets ``default_label``.  Rounding is largest-
    remainder so totals always add up to ``n``.  Returns the ``uint8``
    labels and the list of each label's count.

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
    return out.astype(np.uint8), counts


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

    def runs(self, counts) -> Tuple[np.ndarray, ...]:
        """Each region's addresses for ``counts[r]`` accesses: its lines
        swept cyclically, ``lines[r][arange(counts[r]) % len(lines[r])]``,
        filled with one ``np.tile`` (docs/methodology.md §2)."""
        return tuple(
            _read_only(np.tile(lines, -(-int(count) // lines.size))[:count])
            for lines, count in zip(self.lines, counts)
        )

    def place(self, mem_region: np.ndarray) -> np.ndarray:
        """Byte addresses for a memory-op region stream.

        One cyclic cursor per region runs over the whole stream, so
        interleaved loads and stores share each region's sweep: the
        ``k``-th access to region ``r`` gets ``lines[r][k % len(lines[r])]``.
        An id outside the layout gets ``-1``, the trace's no-address
        sentinel.  A trace holds the :meth:`runs` and derives the same
        addresses from them (``SyntheticTrace.mem_addr``).
        """
        counts = [np.count_nonzero(mem_region == region)
                  for region in range(len(self.lines))]
        return _interleave(mem_region, self.runs(counts))


def draw(
    profile: WorkloadProfile,
    n_ops: int = 200_000,
    seed: int = None,
) -> SyntheticTrace:
    """Every random draw of an ``n_ops``-micro-op trace for ``profile``.

    Returns a trace with no addresses yet (``region_addrs`` empty), which
    :meth:`TraceGenerator.place` places on a layout.  Nothing here reads
    a config, so one draw serves every layout.  The RNG seed defaults to
    a stable hash of the pair identity, so repeated calls (and repeated
    test runs) see identical draws.
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
    kind, (n_loads, n_stores, n_branches) = _stratified_assign(
        n_ops,
        (mix.load_fraction, mix.store_fraction, mix.branch_fraction),
        (KIND_LOAD, KIND_STORE, KIND_BRANCH),
        KIND_ALU,
        rng,
    )
    n_mem = n_loads + n_stores

    # --- memory regions -------------------------------------------------
    mem = profile.memory
    regions = solve_region_fractions(
        mem.target_l1_miss_rate, mem.target_l2_miss_rate, mem.target_l3_miss_rate
    )
    # Regions are dealt in memory-op space: mem_region[i] belongs to the
    # i-th memory op.  Loads and stores are stratified independently: the
    # paper's miss rates are *load* miss rates, so the load sub-stream
    # must carry the exact region proportions rather than a random share
    # of a combined assignment.  (np.compress is several times faster
    # than a boolean-mask gather here.)
    mem_is_store = np.compress(
        (kind == KIND_LOAD) | (kind == KIND_STORE), kind
    ) == KIND_STORE
    mem_region = np.zeros(n_mem, dtype=np.uint8)
    # codes[2 * region + is_store]: each assignment knows its counts.
    codes = [0] * (2 * N_REGIONS)
    _, warm, cool, dram = regions.as_tuple()
    # Integer positions: a boolean-mask assignment is about twice as
    # slow.
    for is_store, stream in enumerate(
        (np.flatnonzero(~mem_is_store), np.flatnonzero(mem_is_store))
    ):
        if stream.size:
            labels, counts = _stratified_assign(
                stream.size, (warm, cool, dram), (1, 2, 3), 0, rng
            )
            mem_region[stream] = labels
            codes[is_store::2] = [stream.size - sum(counts)] + counts

    # --- footprint first-touch events ------------------------------------
    # Each memory op first-touches a page with the probability implied by
    # the profile's RSS over the nominal run.  When that probability is
    # too small to observe in the sample, the event rate is boosted and
    # each event stands for `pages_per_touch` pages instead.
    mem_new_page = np.zeros(n_mem, dtype=bool)
    pages_per_touch = 1.0
    if n_mem:
        nominal_mem_ops = profile.instructions * max(mix.memory_fraction, 1e-9)
        p_touch = min(1.0, mem.rss_bytes / (PAGE_SIZE * nominal_mem_ops))
        p_floor = min(1.0, MIN_TOUCH_EVENTS / n_mem)
        if 0 < p_touch < p_floor:
            # Boost the event rate to p_floor; each event then stands for
            # proportionally *fewer* pages so the expectation is
            # unchanged.
            pages_per_touch = p_touch / p_floor
            p_touch = p_floor
        mem_new_page = rng.random(n_mem) < p_touch

    # --- branches ---------------------------------------------------------
    knobs = branch_knobs(profile)
    subtype = np.zeros(n_branches, dtype=np.uint8)
    cond_site = np.empty(0, dtype=np.int32)
    cond_taken = np.empty(0, dtype=bool)
    # at_least[k]: the branches of subtype k or later.
    at_least = [n_branches] + [0] * _N_SUBTYPES
    if n_branches:
        subtype_cum = np.cumsum(np.asarray(mix.branch_mix.as_tuple()))
        draws = rng.random(n_branches) * subtype_cum[-1]
        # np.searchsorted(subtype_cum, draws, side="right") capped at the
        # last subtype: the count of the first four edges at or below
        # each draw.  Four comparison passes beat one binary search per
        # draw.  The edges never decrease, so a draw is past edge k-1
        # exactly when its subtype is k or later.
        for later, edge in enumerate(subtype_cum[:BR_INDIRECT_RETURN], 1):
            past = draws >= edge
            subtype += past
            at_least[later] = int(np.count_nonzero(past))

        # Unconditional branches are always taken; only conditionals draw.
        n_cond = n_branches - at_least[1]
        if n_cond:
            hard_mask = rng.random(n_cond) < knobs.hard_fraction
            cond_site = np.where(
                hard_mask,
                N_EASY_SITES + rng.integers(0, N_HARD_SITES, n_cond),
                rng.integers(0, N_EASY_SITES, n_cond),
            ).astype(np.int32)
            base_direction = (cond_site & 1).astype(bool)
            # One batched draw for both outcome streams.  PCG64 fills
            # C-order, so row 0 is exactly the flip draw and row 1 the
            # hard-outcome draw of the formerly separate calls —
            # seed-for-seed identical, locked by the golden-trace test.
            outcome_draws = rng.random((2, n_cond))
            easy_outcome = base_direction ^ (outcome_draws[0] < knobs.easy_flip)
            hard_outcome = outcome_draws[1] < 0.5
            cond_taken = np.where(hard_mask, hard_outcome, easy_outcome)

    # Hand over the counts and store flags computed on the way, under the
    # names (and with the types) of their definitions.
    return SyntheticTrace._seeded(
        dict(
            kind_counts=(n_ops - n_mem - n_branches, n_loads, n_stores,
                         n_branches),
            _subtype_counts=tuple(
                count - later for count, later in zip(at_least, at_least[1:])
            ),
            mem_is_store=_read_only(mem_is_store),
            region_store_counts=tuple(codes),
        ),
        profile=profile,
        kind=kind,
        mem_region=mem_region,
        mem_new_page=mem_new_page,
        branch_subtype=subtype,
        cond_site=cond_site,
        cond_taken=cond_taken,
        region_addrs=(),
        pages_per_touch=pages_per_touch,
        regions=regions,
        knobs=knobs,
        seed=seed,
    )


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
        """Generate a trace of ``n_ops`` micro-ops for ``profile``: the
        config-free :func:`draw`, placed on this config's layout.

        The RNG seed defaults to a stable hash of the pair identity, so
        repeated calls (and repeated test runs) see identical traces.
        """
        return self.place(draw(profile, n_ops, seed))

    def place(self, trace: SyntheticTrace) -> SyntheticTrace:
        """``trace``'s draws with this layout's addresses: each region's
        lines tiled to that region's access count (:meth:`RegionLayout.
        runs`).  Only the address runs depend on the config."""
        codes = trace.region_store_counts
        return trace._with_region_addrs(self.layout.runs(
            [codes[2 * region] + codes[2 * region + 1]
             for region in range(N_REGIONS)]
        ))
