# repro: noqa-file[LAY001] — deliberate upward edge: the observability
# seam (tracer spans) is threaded through the leaf layers
# by design; repro.obs is import-light and never imports back down.
"""Vectorized trace-execution engine (numpy batch passes, no op loop).

The scalar :class:`~repro.uarch.core.SimulatedCore` path walks the trace
one micro-op at a time.  This module computes the *identical* measurement
in a handful of array passes by exploiting two structural facts about
generated traces:

1. **Cache behavior is region-determined.**  The generator sweeps each
   memory region cyclically over a fixed line set engineered to hit
   exactly one level (see :mod:`repro.workloads.calibrate`).  Under a
   deterministic, write-allocate replacement policy (LRU / FIFO /
   tree-PLRU) and the core's warm-up priming, every post-priming access
   of a *fitting* region hits and every access of a *thrashing* region
   misses (under tree-PLRU, only where a replay of its one set shows no
   hit) — so per-level counters reduce to the trace's per-(region,
   is_store) counts, less one ``bincount`` over the warmup prefix.
   :func:`unsupported_reason` verifies the preconditions: the policy
   family and write-allocate per config, the cyclic sweep order per trace
   (one O(n) pass over each region's address run, no sort), and the
   set-exclusive geometry and fit/thrash occupancy once per config and
   region line sets.  Anything violating them falls back to the scalar
   engine.

2. **Predictor table indices are precomputable.**  Every predictor
   family trains unconditionally on the outcome stream, so histories
   (global or per-site) — and therefore table indices — depend only on
   ``taken``, never on predictions.  Given the index stream, each 2-bit
   saturating counter is a 4-state automaton whose per-access transition
   is known up front; the exact state *before* each access is recovered
   with a prefix scan of transition-function compositions over the
   index-sorted stream (O(n log n), bit-exact), which skips the steps
   that move nothing and stops as soon as every prefix has converged.

The parity guarantee — identical integer counters, identical derived
floats — is enforced by the test suite over every predictor family and
replacement policy, and by the benchmark's scalar/vector check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..config import SystemConfig
from ..errors import SimulationError
from ..workloads.generator import N_REGIONS, SyntheticTrace
from .branch import PredictorStats, make_predictor
from .cache import EMPTY, CacheStats
from .hierarchy import HierarchyStats
from .memory import FootprintEstimate, FootprintTracker
from .replacement import make_policy

#: Replacement policies whose steady-state behavior under a primed cyclic
#: sweep is deterministic (all-hit for fitting regions, all-miss for
#: thrashing ones).  "random" picks victims stochastically, so residency
#: is history-dependent and only the scalar engine models it.
SUPPORTED_REPLACEMENT = frozenset({"lru", "fifo", "plru"})

#: Saturating-counter ceiling (2-bit counters count 0..3).
_MAX_STATE = 3

#: Initial counter state everywhere: weakly taken.
_INIT_STATE = 2


@dataclass(frozen=True)
class EngineMeasurement:
    """What one engine measured from one trace (pre-composition).

    Both engines produce one of these; :meth:`SimulatedCore.run` composes
    it with the (engine-independent) indirect-jump draw and pipeline
    model, so derived floats are computed by one shared code path.
    """

    hierarchy: HierarchyStats
    predictor: PredictorStats
    window_conditionals: int
    footprint: FootprintEstimate


# ---------------------------------------------------------------------------
# Support checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _config_reason(config: SystemConfig) -> Optional[str]:
    """Config-level vector-support check (None when supported)."""
    for level in config.cache_levels():
        if level.replacement not in SUPPORTED_REPLACEMENT:
            return (
                "%s replacement %r is not deterministic under cyclic sweeps"
                % (level.name, level.replacement)
            )
        if not level.write_allocate:
            return (
                "%s is write-around; store misses leave residency "
                "history-dependent" % level.name
            )
        if level.replacement == "plru" and (
            level.associativity & (level.associativity - 1)
        ):
            # The scalar engine rejects this too (tree-PLRU needs a
            # perfect binary tree); fall back so it raises the real error.
            return "%s: tree-PLRU with non-power-of-two ways" % level.name
    return None


def _sweep_lines(accesses: np.ndarray) -> Optional[np.ndarray]:
    """The sorted line set ``accesses`` sweeps cyclically, else None.

    ``accesses`` is a cyclic sweep exactly when it equals
    ``unique(accesses)[arange(n) % L]``: it strictly increases up to its
    first non-increase at index ``p`` (``p = n`` if there is none), and
    from there on repeats itself with period ``p``.  Then its first ``p``
    entries are the line set.  One O(n) pass, no sort.
    """
    n = int(accesses.shape[0])
    drops = np.flatnonzero(accesses[1:] <= accesses[:-1])
    period = int(drops[0]) + 1 if drops.size else n
    if not np.array_equal(accesses[period:], accesses[:n - period]):
        return None
    return accesses[:period]


def _plru_keeps_lines(lines, ways: int) -> bool:
    """Whether tree-PLRU hits on a primed cyclic sweep of ``lines``, all
    in one set of a ``ways``-way cache.  With four or more ways it can
    (five lines in four ways do), unlike LRU and FIFO.  The set is
    replayed as :meth:`~repro.uarch.cache.Cache.access` runs it, priming
    included, until its tags and tree bits repeat at a sweep boundary:
    the replay is deterministic and its state space finite, so no later
    sweep can differ from one already seen.
    """
    policy = make_policy("plru")
    meta = policy.make_set(ways)
    slots = [EMPTY] * ways

    def access(line) -> bool:
        if line in slots:
            policy.on_access(meta, slots.index(line))
            return True
        way = slots.index(EMPTY) if EMPTY in slots else policy.victim(meta)
        slots[way] = line
        policy.on_access(meta, way)
        return False

    for line in lines:
        access(line)
    seen = set()
    while True:
        state = (tuple(slots), tuple(meta[0]))  # tags and tree bits
        if state in seen:
            return False
        seen.add(state)
        for line in lines:
            if access(line):
                return True


def _region_levels(config: SystemConfig, region_lines):
    """Prove each region's hit level from its line set (see
    :func:`analyze_trace`); the same ``(reason, hit_levels)`` contract,
    with ``hit_levels`` read-only."""
    hit_levels = np.full(N_REGIONS, len(config.cache_levels()) + 1,
                         dtype=np.int64)
    for level_index, level in enumerate(config.cache_levels()):
        offset_bits = level.line_size.bit_length() - 1
        set_mask = level.num_sets - 1
        ways = level.associativity
        # return_counts keeps np.unique from importing numpy.ma
        # (docs/methodology.md §8).
        per_region_sets = [
            np.unique((lines >> offset_bits) & set_mask, return_counts=True)
            for lines in region_lines
        ]
        # Set-exclusivity: priming pushes every line through every level,
        # so two regions sharing a set could evict each other's lines.
        combined = np.sort(
            np.concatenate([distinct for distinct, _ in per_region_sets])
        )
        if np.any(combined[1:] == combined[:-1]):
            return "%s: two regions share a cache set" % level.name, None
        for region in range(N_REGIONS):
            if hit_levels[region] <= level_index:
                continue  # already resolved to an inner level
            distinct, occupancy = per_region_sets[region]
            if not distinct.size:
                continue
            if int(occupancy.max()) <= ways:
                hit_levels[region] = level_index + 1
            elif distinct.size != 1:
                return (
                    "%s: region %d neither fits nor thrashes a single set"
                    % (level.name, region)
                ), None
            elif level.replacement == "plru" and _plru_keeps_lines(
                (region_lines[region] >> offset_bits).tolist(), ways
            ):
                return ("%s: tree-PLRU keeps lines of region %d's set"
                        % (level.name, region)), None
            # else: single over-subscribed set -> all-miss, falls through.
    hit_levels.flags.writeable = False
    return None, hit_levels


@lru_cache(maxsize=256)
def _layout_levels(config: SystemConfig, layout: Tuple[Tuple[int, ...], ...]):
    """:func:`_region_levels` memoized per config and region line sets."""
    return _region_levels(
        config, [np.asarray(lines, dtype=np.int64) for lines in layout]
    )


def analyze_trace(config: SystemConfig, trace: SyntheticTrace):
    """Resolve each region's analytic hit level, or explain why we can't.

    Returns ``(reason, hit_levels)`` where exactly one side is None.
    ``hit_levels`` (read-only) maps region id -> the hierarchy level
    serving every one of its post-priming accesses (1=L1, 2=L2, 3=L3,
    4=memory).

    A region *fits* a level when every cache set it touches holds at most
    ``ways`` of its lines — after priming it then hits there forever.  It
    *thrashes* a level when its whole (primed, cyclically swept) line set
    shares one set with more lines than ways — then every access misses
    and falls through (at a tree-PLRU level, only if a replay of that set
    shows no hit: :func:`_plru_keeps_lines`).  Anything in between (or
    any cross-region set sharing, which priming could turn into
    evictions) is unsupported.

    The sweep order is checked per trace, on each region's address run
    (``trace.region_addrs``), since a trace built or cut outside
    :meth:`TraceGenerator.generate` (a phase trace, a slice) need not
    sweep its regions cyclically.  The fit/thrash proof depends only
    on the config and the region line sets, so it is memoized on them.
    Generator layouts hold at most ``2 * max(ways) + 2`` lines per
    region; larger line sets are proved without the memo, which keeps
    its entries small.
    """
    runs = trace.region_addrs
    regions = trace.mem_region
    if regions.size:
        top_region = int(regions.max())
        # A memory op whose region has no run has no address.
        if top_region >= len(runs) or any(
            int(run.min()) < 0 for run in runs if run.size
        ):
            return "memory op with a sentinel address", None
        if top_region >= N_REGIONS:
            return "memory op with an unknown region id", None

    region_lines = []
    for region, run in enumerate(runs[:N_REGIONS]):
        lines = _sweep_lines(run)
        if lines is None:
            return ("region %d is not a cyclic sweep of its line set"
                    % region), None
        region_lines.append(lines)
    # A region with no run has no accesses (checked above).
    region_lines += [np.empty(0, dtype=np.int64)] * (
        N_REGIONS - len(region_lines)
    )

    memo_bound = 2 * max(
        level.associativity for level in config.cache_levels()
    ) + 2
    if max(lines.size for lines in region_lines) > memo_bound:
        return _region_levels(config, region_lines)
    return _layout_levels(
        config, tuple(tuple(lines.tolist()) for lines in region_lines)
    )


def unsupported_reason(
    config: SystemConfig, trace: Optional[SyntheticTrace] = None
) -> Optional[str]:
    """Why the vector engine cannot replay ``trace`` on ``config``.

    Returns ``None`` when the vector engine is guaranteed to reproduce
    the scalar engine's counters exactly.  Without a trace, only the
    config-level preconditions are checked.
    """
    reason = _config_reason(config)
    if reason is not None or trace is None:
        return reason
    reason, _ = analyze_trace(config, trace)
    return reason


# ---------------------------------------------------------------------------
# Grouped 2-bit counter evaluation
# ---------------------------------------------------------------------------

class _KeyGroups:
    """Sorted grouping of a table-index stream, reusable across scans.

    Built once per distinct key array; multiple step streams (e.g. a
    tournament's bimodal table and chooser table, both indexed by the
    same masked site) then share the sort and the segment boundaries.
    """

    def __init__(self, keys: np.ndarray):
        n = int(keys.shape[0])
        self.n = n
        # Stable sort groups equal keys while preserving time order
        # inside each group — the order the automaton actually steps in.
        # numpy's stable sort is a radix sort only for integers of at
        # most 16 bits (wider ones get timsort), so the keys — table
        # indices, never negative — are cast to the narrowest unsigned
        # dtype their range allows: every default table sorts as uint16.
        narrow = np.min_scalar_type(int(keys.max())) if n else np.uint8
        self.order = np.argsort(keys.astype(narrow), kind="stable")
        sorted_keys = keys[self.order]
        new_group = np.empty(n, dtype=bool)
        if n:
            new_group[0] = True
            new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self.new_group = new_group

    def counter_states(
        self, steps: np.ndarray, init: int = _INIT_STATE
    ) -> np.ndarray:
        """Exact per-access saturating-counter states for one table.

        Args:
            steps: int array (n,) — the update each access applies to
                its entry: +1 (strengthen), -1 (weaken), or 0 (leave
                alone), all saturating at [0, _MAX_STATE].
            init: state every entry starts in.

        Returns:
            int8 array (n,) — each entry's state *before* its access, in
            original stream order; equivalent to a sequential replay.

        A saturating step is the map ``s -> min(hi, max(lo, s + a))``,
        and that family is closed under composition — composing two such
        maps sums the shifts and narrows the clamp window.  Each clamp
        window is kept as the map's images of 0 and _MAX_STATE, so a map
        is constant exactly when ``low == high``.  The whole group-prefix
        problem therefore reduces to a Hillis-Steele scan over three flat
        ``int8`` arrays (shift, low clamp, high clamp): O(n log n) vector
        arithmetic, bit-exact.  Shifts are saturated to ±_MAX_STATE,
        which keeps them in ``int8`` and changes no state: a later
        window's shift beyond ±_MAX_STATE sends every state in
        [0, _MAX_STATE] to the same clamp bound.

        Three facts cut the work:

        * A zero step leaves its entry unchanged, so the scan covers only
          the steps that move a counter, plus each group's first access.
          Every access then sees the state after the last scanned step
          before it: ``np.repeat`` over the gaps between scanned steps.
          When every step moves (every always-training table), the scan
          covers the whole stream and each access sees its predecessor's
          state, with no compaction and no ``np.repeat``.
        * Each group's first map applies its step to ``init``, which makes
          it constant.  A prefix that reaches back to its group's start is
          therefore constant too, and no composition crosses a group
          boundary with effect: the scan needs no segment bookkeeping.
        * A constant map stays constant, with the same value, under any
          further composition; only its shift, which nothing reads any
          more, changes.  So every prefix is extended unconditionally, and
          the scan stops once every prefix is constant.
        """
        # int8 bounds: np.clip looks Python-int bounds up in np.iinfo on
        # every call.
        zero, top = np.int8(0), np.int8(_MAX_STATE)
        sorted_steps = steps[self.order]
        dense = bool(sorted_steps.all())
        if dense:
            shift = sorted_steps.astype(np.int8, copy=False)
            first = self.new_group
        else:
            scanned = np.flatnonzero((sorted_steps != 0) | self.new_group)
            shift = sorted_steps[scanned].astype(np.int8, copy=False)
            first = self.new_group[scanned]
        low = np.clip(shift, zero, top)
        high = np.clip(shift + top, zero, top)
        low[first] = high[first] = np.clip(init + shift[first], zero, top)

        step = 1
        # Prefixes ending before `step` already reach position 0.
        while step < shift.size and (low[step:] != high[step:]).any():
            # Compose prefix[i] (later window, g) after prefix[i-step]
            # (earlier window, f): clamp_g(clamp_f(s + a_f) + a_g).
            shift_g, low_g, high_g = shift[step:], low[step:], high[step:]
            shift_c = np.clip(shift[:-step] + shift_g, -top, top)
            low_c = np.minimum(
                high_g, np.maximum(low_g, low[:-step] + shift_g)
            )
            high_c = np.minimum(
                high_g, np.maximum(low_g, high[:-step] + shift_g)
            )
            shift[step:] = shift_c
            low[step:] = low_c
            high[step:] = high_c
            step *= 2

        # Every prefix is now constant: `low` is the state after each
        # scanned step, and holds until the next one.
        state_before = np.empty(self.n, dtype=np.int8)
        if dense:
            state_before[1:] = low[:-1]
        else:
            state_before[1:] = np.repeat(
                low, np.diff(scanned, append=self.n - 1)
            )
        state_before[self.new_group] = init

        out = np.empty(self.n, dtype=np.int8)
        out[self.order] = state_before
        return out


def _grouped_counter_states(
    keys: np.ndarray, steps: np.ndarray, init: int = _INIT_STATE
) -> np.ndarray:
    """One-shot :meth:`_KeyGroups.counter_states` for a fresh key array."""
    return _KeyGroups(keys).counter_states(steps, init)


def _taken_steps(taken: np.ndarray) -> np.ndarray:
    """Saturating-counter updates of an always-training table: +1 where
    taken, -1 where not, as ``int8``."""
    return taken.view(np.int8) * 2 - 1


def _counter_predictions(keys: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Predicted directions of a table of 2-bit counters keyed by ``keys``
    and trained up/down by ``taken``."""
    return _grouped_counter_states(keys, _taken_steps(taken)) >= 2


# ---------------------------------------------------------------------------
# Per-family index streams
# ---------------------------------------------------------------------------

def _global_history(taken: np.ndarray, history_mask: int) -> np.ndarray:
    """The global-history register value before each access."""
    n = int(taken.shape[0])
    history = np.zeros(n, dtype=np.int64)
    bits = taken.astype(np.int64)
    history_bits = int(history_mask).bit_length()
    for age in range(1, history_bits + 1):
        if age >= n + 1:
            break
        # Bit (age-1) of the register is the outcome `age` accesses ago.
        history[age:] |= bits[:-age] << (age - 1)
    return history & history_mask


def _gshare_indices(
    sites: np.ndarray, taken: np.ndarray, mask: int, history_mask: int
) -> np.ndarray:
    """Exact gshare table indices (site spread XOR global history)."""
    spread = (sites * np.int64(0x9E3779B1)) & mask
    return (spread ^ _global_history(taken, history_mask)) & mask


def _two_level_indices(
    sites: np.ndarray, taken: np.ndarray, site_mask: int, history_mask: int
) -> np.ndarray:
    """Exact two-level pattern-table indices (per-site local history)."""
    groups = _KeyGroups(sites & site_mask)
    bits = taken[groups.order].astype(np.int64)
    segment = np.cumsum(groups.new_group)

    history = np.zeros(groups.n, dtype=np.int64)
    history_bits = int(history_mask).bit_length()
    for age in range(1, history_bits + 1):
        if age >= groups.n + 1:
            break
        same = segment[age:] == segment[:-age]
        shifted = bits[:-age] << (age - 1)
        history[age:][same] |= shifted[same]
    history &= history_mask

    out = np.empty(groups.n, dtype=np.int64)
    out[groups.order] = history
    return out


def _conditional_predictions(
    predictor_name: str, sites: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Predicted direction for every conditional, per predictor family.

    Table geometries come from a throwaway instance of the scalar
    predictor so both engines always share one source of defaults.
    """
    proto = make_predictor(predictor_name)
    if predictor_name == "static":
        return np.ones(sites.shape[0], dtype=bool)
    if predictor_name == "bimodal":
        return _counter_predictions(sites & proto._mask, taken)
    if predictor_name == "gshare":
        indices = _gshare_indices(
            sites, taken, proto._mask, proto._history_mask
        )
        return _counter_predictions(indices, taken)
    if predictor_name == "two_level":
        indices = _two_level_indices(
            sites, taken, proto._site_mask, proto._history_mask
        )
        return _counter_predictions(indices, taken)
    if predictor_name == "tournament":
        # The bimodal table and the chooser share one index stream
        # (site & mask with equal masks) — group once, scan twice.  Both
        # counter tables train on the same steps.
        site_groups = _KeyGroups(sites & proto._bimodal._mask)
        taken_steps = _taken_steps(taken)
        bimodal = site_groups.counter_states(taken_steps) >= 2
        gshare = _grouped_counter_states(
            _gshare_indices(
                sites, taken, proto._gshare._mask, proto._gshare._history_mask
            ),
            taken_steps,
        ) >= 2
        bimodal_correct = bimodal == taken
        gshare_correct = gshare == taken
        # Chooser: 2-bit counter per site, trained only on disagreement:
        # +1 when only gshare was right, -1 when only bimodal was.
        steps = gshare_correct.view(np.int8) - bimodal_correct.view(np.int8)
        chooser = site_groups.counter_states(steps)
        return np.where(chooser >= 2, gshare, bimodal)
    raise SimulationError(
        "vector engine has no model for predictor %r" % predictor_name
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_vector(
    config: SystemConfig,
    trace: SyntheticTrace,
    warmup_fraction: float,
    hit_levels: Optional[np.ndarray] = None,
) -> EngineMeasurement:
    """Measure ``trace`` with batched array passes.

    ``hit_levels`` is the per-region analysis from :func:`analyze_trace`
    (recomputed when omitted).  Given a supported config/trace pair the
    result is bit-identical to the scalar engine's measurement.
    """
    if hit_levels is None:
        with obs.profile("engine.vector.analyze"):
            reason, hit_levels = analyze_trace(config, trace)
        if reason is None:
            reason = _config_reason(config)
        if reason is not None:
            raise SimulationError("vector engine unsupported: " + reason)

    # ---- memory stream: (region, is_store) counts per served level ---
    mem_started = time.perf_counter() if obs.enabled() else 0.0
    regions = trace.mem_region
    n_mem = int(regions.shape[0])
    mem_warmup = int(n_mem * warmup_fraction)
    # The window's counts are the whole stream's less its warmup prefix's,
    # so only the prefix is bincounted.
    warmup_codes = np.bincount(
        regions[:mem_warmup] * 2 + trace.mem_is_store[:mem_warmup],
        minlength=2 * N_REGIONS,
    ).tolist()
    codes = [total - warmup for total, warmup
             in zip(trace.region_store_counts, warmup_codes)]
    # Per served level (L1, L2, L3, memory): the window's loads and
    # stores of every region that level serves.
    loads = [0] * N_REGIONS
    stores = [0] * N_REGIONS
    for region, level in enumerate(hit_levels.tolist()):
        loads[level - 1] += codes[2 * region]
        stores[level - 1] += codes[2 * region + 1]
    hierarchy = HierarchyStats(
        l1=CacheStats(
            load_hits=loads[0],
            load_misses=loads[1] + loads[2] + loads[3],
            store_hits=stores[0],
            store_misses=stores[1] + stores[2] + stores[3],
        ),
        l2=CacheStats(
            load_hits=loads[1],
            load_misses=loads[2] + loads[3],
            store_hits=stores[1],
            store_misses=stores[2] + stores[3],
        ),
        l3=CacheStats(
            load_hits=loads[2],
            load_misses=loads[3],
            store_hits=stores[2],
            store_misses=stores[3],
        ),
        load_served=(loads[0], loads[1], loads[2], loads[3]),
    )

    # ---- footprint: pure reductions over the full memory stream ---------
    tracker = FootprintTracker(trace.profile, trace.pages_per_touch)
    tracker.observe_counts(n_mem, int(np.count_nonzero(trace.mem_new_page)))
    if obs.enabled():
        obs.record("engine.vector.memory",
                   wall_s=time.perf_counter() - mem_started, ops=n_mem)

    # ---- conditional branches: grouped automaton evaluation -------------
    branch_started = time.perf_counter() if obs.enabled() else 0.0
    sites = trace.cond_site
    taken = trace.cond_taken
    n_cond = int(sites.shape[0])
    cond_warmup = min(
        n_cond // 2, max(int(n_cond * warmup_fraction), 2048)
    )
    predictions = _conditional_predictions(
        config.branch_predictor, sites, taken
    )
    mispredicted = predictions != taken
    window_conditionals = n_cond - cond_warmup
    predictor = PredictorStats(
        predictions=window_conditionals,
        mispredictions=int(np.count_nonzero(mispredicted[cond_warmup:])),
    )
    if obs.enabled():
        obs.record("engine.vector.branch",
                   wall_s=time.perf_counter() - branch_started, ops=n_cond)

    return EngineMeasurement(
        hierarchy=hierarchy,
        predictor=predictor,
        window_conditionals=window_conditionals,
        footprint=tracker.estimate(),
    )
