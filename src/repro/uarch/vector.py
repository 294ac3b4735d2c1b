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
   The engine needs only the window's mispredict count, so each table's
   states are compared with the outcomes in the sorted order the scan
   leaves them, and nothing is put back in stream order but what the
   tournament's chooser reads.

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


#: Entries of an address run searched for its first non-increase before
#: the whole run is: a generator layout's period, at most ``2 * max(ways)
#: + 2`` lines, lies within it for up to 63 ways.
_PERIOD_PREFIX = 128


def _sweep_lines(accesses: np.ndarray) -> Optional[np.ndarray]:
    """The sorted line set ``accesses`` sweeps cyclically, else None.

    ``accesses`` is a cyclic sweep exactly when it equals
    ``unique(accesses)[arange(n) % L]``: it strictly increases up to its
    first non-increase at index ``p`` (``p = n`` if there is none), and
    from there on repeats itself with period ``p``.  Then its first ``p``
    entries are the line set.  The first non-increase is looked for in
    the first ``_PERIOD_PREFIX + 1`` entries, and in the whole run only
    when none lies there; then one comparison pass decides.  O(n), no
    sort.
    """
    n = int(accesses.shape[0])
    head = accesses[:_PERIOD_PREFIX + 1]
    drops = np.flatnonzero(head[1:] <= head[:-1])
    if not drops.size and n > head.size:
        drops = np.flatnonzero(accesses[1:] <= accesses[:-1])
    period = int(drops[0]) + 1 if drops.size else n
    if not (accesses[period:] == accesses[:n - period]).all():
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
    same masked site) then share the sort and the group starts.
    ``order`` sorts the stream by key, stably, and ``starts`` holds the
    sorted position of each group's first access.
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
        self.order = np.argsort(keys.astype(narrow, copy=False), kind="stable")
        sorted_keys = keys[self.order]
        new_group = np.empty(n, dtype=bool)
        if n:
            new_group[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        self.starts = np.flatnonzero(new_group)

    def scan(
        self, sorted_steps: np.ndarray, init: int = _INIT_STATE
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Counter states before the accesses that can move a counter.

        Args:
            sorted_steps: int8 array (n,), in sorted order — the update
                each access applies to its entry: +1 (strengthen), -1
                (weaken), or 0 (leave alone), all saturating at
                [0, _MAX_STATE].
            init: state every entry starts in.

        Returns:
            ``(scanned, before)``: the sorted positions the scan covers
            (every nonzero step and each group's first access, ascending;
            ``None`` when every step moves and the scan covers all), and
            the int8 state of each one's entry *before* its access, in
            that order; equivalent to a sequential replay.

        A saturating step is the map ``s -> min(hi, max(lo, s + a))``,
        and that family is closed under composition — composing two such
        maps sums the shifts and narrows the clamp window.  Each clamp
        window is kept as the map's images of 0 and _MAX_STATE, so a map
        is constant exactly when ``low == high``.  The whole group-prefix
        problem therefore reduces to a Hillis-Steele scan over ``int8``
        arrays (the shifts, and both clamp images stacked in one array):
        O(n log n) vector arithmetic, bit-exact.  Shifts are left to wrap
        around: a map whose shift passes ±(_MAX_STATE - 1) is constant,
        and a constant map's shift is never read, since composing it
        after anything leaves the same constant and composing anything
        after it gives a constant.

        Three facts cut the work:

        * A zero step leaves its entry unchanged, so the scan covers only
          the steps that move a counter, plus each group's first access;
          an access it skips sees the state after the last scanned step
          before it (:meth:`counter_states`).  When every step moves
          (every always-training table), the scan covers the whole
          stream with no compaction.
        * Each group's first map applies its step to ``init``, which makes
          it constant.  A prefix that reaches back to its group's start is
          therefore constant too, and no composition crosses a group
          boundary with effect: the scan needs no segment bookkeeping.
        * A constant map stays constant, with the same value, under any
          further composition; only its shift, which nothing reads any
          more, changes.  So every prefix is extended unconditionally, and
          the scan stops once every prefix is constant.
        """
        # np.minimum/np.maximum with int8 bounds: np.clip goes through
        # Python wrappers, and looks Python-int bounds up in np.iinfo.
        zero, top = np.int8(0), np.int8(_MAX_STATE)
        if sorted_steps.all():
            scanned = None
            shift = sorted_steps.astype(np.int8)
            first = self.starts
        else:
            moves = sorted_steps != 0
            moves[self.starts] = True
            scanned = np.flatnonzero(moves)
            shift = sorted_steps[scanned].astype(np.int8, copy=False)
            first = np.searchsorted(scanned, self.starts)
        # clamps[0] and clamps[1] hold each map's images of 0 and
        # _MAX_STATE; for a single step of at most 1, one bound each.
        clamps = np.empty((2, shift.size), dtype=np.int8)
        np.maximum(shift, zero, out=clamps[0])
        np.minimum(shift + top, top, out=clamps[1])
        clamps[:, first] = np.minimum(
            np.maximum(init + shift[first], zero), top
        )

        step = 1
        # Prefixes ending before `step` already reach position 0.
        while step < shift.size and (
            clamps[0, step:] != clamps[1, step:]
        ).any():
            # Compose prefix[i] (later window, g) after prefix[i-step]
            # (earlier window, f): clamp_g(clamp_f(s + a_f) + a_g), for
            # both clamp images of f at once.
            composed = clamps[:, :-step] + shift[step:]
            np.maximum(composed, clamps[0, step:], out=composed)
            np.minimum(composed, clamps[1, step:], out=clamps[:, step:])
            shift[step:] += shift[:-step]
            step *= 2

        # Every prefix is now constant: its low image is the state after
        # each scanned step, which the next scanned access of its group
        # starts from.
        before = np.empty_like(shift)
        before[1:] = clamps[0, :-1]
        before[first] = init
        return scanned, before

    def counter_states(
        self, steps: np.ndarray, init: int = _INIT_STATE
    ) -> np.ndarray:
        """Exact per-access saturating-counter states for one table.

        ``steps`` (n,) are the updates in stream order (see :meth:`scan`);
        returns each access's int8 state *before* its access, in stream
        order.
        """
        sorted_steps = steps[self.order]
        scanned, before = self.scan(sorted_steps, init)
        if scanned is not None:
            # An access the scan skipped sees the state after the last
            # scanned step before it.
            after = np.minimum(
                np.maximum(before + sorted_steps[scanned], np.int8(0)),
                np.int8(_MAX_STATE),
            )
            before = np.empty(self.n, dtype=np.int8)
            before[1:] = np.repeat(after, np.diff(scanned, append=self.n - 1))
            before[self.starts] = init
        out = np.empty(self.n, dtype=np.int8)
        out[self.order] = before
        return out


def _taken_steps(taken: np.ndarray) -> np.ndarray:
    """Saturating-counter updates of an always-training table: +1 where
    taken, -1 where not, as ``int8``."""
    return taken.view(np.int8) * 2 - 1


def _mispredicted(groups: _KeyGroups, sorted_steps: np.ndarray) -> np.ndarray:
    """Whether an always-training table mispredicts each access, in
    sorted order: its state before the access (weakly taken or above
    predicts taken) against the outcome, which is its step's sign."""
    _, before = groups.scan(sorted_steps)
    return (before >= 2) != (sorted_steps > 0)


# ---------------------------------------------------------------------------
# Per-family index streams
# ---------------------------------------------------------------------------

def _global_history(taken: np.ndarray, history_mask: int) -> np.ndarray:
    """The global-history register value before each access, at the
    narrowest unsigned width ``history_mask`` needs."""
    n = int(taken.shape[0])
    width = np.min_scalar_type(history_mask)
    history = np.zeros(n, dtype=width)
    bits = taken.astype(width)
    for age in range(1, min(int(history_mask).bit_length(), n) + 1):
        # Bit (age-1) of the register is the outcome `age` accesses ago.
        history[age:] |= bits[:-age] << (age - 1)
    return history


def _gshare_indices(
    sites: np.ndarray, taken: np.ndarray, mask: int, history_mask: int
) -> np.ndarray:
    """Exact gshare table indices (site spread XOR global history), at
    the narrowest unsigned width ``mask`` needs: the masked product's
    bits depend only on that many low bits of the site and multiplier."""
    width = np.min_scalar_type(mask)
    multiplier = width.type(0x9E3779B1 & np.iinfo(width).max)
    spread = sites.astype(width) * multiplier
    return (spread ^ _global_history(taken, history_mask)) & width.type(mask)


def _two_level_indices(
    sites: np.ndarray, taken: np.ndarray, site_mask: int, history_mask: int
) -> np.ndarray:
    """Exact two-level pattern-table indices (per-site local history):
    the global history of the site-sorted outcomes, in which the k-th
    access of a site keeps only its k newest bits."""
    groups = _KeyGroups(sites & site_mask)
    history = _global_history(taken[groups.order], history_mask)
    ends = np.append(groups.starts[1:], groups.n)
    for k in range(min(int(history_mask).bit_length(), groups.n)):
        at = groups.starts + k
        at = at[at < ends]
        history[at] &= (1 << k) - 1
    out = np.empty_like(history)
    out[groups.order] = history
    return out


@lru_cache(maxsize=None)
def _table_geometry(predictor_name: str) -> Tuple[int, ...]:
    """A family's table masks, read once from the scalar predictor's
    defaults so both engines share one source: bimodal ``(mask,)``,
    gshare ``(mask, history_mask)``, two-level ``(site_mask,
    history_mask)``, tournament ``(bimodal mask, gshare mask, gshare
    history_mask)`` (the chooser shares the bimodal table's mask)."""
    proto = make_predictor(predictor_name)
    if predictor_name == "static":
        return ()
    if predictor_name == "bimodal":
        return (proto._mask,)
    if predictor_name == "gshare":
        return (proto._mask, proto._history_mask)
    if predictor_name == "two_level":
        return (proto._site_mask, proto._history_mask)
    if predictor_name == "tournament":
        return (proto._bimodal._mask, proto._gshare._mask,
                proto._gshare._history_mask)
    raise SimulationError(
        "vector engine has no model for predictor %r" % predictor_name
    )


def _window_mispredicts(
    predictor_name: str, sites: np.ndarray, taken: np.ndarray, warmup: int
) -> int:
    """Mispredicted conditionals past the first ``warmup``, per family.

    Each table's states are read in the order its scan leaves them
    (sorted by index), where an access's outcome is its step's sign and
    it is in the window when its stream position ``order >= warmup``:
    no per-branch prediction is built.
    """
    geometry = _table_geometry(predictor_name)
    if predictor_name == "static":  # always predicts taken
        return int(taken.shape[0]) - warmup - int(
            np.count_nonzero(taken[warmup:])
        )
    steps = _taken_steps(taken)
    if predictor_name == "tournament":
        return _tournament_mispredicts(sites, taken, steps, warmup, *geometry)
    if predictor_name == "bimodal":
        keys = sites & geometry[0]
    elif predictor_name == "gshare":
        keys = _gshare_indices(sites, taken, *geometry)
    else:
        keys = _two_level_indices(sites, taken, *geometry)
    groups = _KeyGroups(keys)
    wrong = _mispredicted(groups, steps[groups.order])
    wrong &= groups.order >= warmup
    return int(np.count_nonzero(wrong))


def _tournament_mispredicts(
    sites, taken, steps, warmup, mask, gshare_mask, history_mask
) -> int:
    """The tournament's window mispredicts, counted in site order.

    Bimodal and gshare disagree exactly where one of them is right, which
    is exactly where the chooser's step is nonzero; where they agree the
    tournament predicts their shared direction whatever the chooser
    holds.  So the mispredicts are the accesses both tables get wrong,
    plus the disagreements where the chooser picks the wrong table —
    and the chooser's sparse scan holds its state before each of those.
    """
    # The bimodal table and the chooser share one index stream (site &
    # mask with equal masks): group once, scan twice.
    site_groups = _KeyGroups(sites & mask)
    order = site_groups.order
    site_steps = steps[order]
    bimodal_wrong = _mispredicted(site_groups, site_steps)
    # gshare's states, in stream order, read in site order.
    gshare = _KeyGroups(
        _gshare_indices(sites, taken, gshare_mask, history_mask)
    ).counter_states(steps)[order]
    gshare_wrong = (gshare >= 2) != (site_steps > 0)
    in_window = order >= warmup
    both_wrong = bimodal_wrong & gshare_wrong
    both_wrong &= in_window
    # Chooser: 2-bit counter per site, trained only on disagreement:
    # +1 when only gshare was right, -1 when only bimodal was.
    chooser_steps = bimodal_wrong.view(np.int8) - gshare_wrong.view(np.int8)
    scanned, chooser = site_groups.scan(chooser_steps)
    if scanned is not None:
        chooser_steps = chooser_steps[scanned]
        in_window = in_window[scanned]
    # At 2 or above the chooser picks gshare, wrong where only bimodal
    # was right; below 2 it picks bimodal, wrong where only gshare was.
    wrong_pick = np.where(chooser >= 2, chooser_steps < 0, chooser_steps > 0)
    wrong_pick &= in_window
    return int(np.count_nonzero(both_wrong)) + int(
        np.count_nonzero(wrong_pick)
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _conditional_warmup(n_cond: int, warmup_fraction: float) -> int:
    """Conditional branches that train the predictor before measuring.

    Table predictors need a few thousand observations to converge, so a
    short conditional stream gets a longer warmup window, but never past
    half the stream, so something is always measured.  Both engines use
    this rule.
    """
    return min(n_cond // 2, max(int(n_cond * warmup_fraction), 2048))


def execute_vector(
    config: SystemConfig,
    trace: SyntheticTrace,
    warmup_fraction: float,
    hit_levels: np.ndarray,
) -> EngineMeasurement:
    """Measure ``trace`` with batched array passes.

    ``hit_levels`` is the per-region analysis from :func:`analyze_trace`
    of a supported config/trace pair; the result is then bit-identical to
    the scalar engine's measurement.
    """
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
    cond_warmup = _conditional_warmup(n_cond, warmup_fraction)
    window_conditionals = n_cond - cond_warmup
    predictor = PredictorStats(
        predictions=window_conditionals,
        mispredictions=_window_mispredicts(
            config.branch_predictor, sites, taken, cond_warmup
        ),
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
