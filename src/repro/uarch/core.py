# repro: noqa-file[LAY001] — deliberate upward edge: the observability
# seam (tracer spans) is threaded through the leaf layers
# by design; repro.obs is import-light and never imports back down.
"""The simulated core: executes a synthetic trace against the substrate.

Ties together the cache hierarchy, a branch predictor, the footprint
tracker, and the pipeline model, and produces a :class:`CoreResult` with
everything the perf-counter layer needs.

Measurement protocol: the first ``warmup_fraction`` of each event stream
(memory ops, conditional branches) trains the structures and is then
discarded — mirroring how hardware-counter measurements of long runs are
dominated by steady state, not by cold-start transients.  Instruction-mix
counts come from the full trace (they have no warmup bias); rates (miss
rates, mispredict rates, CPI components) come from the measured window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..config import SystemConfig
from ..errors import ConfigError, SimulationError
from ..workloads.calibrate import (
    INDIRECT_JUMP_MISPREDICT,
    PipelineParams,
    solve_pipeline_params,
)
from ..workloads.generator import BR_INDIRECT_JUMP, SyntheticTrace
from . import vector
from .branch import PredictorStats, make_predictor
from .hierarchy import HierarchyStats, MemoryHierarchy
from .memory import FootprintEstimate, FootprintTracker
from .pipeline import CPIBreakdown, PipelineModel
from .vector import EngineMeasurement

#: The engines a run may name.  "scalar" is the op-loop reference
#: implementation, "vector" the batched numpy engine, "auto" (every
#: sweep's choice) picks vector whenever the config/trace combination
#: supports it exactly.
ENGINES = ("scalar", "vector", "auto")

#: The measurement-window warmup fraction every sweep uses; cache keys
#: and ledger records name it.
WARMUP_FRACTION = 0.15


@dataclass(frozen=True)
class CoreResult:
    """Everything measured from simulating one trace.

    "window" quantities are from the post-warmup measurement window;
    "trace" quantities cover the full trace.
    """

    trace_ops: int
    trace_loads: int
    trace_stores: int
    trace_branches: int
    branch_subtypes: Tuple[int, int, int, int, int]
    hierarchy: HierarchyStats
    predictor: PredictorStats
    window_conditionals: int
    window_conditional_mispredicts: int
    window_indirect_jumps: int
    window_indirect_mispredicts: int
    window_ops: int
    cpi: CPIBreakdown
    params: PipelineParams
    footprint: FootprintEstimate

    @property
    def ipc(self) -> float:
        return self.cpi.ipc

    @property
    def load_miss_rates(self) -> Tuple[float, float, float]:
        """(L1, L2, L3) load miss rates over the measurement window."""
        return self.hierarchy.load_miss_rates

    @property
    def base_cpi(self) -> float:
        return self.params.base_cpi

    @property
    def mispredict_rate(self) -> float:
        """Mispredicts over all executed branches.

        Combined from the per-stream measured rates weighted by the full
        trace's subtype shares, so differing warmup windows per stream
        cannot skew the total.
        """
        if self.trace_branches == 0:
            return 0.0
        conditional, _, _, indirect_jump, _ = self.branch_subtypes
        conditional_rate = (
            self.window_conditional_mispredicts / self.window_conditionals
            if self.window_conditionals else 0.0
        )
        indirect_rate = (
            self.window_indirect_mispredicts / self.window_indirect_jumps
            if self.window_indirect_jumps else 0.0
        )
        return (
            conditional * conditional_rate + indirect_jump * indirect_rate
        ) / self.trace_branches

    @property
    def mix_fractions(self) -> Tuple[float, float, float]:
        """(loads, stores, branches) as fractions of retired micro-ops."""
        n = self.trace_ops
        return (
            self.trace_loads / n,
            self.trace_stores / n,
            self.trace_branches / n,
        )


class SimulatedCore:
    """Executes synthetic traces against one system configuration.

    Every run picks its engine itself (``"auto"``): the vector engine
    whenever it reproduces the scalar reference exactly, the scalar
    engine otherwise.  :meth:`run` and :meth:`resolve_engine` still take
    an explicit ``engine`` for the parity checks.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self._pipeline = PipelineModel(config)

    def resolve_engine(
        self,
        trace: Optional[SyntheticTrace] = None,
        engine: Optional[str] = None,
    ) -> str:
        """The concrete engine a run would use: "scalar" or "vector".

        ``engine=None`` resolves ``"auto"``.  Explicitly asking for the
        vector engine when it is unsupported raises, naming the
        precondition that failed; ``"auto"`` silently falls back.
        """
        return self._choose_engine(trace, engine)[0]

    def _choose_engine(
        self, trace: Optional[SyntheticTrace], engine: Optional[str]
    ) -> Tuple[str, Optional[np.ndarray]]:
        """``(engine, hit levels)``: the engine :meth:`resolve_engine`
        names, and the vector engine's hit levels for ``trace`` (None on
        the scalar engine, or without a trace)."""
        engine = engine or "auto"
        if engine not in ENGINES:
            raise ConfigError(
                "unknown engine %r (valid: %s)" % (engine, ", ".join(ENGINES))
            )
        if engine == "scalar":
            return "scalar", None
        reason = vector.unsupported_reason(self.config)
        hit_levels = None
        if reason is None and trace is not None:
            with obs.profile("engine.vector.analyze", ops=trace.n_ops):
                reason, hit_levels = vector.analyze_trace(self.config, trace)
        if reason is None:
            return "vector", hit_levels
        if engine == "vector":
            raise SimulationError("vector engine unsupported: " + reason)
        return "scalar", None

    def run(
        self,
        trace: SyntheticTrace,
        params: Optional[PipelineParams] = None,
        warmup_fraction: float = WARMUP_FRACTION,
        engine: Optional[str] = None,
    ) -> CoreResult:
        """Simulate one trace and return the measured result."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError("warmup_fraction must be in [0, 1)")
        if params is None:
            params = solve_pipeline_params(trace.profile, self.config)
        engine_used, hit_levels = self._choose_engine(trace, engine)
        with obs.profile(
            "engine.exec", engine=engine_used, ops=trace.n_ops
        ):
            if hit_levels is not None:
                measurement = vector.execute_vector(
                    self.config, trace, warmup_fraction, hit_levels
                )
            else:
                measurement = self._execute_scalar(trace, warmup_fraction)
        return self._compose(trace, params, warmup_fraction, measurement)

    def _execute_scalar(
        self, trace: SyntheticTrace, warmup_fraction: float
    ) -> EngineMeasurement:
        """Reference implementation: one trip through the op loops."""
        hierarchy = MemoryHierarchy(self.config)
        predictor = make_predictor(self.config.branch_predictor)
        tracker = FootprintTracker(trace.profile, trace.pages_per_touch)

        # ---- memory stream -------------------------------------------------
        mem_is_store = trace.mem_is_store.tolist()
        mem_addrs = trace.mem_addr.tolist()
        mem_pages = trace.mem_new_page.tolist()
        mem_warmup = int(len(mem_addrs) * warmup_fraction)
        # Prime every distinct line once so compulsory misses don't distort
        # the measured rates of rarely-visited regions, then clear counters.
        # return_counts keeps np.unique from importing numpy.ma
        # (docs/methodology.md §8).
        if len(mem_addrs):
            distinct, _ = np.unique(trace.mem_addr, return_counts=True)
            hierarchy.warm_up(distinct)
        access = hierarchy.access
        on_mem = tracker.on_memory_op
        for position, (addr, is_store, page) in enumerate(
            zip(mem_addrs, mem_is_store, mem_pages)
        ):
            if position == mem_warmup:
                hierarchy.reset_stats()
            access(addr, is_store)
            on_mem(page)

        # ---- conditional branch stream --------------------------------------
        sites = trace.cond_site.tolist()
        outcomes = trace.cond_taken.tolist()
        # Table predictors need a few thousand observations to converge;
        # extend the warmup window for short conditional streams (but never
        # past half the stream so something is always measured).
        cond_warmup = min(
            len(sites) // 2, max(int(len(sites) * warmup_fraction), 2048)
        )
        observe = predictor.access
        for position, (site, taken) in enumerate(zip(sites, outcomes)):
            if position == cond_warmup:
                predictor.reset_stats()
            observe(site, taken)

        return EngineMeasurement(
            hierarchy=hierarchy.stats,
            predictor=predictor.stats,
            window_conditionals=len(sites) - cond_warmup,
            footprint=tracker.estimate(),
        )

    def _compose(
        self,
        trace: SyntheticTrace,
        params: PipelineParams,
        warmup_fraction: float,
        measurement: EngineMeasurement,
    ) -> CoreResult:
        """Combine a measurement with the engine-independent pieces.

        The indirect-jump draw and the CPI breakdown live here so both
        engines share one code path and produce bit-identical floats.
        """
        # Indirect-jump targets are not modeled per-address; they carry the
        # fixed mispredict probability from calibration, drawn
        # deterministically from the trace seed.
        branch_subtypes = trace.branch_subtype_counts()
        n_indirect = branch_subtypes[BR_INDIRECT_JUMP]
        indirect_window = n_indirect - int(n_indirect * warmup_fraction)
        rng = random.Random(trace.seed ^ 0x1D1)
        indirect_misses = sum(
            1 for _ in range(indirect_window)
            if rng.random() < INDIRECT_JUMP_MISPREDICT
        )

        n_branches_trace = trace.n_branches
        window_ops = trace.n_ops - int(trace.n_ops * warmup_fraction)
        stats = measurement.hierarchy
        served = stats.load_served
        result = CoreResult(
            trace_ops=trace.n_ops,
            trace_loads=trace.n_loads,
            trace_stores=trace.n_stores,
            trace_branches=n_branches_trace,
            branch_subtypes=branch_subtypes,
            hierarchy=stats,
            predictor=measurement.predictor,
            window_conditionals=measurement.window_conditionals,
            window_conditional_mispredicts=measurement.predictor.mispredictions,
            window_indirect_jumps=indirect_window,
            window_indirect_mispredicts=indirect_misses,
            window_ops=window_ops,
            cpi=CPIBreakdown(base=params.base_cpi, memory=0.0, branch=0.0),
            params=params,
            footprint=measurement.footprint,
        )
        # The CPI breakdown derives the window's branch-mispredict count
        # from the stream-weighted rate so it stays consistent with the
        # reported mispredict_rate.
        window_mispredicts = (
            result.mispredict_rate * (n_branches_trace / trace.n_ops) * window_ops
        )
        cpi = self._pipeline.breakdown(
            n_ops=window_ops,
            base_cpi=params.base_cpi,
            l2_load_fills=served[1],
            l3_load_fills=served[2],
            memory_load_fills=served[3],
            branch_mispredicts=window_mispredicts,
            penalty_scale=params.penalty_scale,
        )
        return replace(result, cpi=cpi)
