"""Perf sessions: run one application-input pair and collect counters.

A session generates the pair's synthetic trace, executes it on the
simulated core, and scales the sampled statistics to the pair's nominal
instruction count — the simulation analogue of attaching ``perf stat`` to
the native run.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import obs
from ..config import SystemConfig, haswell_e5_2650l_v3
from ..errors import SimulationError
from ..uarch.core import CoreResult, SimulatedCore
from ..workloads.calibrate import effective_parallelism
from ..workloads.generator import TraceGenerator
from ..workloads.profile import WorkloadProfile
from . import counters as C
from .report import CounterReport

#: Default simulated sample length per pair.  Large enough that rate
#: estimates converge (the generator's regions make miss behavior exact by
#: construction); small enough that characterizing all 194 pairs stays
#: interactive.
DEFAULT_SAMPLE_OPS = 60_000


class PerfSession:
    """Collects counters for application-input pairs on one configuration.

    The core picks the execution engine per trace (see
    :class:`~repro.uarch.core.SimulatedCore`) and measures after its
    default warmup window.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        sample_ops: int = DEFAULT_SAMPLE_OPS,
    ):
        if sample_ops <= 0:
            raise SimulationError("sample_ops must be positive")
        self.config = config or haswell_e5_2650l_v3()
        self.sample_ops = sample_ops
        self._generator = TraceGenerator(self.config)
        self._core = SimulatedCore(self.config)
        #: The engine this config resolves to (traces may still force a
        #: per-run scalar fallback).  Cache keys and ledger records name
        #: it.
        self.resolved_engine = self._core.resolve_engine()

    def run(self, profile: WorkloadProfile) -> CounterReport:
        """Run one pair and return its scaled counter report.

        Opens only the stage spans; the :class:`~repro.runner.SuiteRunner`
        that calls it opens the pair's ``pair.run`` and applies strict
        mode before any session runs.
        """
        with obs.profile("trace.gen", ops=self.sample_ops) as span:
            trace = self._generator.generate(profile, n_ops=self.sample_ops)
            span.set("loads", trace.n_loads).set("stores", trace.n_stores)
        result = self._core.run(trace)
        # The scaled counters are consistent by construction; enforcing it
        # here means no inconsistent report can ever leave the session.
        with obs.profile("counters.validate"):
            return CounterReport(
                profile, self._scale(profile, result)
            ).require_valid()

    def _scale(self, profile: WorkloadProfile, result: CoreResult) -> Dict[str, float]:
        """Scale sampled statistics to the nominal run."""
        instructions = profile.instructions
        per_op = instructions / result.trace_ops

        loads = result.trace_loads * per_op
        stores = result.trace_stores * per_op
        subtype_counts = [count * per_op for count in result.branch_subtypes]
        # All-branches is the sum of its subtypes *by construction*: scaling
        # the trace total separately would let float rounding open a gap
        # between br_inst_exec.all_branches and the subtype counters.
        branches = float(sum(subtype_counts))

        # Per-level load counts follow the measured window miss rates.
        m1, m2, m3 = result.load_miss_rates
        l1_miss = loads * m1
        l1_hit = loads - l1_miss
        l2_miss = l1_miss * m2
        l2_hit = l1_miss - l2_miss
        l3_miss = l2_miss * m3
        l3_hit = l2_miss - l3_miss

        cycles = instructions * result.cpi.total
        wall_time = cycles / (
            self.config.frequency_hz * effective_parallelism(profile, self.config)
        )

        values = {
            C.INST_RETIRED: instructions,
            C.UOPS_RETIRED: instructions,
            C.REF_CYCLES: cycles,
            C.MEM_LOADS: loads,
            C.MEM_STORES: stores,
            C.BR_ALL: branches,
            C.BR_MISP: branches * result.mispredict_rate,
            C.L1_HIT: l1_hit,
            C.L1_MISS: l1_miss,
            C.L2_HIT: l2_hit,
            C.L2_MISS: l2_miss,
            C.L3_HIT: l3_hit,
            C.L3_MISS: l3_miss,
            C.PS_RSS: result.footprint.rss_bytes,
            C.PS_VSZ: result.footprint.vsz_bytes,
            C.WALL_TIME: wall_time,
        }
        for name, count in zip(C.BRANCH_COUNTERS, subtype_counts):
            values[name] = count
        return values
