"""Phased trace generation and trace slicing."""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import SimulationError
from ..workloads.generator import STREAM_DTYPES, SyntheticTrace, TraceGenerator
from .workload import PhasedWorkload


@dataclass(frozen=True)
class PhasedTrace:
    """A concatenated multi-phase trace plus its ground-truth labels."""

    trace: SyntheticTrace
    phase_of_op: np.ndarray        # int per micro-op
    workload: PhasedWorkload

    @property
    def n_ops(self) -> int:
        return self.trace.n_ops


class PhasedTraceGenerator:
    """Generates one trace per schedule segment and concatenates them.

    Each segment draws from its phase's profile with a per-segment seed, so
    the same phase revisited later produces statistically identical (but
    not byte-identical) behavior — like a loop nest re-entered with
    different data.
    """

    def __init__(self, config: SystemConfig):
        self._generator = TraceGenerator(config)

    def generate(self, workload: PhasedWorkload) -> PhasedTrace:
        pieces = []
        labels = []
        for index, (phase, ops) in enumerate(workload.schedule.segments):
            profile = workload.phases[phase]
            segment = self._generator.generate(
                profile, n_ops=ops, seed=profile.seed("segment-%d" % index)
            )
            pieces.append(segment)
            labels.append(np.full(ops, phase, dtype=np.int64))
        # Each stream is the segments' streams end to end, and so is each
        # region's address run.
        merged = dc_replace(
            pieces[0],
            **{name: np.concatenate([getattr(p, name) for p in pieces])
               for name in STREAM_DTYPES},
            region_addrs=tuple(
                np.concatenate(runs)
                for runs in zip(*(p.region_addrs for p in pieces))
            ),
        )
        return PhasedTrace(
            trace=merged,
            phase_of_op=np.concatenate(labels),
            workload=workload,
        )


def slice_trace(trace: SyntheticTrace, start: int, stop: int) -> SyntheticTrace:
    """A contiguous sub-trace (used to simulate one interval in isolation).

    Each stream keeps its ops in ``[start, stop)``, and each region's
    address run the addresses of its accesses among them.
    """
    if not 0 <= start < stop <= trace.n_ops:
        raise SimulationError(
            "invalid slice [%d, %d) of a %d-op trace"
            % (start, stop, trace.n_ops)
        )
    bounds = (start, stop)
    mem_lo, mem_hi = np.searchsorted(trace.mem_idx, bounds)
    br_lo, br_hi = np.searchsorted(trace.branch_idx, bounds)
    cond_lo, cond_hi = np.searchsorted(trace.cond_idx, bounds)
    regions = trace.mem_region[mem_lo:mem_hi]
    addrs = trace.mem_addr[mem_lo:mem_hi]
    return dc_replace(
        trace,
        kind=trace.kind[start:stop],
        mem_region=regions,
        mem_new_page=trace.mem_new_page[mem_lo:mem_hi],
        branch_subtype=trace.branch_subtype[br_lo:br_hi],
        cond_site=trace.cond_site[cond_lo:cond_hi],
        cond_taken=trace.cond_taken[cond_lo:cond_hi],
        region_addrs=tuple(addrs[regions == region]
                           for region in range(len(trace.region_addrs))),
    )
