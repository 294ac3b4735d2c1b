"""Bench: the tracing-overhead budget of the simulation hot path.

Times :meth:`repro.uarch.SimulatedCore.run` (``engine="auto"``) with
observability off and on, on five REF pairs of the Table-I machine at
60,000 µops, best of 2 runs per side.  Both sides run in one process on
the same traces, so the overhead *ratio* is portable even though
absolute times are not.

The enabled side runs a sinkless tracer: the worker-process setup, the
hottest configuration that must stay cheap.  Spans are the one
telemetry channel, so there is no metrics registry to feed.  Each timed
run also pays one run-ledger append, so the budget covers the record
the :class:`~repro.runner.SuiteRunner` persists after every sweep.
The span profiler is wired into the tracer but not requested, so each
span's one-attribute gate check is inside the budget too.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

Prints one row per pair and the median overhead, and exits 1 when the
median exceeds the 3% budget.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.config import haswell_e5_2650l_v3
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger
from repro.perf.session import DEFAULT_SAMPLE_OPS
from repro.uarch.core import SimulatedCore
from repro.workloads.calibrate import solve_pipeline_params
from repro.workloads.generator import TraceGenerator
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017

#: Enabled-tracing wall time may exceed disabled-tracing wall time by at
#: most this fraction (median across pairs).
OBS_OVERHEAD_LIMIT = 0.03

#: Table-heavy tournament training (mcf, x264), branch-dominated integer
#: code (exchange2), and the two memory-bound float kernels (bwaves, lbm).
PAIRS = (
    "505.mcf_r",
    "525.x264_r",
    "548.exchange2_r",
    "503.bwaves_r",
    "519.lbm_r",
)

#: Timed runs per side; the fastest one counts.
REPEATS = 2


def best_of(run) -> float:
    """Best-of-:data:`REPEATS` wall seconds of ``run()``."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def main() -> int:
    config = haswell_e5_2650l_v3()
    suite = cpu2017()
    generator = TraceGenerator(config)
    core = SimulatedCore(config)
    print("%-18s %12s %11s %9s"
          % ("pair", "disabled_ms", "enabled_ms", "overhead"))
    overheads = []
    with tempfile.TemporaryDirectory() as scratch:
        ledger = RunLedger(path=Path(scratch) / "ledger.jsonl")
        for name in PAIRS:
            profile = suite.get(name).profile(InputSize.REF)
            trace = generator.generate(profile, n_ops=DEFAULT_SAMPLE_OPS)
            # Pipeline-parameter solving is the same on both sides; keep
            # it out of the timed region.
            params = solve_pipeline_params(profile, config)

            def run():
                core.run(trace, params=params, engine="auto")

            def run_and_record():
                run()
                ledger.append({"schema": LEDGER_SCHEMA,
                               "kind": "overhead-probe",
                               "pair": profile.pair_name})

            off_s = best_of(run)
            obs.enable()
            try:
                on_s = best_of(run_and_record)
            finally:
                obs.disable()
            overheads.append(on_s / off_s - 1.0)
            print("%-18s %12.2f %11.2f %8.2f%%"
                  % (profile.pair_name, off_s * 1e3, on_s * 1e3,
                     100 * overheads[-1]))
    median = statistics.median(overheads)
    print("median overhead: %.2f%% (budget %.1f%%)"
          % (100 * median, 100 * OBS_OVERHEAD_LIMIT))
    if median > OBS_OVERHEAD_LIMIT:
        print("REGRESSION: median tracing overhead %.2f%% over %d pair(s) "
              "exceeds the %.1f%% budget"
              % (100 * median, len(overheads), 100 * OBS_OVERHEAD_LIMIT),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
