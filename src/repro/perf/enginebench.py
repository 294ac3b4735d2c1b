"""A/B benchmark of the scalar vs vector trace-execution engines.

Measures per-pair wall time of :meth:`SimulatedCore.run` under
``engine="scalar"`` and ``engine="vector"`` on the same trace, asserts
bit-for-bit result parity while doing so, and compares the resulting
*speedup ratios* against a committed baseline (``BENCH_engine.json``).

Only ratios are compared: absolute times vary by machine, but the
scalar and vector engines run on the *same* machine in the *same*
process, so their ratio is a stable, portable regression signal.  The
baseline stores the measured times too — purely as context for humans
reading the file.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig, haswell_e5_2650l_v3
from ..errors import SimulationError
from ..uarch.core import CoreResult, SimulatedCore
from ..workloads.calibrate import solve_pipeline_params
from ..workloads.generator import TraceGenerator
from ..workloads.profile import InputSize
from ..workloads.spec2017 import cpu2017
from .session import DEFAULT_SAMPLE_OPS

#: Baseline/check file schema version.
BENCH_SCHEMA = 1

#: A current speedup may fall this far (fractionally) below its baseline
#: before the check fails — wide enough for CI timer noise, tight enough
#: to catch a real fast-path regression.
DEFAULT_TOLERANCE = 0.2

#: The vector engine must beat the scalar engine by at least this factor
#: (median across pairs) — the PR's headline acceptance criterion.
MIN_MEDIAN_SPEEDUP = 10.0

#: Pairs exercising the spread of engine-relevant behavior: table-heavy
#: tournament training (mcf, x264), branch-dominated integer code
#: (exchange2), and the two memory-bound float kernels (bwaves, lbm).
FULL_PAIRS = (
    "505.mcf_r",
    "525.x264_r",
    "548.exchange2_r",
    "503.bwaves_r",
    "519.lbm_r",
)

#: Timing repeats: best-of-``DEFAULT_REPEATS`` normally, best-of-
#: ``QUICK_REPEATS`` for the CI smoke run.  Quick mode keeps the *full*
#: pair list and trims repeats instead: the regression gate is the
#: median across pairs, and dropping pairs destabilizes that median far
#: more than dropping repeats does.
DEFAULT_REPEATS = 3
QUICK_REPEATS = 2


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def assert_parity(scalar: CoreResult, vector: CoreResult, pair: str) -> None:
    """Raise unless the two engine results are identical, field by field.

    Equality is exact — integers bit-for-bit, floats bit-for-bit —
    because both engines feed the same composition path; any drift means
    the vector fast path changed semantics, which no speedup excuses.
    """
    scalar_dict = dataclasses.asdict(scalar)
    vector_dict = dataclasses.asdict(vector)
    if scalar_dict == vector_dict:
        return
    diverged = sorted(
        name for name in scalar_dict
        if scalar_dict[name] != vector_dict[name]
    )
    raise SimulationError(
        "engine parity violation on %s: scalar and vector disagree on %s"
        % (pair, ", ".join(diverged))
    )


def _time_runs(core: SimulatedCore, trace, params, engine: str,
               repeats: int) -> float:
    """Best-of-``repeats`` wall seconds for one engine on one trace."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        core.run(trace, params=params, engine=engine)
        best = min(best, time.perf_counter() - started)
    return best


def measure(
    pair_names: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    sample_ops: int = DEFAULT_SAMPLE_OPS,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, object]:
    """Benchmark both engines on each pair; returns the result document.

    Parity is asserted on every pair before any timing is trusted, so a
    result document existing at all certifies the fast path was exact on
    this config for these traces.
    """
    if repeats < 1:
        raise SimulationError("repeats must be >= 1, got %r" % repeats)
    names = list(pair_names) if pair_names is not None else list(FULL_PAIRS)
    config = config or haswell_e5_2650l_v3()
    suite = cpu2017()
    generator = TraceGenerator(config)
    core = SimulatedCore(config)

    pairs: Dict[str, Dict[str, float]] = {}
    for name in names:
        profile = suite.get(name).profile(InputSize.REF)
        trace = generator.generate(profile, n_ops=sample_ops)
        # Pipeline-parameter solving is engine-independent; hoist it out
        # of the timed region so the ratio reflects engine work only.
        params = solve_pipeline_params(profile, config)
        assert_parity(
            core.run(trace, params=params, engine="scalar"),
            core.run(trace, params=params, engine="vector"),
            profile.pair_name,
        )
        scalar_s = _time_runs(core, trace, params, "scalar", repeats)
        vector_s = _time_runs(core, trace, params, "vector", repeats)
        pairs[profile.pair_name] = {
            "scalar_ms": round(scalar_s * 1e3, 3),
            "vector_ms": round(vector_s * 1e3, 3),
            "speedup": round(scalar_s / vector_s, 2),
        }

    return {
        "schema": BENCH_SCHEMA,
        "sample_ops": sample_ops,
        "repeats": repeats,
        "tolerance": DEFAULT_TOLERANCE,
        "min_median_speedup": MIN_MEDIAN_SPEEDUP,
        "pairs": pairs,
        "median_speedup": round(
            _median([entry["speedup"] for entry in pairs.values()]), 2
        ),
    }


#: Enabled-tracing wall time may exceed disabled-tracing wall time by at
#: most this fraction (median across pairs) — the observability layer's
#: overhead budget.
OBS_OVERHEAD_LIMIT = 0.03


def measure_obs_overhead(
    pair_names: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    sample_ops: int = DEFAULT_SAMPLE_OPS,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, object]:
    """A/B the simulation hot path with tracing off vs on.

    Both measurements run in the same process on the same traces (same
    protocol as the engine A/B), so the overhead *ratio* is portable even
    though absolute times are not.  The enabled side uses a sinkless
    tracer plus a live metrics registry — the worker-process setup, which
    is the hottest configuration that must stay cheap — and additionally
    pays one run-ledger append per timed run, so the budget also covers
    the record the :class:`~repro.runner.runner.SuiteRunner` persists at
    the end of every sweep.  With the span-scoped profiler wired into
    the tracer but not requested (no ``profile_stages``), every span
    enter/exit also pays its one-attribute gate check here, so the same
    budget covers the profiler's disabled cost.
    """
    import os
    import tempfile

    from .. import obs
    from ..obs.ledger import LEDGER_SCHEMA, RunLedger

    if repeats < 1:
        raise SimulationError("repeats must be >= 1, got %r" % repeats)
    names = list(pair_names) if pair_names is not None else list(FULL_PAIRS)
    config = config or haswell_e5_2650l_v3()
    suite = cpu2017()
    generator = TraceGenerator(config)
    core = SimulatedCore(config)
    was_enabled = obs.enabled()
    handle, ledger_path = tempfile.mkstemp(suffix=".jsonl")
    os.close(handle)
    ledger = RunLedger(path=ledger_path)

    def _time_runs_with_ledger(trace, params, pair: str) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            core.run(trace, params=params, engine="auto")
            ledger.append({
                "schema": LEDGER_SCHEMA, "kind": "overhead-probe",
                "pair": pair,
            })
            best = min(best, time.perf_counter() - started)
        return best

    pairs: Dict[str, Dict[str, float]] = {}
    try:
        for name in names:
            profile = suite.get(name).profile(InputSize.REF)
            trace = generator.generate(profile, n_ops=sample_ops)
            params = solve_pipeline_params(profile, config)
            obs.disable()
            off_s = _time_runs(core, trace, params, "auto", repeats)
            obs.enable()
            on_s = _time_runs_with_ledger(trace, params, profile.pair_name)
            obs.disable()
            pairs[profile.pair_name] = {
                "disabled_ms": round(off_s * 1e3, 3),
                "enabled_ms": round(on_s * 1e3, 3),
                "overhead": round(on_s / off_s - 1.0, 4),
            }
    finally:
        obs.disable()
        if was_enabled:
            obs.enable()
        try:
            os.unlink(ledger_path)
        except OSError:
            pass

    return {
        "schema": BENCH_SCHEMA,
        "sample_ops": sample_ops,
        "repeats": repeats,
        "limit": OBS_OVERHEAD_LIMIT,
        "pairs": pairs,
        "median_overhead": round(
            _median([entry["overhead"] for entry in pairs.values()]), 4
        ),
    }


def check_obs_overhead(
    current: Dict[str, object], limit: Optional[float] = None
) -> List[str]:
    """Failure lines when the median tracing overhead exceeds the budget."""
    if limit is None:
        limit = float(current.get("limit", OBS_OVERHEAD_LIMIT))
    median = float(current["median_overhead"])
    if median > limit:
        return [
            "median tracing overhead %.2f%% over %d pair(s) exceeds the "
            "%.1f%% budget"
            % (100 * median, len(current["pairs"]), 100 * limit)
        ]
    return []


def render_obs_overhead(current: Dict[str, object]) -> str:
    """Tabular summary of one tracing-overhead measurement."""
    lines = [
        "%-18s %12s %11s %9s"
        % ("pair", "disabled_ms", "enabled_ms", "overhead")
    ]
    for name, entry in current["pairs"].items():
        lines.append(
            "%-18s %12.2f %11.2f %8.2f%%"
            % (name, entry["disabled_ms"], entry["enabled_ms"],
               100 * entry["overhead"])
        )
    lines.append(
        "median overhead: %.2f%% (budget %.1f%%)"
        % (100 * current["median_overhead"], 100 * current["limit"])
    )
    return "\n".join(lines)


def check(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: Optional[float] = None,
) -> List[str]:
    """Compare a fresh measurement against a baseline document.

    Returns human-readable failure lines (empty when the check passes).
    Only speedup *ratios* are compared, and only for pairs present in
    both documents, so a ``--quick`` run checks cleanly against a full
    baseline from a different machine.  The gate is the *median* over
    the shared pairs — single-pair timings jitter by more than any
    useful tolerance on a loaded CI box, but the median is stable.
    """
    failures: List[str] = []
    if baseline.get("schema") != BENCH_SCHEMA:
        return [
            "baseline schema %r != %r (regenerate with --update)"
            % (baseline.get("schema"), BENCH_SCHEMA)
        ]
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    base_pairs = baseline.get("pairs", {})
    shared = [
        name for name in current["pairs"] if name in base_pairs
    ]
    if not shared:
        return ["no pairs shared between measurement and baseline"]
    median = _median(
        [float(current["pairs"][name]["speedup"]) for name in shared]
    )
    expected = _median(
        [float(base_pairs[name]["speedup"]) for name in shared]
    )
    relative_floor = expected * (1.0 - tolerance)
    if median < relative_floor:
        failures.append(
            "median speedup %.2fx over %d shared pair(s) below %.2fx "
            "(baseline median %.2fx minus %d%% tolerance)"
            % (median, len(shared), relative_floor, expected,
               round(100 * tolerance))
        )
    absolute_floor = float(
        baseline.get("min_median_speedup", MIN_MEDIAN_SPEEDUP)
    )
    if median < absolute_floor:
        failures.append(
            "median speedup %.2fx below the %.1fx floor"
            % (median, absolute_floor)
        )
    return failures


def load_baseline(path) -> Dict[str, object]:
    """Read a baseline document, raising :class:`SimulationError` cleanly."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise SimulationError(
            "cannot read benchmark baseline %s: %s" % (path, error)
        ) from error
    except ValueError as error:
        raise SimulationError(
            "benchmark baseline %s is not valid JSON: %s" % (path, error)
        ) from error
    if not isinstance(document, dict):
        raise SimulationError(
            "benchmark baseline %s is not a JSON object" % path
        )
    return document


def write_baseline(path, document: Dict[str, object]) -> Path:
    """Persist a measurement as the new committed baseline."""
    target = Path(path)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def render(current: Dict[str, object],
           baseline: Optional[Dict[str, object]] = None) -> str:
    """Tabular summary of one measurement (and the baseline, if given)."""
    lines = [
        "%-18s %10s %10s %9s%s"
        % ("pair", "scalar_ms", "vector_ms", "speedup",
           "   baseline" if baseline else "")
    ]
    base_pairs = (baseline or {}).get("pairs", {})
    for name, entry in current["pairs"].items():
        suffix = ""
        if name in base_pairs:
            suffix = "   %7.2fx" % float(base_pairs[name]["speedup"])
        lines.append(
            "%-18s %10.2f %10.2f %8.2fx%s"
            % (name, entry["scalar_ms"], entry["vector_ms"],
               entry["speedup"], suffix)
        )
    lines.append("median speedup: %.2fx" % current["median_speedup"])
    return "\n".join(lines)
