"""``repro.obs`` — structured observability for the measurement pipeline.

The pipeline that characterizes SPEC is itself an instrumented system:
this package gives it spans (:class:`Tracer`), metrics
(:class:`MetricsRegistry`), and the hot-path hooks (:func:`profile`,
:func:`count`, :func:`observe`) that the runner, sessions, engines, and
stats stages call.

Observability is **off by default** and costs one early-out per hook
when off (the hooks return a shared no-op), so the engine benchmarks
are unaffected.  Turn it on per process::

    from repro import obs

    obs.enable(trace_path="run.jsonl")      # spans -> ring buffer + JSONL
    ... run the pipeline ...
    print(obs.registry().to_prometheus())   # metrics dump
    obs.disable()                           # close the sink, drop state

The CLI exposes the same switch as ``repro run --trace out.jsonl
--metrics``.  Worker processes get their own (sinkless) tracer and
registry; the :class:`~repro.runner.runner.SuiteRunner` ships their
spans and metric snapshots back through the existing picklable result
channel and stitches them into the parent's trace (``Tracer.graft`` /
``MetricsRegistry.merge``).

Zero dependencies beyond the standard library, by design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..lazy import attach
from .ledger import (
    LEDGER_ENV,
    LEDGER_SCHEMA,
    LedgerError,
    RunLedger,
    build_run_record,
    characteristic_digest,
    default_ledger_path,
)
from .metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_PREFIX,
    ERROR_BUCKETS,
    MetricsError,
    MetricsRegistry,
)
from .trace import (
    DEFAULT_CAPACITY,
    NULL_SPAN,
    ObsError,
    SpanHandle,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover - imported on first use below
    from .profiler import SpanProfiler

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "DEFAULT_PREFIX",
    "CriticalPathReport",
    "DriftDetector",
    "DriftFinding",
    "DriftReport",
    "DriftThresholds",
    "ERROR_BUCKETS",
    "LEDGER_ENV",
    "LEDGER_SCHEMA",
    "LedgerError",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObsError",
    "PathSegment",
    "RunLedger",
    "SpanHandle",
    "SpanProfiler",
    "StageLine",
    "StageShare",
    "TraceFileError",
    "TraceSummary",
    "Tracer",
    "UtilizationReport",
    "WorkerLine",
    "absorb_worker_payload",
    "build_run_record",
    "characteristic_digest",
    "check_ledger",
    "chrome_trace",
    "count",
    "critical_path",
    "default_ledger_path",
    "disable",
    "enable",
    "enabled",
    "export_chrome_trace",
    "load_spans",
    "observe",
    "paper_anchor_vector",
    "active_profiler",
    "profile",
    "profile_stage_names",
    "record",
    "registry",
    "render_collapsed",
    "render_table",
    "render_top",
    "render_tree",
    "sampling_rel_sigma",
    "set_gauge",
    "summarize",
    "summarize_spans",
    "tracer",
    "utilization",
    "worker_payload",
]

# The offline readers (trace analysis, drift watchdog, profiler) load on
# first use: no sweep runs them.
__getattr__, __dir__ = attach(globals(), {
    ".critical": (
        "CriticalPathReport", "PathSegment", "StageLine", "StageShare",
        "TraceFileError", "TraceSummary", "UtilizationReport", "WorkerLine",
        "chrome_trace", "critical_path", "export_chrome_trace", "load_spans",
        "render_table", "render_tree", "summarize", "summarize_spans",
        "utilization",
    ),
    ".drift": (
        "DriftDetector", "DriftFinding", "DriftReport", "DriftThresholds",
        "check_ledger", "paper_anchor_vector", "sampling_rel_sigma",
    ),
    ".profiler": ("SpanProfiler", "render_collapsed", "render_top"),
})

# ---------------------------------------------------------------------------
# Process-local state.  One tracer + one registry per process; the hooks
# below early-out on ``None`` so the disabled path stays branch-cheap.
# ---------------------------------------------------------------------------

_TRACER: Optional[Tracer] = None
_REGISTRY: Optional[MetricsRegistry] = None
_PROFILER: Optional[SpanProfiler] = None


def enable(
    trace_path: Optional[str] = None,
    capacity: int = DEFAULT_CAPACITY,
    metrics: bool = True,
    profile_stages=None,
) -> Tracer:
    """Turn observability on for this process (idempotent-ish: calling
    again replaces the tracer, closing any previous sink).

    ``profile_stages`` names the span stages (``{"engine.exec"}``) the
    span-scoped profiler collects inside; ``None`` or an empty set — the
    default — leaves the profiler off entirely, so the only hot-path
    cost is one attribute check per span.
    """
    global _TRACER, _REGISTRY, _PROFILER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(capacity=capacity, sink_path=trace_path)
    if metrics and _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    elif not metrics:
        _REGISTRY = None
    if profile_stages:
        from .profiler import SpanProfiler

        _PROFILER = SpanProfiler(profile_stages)
        _TRACER.set_profiler(_PROFILER)
    else:
        _PROFILER = None
    return _TRACER


def disable() -> None:
    """Turn observability off and release the tracer/registry."""
    global _TRACER, _REGISTRY, _PROFILER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None
    _REGISTRY = None
    _PROFILER = None


def enabled() -> bool:
    return _TRACER is not None


def tracer() -> Optional[Tracer]:
    """The active tracer, or None when disabled."""
    return _TRACER


def registry() -> Optional[MetricsRegistry]:
    """The active metrics registry, or None when disabled."""
    return _REGISTRY


def active_profiler() -> Optional[SpanProfiler]:
    """The active span-scoped profiler, or None when off."""
    return _PROFILER


def profile_stage_names() -> tuple:
    """The stage names the profiler collects inside (``()`` when off).

    This is what the runner forwards to pool workers so their profilers
    watch the same stages.
    """
    return tuple(sorted(_PROFILER.stages)) if _PROFILER is not None else ()


# ---------------------------------------------------------------------------
# Hot-path hooks.  Every call site is written so the disabled cost is one
# global read + one comparison; the enabled cost is dominated by two
# clock reads per span, bounded by the 3% tracing-overhead gate
# (``benchmarks/bench_obs_overhead.py``).
# ---------------------------------------------------------------------------

def profile(name: str, **attrs: object):
    """A span context manager for ``name`` (no-op when disabled)::

        with obs.profile("engine.exec", engine="vector") as span:
            ...
            span.set("ops", n)
    """
    if _TRACER is None:
        return NULL_SPAN
    return _TRACER.span(name, **attrs)


def record(name: str, wall_s: float = 0.0, **attrs: object) -> None:
    """Record an externally timed or instantaneous span (no-op when
    disabled)."""
    if _TRACER is not None:
        _TRACER.record(name, wall_s=wall_s, **attrs)


def count(name: str, amount: float = 1.0, help_text: str = "",
          **labels: str) -> None:
    """Increment a counter (no-op when disabled)."""
    if _REGISTRY is not None:
        _REGISTRY.counter(name, help_text).labels(**labels).inc(amount)


def set_gauge(name: str, value: float, help_text: str = "",
              **labels: str) -> None:
    """Set a gauge (no-op when disabled)."""
    if _REGISTRY is not None:
        _REGISTRY.gauge(name, help_text).labels(**labels).set(value)


def observe(name: str, value: float, help_text: str = "",
            buckets=None, **labels: str) -> None:
    """Observe a histogram value (no-op when disabled).

    ``buckets`` fixes the family's bucket layout on first use — pass
    :data:`~repro.obs.metrics.ERROR_BUCKETS` for score-shaped families
    instead of the wall-time-shaped default.
    """
    if _REGISTRY is not None:
        _REGISTRY.histogram(
            name, help_text, buckets=buckets
        ).labels(**labels).observe(value)


def worker_payload() -> Optional[Dict[str, object]]:
    """Drain this process's spans + metrics into one picklable payload.

    Called by pool workers after each task; returns ``None`` when
    observability is off so the result channel carries no dead weight.
    The payload carries the worker's clock epoch and pid so the parent
    can place grafted spans on a shared timeline, plus the profiler
    aggregates when span-scoped profiling is on.
    """
    if _TRACER is None:
        return None
    payload: Dict[str, object] = {
        "spans": _TRACER.drain(),
        "epoch_unix": _TRACER.epoch_unix,
        "pid": _TRACER.pid,
    }
    if _REGISTRY is not None:
        payload["metrics"] = _REGISTRY.dump()
        _REGISTRY.reset()
    if _PROFILER is not None:
        payload["profile"] = _PROFILER.data()
        _PROFILER.reset()
    return payload


def absorb_worker_payload(
    payload: Optional[Dict[str, object]],
    extra_root_attrs: Optional[Dict[str, object]] = None,
) -> None:
    """Graft a worker's spans and merge its metrics + profile into this
    process, rebasing span start offsets onto this tracer's clock."""
    global _PROFILER
    if payload is None:
        return
    if _TRACER is not None and payload.get("spans"):
        rebase = 0.0
        worker_epoch = payload.get("epoch_unix")
        if isinstance(worker_epoch, (int, float)):
            rebase = float(worker_epoch) - _TRACER.epoch_unix
        _TRACER.graft(
            payload["spans"], extra_root_attrs=extra_root_attrs,
            rebase_s=rebase,
        )
    if _REGISTRY is not None and payload.get("metrics"):
        _REGISTRY.merge(payload["metrics"])
    worker_profile = payload.get("profile")
    if worker_profile:
        if _PROFILER is None:
            # The parent had no matching stage open (pooled sweeps run
            # the stages in workers); adopt the worker's stage set so
            # the merged profile still surfaces through active_profiler.
            from .profiler import SpanProfiler

            _PROFILER = SpanProfiler(worker_profile.get("stages") or [])
            if _TRACER is not None:
                _TRACER.set_profiler(_PROFILER)
        _PROFILER.merge(worker_profile)
