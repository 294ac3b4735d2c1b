"""Stable public facade of the ``repro`` package.

Everything downstream code needs lives here under one import::

    from repro.api import SuiteRunner, cpu2017, InputSize

``repro.api`` re-exports from the implementation modules but adds no logic
of its own; its :data:`__all__` is the compatibility contract.  Names may
be *added* here over time, but an existing name never changes meaning or
disappears without a deprecation cycle.  The one exception so far is the
metrics-registry class, deleted with the registry (docs/api.md).  Deep
imports (``repro.uarch.core``, ``repro.workloads.generator``, ...) still
work but are implementation detail: they may move between releases, and
the ``LAY001`` lint check keeps the shipped examples and docs off them.

Each name is imported from its module on first use (:mod:`repro.lazy`),
so ``import repro.api`` itself loads no numpy, and a sweep built from
here never loads the analysis modules it does not run.
``from repro.api import X``, ``from repro.api import *`` and ``dir()``
work as with eager imports.

The facade groups into:

- **Suites and workloads** — :func:`cpu2017`, :func:`cpu2006`,
  :class:`WorkloadProfile` and its mix/behavior components.
- **Collection** — :class:`PerfSession`, :class:`SuiteRunner`,
  :class:`ResultCache`, :class:`CounterReport`.
- **Simulation** — :class:`SimulatedCore`, :class:`TraceGenerator`,
  :func:`solve_pipeline_params`, configs and presets.
- **Analysis** — :class:`Characterizer`, :class:`SubsetSelector`,
  :func:`feature_vector`, the phase-analysis toolkit.
- **Observability** — :class:`Tracer` and the trace readers, the run
  ledger and drift watchdog (:class:`RunLedger`, :func:`check_ledger`),
  and the :mod:`repro.obs` module itself for ``obs.enable()`` /
  ``obs.profile()``.
- **Errors** — the full exception hierarchy rooted at :class:`ReproError`.
"""

from __future__ import annotations

from .lazy import attach

__getattr__, __dir__ = attach(globals(), {
    ".": ("obs",),
    ".config": (
        "CacheConfig", "PipelineConfig", "SystemConfig", "get_config",
        "haswell_e5_2650l_v3",
    ),
    ".core": (
        "Characterizer", "SubsetResult", "SubsetSelector", "feature_matrix",
        "feature_vector",
    ),
    ".errors": (
        "AnalysisError", "ClusteringError", "CollectionError", "ConfigError",
        "CounterError", "CounterValidationError", "ExperimentError",
        "LintError", "ReproError", "SimulationError", "UnknownBenchmarkError",
        "WorkloadError",
    ),
    ".obs": (
        "CriticalPathReport", "DriftDetector", "DriftReport",
        "DriftThresholds", "RunLedger", "SpanProfiler", "Tracer",
        "UtilizationReport", "check_ledger", "chrome_trace", "critical_path",
        "export_chrome_trace", "load_spans", "utilization",
    ),
    ".perf": ("CounterReport", "PerfSession"),
    ".phases": (
        "PhaseDetector", "PhasedTraceGenerator", "PhasedWorkload", "Schedule",
        "estimate_from_simulation_points", "make_phases",
    ),
    ".runner": (
        "PairFailure", "ResultCache", "RunManifest", "SuiteRunner",
        "SuiteRunResult",
    ),
    ".uarch.core": ("SimulatedCore",),
    ".workloads": (
        "BenchmarkSuite", "InputSize", "MiniSuite", "WorkloadProfile",
        "cpu2006", "cpu2017",
    ),
    ".workloads.calibrate": ("solve_pipeline_params",),
    ".workloads.generator": ("TraceGenerator",),
    ".workloads.profile": (
        "BranchBehavior", "BranchMix", "InstructionMix", "MemoryBehavior",
    ),
})

__all__ = [
    # Suites and workloads
    "BenchmarkSuite",
    "BranchBehavior",
    "BranchMix",
    "InputSize",
    "InstructionMix",
    "MemoryBehavior",
    "MiniSuite",
    "WorkloadProfile",
    "cpu2006",
    "cpu2017",
    # Collection
    "CounterReport",
    "PairFailure",
    "PerfSession",
    "ResultCache",
    "RunManifest",
    "SuiteRunResult",
    "SuiteRunner",
    # Simulation
    "CacheConfig",
    "PipelineConfig",
    "SimulatedCore",
    "SystemConfig",
    "TraceGenerator",
    "get_config",
    "haswell_e5_2650l_v3",
    "solve_pipeline_params",
    # Analysis
    "Characterizer",
    "PhaseDetector",
    "PhasedTraceGenerator",
    "PhasedWorkload",
    "Schedule",
    "SubsetResult",
    "SubsetSelector",
    "estimate_from_simulation_points",
    "feature_matrix",
    "feature_vector",
    "make_phases",
    # Observability
    "CriticalPathReport",
    "DriftDetector",
    "DriftReport",
    "DriftThresholds",
    "RunLedger",
    "SpanProfiler",
    "Tracer",
    "UtilizationReport",
    "check_ledger",
    "chrome_trace",
    "critical_path",
    "export_chrome_trace",
    "load_spans",
    "obs",
    "utilization",
    # Errors
    "AnalysisError",
    "ClusteringError",
    "CollectionError",
    "ConfigError",
    "CounterError",
    "CounterValidationError",
    "ExperimentError",
    "LintError",
    "ReproError",
    "SimulationError",
    "UnknownBenchmarkError",
    "WorkloadError",
]
