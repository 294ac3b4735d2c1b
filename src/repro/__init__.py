"""repro — a reproduction of "A Workload Characterization of the SPEC
CPU2017 Benchmark Suite" (Limaye & Adegbija, ISPASS 2018).

The package models the paper's full pipeline: statistical workload models
of all 194 SPEC CPU2017 application-input pairs (plus SPEC CPU2006), a
Haswell-like microarchitecture substrate, a perf-style counter layer, the
characterization and suite-comparison analyses, and the PCA + hierarchical
clustering redundancy study with Pareto-optimal subsetting.

Quickstart::

    from repro.api import InputSize, PerfSession, cpu2017

    suite = cpu2017()
    session = PerfSession()
    report = session.run(suite.get("505.mcf_r").profile(InputSize.REF))
    print(report.ipc, report.miss_rates)

:mod:`repro.api` is the stable facade; prefer it for all downstream code.
The top-level ``repro`` namespace keeps its historical exports, each
imported from its module on first use (:mod:`repro.lazy`), and resolves
any other ``repro.api`` name with a :class:`DeprecationWarning`.
"""

import importlib.util
import warnings

from .lazy import attach

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "BenchmarkSuite",
    "CacheConfig",
    "ClusteringError",
    "CollectionError",
    "ConfigError",
    "CounterError",
    "CounterReport",
    "CounterValidationError",
    "ExperimentError",
    "LintError",
    "InputSize",
    "MiniSuite",
    "PairFailure",
    "PerfSession",
    "PipelineConfig",
    "ReproError",
    "ResultCache",
    "RunManifest",
    "SimulationError",
    "SuiteRunResult",
    "SuiteRunner",
    "SystemConfig",
    "UnknownBenchmarkError",
    "WorkloadError",
    "WorkloadProfile",
    "__version__",
    "cpu2006",
    "cpu2017",
    "get_config",
    "haswell_e5_2650l_v3",
]


def _deprecated_api_name(name: str):
    """Serve the other ``repro.api`` names, with a DeprecationWarning
    steering callers to the stable facade.

    Subpackages are not served: ``from .. import obs`` inside the package
    asks this module for ``obs`` before it imports the subpackage, and
    must get AttributeError so that the import goes on.
    """
    if importlib.util.find_spec("%s.%s" % (__name__, name)) is None:
        api = importlib.import_module(".api", __name__)
        if name in api.__all__:
            warnings.warn(
                "accessing repro.%s via the top-level package is deprecated; "
                "import it from repro.api instead" % name,
                DeprecationWarning,
                stacklevel=3,
            )
            return getattr(api, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__getattr__, __dir__ = attach(globals(), {
    ".config": (
        "CacheConfig", "PipelineConfig", "SystemConfig", "get_config",
        "haswell_e5_2650l_v3",
    ),
    ".errors": (
        "AnalysisError", "ClusteringError", "CollectionError", "ConfigError",
        "CounterError", "CounterValidationError", "ExperimentError",
        "LintError", "ReproError", "SimulationError", "UnknownBenchmarkError",
        "WorkloadError",
    ),
    ".perf": ("CounterReport", "PerfSession"),
    ".runner": (
        "PairFailure", "ResultCache", "RunManifest", "SuiteRunner",
        "SuiteRunResult",
    ),
    ".workloads": (
        "BenchmarkSuite", "InputSize", "MiniSuite", "WorkloadProfile",
        "cpu2006", "cpu2017",
    ),
}, fallback=_deprecated_api_name)
