"""API-surface tests: the documented entry points exist and are exported.

Guards against accidental breakage of the public names the README and
docs/api.md promise.
"""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", [
        "cpu2017", "cpu2006", "PerfSession", "CounterReport",
        "SystemConfig", "CacheConfig", "PipelineConfig",
        "haswell_e5_2650l_v3", "get_config",
        "InputSize", "MiniSuite", "WorkloadProfile", "BenchmarkSuite",
        "ReproError", "ConfigError", "WorkloadError", "SimulationError",
        "CounterError", "CollectionError", "AnalysisError",
        "ClusteringError", "ExperimentError", "UnknownBenchmarkError",
        "SuiteRunner", "SuiteRunResult", "ResultCache", "RunManifest",
        "PairFailure",
    ])
    def test_name_exported(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


@pytest.mark.parametrize("module,names", [
    ("repro.uarch", ["Cache", "MemoryHierarchy", "SimulatedCore",
                     "InOrderCore", "PipelineModel", "FootprintTracker",
                     "make_predictor", "make_policy"]),
    ("repro.stats", ["PCA", "AgglomerativeClustering", "Dendrogram",
                     "pareto_front", "knee_point", "pearson", "sse",
                     "factor_loadings", "standardize"]),
    ("repro.stats.kmeans", ["KMeans", "choose_k", "bic_score",
                            "silhouette_score"]),
    ("repro.stats.rank", ["spearman_rho", "kendall_tau"]),
    ("repro.core", ["Characterizer", "SubsetSelector", "compare_suites",
                    "summarize_by_suite_and_size", "feature_matrix",
                    "FEATURE_NAMES", "validate_subset",
                    "input_size_similarity", "PairMetrics"]),
    ("repro.core.rank", ["DesignRanker", "candidate_configs"]),
    ("repro.phases", ["PhasedWorkload", "Schedule", "make_phases",
                      "PhasedTraceGenerator", "PhaseDetector",
                      "estimate_from_simulation_points",
                      "interval_signatures", "slice_trace"]),
    ("repro.perf", ["PerfSession", "CounterReport", "ALL_COUNTERS",
                    "describe"]),
    ("repro.runner", ["SuiteRunner", "SuiteRunResult", "ResultCache",
                      "RunManifest", "PairFailure", "PairRecord",
                      "default_cache_dir", "content_hash"]),
    ("repro.reports", ["run_experiment", "list_experiments",
                       "ExperimentContext", "ExperimentResult",
                       "format_table", "EXPERIMENT_IDS"]),
    ("repro.reports.export", ["export_result", "export_all"]),
])
def test_module_exports(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), "%s missing %s" % (module, name)


class TestApiFacade:
    """repro.api is the stable surface: complete, explicit, warning-free."""

    REQUIRED = [
        # The facade contract from the API redesign: every documented
        # entry point importable from one place.
        "SuiteRunner", "PerfSession", "Characterizer", "SubsetSelector",
        "SimulatedCore", "TraceGenerator", "cpu2017", "cpu2006",
        "InputSize", "get_config", "haswell_e5_2650l_v3", "SystemConfig",
        "CacheConfig", "PipelineConfig", "Tracer",
        "obs", "WorkloadProfile", "CounterReport", "ResultCache",
        "solve_pipeline_params", "feature_vector", "ReproError",
    ]

    @pytest.mark.parametrize("name", REQUIRED)
    def test_required_name_in_facade(self, name):
        from repro import api

        assert name in api.__all__
        assert getattr(api, name) is not None

    def test_all_is_complete_and_sorted_per_group(self):
        from repro import api

        # Every __all__ name resolves; no dangling exports.
        for name in api.__all__:
            assert hasattr(api, name), "repro.api.__all__ lists %s" % name
        assert len(api.__all__) == len(set(api.__all__))

    def test_facade_covers_top_level_surface(self):
        # The facade must be a superset of the historical top-level
        # exports (minus the version dunder) — no regressions for code
        # migrating from `import repro` to `from repro.api import ...`.
        from repro import api

        legacy = set(repro.__all__) - {"__version__"}
        assert legacy <= set(api.__all__)

    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro.api import *", namespace)
        from repro import api

        exported = {name for name in namespace if not name.startswith("_")}
        assert exported == set(api.__all__)

    def test_facade_import_emits_no_warnings(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", "import repro.api"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stderr


class TestSweepSettings:
    """A sweep's settings are its config, sample and placement: the
    engine is the code's choice, the settings only tests set are gone,
    and so is the metrics registry the drift watchdog could feed.
    Passing one is a plain TypeError, with nothing turned on."""

    @pytest.mark.parametrize("target,keyword", [
        ("SuiteRunner", "engine"),
        ("SuiteRunner", "warmup_fraction"),
        ("SuiteRunner", "retries"),
        ("SuiteRunner", "progress"),
        ("SuiteRunner", "cache"),
        ("SuiteRunner", "ledger"),
        ("SuiteRunner", "ledger_path"),
        ("PerfSession", "engine"),
        ("PerfSession", "warmup_fraction"),
        ("SimulatedCore", "engine"),
        ("SimulatedCore", "predictor"),
        ("obs.enable", "capacity"),
        ("obs.enable", "metrics"),
        ("DriftDetector", "registry"),
        ("check_ledger", "registry"),
    ])
    def test_removed_setting_is_a_type_error(self, target, keyword):
        from repro import api

        call = {
            "SuiteRunner": api.SuiteRunner,
            "PerfSession": api.PerfSession,
            "SimulatedCore": lambda **kwargs: api.SimulatedCore(
                api.haswell_e5_2650l_v3(), **kwargs
            ),
            "obs.enable": api.obs.enable,
            "DriftDetector": api.DriftDetector,
            # The keyword is rejected before the ledger is read.
            "check_ledger": lambda **kwargs: api.check_ledger(
                api.RunLedger(path="unread.jsonl"), **kwargs
            ),
        }[target]
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: None})
        assert not api.obs.enabled()


class TestDeprecationBridge:
    """Top-level access to facade-only names works but warns."""

    def test_facade_only_name_warns(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro import api

            assert repro.Characterizer is api.Characterizer
        messages = [
            str(w.message) for w in caught
            if issubclass(w.category, DeprecationWarning)
        ]
        assert any("repro.api" in message for message in messages)

    def test_stable_top_level_names_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.PerfSession is not None
            assert repro.SuiteRunner is not None

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_name


class TestDeterminismSentinel:
    """One stable fingerprint: if this moves, generated behavior changed
    (deliberate changes should update the expected value knowingly)."""

    def test_trace_fingerprint_is_stable_within_session(self, config, suite17):
        import hashlib

        import numpy as np

        from repro.workloads.generator import TraceGenerator
        from repro.workloads.profile import InputSize

        profile = suite17.get("505.mcf_r").profile(InputSize.REF)
        generator = TraceGenerator(config)
        digests = set()
        for _ in range(3):
            trace = generator.generate(profile, n_ops=4_000)
            blob = b"".join([
                np.ascontiguousarray(trace.kind).tobytes(),
                np.ascontiguousarray(trace.addr).tobytes(),
                np.ascontiguousarray(trace.taken).tobytes(),
            ])
            digests.add(hashlib.sha256(blob).hexdigest())
        assert len(digests) == 1
