"""Microarchitecture simulation substrate.

Stands in for the paper's Haswell Xeon E5-2650L v3: a set-associative
multi-level cache hierarchy, a family of branch predictors, a footprint
tracker, and an interval-analysis pipeline model, all parameterized by
:class:`repro.config.SystemConfig`.
"""

from ..lazy import attach

__all__ = [
    "AccessResult",
    "BimodalPredictor",
    "BranchPredictor",
    "Cache",
    "CacheStats",
    "CoreResult",
    "CPIBreakdown",
    "CycleResult",
    "ENGINES",
    "EngineMeasurement",
    "execute_vector",
    "unsupported_reason",
    "InOrderCore",
    "FootprintEstimate",
    "FootprintTracker",
    "GSharePredictor",
    "HierarchyStats",
    "MemoryHierarchy",
    "PipelineModel",
    "PredictorStats",
    "SimulatedCore",
    "StaticTakenPredictor",
    "TournamentPredictor",
    "TwoLevelPredictor",
    "make_policy",
    "make_predictor",
]

__getattr__, __dir__ = attach(globals(), {
    ".cache": ("Cache", "CacheStats"),
    ".hierarchy": ("AccessResult", "HierarchyStats", "MemoryHierarchy"),
    ".branch": (
        "BimodalPredictor", "BranchPredictor", "GSharePredictor",
        "PredictorStats", "StaticTakenPredictor", "TournamentPredictor",
        "TwoLevelPredictor", "make_predictor",
    ),
    ".pipeline": ("CPIBreakdown", "PipelineModel"),
    ".memory": ("FootprintEstimate", "FootprintTracker"),
    ".core": ("ENGINES", "CoreResult", "SimulatedCore"),
    ".vector": ("EngineMeasurement", "execute_vector", "unsupported_reason"),
    ".cycle_core": ("CycleResult", "InOrderCore"),
    ".replacement": ("make_policy",),
})
