"""Microarchitecture simulation substrate.

Stands in for the paper's Haswell Xeon E5-2650L v3: a set-associative
multi-level cache hierarchy, a family of branch predictors, a footprint
tracker, and an interval-analysis pipeline model, all parameterized by
:class:`repro.config.SystemConfig`.
"""

from .cache import Cache, CacheStats
from .hierarchy import AccessResult, HierarchyStats, MemoryHierarchy
from .branch import (
    BimodalPredictor,
    BranchPredictor,
    GSharePredictor,
    PredictorStats,
    StaticTakenPredictor,
    TournamentPredictor,
    TwoLevelPredictor,
    make_predictor,
)
from .pipeline import CPIBreakdown, PipelineModel
from .memory import FootprintEstimate, FootprintTracker
from .core import ENGINES, CoreResult, SimulatedCore
from .vector import EngineMeasurement, execute_vector, unsupported_reason
from .cycle_core import CycleResult, InOrderCore
from .replacement import make_policy

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
