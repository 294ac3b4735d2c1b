"""The paper's primary contribution: the characterization methodology.

Per-pair characterization (:mod:`characterize`), mini-suite aggregation
(Table II, :mod:`aggregate`), CPU2017-vs-CPU2006 comparison (Tables III-VII,
:mod:`compare`), the 20 microarchitecture-independent characteristics of
Table VIII (:mod:`features`), and the redundancy/subsetting study of
Section V (:mod:`subset`).
"""

from .metrics import PairMetrics
from .characterize import Characterizer
from .aggregate import SuiteSizeSummary, summarize_by_suite_and_size
from .compare import ComparisonRow, SuiteComparison, compare_suites
from .features import FEATURE_NAMES, feature_matrix, feature_vector
from .sizes import SizeSimilarity, input_size_similarity, summarize_size_similarity
from .subset import SubsetResult, SubsetSelector, SweepPoint
from .validate import MetricValidation, SubsetValidation, validate_subset

__all__ = [
    "Characterizer",
    "ComparisonRow",
    "FEATURE_NAMES",
    "MetricValidation",
    "PairMetrics",
    "SizeSimilarity",
    "SubsetValidation",
    "input_size_similarity",
    "summarize_size_similarity",
    "validate_subset",
    "SubsetResult",
    "SubsetSelector",
    "SuiteComparison",
    "SuiteSizeSummary",
    "SweepPoint",
    "compare_suites",
    "feature_matrix",
    "feature_vector",
    "summarize_by_suite_and_size",
]
