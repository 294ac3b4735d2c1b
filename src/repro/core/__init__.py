"""The paper's primary contribution: the characterization methodology.

Per-pair characterization (:mod:`characterize`), mini-suite aggregation
(Table II, :mod:`aggregate`), CPU2017-vs-CPU2006 comparison (Tables III-VII,
:mod:`compare`), the 20 microarchitecture-independent characteristics of
Table VIII (:mod:`features`), and the redundancy/subsetting study of
Section V (:mod:`subset`).
"""

from ..lazy import attach

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

__getattr__, __dir__ = attach(globals(), {
    ".metrics": ("PairMetrics",),
    ".characterize": ("Characterizer",),
    ".aggregate": ("SuiteSizeSummary", "summarize_by_suite_and_size"),
    ".compare": ("ComparisonRow", "SuiteComparison", "compare_suites"),
    ".features": ("FEATURE_NAMES", "feature_matrix", "feature_vector"),
    ".sizes": (
        "SizeSimilarity", "input_size_similarity", "summarize_size_similarity",
    ),
    ".subset": ("SubsetResult", "SubsetSelector", "SweepPoint"),
    ".validate": ("MetricValidation", "SubsetValidation", "validate_subset"),
})
