"""Experiment registry: every table and figure of the paper.

Each experiment has a stable id (``table1``..``table10``, ``fig1``..
``fig10``).  :func:`run_experiment` regenerates the artifact on the
simulated substrate and reports paper-reference values next to the measured
ones wherever the paper states a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..core.aggregate import summarize_by_suite_and_size
from ..core.characterize import Characterizer
from ..core.compare import compare_suites
from ..core.features import FEATURE_NAMES
from ..core.metrics import PairMetrics
from ..core.subset import SubsetResult, SubsetSelector
from ..errors import ExperimentError
from ..runner import SuiteRunner
from ..stats.factor import factor_loadings
from ..workloads.profile import InputSize, MiniSuite
from ..workloads.spec2006 import cpu2006
from ..workloads.spec2017 import cpu2017
from . import figures
from .tables import format_table


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one reproduced experiment."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        parts = ["[%s] %s" % (self.exp_id, self.title), "", self.text]
        if self.notes:
            parts += ["", "Notes:", self.notes]
        return "\n".join(parts)


class ExperimentContext:
    """Shared state for a batch of experiments.

    Builds the characterizer, both suite registries, and the subset
    selector exactly once, so running all twenty experiments costs a single
    194-pair characterization pass.  That pass goes through ``runner``
    (its pool and result cache), or the characterizer's inline,
    uncached default runner when none is given.
    """

    def __init__(self, runner: Optional[SuiteRunner] = None):
        self.characterizer = Characterizer(runner=runner)
        self.runner = self.characterizer.runner
        self.selector = SubsetSelector(self.characterizer)
        self.suite17 = cpu2017()
        self.suite06 = cpu2006()
        self._cache: Dict[str, object] = {}

    # -- cached heavy intermediates ---------------------------------------
    def all_metrics17(self) -> List[PairMetrics]:
        if "all17" not in self._cache:
            self._cache["all17"] = self.characterizer.characterize(
                self.suite17, size=None
            )
        return self._cache["all17"]

    def app_means17(self) -> List[PairMetrics]:
        if "means17" not in self._cache:
            self._cache["means17"] = self.characterizer.benchmark_means(self.suite17)
        return self._cache["means17"]

    def app_means06(self) -> List[PairMetrics]:
        if "means06" not in self._cache:
            self._cache["means06"] = self.characterizer.benchmark_means(self.suite06)
        return self._cache["means06"]

    def group_means(self, group: str) -> List[PairMetrics]:
        key = "group:" + group
        if key not in self._cache:
            minis = {
                "rate": (MiniSuite.RATE_INT, MiniSuite.RATE_FP),
                "speed": (MiniSuite.SPEED_INT, MiniSuite.SPEED_FP),
            }[group]
            means: List[PairMetrics] = []
            for mini in minis:
                means.extend(
                    m
                    for m in self.characterizer.characterize(
                        self.suite17, size=InputSize.REF, mini_suite=mini
                    )
                )
            self._cache[key] = sorted(means, key=lambda m: m.pair_name)
        return self._cache[key]

    def subset(self, group: str) -> SubsetResult:
        key = "subset:" + group
        if key not in self._cache:
            self._cache[key] = self.selector.select(self.suite17, group)
        return self._cache[key]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _table1(ctx: ExperimentContext) -> ExperimentResult:
    config = ctx.runner.config
    rows = config.table1_rows()
    text = format_table(["Component", "Configuration"], rows, align="ll")
    return ExperimentResult(
        "table1",
        "Experimental system configuration",
        text,
        data={"rows": rows},
        notes="Matches the paper's Table I (L3 modeled 15-way so the set "
              "count stays a power of two at 30 MB).",
    )


#: Paper Table II reference values: (suite, size) -> (instr_e9, ipc, time).
_TABLE2_PAPER = {
    ("rate_int", "test"): (76.922, 1.716, 18.250),
    ("rate_int", "train"): (230.553, 1.765, 75.660),
    ("rate_int", "ref"): (1751.516, 1.724, 573.627),
    ("rate_fp", "test"): (47.431, 1.692, 15.445),
    ("rate_fp", "train"): (357.233, 1.651, 114.034),
    ("rate_fp", "ref"): (2291.092, 1.635, 795.579),
    ("speed_int", "test"): (77.078, 1.698, 18.396),
    ("speed_int", "train"): (232.961, 1.739, 77.438),
    ("speed_int", "ref"): (2265.182, 1.635, 670.742),
    ("speed_fp", "test"): (58.825, 0.681, 4.510),
    ("speed_fp", "train"): (477.316, 0.710, 37.366),
    ("speed_fp", "ref"): (21880.115, 0.706, 670.972),
}


def _table2(ctx: ExperimentContext) -> ExperimentResult:
    summaries = summarize_by_suite_and_size(ctx.all_metrics17())
    rows = []
    for s in summaries:
        paper = _TABLE2_PAPER[(s.suite.value, s.input_size.value)]
        rows.append(
            (
                s.suite.value,
                s.input_size.value,
                "%.1f" % s.instructions_e9,
                "%.3f" % s.ipc,
                "%.1f" % s.time_seconds,
                "%.1f / %.3f / %.1f" % paper,
            )
        )
    text = format_table(
        ["Suite", "Input", "Instr (1e9)", "IPC", "Time (s)",
         "Paper (instr/ipc/time)"],
        rows,
    )
    return ExperimentResult(
        "table2",
        "Average performance characteristics per mini-suite and input size",
        text,
        data={"summaries": summaries},
        notes="Shape checks: instruction count and time grow test->ref; "
              "speed-fp IPC collapses vs rate-fp; speed instruction counts "
              "exceed rate.",
    )


#: Comparison-table configuration: id -> (title, [(metric, paper rows)]).
_PAPER_COMPARE = {
    "table3": (
        "IPC comparison of CPU17 and CPU06",
        [("ipc", {"CPU06 int": (1.762, 0.707), "CPU17 int": (1.679, 0.640),
                  "CPU06 fp": (1.815, 0.706), "CPU17 fp": (1.255, 0.636),
                  "CPU06 all": (1.784, 0.707), "CPU17 all": (1.457, 0.672)})],
    ),
    "table4": (
        "Instruction-mix comparison of CPU17 and CPU06",
        [
            ("load_pct", {"CPU06 int": (26.234, 4.032), "CPU17 int": (24.390, 2.882),
                          "CPU06 fp": (23.683, 4.625), "CPU17 fp": (26.187, 6.190),
                          "CPU06 all": (24.739, 4.566), "CPU17 all": (25.331, 4.983)}),
            ("store_pct", {"CPU06 int": (10.311, 3.534), "CPU17 int": (10.341, 3.444),
                           "CPU06 fp": (7.176, 3.342), "CPU17 fp": (7.136, 3.346),
                           "CPU06 all": (8.473, 3.755), "CPU17 all": (8.662, 3.751)}),
            ("branch_pct", {"CPU06 int": (19.055, 6.526), "CPU17 int": (18.735, 7.168),
                            "CPU06 fp": (10.805, 7.165), "CPU17 fp": (11.114, 6.475),
                            "CPU06 all": (14.219, 8.014), "CPU17 all": (14.743, 7.804)}),
        ],
    ),
    "table5": (
        "RSS and VSZ comparison of CPU17 and CPU06",
        [
            ("rss_gib", {"CPU06 int": (0.391, 0.454), "CPU17 int": (1.684, 3.073),
                         "CPU06 fp": (0.366, 0.342), "CPU17 fp": (2.297, 3.434),
                         "CPU06 all": (0.376, 0.393), "CPU17 all": (1.998, 3.278)}),
            ("vsz_gib", {"CPU06 int": (0.399, 0.453), "CPU17 int": (1.899, 3.658),
                         "CPU06 fp": (0.491, 0.400), "CPU17 fp": (2.856, 3.755),
                         "CPU06 all": (0.452, 0.426), "CPU17 all": (2.389, 3.739)}),
        ],
    ),
    "table6": (
        "Cache miss-rate comparison of CPU17 and CPU06",
        [
            ("l1_miss_pct", {"CPU06 int": (4.129, 6.390), "CPU17 int": (3.865, 4.489),
                             "CPU06 fp": (2.533, 1.521), "CPU17 fp": (3.023, 4.703),
                             "CPU06 all": (3.193, 4.344), "CPU17 all": (3.424, 4.622)}),
            ("l2_miss_pct", {"CPU06 int": (40.854, 19.760), "CPU17 int": (38.614, 20.820),
                             "CPU06 fp": (31.914, 20.227), "CPU17 fp": (26.971, 18.660),
                             "CPU06 all": (35.746, 20.511), "CPU17 all": (32.515, 20.557)}),
            ("l3_miss_pct", {"CPU06 int": (12.152, 15.044), "CPU17 int": (15.298, 19.456),
                             "CPU06 fp": (14.041, 16.332), "CPU17 fp": (13.146, 12.638),
                             "CPU06 all": (13.259, 15.839), "CPU17 all": (14.171, 16.281)}),
        ],
    ),
    "table7": (
        "Branch-mispredict comparison of CPU17 and CPU06",
        [("mispredict_pct", {"CPU06 int": (2.393, 2.505), "CPU17 int": (3.310, 2.441),
                             "CPU06 fp": (1.971, 1.653), "CPU17 fp": (1.188, 1.202),
                             "CPU06 all": (2.145, 2.060), "CPU17 all": (2.198, 2.172)})],
    ),
}


def _comparison(exp_id: str) -> Callable[[ExperimentContext], ExperimentResult]:
    title, blocks = _PAPER_COMPARE[exp_id]

    def build(ctx: ExperimentContext) -> ExperimentResult:
        m17, m06 = ctx.app_means17(), ctx.app_means06()
        rows: List[Tuple] = []
        comparisons = {}
        for metric, paper in blocks:
            comparison = compare_suites(m17, m06, metric)
            comparisons[metric] = comparison
            for row in comparison.rows:
                paper_mean, paper_std = paper[row.label]
                rows.append(
                    (
                        metric,
                        row.label,
                        "%.3f" % row.mean,
                        "%.3f" % row.std,
                        "%.3f" % paper_mean,
                        "%.3f" % paper_std,
                    )
                )
        text = format_table(
            ["Metric", "Suite", "Mean", "Std", "Paper mean", "Paper std"],
            rows,
            align="llrrrr",
        )
        return ExperimentResult(
            exp_id, title, text, data={"comparisons": comparisons}
        )

    return build


def _table8(ctx: ExperimentContext) -> ExperimentResult:
    rows = [(i + 1, name) for i, name in enumerate(FEATURE_NAMES)]
    text = format_table(["#", "Characteristic"], rows, align="rl")
    return ExperimentResult(
        "table8",
        "The 20 microarchitecture-independent PCA characteristics",
        text,
        data={"features": list(FEATURE_NAMES)},
        notes="Identical list to the paper's Table VIII.",
    )


#: Paper Table IX reference (603.bwaves_s in1/in2 vs 607.cactuBSSN_s).
_TABLE9_PAPER = {
    "603.bwaves_s-in1/ref": (48788.718, 27.545, 4.982, 13.416, 11.677, 12.078),
    "603.bwaves_s-in2/ref": (50116.477, 27.320, 5.015, 13.497, 11.750, 12.145),
    "607.cactuBSSN_s/ref": (10616.666, 33.536, 7.610, 3.734, 6.885, 7.287),
}


def _table9(ctx: ExperimentContext) -> ExperimentResult:
    profiles = {
        name: ctx.suite17.find_pair(name).profile for name in _TABLE9_PAPER
    }
    ctx.characterizer.collect(list(profiles.values()))
    rows = []
    measured = {}
    for pair_name, paper in _TABLE9_PAPER.items():
        m = ctx.characterizer.metrics(profiles[pair_name])
        measured[pair_name] = m
        rows.append(
            (
                pair_name,
                "%.1f (%.1f)" % (m.instructions_e9, paper[0]),
                "%.2f (%.2f)" % (m.load_pct, paper[1]),
                "%.2f (%.2f)" % (m.store_pct, paper[2]),
                "%.2f (%.2f)" % (m.branch_pct, paper[3]),
                "%.2f (%.2f)" % (m.rss_gib, paper[4]),
                "%.2f (%.2f)" % (m.vsz_gib, paper[5]),
            )
        )
    text = format_table(
        ["Pair", "Instr 1e9 (paper)", "%Loads", "%Stores", "%Branches",
         "RSS GiB", "VSZ GiB"],
        rows,
        align="lrrrrrr",
    )
    return ExperimentResult(
        "table9",
        "Validating PC clustering on three sample pairs",
        text,
        data={"measured": measured},
        notes="bwaves_s in1/in2 must be near-identical and both far from "
              "cactuBSSN_s; verified further by fig7/fig9.",
    )


def _table10(ctx: ExperimentContext) -> ExperimentResult:
    rows = []
    data = {}
    paper = {"rate": (12, 8232.709, 57.116), "speed": (10, 5885.485, 62.052)}
    for group in ("rate", "speed"):
        result = ctx.subset(group)
        data[group] = result
        k_paper, time_paper, saving_paper = paper[group]
        rows.append(
            (
                group,
                result.n_clusters,
                "%.1f" % result.subset_time_seconds,
                "%.2f%%" % result.saving_pct,
                "%d / %.1f / %.2f%%" % (k_paper, time_paper, saving_paper),
                ", ".join(
                    name.replace("/ref", "") for name in result.selected
                ),
            )
        )
    text = format_table(
        ["Suite", "k", "Subset time (s)", "Saving", "Paper (k/time/saving)",
         "Selected pairs"],
        rows,
        align="lrrrrl",
    )
    return ExperimentResult(
        "table10",
        "Suggested representative subset of the CPU2017 suite",
        text,
        data=data,
        notes="Exact membership depends on the synthetic substrate; the "
              "shape targets are the cluster counts (~12 rate / ~10 speed) "
              "and time savings in the 55-70% band.",
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def _figure(exp_id: str) -> Callable[[ExperimentContext], ExperimentResult]:
    builders = {
        "fig1": (figures.figure_ipc, "Per-application IPC"),
        "fig2": (figures.figure_memory_ops, "Memory micro-op breakdown"),
        "fig3": (figures.figure_branches, "Branch characteristics"),
        "fig4": (figures.figure_footprint, "Memory footprint"),
        "fig5": (figures.figure_cache, "Cache miss rates"),
        "fig6": (figures.figure_mispredicts, "Branch mispredict rates"),
    }
    builder, title = builders[exp_id]

    def build(ctx: ExperimentContext) -> ExperimentResult:
        figure = builder(ctx.group_means("rate"), ctx.group_means("speed"))
        return ExperimentResult(
            exp_id, title, figure.text, data={"figure": figure}
        )

    return build


def _fig7(ctx: ExperimentContext) -> ExperimentResult:
    result, labels = ctx.selector.pca(ctx.suite17)
    ref_rows = [i for i, label in enumerate(labels) if label.endswith("/ref")]
    figure = figures.figure_pc_scatter(result, labels, ref_rows)
    variance = ctx.selector.variance_captured(ctx.suite17)
    return ExperimentResult(
        "fig7",
        "Scatter of application-input pairs in PC space",
        figure.text,
        data={"figure": figure, "pca": result, "labels": labels},
        notes="First 4 PCs capture %.1f%% of total variance "
              "(paper: 76.321%%)." % (100.0 * variance),
    )


def _fig8(ctx: ExperimentContext) -> ExperimentResult:
    result, _ = ctx.selector.pca(ctx.suite17)
    loadings = factor_loadings(result, FEATURE_NAMES)
    figure = figures.figure_factor_loadings(loadings)
    return ExperimentResult(
        "fig8",
        "Factor loadings of the 20 characteristics",
        figure.text,
        data={"figure": figure, "loadings": loadings},
        notes="Paper shape: PC1 dominated by raw counts (instructions, "
              "memory uops, branches); PC4 dominated by footprint.",
    )


def _fig9(ctx: ExperimentContext) -> ExperimentResult:
    figure = figures.figure_dendrograms(ctx.subset("rate"), ctx.subset("speed"))
    return ExperimentResult(
        "fig9",
        "Dendrograms of the rate and speed mini-suites",
        figure.text,
        data={"figure": figure},
        notes="Shape target: 603.bwaves_s-in1/-in2 merge first among the "
              "speed pairs (paper: clustered in the first iteration).",
    )


def _fig10(ctx: ExperimentContext) -> ExperimentResult:
    figure = figures.figure_pareto(ctx.subset("rate"), ctx.subset("speed"))
    return ExperimentResult(
        "fig10",
        "Pareto-optimal cluster sizes",
        figure.text,
        data={"figure": figure,
              "rate": ctx.subset("rate"), "speed": ctx.subset("speed")},
        notes="Paper picks 12 (rate) and 10 (speed) clusters.",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Tuple[str, Callable[[ExperimentContext], ExperimentResult]]] = {
    "table1": ("System configuration (Table I)", _table1),
    "table2": ("Average performance characteristics (Table II)", _table2),
    "table3": ("IPC comparison (Table III)", _comparison("table3")),
    "table4": ("Instruction-mix comparison (Table IV)", _comparison("table4")),
    "table5": ("RSS/VSZ comparison (Table V)", _comparison("table5")),
    "table6": ("Cache miss-rate comparison (Table VI)", _comparison("table6")),
    "table7": ("Branch-mispredict comparison (Table VII)", _comparison("table7")),
    "table8": ("PCA characteristics (Table VIII)", _table8),
    "table9": ("PC-clustering validation (Table IX)", _table9),
    "table10": ("Suggested subset (Table X)", _table10),
    "fig1": ("Per-application IPC (Fig. 1)", _figure("fig1")),
    "fig2": ("Memory micro-op breakdown (Fig. 2)", _figure("fig2")),
    "fig3": ("Branch characteristics (Fig. 3)", _figure("fig3")),
    "fig4": ("Memory footprint (Fig. 4)", _figure("fig4")),
    "fig5": ("Cache miss rates (Fig. 5)", _figure("fig5")),
    "fig6": ("Branch mispredict rates (Fig. 6)", _figure("fig6")),
    "fig7": ("PC scatter (Fig. 7)", _fig7),
    "fig8": ("Factor loadings (Fig. 8)", _fig8),
    "fig9": ("Dendrograms (Fig. 9)", _fig9),
    "fig10": ("Pareto-optimal cluster sizes (Fig. 10)", _fig10),
}

EXPERIMENT_IDS: Tuple[str, ...] = tuple(_REGISTRY)


def list_experiments() -> List[Tuple[str, str]]:
    """(id, title) for every registered experiment."""
    return [(exp_id, title) for exp_id, (title, _) in _REGISTRY.items()]


@lru_cache(maxsize=1)
def default_context() -> ExperimentContext:
    """A process-wide shared context (one characterization pass)."""
    return ExperimentContext()


def run_experiment(
    exp_id: str, ctx: Optional[ExperimentContext] = None
) -> ExperimentResult:
    """Regenerate one table or figure."""
    try:
        _, build = _REGISTRY[exp_id]
    except KeyError:
        raise ExperimentError(
            "unknown experiment %r (valid: %s)" % (exp_id, ", ".join(_REGISTRY))
        ) from None
    return build(ctx or default_context())
