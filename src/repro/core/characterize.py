"""Suite characterization: run every pair, collect metrics.

A :class:`Characterizer` collects through a
:class:`~repro.runner.SuiteRunner` and memoizes per-pair reports, so the
ten tables/figures that all consume the same 194-pair characterization
share a single simulation pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import CollectionError, SimulationError
from ..perf.report import CounterReport
from ..workloads.profile import InputSize, MiniSuite, WorkloadProfile
from ..workloads.suite import BenchmarkSuite
from .metrics import PairMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runner import SuiteRunner


class Characterizer:
    """Characterizes benchmark suites on one system configuration.

    Args:
        strict_errors: Record the paper's five collection failures as
            :class:`~repro.errors.CollectionError` instead of collecting
            model counters for those pairs.
        runner: The :class:`~repro.runner.SuiteRunner` to collect with;
            its config and sample parameters are the characterization's.
            Default: an inline runner on the Table-I config with no
            cache and no ledger.
    """

    def __init__(
        self,
        strict_errors: bool = False,
        runner: Optional["SuiteRunner"] = None,
    ):
        if runner is None:
            from ..runner import SuiteRunner

            runner = SuiteRunner(workers=1, use_cache=False, use_ledger=False)
        self.runner = runner
        self.strict_errors = strict_errors
        self._reports: Dict[str, CounterReport] = {}
        self._failures: Dict[str, CollectionError] = {}

    @property
    def failures(self) -> Tuple[str, ...]:
        """Pair names whose collection failed (strict mode only)."""
        return tuple(sorted(self._failures))

    def report(self, profile: WorkloadProfile) -> CounterReport:
        """The (memoized) counter report of one pair."""
        key = profile.pair_name
        if key not in self._reports and key not in self._failures:
            self.collect([profile])
        if key in self._failures:
            raise self._failures[key]
        return self._reports[key]

    def metrics(self, profile: WorkloadProfile) -> PairMetrics:
        """The derived metrics of one pair."""
        return PairMetrics.from_report(self.report(profile))

    def characterize(
        self,
        suite: BenchmarkSuite,
        size: Optional[InputSize] = InputSize.REF,
        mini_suite: Optional[MiniSuite] = None,
        skip_failures: bool = True,
    ) -> List[PairMetrics]:
        """Characterize every pair of a suite.

        Args:
            suite: The benchmark registry to characterize.
            size: One input size, or None for all three.
            mini_suite: Restrict to one mini-suite.
            skip_failures: In strict mode, drop failing pairs (mirroring
                the paper) instead of raising.
        """
        pairs = suite.pairs(size=size, suite=mini_suite)
        self.collect([pair.profile for pair in pairs])
        results: List[PairMetrics] = []
        for pair in pairs:
            try:
                results.append(self.metrics(pair.profile))
            except CollectionError:
                if not skip_failures:
                    raise
        return results

    def collect(self, profiles: List[WorkloadProfile]) -> None:
        """Characterize not-yet-memoized profiles in one runner call."""
        missing = [
            profile
            for profile in profiles
            if profile.pair_name not in self._reports
            and profile.pair_name not in self._failures
        ]
        if not missing:
            return
        run = self.runner.run(missing, strict_errors=self.strict_errors)
        self._reports.update(run.reports)
        hard = []
        for failure in run.failures:
            if failure.error_type == "CollectionError":
                self._failures[failure.pair_name] = CollectionError(
                    failure.pair_name, failure.message
                )
            else:
                hard.append(failure)
        if hard:
            # Anything other than a modeled collection failure means the
            # simulation itself broke; surface it instead of silently
            # dropping pairs from the characterization.
            raise SimulationError(
                "suite run failed for %d pair(s): %s"
                % (
                    len(hard),
                    "; ".join(
                        "%s (%s: %s)" % (f.pair_name, f.error_type, f.message)
                        for f in hard[:3]
                    ),
                )
            )

    def benchmark_means(
        self,
        suite: BenchmarkSuite,
        size: InputSize = InputSize.REF,
        mini_suite: Optional[MiniSuite] = None,
    ) -> List[PairMetrics]:
        """Per-application metrics with multi-input pairs averaged.

        The paper reports per-application numbers as the average of
        hardware counters "across all the inputs"; this helper produces
        that view (one :class:`PairMetrics` per application, with
        ``input_name`` cleared on averaged entries).
        """
        grouped: Dict[str, List[PairMetrics]] = {}
        for metric in self.characterize(suite, size=size, mini_suite=mini_suite):
            grouped.setdefault(metric.benchmark, []).append(metric)

        def average(group: List[PairMetrics]) -> PairMetrics:
            if len(group) == 1:
                return group[0]
            n = len(group)

            def mean(attr: str) -> float:
                return sum(getattr(m, attr) for m in group) / n

            subtype = tuple(
                sum(m.branch_subtype_pct[i] for m in group) / n for i in range(5)
            )
            first = group[0]
            return PairMetrics(
                pair_name="%s/%s" % (first.benchmark, first.input_size.value),
                benchmark=first.benchmark,
                input_name="",
                suite=first.suite,
                input_size=first.input_size,
                instructions=mean("instructions"),
                ipc=mean("ipc"),
                time_seconds=mean("time_seconds"),
                load_pct=mean("load_pct"),
                store_pct=mean("store_pct"),
                branch_pct=mean("branch_pct"),
                branch_subtype_pct=subtype,
                l1_miss_pct=mean("l1_miss_pct"),
                l2_miss_pct=mean("l2_miss_pct"),
                l3_miss_pct=mean("l3_miss_pct"),
                mispredict_pct=mean("mispredict_pct"),
                rss_bytes=mean("rss_bytes"),
                vsz_bytes=mean("vsz_bytes"),
                collection_error=any(m.collection_error for m in group),
            )

        ordered = sorted(grouped)
        return [average(grouped[name]) for name in ordered]
