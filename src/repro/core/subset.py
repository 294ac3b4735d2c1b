"""Redundancy analysis and representative subsetting (paper Section V).

Methodology, exactly as the paper lays it out:

1. characterize all 194 application-input pairs on the 20
   microarchitecture-independent characteristics of Table VIII;
2. PCA the [194 x 20] matrix and keep the first ``n_components`` PCs;
3. agglomeratively cluster the ref-input pairs of the rate and speed
   suites (separately) on their PC coordinates;
4. sweep the cluster count k: clustering quality is the SSE around
   cluster centroids, subset cost is the summed execution time after
   keeping only the fastest pair of each cluster;
5. pick the Pareto-optimal knee of (SSE, time) and emit the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: F401

import numpy as np

from ..errors import AnalysisError
from ..stats.cluster import AgglomerativeClustering, ClusteringResult
from ..stats.dendrogram import Dendrogram
from ..stats.pareto import ParetoPoint, knee_point
from ..stats.pca import PCA, PCAResult
from ..workloads.profile import InputSize, MiniSuite
from ..workloads.suite import BenchmarkSuite
from .characterize import Characterizer
from .features import FEATURE_NAMES, feature_matrix
from .metrics import PairMetrics

#: Mini-suites belonging to each clustering group.
GROUPS: Dict[str, Tuple[MiniSuite, ...]] = {
    "rate": (MiniSuite.RATE_INT, MiniSuite.RATE_FP),
    "speed": (MiniSuite.SPEED_INT, MiniSuite.SPEED_FP),
}


@dataclass(frozen=True)
class SweepPoint:
    """Quality/cost of one candidate cluster count."""

    n_clusters: int
    sse: float
    subset_time_seconds: float


@dataclass(frozen=True)
class SubsetResult:
    """The suggested subset for one group (rate or speed)."""

    group: str
    n_clusters: int
    selected: Tuple[str, ...]            # pair names, SPEC-number order
    subset_time_seconds: float
    full_time_seconds: float
    sweep: Tuple[SweepPoint, ...]
    clustering: ClusteringResult
    pair_names: Tuple[str, ...]          # all clustered pairs, row order

    @property
    def saving_pct(self) -> float:
        """Execution-time saving vs running the full group (Table X)."""
        return 100.0 * (1.0 - self.subset_time_seconds / self.full_time_seconds)

    def dendrogram(self) -> Dendrogram:
        return Dendrogram.from_result(self.clustering, self.pair_names)


def sweep_points(
    scores: np.ndarray, times: np.ndarray, clustering: ClusteringResult
) -> List[SweepPoint]:
    """SSE and subset time of every cut of ``clustering``, k = 1..n.

    Cutting at k - 1 clusters applies one merge more than cutting at k,
    so the n cuts share only 2n - 1 distinct clusters.  Each cluster's
    SSE term and fastest run time are computed once, when the cluster
    forms, and each cut sums its clusters' terms in label order (by
    smallest member), the order :func:`~repro.stats.cluster.sse` and
    :meth:`~repro.stats.cluster.ClusteringResult.labels` use.  Every
    point therefore equals ``sse(scores, labels(k))`` and the per-k sum
    of each cluster's fastest time bit for bit.
    """
    n = clustering.n_points
    scores = np.asarray(scores, dtype=np.float64)
    members: Dict[int, List[int]] = {}
    terms: Dict[int, Tuple[float, float]] = {}

    def form(cluster: int, rows: List[int]) -> None:
        block = scores[rows]
        centroid = block.mean(axis=0)
        members[cluster] = rows
        terms[cluster] = (
            float(np.sum((block - centroid) ** 2)), float(times[rows].min())
        )

    for leaf in range(n):
        form(leaf, [leaf])
    points: List[SweepPoint] = []
    for step in range(n):
        if step:
            merge = clustering.merges[step - 1]
            form(n + step - 1, sorted(
                members.pop(merge.left) + members.pop(merge.right)
            ))
        ordered = sorted(members, key=lambda cluster: members[cluster][0])
        total = 0.0
        for cluster in ordered:
            total += terms[cluster][0]
        points.append(SweepPoint(
            n_clusters=n - step,
            sse=total,
            subset_time_seconds=sum(terms[cluster][1] for cluster in ordered),
        ))
    points.reverse()
    return points


class SubsetSelector:
    """Runs the Section-V pipeline end to end.

    Args:
        characterizer: Shared characterizer (so the 194-pair pass is reused).
        n_components: Retained principal components (paper: 4).
        linkage: Agglomeration rule for the hierarchical clustering.
    """

    def __init__(
        self,
        characterizer: Optional[Characterizer] = None,
        n_components: int = 4,
        linkage: str = "average",
    ):
        if n_components <= 0:
            raise AnalysisError("n_components must be positive")
        self.characterizer = characterizer or Characterizer()
        self.n_components = n_components
        self.linkage = linkage
        self._pca_cache: Dict[int, Tuple[PCAResult, List[str], PCA]] = {}

    # ------------------------------------------------------------------
    # PCA over all 194 pairs
    # ------------------------------------------------------------------
    def pca(self, suite: BenchmarkSuite) -> Tuple[PCAResult, List[str]]:
        """PCA of the full [all-pairs x 20] characteristics matrix."""
        key = id(suite)
        if key not in self._pca_cache:
            profiles = [pair.profile for pair in suite.pairs(size=None)]
            self.characterizer.collect(profiles)
            reports = [self.characterizer.report(p) for p in profiles]
            matrix, labels = feature_matrix(reports)
            pca = PCA(n_components=self.n_components)
            result = pca.fit_transform(matrix)
            self._pca_cache[key] = (result, labels, pca)
        result, labels, _ = self._pca_cache[key]
        return result, labels

    def pca_model(self, suite: BenchmarkSuite) -> PCA:
        """The fitted PCA model, for projecting external workloads into
        the suite's PC space (see examples/custom_workload.py)."""
        self.pca(suite)
        _, _, model = self._pca_cache[id(suite)]
        return model

    def variance_captured(self, suite: BenchmarkSuite) -> float:
        """Cumulative variance ratio of the retained PCs (paper: 76.321%)."""
        result, _ = self.pca(suite)
        return float(result.cumulative_variance_ratio()[-1])

    # ------------------------------------------------------------------
    # Group clustering and subsetting
    # ------------------------------------------------------------------
    def group_metrics(
        self, suite: BenchmarkSuite, group: str
    ) -> List[PairMetrics]:
        """One group's REF pairs (both of its mini-suites), by pair name."""
        try:
            suites = GROUPS[group]
        except KeyError:
            raise AnalysisError(
                "unknown group %r (valid: %s)" % (group, ", ".join(sorted(GROUPS)))
            ) from None
        metrics: List[PairMetrics] = []
        for mini in suites:
            metrics.extend(
                self.characterizer.characterize(
                    suite, size=InputSize.REF, mini_suite=mini
                )
            )
        metrics.sort(key=lambda m: m.pair_name)
        return metrics

    def group_scores(
        self, suite: BenchmarkSuite, group: str
    ) -> Tuple[np.ndarray, List[PairMetrics]]:
        """PC coordinates (ref pairs only) of one group."""
        result, labels = self.pca(suite)
        index = {label: i for i, label in enumerate(labels)}
        metrics = self.group_metrics(suite, group)
        rows = [index[m.pair_name] for m in metrics]
        return result.scores[rows], metrics

    def cluster(self, suite: BenchmarkSuite, group: str) -> ClusteringResult:
        """Hierarchical clustering of one group's ref pairs (Fig. 9)."""
        scores, _ = self.group_scores(suite, group)
        return AgglomerativeClustering(linkage=self.linkage).fit(scores)

    def sweep(self, suite: BenchmarkSuite, group: str) -> List[SweepPoint]:
        """SSE and subset time for every candidate cluster count (Fig. 10)."""
        return self._fit_and_sweep(suite, group)[3]

    def _fit_and_sweep(self, suite: BenchmarkSuite, group: str) -> Tuple[
        List[PairMetrics], np.ndarray, ClusteringResult, List[SweepPoint]
    ]:
        """One group's metrics, run times, clustering and sweep, each
        derived once for :meth:`sweep` and :meth:`select` alike."""
        scores, metrics = self.group_scores(suite, group)
        clustering = AgglomerativeClustering(linkage=self.linkage).fit(scores)
        times = np.asarray([m.time_seconds for m in metrics])
        return metrics, times, clustering, sweep_points(scores, times, clustering)

    @staticmethod
    def choose_clusters(
        sweep: Sequence[SweepPoint],
        method: str = "sse_threshold",
        sse_threshold: float = 0.02,
    ) -> int:
        """Pick the Pareto-optimal cluster count from a sweep.

        The paper picks "the Pareto-optimal solution for the SSE and
        execution time" without pinning down the rule; two readings are
        implemented:

        * ``"sse_threshold"`` (default) — the smallest k whose clustering
          retains at least ``1 - sse_threshold`` of the SSE reduction
          relative to a single cluster (the elbow rule).  This is the most
          time-saving point whose clusters are still tight.
        * ``"knee"`` — the point of the (SSE, time) Pareto front closest to
          the normalized ideal corner.
        """
        if method == "knee":
            knee = knee_point(
                [
                    ParetoPoint(key=p.n_clusters, x=p.sse, y=p.subset_time_seconds)
                    for p in sweep
                ]
            )
            return knee.key
        if method == "sse_threshold":
            if not 0.0 < sse_threshold < 1.0:
                raise AnalysisError("sse_threshold must be in (0, 1)")
            total = max(p.sse for p in sweep)
            if total <= 0:
                return 1
            for point in sorted(sweep, key=lambda p: p.n_clusters):
                if point.sse <= sse_threshold * total:
                    return point.n_clusters
            return max(p.n_clusters for p in sweep)
        raise AnalysisError(
            "unknown selection method %r (valid: sse_threshold, knee)" % method
        )

    def select(
        self,
        suite: BenchmarkSuite,
        group: str,
        n_clusters: Optional[int] = None,
        method: str = "sse_threshold",
    ) -> SubsetResult:
        """Produce the suggested subset for one group (Table X).

        Args:
            n_clusters: Fix the cluster count; None applies ``method``.
            method: Cluster-count rule (see :meth:`choose_clusters`).
        """
        metrics, times, clustering, sweep = self._fit_and_sweep(suite, group)
        if n_clusters is None:
            n_clusters = self.choose_clusters(sweep, method=method)
        labels = clustering.labels(n_clusters)
        selected: List[str] = []
        subset_time = 0.0
        for label in range(n_clusters):
            members = np.flatnonzero(labels == label)
            champion = members[int(np.argmin(times[members]))]
            selected.append(metrics[champion].pair_name)
            subset_time += float(times[champion])
        selected.sort()
        return SubsetResult(
            group=group,
            n_clusters=n_clusters,
            selected=tuple(selected),
            subset_time_seconds=subset_time,
            full_time_seconds=float(times.sum()),
            sweep=tuple(sweep),
            clustering=clustering,
            pair_names=tuple(m.pair_name for m in metrics),
        )
