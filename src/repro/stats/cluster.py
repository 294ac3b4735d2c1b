# repro: noqa-file[LAY001] — deliberate upward edge: the observability
# seam (tracer spans) is threaded through the leaf layers
# by design; repro.obs is import-light and never imports back down.
"""Agglomerative hierarchical clustering (paper Section V-B).

Start with every point in its own cluster; repeatedly merge the pair with
the smallest linkage distance.  The merge history has the same shape as a
scipy linkage matrix, and :meth:`ClusteringResult.labels` cuts the tree at
any cluster count — the "flexibility in the choice of application-input
pairs for a variable number of clusters" the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .. import obs
from ..errors import ClusteringError
from .linkage import get_linkage, pairwise_distances


@dataclass(frozen=True)
class Merge:
    """One agglomeration step.

    Cluster ids follow the scipy convention: leaves are 0..n-1, the cluster
    created by merge t gets id n+t.
    """

    left: int
    right: int
    distance: float
    size: int


@dataclass(frozen=True)
class ClusteringResult:
    """Full merge history over n points."""

    n_points: int
    merges: Tuple[Merge, ...]
    linkage: str

    def labels(self, n_clusters: int) -> np.ndarray:
        """Flat cluster assignment (0..n_clusters-1) after cutting the tree.

        Labels are renumbered in order of each cluster's smallest member so
        they are deterministic.
        """
        if not 1 <= n_clusters <= self.n_points:
            raise ClusteringError(
                "n_clusters must be in [1, %d], got %d"
                % (self.n_points, n_clusters)
            )
        parent = list(range(self.n_points + len(self.merges)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # Apply merges until only n_clusters roots remain among leaves.
        for step, merge in enumerate(self.merges[: self.n_points - n_clusters]):
            new_id = self.n_points + step
            parent[find(merge.left)] = new_id
            parent[find(merge.right)] = new_id

        roots = {}
        labels = np.empty(self.n_points, dtype=np.int64)
        for leaf in range(self.n_points):
            root = find(leaf)
            if root not in roots:
                roots[root] = len(roots)
            labels[leaf] = roots[root]
        return labels

    def members(self, n_clusters: int) -> List[List[int]]:
        """Leaf indices of each flat cluster."""
        labels = self.labels(n_clusters)
        clusters: List[List[int]] = [[] for _ in range(n_clusters)]
        for leaf, label in enumerate(labels):
            clusters[label].append(leaf)
        return clusters

    def merge_distances(self) -> np.ndarray:
        return np.asarray([m.distance for m in self.merges])


def sse(points: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances of points to their cluster centroid.

    The paper's clustering-quality metric (Section V-C).
    """
    points = np.asarray(points, dtype=np.float64)
    # return_counts keeps np.unique from importing numpy.ma
    # (docs/methodology.md §8).
    distinct, _ = np.unique(labels, return_counts=True)
    total = 0.0
    for label in distinct:
        members = points[labels == label]
        centroid = members.mean(axis=0)
        total += float(np.sum((members - centroid) ** 2))
    return total


class AgglomerativeClustering:
    """Bottom-up clustering over a Euclidean point set.

    Args:
        linkage: One of single/complete/average/ward/centroid.
    """

    def __init__(self, linkage: str = "average"):
        self.linkage = linkage
        self._update = get_linkage(linkage)

    def fit(self, points: np.ndarray) -> ClusteringResult:
        with obs.profile("stats.cluster", linkage=self.linkage) as span:
            span.set("rows", int(np.asarray(points).shape[0]))
            return self._fit(points)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ClusteringError("points must be a 2-D array")
        n = points.shape[0]
        if n < 2:
            raise ClusteringError("need at least 2 points to cluster")

        distances = pairwise_distances(points)
        np.fill_diagonal(distances, np.inf)
        active = list(range(n))
        # Map row index -> current cluster id and size.
        cluster_id = list(range(n))
        sizes = [1] * n
        merges: List[Merge] = []

        for step in range(n - 1):
            # Find the closest active pair.
            sub = distances[np.ix_(active, active)]
            flat = np.argmin(sub)
            ai, aj = divmod(int(flat), len(active))
            if ai == aj:  # pragma: no cover - defensive
                raise ClusteringError("degenerate distance matrix")
            i, j = active[ai], active[aj]
            if i > j:
                i, j = j, i
            dist = float(distances[i, j])
            ni, nj = sizes[i], sizes[j]

            # Lance-Williams update of row i (the surviving row).
            for k in active:
                if k in (i, j):
                    continue
                a_i, a_j, b, c = self._update(ni, nj, sizes[k])
                new_dist = (
                    a_i * distances[k, i]
                    + a_j * distances[k, j]
                    + b * dist
                    + c * abs(distances[k, i] - distances[k, j])
                )
                distances[k, i] = distances[i, k] = new_dist
            distances[i, j] = distances[j, i] = np.inf

            merges.append(
                Merge(
                    left=cluster_id[i],
                    right=cluster_id[j],
                    distance=dist,
                    size=ni + nj,
                )
            )
            cluster_id[i] = n + step
            sizes[i] = ni + nj
            active.remove(j)

        return ClusteringResult(
            n_points=n, merges=tuple(merges), linkage=self.linkage
        )
