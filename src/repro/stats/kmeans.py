"""K-means clustering (used by the phase-analysis extension).

The paper's future work proposes identifying simulation phases; the
standard tool (SimPoint) clusters interval signatures with k-means.  This
is Lloyd's algorithm with k-means++ seeding and a BIC score for model
selection, implemented on numpy with a deterministic seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ClusteringError


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit."""

    centroids: np.ndarray      # [k, d]
    labels: np.ndarray         # [n]
    inertia: float             # sum of squared distances to assigned centroid
    iterations: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


class KMeans:
    """Lloyd's algorithm with k-means++ initialization.

    Args:
        k: Number of clusters.
        max_iterations: Iteration cap for Lloyd's loop.
        seed: RNG seed for the k-means++ initialization.
    """

    def __init__(self, k: int, max_iterations: int = 100, seed: int = 0):
        if k <= 0:
            raise ClusteringError("k must be positive")
        if max_iterations <= 0:
            raise ClusteringError("max_iterations must be positive")
        self.k = k
        self.max_iterations = max_iterations
        self.seed = seed

    def _init_centroids(self, points: np.ndarray, rng) -> np.ndarray:
        n = points.shape[0]
        centroids = [points[rng.integers(n)]]
        for _ in range(1, self.k):
            d2 = np.min(
                [np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0
            )
            total = d2.sum()
            if total <= 0:
                # All remaining points coincide with a centroid.
                centroids.append(points[rng.integers(n)])
                continue
            draw = rng.random() * total
            index = int(np.searchsorted(np.cumsum(d2), draw))
            centroids.append(points[min(index, n - 1)])
        return np.asarray(centroids)

    def fit(self, points: np.ndarray) -> KMeansResult:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ClusteringError("points must be 2-D")
        n = points.shape[0]
        if n < self.k:
            raise ClusteringError(
                "cannot fit %d clusters to %d points" % (self.k, n)
            )
        rng = np.random.default_rng(self.seed)
        centroids = self._init_centroids(points, rng)
        labels = np.zeros(n, dtype=np.int64)
        for iteration in range(1, self.max_iterations + 1):
            distances = np.linalg.norm(
                points[:, None, :] - centroids[None, :, :], axis=2
            )
            new_labels = np.argmin(distances, axis=1)
            for cluster in range(self.k):
                members = points[new_labels == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
            if np.array_equal(new_labels, labels) and iteration > 1:
                break
            labels = new_labels
        inertia = float(
            np.sum((points - centroids[labels]) ** 2)
        )
        return KMeansResult(
            centroids=centroids, labels=labels, inertia=inertia,
            iterations=iteration,
        )


def bic_score(points: np.ndarray, result: KMeansResult) -> float:
    """Bayesian-information-criterion score of a k-means fit (higher is
    better), as used by SimPoint for picking the phase count."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    k = result.k
    if n <= k:
        raise ClusteringError("BIC needs more points than clusters")
    variance = result.inertia / max(1e-12, (n - k))
    if variance <= 0:
        variance = 1e-12
    sizes = result.cluster_sizes()
    log_likelihood = 0.0
    for size in sizes:
        if size <= 0:
            continue
        log_likelihood += (
            size * np.log(size / n)
            - 0.5 * size * d * np.log(2 * np.pi * variance)
            - 0.5 * (size - 1) * d
        )
    parameters = k * (d + 1)
    return float(log_likelihood - 0.5 * parameters * np.log(n))


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points (in [-1, 1])."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    # return_counts keeps np.unique from importing numpy.ma
    # (docs/methodology.md §8).
    unique, _ = np.unique(labels, return_counts=True)
    if len(unique) < 2:
        raise ClusteringError("silhouette needs at least 2 clusters")
    if len(unique) >= len(points):
        raise ClusteringError("silhouette needs non-singleton clustering")
    scores = []
    for i in range(len(points)):
        own = labels[i]
        same = points[(labels == own)]
        if len(same) <= 1:
            scores.append(0.0)
            continue
        a = float(
            np.mean(np.linalg.norm(same - points[i], axis=1))
            * len(same) / (len(same) - 1)
        )
        b = min(
            float(np.mean(np.linalg.norm(points[labels == other] - points[i],
                                         axis=1)))
            for other in unique if other != own
        )
        scores.append((b - a) / max(a, b, 1e-12))
    return float(np.mean(scores))


def choose_k(
    points: np.ndarray,
    max_k: int = 10,
    seed: int = 0,
    min_k: int = 1,
) -> KMeansResult:
    """Fit k = min_k..max_k and return the best fit by BIC (SimPoint's
    model-selection rule)."""
    points = np.asarray(points, dtype=np.float64)
    if not 1 <= min_k <= max_k:
        raise ClusteringError("need 1 <= min_k <= max_k")
    best: Optional[KMeansResult] = None
    best_score = -np.inf
    for k in range(min_k, min(max_k, len(points) - 1) + 1):
        result = KMeans(k, seed=seed).fit(points)
        score = bic_score(points, result)
        if score > best_score:
            best, best_score = result, score
    if best is None:
        raise ClusteringError("no feasible k in the requested range")
    return best
