# repro: noqa-file[LAY001] — deliberate upward edge: the observability
# seam (tracer spans) is threaded through the leaf layers
# by design; repro.obs is import-light and never imports back down.
"""Principal Components Analysis from scratch.

Implements the transformation of paper Section V-A: standardize the
[pairs x characteristics] matrix, eigendecompose its covariance (i.e. the
correlation matrix), and project onto the leading eigenvectors.  The three
properties the paper lists — variance preservation, uncorrelated components,
descending component variance — hold by construction and are asserted in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs
from ..errors import AnalysisError
from .preprocess import Standardizer


@dataclass(frozen=True)
class PCAResult:
    """Scores and metadata of one PCA projection."""

    scores: np.ndarray              # [n_samples, n_components]
    components: np.ndarray          # [n_components, n_features] (rows = PCs)
    explained_variance: np.ndarray  # eigenvalues, descending
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.scores.shape[1]

    def cumulative_variance_ratio(self) -> np.ndarray:
        return np.cumsum(self.explained_variance_ratio)


class PCA:
    """PCA of the correlation matrix (standardized covariance).

    Args:
        n_components: Components to keep; None keeps all.
    """

    def __init__(self, n_components: Optional[int] = None):
        if n_components is not None and n_components <= 0:
            raise AnalysisError("n_components must be positive")
        self.n_components = n_components
        self._scaler = Standardizer()
        self.components_: Optional[np.ndarray] = None
        self.eigenvalues_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None

    def fit(self, matrix: np.ndarray) -> "PCA":
        with obs.profile("stats.pca") as span:
            span.set("rows", int(np.asarray(matrix).shape[0]))
            return self._fit(matrix)

    def _fit(self, matrix: np.ndarray) -> "PCA":
        z = self._scaler.fit_transform(matrix)
        n_samples, n_features = z.shape
        covariance = (z.T @ z) / (n_samples - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.maximum(eigenvalues[order], 0.0)
        eigenvectors = eigenvectors[:, order]
        # Deterministic sign convention: the largest-magnitude loading of
        # each component is positive.
        for column in range(eigenvectors.shape[1]):
            peak = np.argmax(np.abs(eigenvectors[:, column]))
            if eigenvectors[peak, column] < 0:
                eigenvectors[:, column] = -eigenvectors[:, column]
        keep = self.n_components or n_features
        keep = min(keep, n_features)
        self.components_ = eigenvectors[:, :keep].T
        self.eigenvalues_ = eigenvalues[:keep]
        total = eigenvalues.sum()
        if total <= 0:
            raise AnalysisError("degenerate data: zero total variance")
        self.explained_variance_ratio_ = self.eigenvalues_ / total
        self._all_eigenvalues = eigenvalues
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.components_ is None:
            raise AnalysisError("PCA used before fit()")
        z = self._scaler.transform(matrix)
        return z @ self.components_.T

    def fit_transform(self, matrix: np.ndarray) -> PCAResult:
        self.fit(matrix)
        return PCAResult(
            scores=self.transform(matrix),
            components=self.components_.copy(),
            explained_variance=self.eigenvalues_.copy(),
            explained_variance_ratio=self.explained_variance_ratio_.copy(),
        )

    def n_components_for_variance(self, threshold: float) -> int:
        """Smallest component count whose cumulative variance ratio
        reaches ``threshold`` (e.g. 0.76 as in the paper)."""
        if self.components_ is None:
            raise AnalysisError("PCA used before fit()")
        if not 0.0 < threshold <= 1.0:
            raise AnalysisError("threshold must be in (0, 1]")
        ratios = np.cumsum(self._all_eigenvalues / self._all_eigenvalues.sum())
        return int(np.searchsorted(ratios, threshold) + 1)
