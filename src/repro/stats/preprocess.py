# repro: noqa-file[LAY001] — deliberate upward edge: the observability
# seam (tracer spans) is threaded through the leaf layers
# by design; repro.obs is import-light and never imports back down.
"""Feature standardization (z-scoring) for PCA and clustering.

The paper's 20 characteristics mix raw counts (instructions, branches),
percentages, and bytes; PCA on such mixed units is only meaningful on
standardized data (equivalently: PCA of the correlation matrix).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..errors import AnalysisError


class Standardizer:
    """Fit/transform z-scoring with zero-variance protection."""

    def __init__(self) -> None:
        self.means_: Optional[np.ndarray] = None
        self.stds_: Optional[np.ndarray] = None

    def fit(self, matrix: np.ndarray) -> "Standardizer":
        matrix = _as_2d(matrix)
        self.means_ = matrix.mean(axis=0)
        stds = matrix.std(axis=0, ddof=1)
        # Constant columns carry no information; mapping them to 0 (rather
        # than dividing by 0) keeps them inert in downstream analysis.
        # std is non-negative, so <= 0 is the exact-zero guard without a
        # float equality.
        stds[stds <= 0.0] = 1.0
        self.stds_ = stds
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if self.means_ is None or self.stds_ is None:
            raise AnalysisError("Standardizer used before fit()")
        # Fitting needs >=2 rows for a variance; transforming is row-wise.
        matrix = _as_2d(matrix, min_rows=1)
        if matrix.shape[1] != self.means_.shape[0]:
            raise AnalysisError(
                "feature count mismatch: fitted %d, got %d"
                % (self.means_.shape[0], matrix.shape[1])
            )
        return (matrix - self.means_) / self.stds_

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        return self.fit(matrix).transform(matrix)


def standardize(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-shot z-scoring; returns (z, means, stds)."""
    with obs.profile("stats.standardize"):
        scaler = Standardizer()
        z = scaler.fit_transform(matrix)
        return z, scaler.means_, scaler.stds_


def _as_2d(matrix: np.ndarray, min_rows: int = 2) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise AnalysisError("expected a 2-D matrix, got shape %s" % (matrix.shape,))
    if matrix.shape[0] < min_rows:
        raise AnalysisError(
            "need at least %d rows, got %d" % (min_rows, matrix.shape[0])
        )
    if not np.isfinite(matrix).all():
        raise AnalysisError("matrix contains NaN or infinite values")
    return matrix
