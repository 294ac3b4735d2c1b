"""Per-interval trace signatures.

SimPoint fingerprints execution intervals with basic-block vectors; the
synthetic traces carry no basic blocks, so the analogous
microarchitecture-independent fingerprint is the interval's composition:
instruction-kind mix, memory-region mix (the microarchitecture-independent
description of locality), branch-subtype activity, and conditional-taken
rate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import AnalysisError
from ..workloads.generator import (
    BR_CONDITIONAL,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    SyntheticTrace,
)

#: Names of the signature components, in order.
SIGNATURE_NAMES: Tuple[str, ...] = (
    "load_fraction",
    "store_fraction",
    "branch_fraction",
    "region_hot",
    "region_warm",
    "region_cool",
    "region_dram",
    "conditional_fraction",
    "taken_rate",
)


def interval_signatures(
    trace: SyntheticTrace, interval_ops: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fingerprint a trace in fixed-length intervals.

    Args:
        trace: The trace to fingerprint.
        interval_ops: Interval length in micro-ops; the trailing partial
            interval (if any) is dropped, as SimPoint does.

    Returns:
        (signatures, starts): a [n_intervals x 9] matrix and the start
        offset of each interval.
    """
    if interval_ops <= 0:
        raise AnalysisError("interval_ops must be positive")
    n_intervals = trace.n_ops // interval_ops
    if n_intervals == 0:
        raise AnalysisError(
            "trace too short (%d ops) for %d-op intervals"
            % (trace.n_ops, interval_ops)
        )
    used = n_intervals * interval_ops

    def per_interval(mask: np.ndarray) -> np.ndarray:
        return mask[:used].reshape(n_intervals, interval_ops).sum(axis=1)

    kind = trace.kind
    loads = per_interval(kind == KIND_LOAD)
    stores = per_interval(kind == KIND_STORE)
    branches = per_interval(kind == KIND_BRANCH)
    mem = np.maximum(loads + stores, 1)

    region_counts = [
        per_interval(trace.region == region) for region in range(4)
    ]
    conditionals = per_interval(
        (kind == KIND_BRANCH) & (trace.btype == BR_CONDITIONAL)
    )
    taken = per_interval((kind == KIND_BRANCH) & trace.taken)

    signatures = np.column_stack([
        loads / interval_ops,
        stores / interval_ops,
        branches / interval_ops,
        region_counts[0] / mem,
        region_counts[1] / mem,
        region_counts[2] / mem,
        region_counts[3] / mem,
        conditionals / np.maximum(branches, 1),
        taken / np.maximum(branches, 1),
    ])
    starts = np.arange(n_intervals) * interval_ops
    return signatures, starts
