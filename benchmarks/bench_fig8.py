"""Bench: regenerate Fig. 8 (factor loadings).

Paper shape: PC1 is dominated by the raw counts (instructions, memory
micro-ops, branches); the footprint metrics dominate one retained PC.
"""

from repro.perf.counters import INST_RETIRED, MEM_LOADS
from repro.reports.experiments import run_experiment


def test_fig8(benchmark, ctx):
    result = benchmark(run_experiment, "fig8", ctx)
    loadings = result.data["loadings"]
    top_pc1 = {name for name, _ in loadings.dominant(1, k=6, sign="absolute")}
    assert INST_RETIRED in top_pc1
    assert MEM_LOADS in top_pc1
    rss_index = loadings.feature_names.index("rss")
    best_rss = max(abs(loadings.loadings[pc][rss_index]) for pc in range(4))
    assert best_rss > 0.4
