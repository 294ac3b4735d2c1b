"""One set-up sample: a fresh interpreter imports ``repro.api``, builds
the suites, then prepares one op of a workload, and prints when it got
there.  ``run.py`` starts it and times it from the moment it spawned it.

    python3 perfbench/setup_probe.py <workload> <full|tiny> <workdir>
"""

import time

import json
import random
import sys

import ops


def main(workload: str, scale_name: str, workdir: str) -> None:
    started = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own: the largest import)

    numpy_done = time.perf_counter()
    import repro.api as api

    if workload == "run_all_warm":
        import repro.reports.cli  # noqa: F401

    imported = time.perf_counter()
    api.cpu2017()
    api.cpu2006()
    suites_done = time.perf_counter()
    scale = ops.TINY if scale_name == "tiny" else ops.FULL
    ops.prepare(workload, scale, workdir, random.Random(0))
    print(json.dumps({
        "numpy_import_s": numpy_done - started,
        "import_s": imported - started,
        "suites_ms": (suites_done - imported) * 1e3,
        "ready": time.perf_counter(),
    }))


if __name__ == "__main__":
    main(*sys.argv[1:4])
