"""What each entry point imports, checked in fresh interpreters.

The package facades (``repro``, ``repro.api``, ``repro.obs``,
``repro.core``, ``repro.uarch``) import each re-exported module on first
use, so an entry point loads only the modules it runs:

* ``import repro.api`` loads no numpy;
* a sweep built from ``repro.api`` loads none of the analysis stack;
* ``import repro.reports.cli`` loads up front everything a warm
  ``repro run all`` runs, so the run itself imports nothing, and none of
  the modules that no ``run`` executes.

Every check runs with DeprecationWarnings turned into errors.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules, with their submodules, that no sweep through repro.api runs.
NOT_IN_SWEEP = (
    "repro.phases", "repro.reports", "repro.lint", "repro.stats",
    "repro.core.sizes", "repro.core.validate", "repro.core.subset",
    "repro.obs.drift", "repro.obs.critical", "repro.obs.profiler",
    "repro.uarch.cycle_core",
)

#: Modules, with their submodules, that no ``repro run`` executes.
NOT_IN_RUN = (
    "repro.phases", "repro.lint", "repro.obs.drift", "repro.obs.critical",
    "repro.obs.profiler", "repro.core.sizes", "repro.core.validate",
    "repro.stats.kmeans", "repro.uarch.cycle_core",
)

REPORT = """
import json, sys

def report(value):
    with open(sys.argv[1], "w") as handle:
        json.dump(value, handle)
"""


def run_python(tmp_path: Path, body: str, *args: str):
    """Run ``body`` in a fresh interpreter and return what it reported."""
    out = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_LEDGER", None)
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         REPORT + textwrap.dedent(body), str(out), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(out.read_text())


def within(modules, packages):
    return sorted(
        module for module in modules
        if any(module == p or module.startswith(p + ".") for p in packages)
    )


def test_import_api_loads_no_numpy(tmp_path):
    modules = run_python(tmp_path, """
        import repro.api
        report(sorted(sys.modules))
    """)
    assert within(modules, ("numpy",)) == []


def test_api_sweep_loads_no_analysis_module(tmp_path):
    cache_dir = tmp_path / "cache"
    modules = run_python(tmp_path, """
        import os
        from repro.api import SuiteRunner, cpu2017
        pairs = cpu2017().pairs()[:4]
        result = SuiteRunner(
            sample_ops=2000, workers=1, cache_dir=sys.argv[2],
        ).run(pairs)
        assert result.ok and result.manifest.cache_misses == 4
        assert os.path.getsize(os.path.join(sys.argv[2], "ledger.jsonl"))
        report(sorted(sys.modules))
    """, str(cache_dir))
    assert within(modules, NOT_IN_SWEEP) == []


@pytest.fixture(scope="module")
def warm_run_all(tmp_path_factory):
    """Modules after ``import repro.reports.cli`` and a warm ``run all``,
    and those the run itself imported."""
    tmp_path = tmp_path_factory.mktemp("warm_run_all")
    argv = json.dumps([
        "run", "all", "--cache-dir", str(tmp_path / "cache"),
        "--sample-ops", "2000", "--jobs", "1",
    ])
    body = """
        import contextlib, io
        import repro.reports.cli as cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(json.loads(sys.argv[2])) == 0
        report({"loaded": sorted(sys.modules),
                "new": sorted(set(sys.modules) - before)})
    """
    run_python(tmp_path, body, argv)  # fills the cache
    return run_python(tmp_path, body, argv)


def test_warm_run_all_loads_no_analysis_module(warm_run_all):
    assert within(warm_run_all["loaded"], NOT_IN_RUN) == []


def test_warm_run_all_imports_nothing_after_the_cli(warm_run_all):
    # Inside a benchmark's timed op, as in a real `repro run`, nothing is
    # left to import: the CLI module loaded the whole run path.
    assert warm_run_all["new"] == []
