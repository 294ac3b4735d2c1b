"""The pair and analysis paths load no numpy submodule lazily.

numpy imports some submodules on first use.  Since numpy 2.3 the plain
``np.unique(x)`` (no ``return_index``/``return_inverse``/
``return_counts``) calls ``np.ma.is_masked`` and so imports ``numpy.ma``
(≈10 ms per process), and ``numpy.random`` loads on first attribute
access.  Each test runs in a fresh interpreter and checks what a sweep or
``repro run all`` imported beyond ``import repro.api``.  On numpy
versions that import these modules eagerly, or whose ``np.unique`` never
touches ``numpy.ma``, the tests pass trivially.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = """
import json, sys
import repro
import repro.api
from repro.reports.cli import main
pairs = [pair for pair in repro.cpu2017().pairs()][:4]
before = set(sys.modules)
"""

REPORT = """
with open(sys.argv[1], "w") as handle:
    json.dump(sorted(set(sys.modules) - before), handle)
"""

STEPS = {
    "inline_sweep": """
result = repro.SuiteRunner(
    sample_ops=2000, workers=1, use_cache=False, use_ledger=False,
).run(pairs)
assert result.ok
""",
    "scalar_pair": """
import dataclasses
table1 = repro.haswell_e5_2650l_v3()
# Random replacement has no vector analysis: "auto" resolves to scalar.
config = dataclasses.replace(
    table1, l3=dataclasses.replace(table1.l3, replacement="random"),
)
runner = repro.SuiteRunner(
    config=config, sample_ops=2000, workers=1, use_cache=False,
    use_ledger=False,
)
assert runner._session.resolved_engine == "scalar"
result = runner.run(pairs[:1])
assert result.ok
""",
    "pooled_sweep": """
result = repro.SuiteRunner(
    sample_ops=2000, workers=2, use_cache=False, use_ledger=False,
).run(pairs)
assert result.ok and result.manifest.workers == 2
""",
}


def run_script(body: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr


def new_modules(tmp_path: Path, step: str, *args: str):
    out = tmp_path / "modules.json"
    run_script(PRELUDE + step + REPORT, str(out), *args)
    return json.loads(out.read_text())


@pytest.mark.parametrize("step", sorted(STEPS))
def test_sweeps_do_not_import_numpy_ma(tmp_path, step):
    assert "numpy.ma" not in new_modules(tmp_path, STEPS[step])


def test_warm_run_all_does_not_import_numpy_ma(tmp_path):
    argv = (
        "main(['run', 'all', '--cache-dir', sys.argv[2], "
        "'--sample-ops', '2000', '--jobs', '1'])"
    )
    cache_dir = str(tmp_path / "cache")
    fill = tmp_path / "fill.json"
    run_script(PRELUDE + argv + REPORT, str(fill), cache_dir)
    assert "numpy.ma" not in new_modules(tmp_path, argv, cache_dir)


WORKER_SPY = """
import json, os, sys
import repro
import repro.api
from repro.runner import runner as runner_module

real_init_worker = runner_module._init_worker
real_run_pair = runner_module._run_pair

def log_new_modules(call, *args):
    before = set(sys.modules)
    result = call(*args)
    new = sorted(set(sys.modules) - before)
    log = os.path.join(sys.argv[1], "%d.jsonl" % os.getpid())
    with open(log, "a") as handle:
        handle.write(json.dumps(new) + "\\n")
    return result

def spy_init_worker(*args):
    return log_new_modules(real_init_worker, *args)

def spy_run_pair(*args):
    return log_new_modules(real_run_pair, *args)

runner_module._init_worker = spy_init_worker
runner_module._run_pair = spy_run_pair
pairs = [pair for pair in repro.cpu2017().pairs()][:6]
result = repro.SuiteRunner(
    sample_ops=2000, workers=2, use_cache=False, use_ledger=False,
).run(pairs)
assert result.ok and result.manifest.workers == 2
"""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the parent's modules only when forked",
)
def test_pooled_workers_first_pair_imports_no_numpy_module(tmp_path):
    run_script(WORKER_SPY, str(tmp_path))
    logs = sorted(tmp_path.glob("*.jsonl"))
    assert logs, "no worker started"
    for log in logs:
        # One line for the worker's initializer, then one per pair.
        lines = log.read_text().splitlines()
        init, *pairs = [json.loads(line) for line in lines]
        assert pairs, "worker %s ran no pair" % log.stem
        for new in (init, pairs[0]):
            assert not [m for m in new if m.split(".")[0] == "numpy"], new
