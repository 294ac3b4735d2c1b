"""Smoke tests of the benchmark at its tiny size.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cold", "design_sweep", "run_all_warm")


def declared(kind):
    """The metrics BENCHMARK.json declares, by name, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py"), env=None):
    proc = subprocess.run(
        [sys.executable, script, "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    # The user's cache and ledger, wherever they point, stay untouched.
    user_paths = {
        "HOME": tmp_path / "home",
        "REPRO_CACHE_DIR": tmp_path / "user-cache",
        "REPRO_LEDGER": tmp_path / "user-ledger.jsonl",
    }
    env = dict(os.environ, **{key: str(path) for key, path in user_paths.items()})
    # Trace 0 and trace 1 use different seeds: the digests must hold for both.
    proc, result = bench("--workload", workload, "--seed", str(trace + 1),
                         "--trace", str(trace), env=env)
    assert not any(path.exists() for path in user_paths.values())
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    text_lines = proc.stdout.splitlines()[:-1]
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in text_lines), name
    if trace:
        assert "attribution of one traced op" in proc.stdout
    else:
        assert "as measured, before scaling" in proc.stdout


def copy_of_bench(tmp_path):
    """``BENCHMARK.json`` and ``perfbench/`` alone in ``tmp_path``; returns
    the copied ``run.py``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path / "perfbench" / "run.py")


def test_wrong_expected_digest_fails_the_run(tmp_path):
    script = copy_of_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    digests_file = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_file.read_text())
    digests["tiny"]["sweep_cold"] = "0" * 64
    digests_file.write_text(json.dumps(digests))
    proc, result = bench("--workload", "sweep_cold", "--seed", "1",
                         cwd=tmp_path, script=script)
    assert proc.returncode == 1
    assert result["correct"] is False
    # Every timed op fails; only the five engine-parity checks pass.
    assert result["failed"] == result["attempted"] - 5 >= 1
    assert "output digest" in proc.stderr


def test_without_the_code_it_fails_and_prints_no_result(tmp_path):
    script = copy_of_bench(tmp_path)
    proc, result = bench("--workload", "sweep_cold", "--seed", "1",
                         cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert result is None
