"""``python -m repro`` must work as a process entry point."""

import subprocess
import sys


def run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestMainModule:
    def test_list(self):
        result = run_module("list")
        assert result.returncode == 0
        assert "table10" in result.stdout

    def test_version(self):
        result = run_module("--version")
        assert result.returncode == 0

    def test_pair(self):
        result = run_module("pair", "505.mcf_r", "--sample-ops", "5000")
        assert result.returncode == 0
        assert "IPC" in result.stdout

    def test_bad_subcommand(self):
        result = run_module("explode")
        assert result.returncode != 0
