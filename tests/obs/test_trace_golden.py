"""Golden output of every ``repro trace`` command on one fixture file.

``data/golden.jsonl`` holds two sweeps.  The first is pooled on worker
pids 201 and 202 and has a cache hit, a retried pair and an error span;
the second runs inline in the parent.  The file also holds one schema-1
span and ends in a truncated line.  The expected files next to it pin
the exact bytes each command prints or writes.
"""

import re
from pathlib import Path

import pytest

from repro.reports.cli import main

DATA = Path(__file__).parent / "data"
TRACE = DATA / "golden.jsonl"

#: The warning for the truncated last line, which every command skips.
TRUNCATED = re.escape("trace %s:19 is not valid JSON" % TRACE)


@pytest.mark.parametrize("argv, expected", [
    (["summarize"], "golden.summarize.txt"),
    (["summarize", "--tree"], "golden.summarize-tree.txt"),
    (["critical-path"], "golden.critical-path.txt"),
    (["critical-path", "--segments", "3"], "golden.critical-path-3.txt"),
    (["utilization"], "golden.utilization.txt"),
], ids=["summarize", "summarize-tree", "critical-path", "critical-path-3",
        "utilization"])
def test_stdout_matches_golden(argv, expected, capsys):
    with pytest.warns(UserWarning, match=TRUNCATED):
        assert main(["trace", argv[0], str(TRACE)] + argv[1:]) == 0
    assert capsys.readouterr().out.encode() == (DATA / expected).read_bytes()


def test_export_matches_golden(tmp_path, capsys):
    out = tmp_path / "golden.chrome.json"
    with pytest.warns(UserWarning, match=TRUNCATED):
        assert main(["trace", "export", str(TRACE), "-o", str(out)]) == 0
    # The "wrote <path>" line names the temporary path, so only the
    # file is compared.
    capsys.readouterr()
    assert out.read_bytes() == (DATA / "golden.chrome.json").read_bytes()
