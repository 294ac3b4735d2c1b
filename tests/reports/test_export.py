"""Tests for result export."""

import csv
import os

import pytest

from repro.reports.experiments import run_experiment
from repro.reports.export import export_result


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


class TestExportResult:
    def test_text_artifact_always_written(self, ctx, tmp_path):
        result = run_experiment("table1", ctx)
        paths = export_result(result, str(tmp_path))
        text = [p for p in paths if p.endswith("table1.txt")]
        assert text
        with open(text[0]) as handle:
            assert "Haswell" in handle.read()

    def test_table2_csv(self, ctx, tmp_path):
        result = run_experiment("table2", ctx)
        paths = export_result(result, str(tmp_path))
        csv_path = [p for p in paths if p.endswith("table2.csv")][0]
        rows = read_csv(csv_path)
        assert rows[0] == ["suite", "input_size", "n_applications",
                           "instructions_e9", "ipc", "time_seconds"]
        assert len(rows) == 13  # header + 12 cells

    def test_comparison_csv(self, ctx, tmp_path):
        result = run_experiment("table4", ctx)
        paths = export_result(result, str(tmp_path))
        rows = read_csv([p for p in paths if p.endswith("table4.csv")][0])
        # 3 metrics x 6 populations + header.
        assert len(rows) == 19

    def test_figure_panels_csv(self, ctx, tmp_path):
        result = run_experiment("fig1", ctx)
        paths = export_result(result, str(tmp_path))
        panel_csvs = [p for p in paths if p.endswith(".csv")]
        assert len(panel_csvs) == 2  # rate + speed
        rows = read_csv(panel_csvs[0])
        assert rows[0] == ["label", "ipc"]
        assert len(rows) > 30

    def test_subset_csv(self, ctx, tmp_path):
        result = run_experiment("table10", ctx)
        paths = export_result(result, str(tmp_path))
        rows = read_csv([p for p in paths if p.endswith("table10.csv")][0])
        groups = {row[0] for row in rows[1:]}
        assert groups == {"rate", "speed"}

    def test_directory_created(self, ctx, tmp_path):
        target = os.path.join(str(tmp_path), "nested", "dir")
        result = run_experiment("table8", ctx)
        paths = export_result(result, target)
        assert all(os.path.exists(p) for p in paths)


class TestCLIOutput:
    def test_run_with_output_flag(self, tmp_path, capsys):
        from repro.reports.cli import main

        code = main([
            "run", "table1", "--sample-ops", "5000",
            "--output", str(tmp_path),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert os.path.exists(os.path.join(str(tmp_path), "table1.txt"))
