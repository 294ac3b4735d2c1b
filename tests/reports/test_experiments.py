"""Tests for the experiment registry: every table and figure regenerates."""

import pytest

from repro.errors import ExperimentError
from repro.reports.experiments import (
    EXPERIMENT_IDS,
    ExperimentContext,
    ExperimentResult,
    list_experiments,
    run_experiment,
)
from repro.runner import SuiteRunner


class TestRegistry:
    def test_all_twenty_experiments_registered(self):
        assert len(EXPERIMENT_IDS) == 20
        assert set(EXPERIMENT_IDS) == {
            "table%d" % i for i in range(1, 11)
        } | {"fig%d" % i for i in range(1, 11)}

    def test_list_experiments(self):
        listing = dict(list_experiments())
        assert "Table I" in listing["table1"]
        assert "Fig. 10" in listing["fig10"]

    def test_unknown_experiment(self, ctx):
        with pytest.raises(ExperimentError):
            run_experiment("table11", ctx)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_IDS))
def test_every_experiment_runs(ctx, exp_id):
    result = run_experiment(exp_id, ctx)
    assert isinstance(result, ExperimentResult)
    assert result.exp_id == exp_id
    assert result.title
    assert result.text.strip()
    assert str(result)


class TestSpecificContents:
    def test_table1_shows_haswell(self, ctx):
        assert "Haswell" in run_experiment("table1", ctx).text

    def test_table2_has_twelve_rows(self, ctx):
        result = run_experiment("table2", ctx)
        assert len(result.data["summaries"]) == 12
        assert "speed_fp" in result.text

    def test_table3_compares_paper_columns(self, ctx):
        result = run_experiment("table3", ctx)
        assert "Paper mean" in result.text
        assert "CPU17 all" in result.text

    def test_table8_lists_twenty(self, ctx):
        result = run_experiment("table8", ctx)
        assert len(result.data["features"]) == 20

    def test_table9_shows_three_pairs(self, ctx):
        result = run_experiment("table9", ctx)
        assert "603.bwaves_s-in1/ref" in result.text
        assert "607.cactuBSSN_s/ref" in result.text

    def test_table10_has_both_groups(self, ctx):
        result = run_experiment("table10", ctx)
        assert "rate" in result.data
        assert "speed" in result.data
        assert "%" in result.text

    def test_fig7_notes_variance(self, ctx):
        result = run_experiment("fig7", ctx)
        assert "76.321" in result.notes

    def test_experiments_share_context_work(self, ctx):
        # Running the same experiment twice should reuse the cached subset.
        first = run_experiment("table10", ctx)
        second = run_experiment("table10", ctx)
        assert first.data["rate"] is second.data["rate"]


class TestRunnerBackedContext:
    @pytest.mark.parametrize("exp_id,pairs", [("fig8", 194), ("table9", 3)])
    def test_pairs_are_collected_through_the_runner(self, tmp_path, exp_id,
                                                    pairs):
        # Each pair must reach the runner (and so its cache), not be
        # simulated behind its back by the characterizer's own session.
        runner = SuiteRunner(sample_ops=2_000, workers=1,
                             cache_dir=tmp_path / "cache")
        run_experiment(exp_id, ExperimentContext(runner=runner))
        assert runner.total_cache_hits + runner.total_cache_misses == pairs
