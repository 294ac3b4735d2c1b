"""Tests for the Section-V subsetting pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.subset import SubsetSelector, SweepPoint, sweep_points
from repro.errors import AnalysisError
from repro.stats.cluster import AgglomerativeClustering, sse

LINKAGES = ("single", "complete", "average", "ward", "centroid")


def reference_sweep(scores, times, clustering):
    """The sweep computed cut by cut: ``sse`` and the fastest member of
    each cluster, over ``labels(k)`` for every k."""
    points = []
    for k in range(1, clustering.n_points + 1):
        labels = clustering.labels(k)
        points.append(SweepPoint(
            n_clusters=k,
            sse=sse(scores, labels),
            subset_time_seconds=sum(
                float(times[labels == label].min()) for label in range(k)
            ),
        ))
    return points


@pytest.fixture(scope="module")
def rate_result(selector, suite17):
    return selector.select(suite17, "rate")


@pytest.fixture(scope="module")
def speed_result(selector, suite17):
    return selector.select(suite17, "speed")


class TestPCA:
    def test_scores_cover_all_pairs(self, selector, suite17):
        result, labels = selector.pca(suite17)
        assert result.scores.shape == (194, 4)
        assert len(labels) == 194

    def test_variance_in_plausible_band(self, selector, suite17):
        """Paper: 4 PCs capture 76.3%; our synthetic features are more
        correlated, so the band is wider but must be substantial."""
        variance = selector.variance_captured(suite17)
        assert 0.70 <= variance <= 0.97

    def test_pca_is_cached(self, selector, suite17):
        a, _ = selector.pca(suite17)
        b, _ = selector.pca(suite17)
        assert a is b


class TestGroups:
    def test_rate_group_size(self, selector, suite17):
        scores, metrics = selector.group_scores(suite17, "rate")
        assert scores.shape == (34, 4)
        assert len(metrics) == 34

    def test_speed_group_size(self, selector, suite17):
        scores, metrics = selector.group_scores(suite17, "speed")
        assert scores.shape == (30, 4)

    def test_unknown_group(self, selector, suite17):
        with pytest.raises(AnalysisError):
            selector.group_scores(suite17, "hybrid")


class TestSweep:
    def test_sweep_covers_every_k(self, selector, suite17):
        sweep = selector.sweep(suite17, "rate")
        assert [p.n_clusters for p in sweep] == list(range(1, 35))

    def test_sse_nonincreasing_in_k(self, selector, suite17):
        sweep = selector.sweep(suite17, "rate")
        for a, b in zip(sweep, sweep[1:]):
            assert b.sse <= a.sse + 1e-9

    def test_subset_time_nondecreasing_in_k(self, selector, suite17):
        sweep = selector.sweep(suite17, "rate")
        for a, b in zip(sweep, sweep[1:]):
            assert b.subset_time_seconds >= a.subset_time_seconds - 1e-9

    def test_full_k_has_zero_sse(self, selector, suite17):
        sweep = selector.sweep(suite17, "rate")
        assert sweep[-1].sse == pytest.approx(0.0, abs=1e-9)


class TestSweepMatchesPerCutReference:
    """Each cluster's terms are computed once, yet every point equals
    the per-k reference exactly (``==``, not approximately)."""

    @pytest.mark.parametrize("group", ["rate", "speed"])
    def test_every_k_of_both_groups(self, selector, suite17, group):
        scores, metrics = selector.group_scores(suite17, group)
        times = np.asarray([m.time_seconds for m in metrics])
        clustering = selector.cluster(suite17, group)
        assert selector.sweep(suite17, group) == reference_sweep(
            scores, times, clustering
        )

    @pytest.mark.parametrize("linkage", LINKAGES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_point_sets(self, linkage, data):
        rows = data.draw(st.integers(2, 16))
        scores = data.draw(arrays(
            np.float64, (rows, data.draw(st.integers(1, 4))),
            elements=st.floats(-1e3, 1e3),
        ))
        times = data.draw(arrays(
            np.float64, rows, elements=st.floats(1e-3, 1e4),
        ))
        clustering = AgglomerativeClustering(linkage=linkage).fit(scores)
        assert sweep_points(scores, times, clustering) == reference_sweep(
            scores, times, clustering
        )


class TestChooseClusters:
    def sweep_of(self, sses, times):
        return [
            SweepPoint(n_clusters=i + 1, sse=s, subset_time_seconds=t)
            for i, (s, t) in enumerate(zip(sses, times))
        ]

    def test_threshold_rule(self):
        sweep = self.sweep_of([100, 50, 10, 1, 0], [1, 2, 3, 4, 5])
        assert SubsetSelector.choose_clusters(sweep, "sse_threshold", 0.02) == 4

    def test_knee_rule_picks_corner(self):
        sweep = self.sweep_of([100, 1, 0.5, 0.1, 0], [1, 2, 50, 80, 100])
        assert SubsetSelector.choose_clusters(sweep, "knee") == 2

    def test_unknown_method(self):
        sweep = self.sweep_of([1, 0], [1, 2])
        with pytest.raises(AnalysisError):
            SubsetSelector.choose_clusters(sweep, "magic")

    def test_threshold_validation(self):
        sweep = self.sweep_of([1, 0], [1, 2])
        with pytest.raises(AnalysisError):
            SubsetSelector.choose_clusters(sweep, "sse_threshold", 1.5)


class TestSelect:
    def test_rate_cluster_count_near_paper(self, rate_result):
        assert 8 <= rate_result.n_clusters <= 16  # paper: 12

    def test_speed_cluster_count_near_paper(self, speed_result):
        assert 7 <= speed_result.n_clusters <= 14  # paper: 10

    def test_savings_band(self, rate_result, speed_result):
        # Paper: 57.1% (rate), 62.1% (speed).
        assert 50.0 <= rate_result.saving_pct <= 75.0
        assert 50.0 <= speed_result.saving_pct <= 75.0

    def test_one_representative_per_cluster(self, rate_result):
        assert len(rate_result.selected) == rate_result.n_clusters

    def test_representative_is_fastest_in_cluster(self, selector, suite17):
        result = selector.select(suite17, "rate", n_clusters=5)
        labels = result.clustering.labels(5)
        scores, metrics = selector.group_scores(suite17, "rate")
        times = np.asarray([m.time_seconds for m in metrics])
        for label in range(5):
            members = np.flatnonzero(labels == label)
            champion_time = times[members].min()
            champions = {metrics[i].pair_name for i in members
                         if times[i] == champion_time}
            assert champions & set(result.selected)

    def test_fixed_cluster_count_respected(self, selector, suite17):
        result = selector.select(suite17, "speed", n_clusters=3)
        assert result.n_clusters == 3
        assert len(result.selected) == 3

    def test_subset_time_below_full(self, rate_result):
        assert rate_result.subset_time_seconds < rate_result.full_time_seconds

    def test_dendrogram_labels(self, rate_result):
        dendrogram = rate_result.dendrogram()
        assert sorted(dendrogram.leaf_order()) == sorted(rate_result.pair_names)
