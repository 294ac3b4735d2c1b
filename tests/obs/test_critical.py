"""Critical-path and worker-utilization tests on hand-built span trees."""

import pytest

from repro.obs import TraceFileError, critical_path, utilization


def span(span_id, parent, name, t0, wall, pid=100, **attrs):
    return {
        "schema": 2, "id": span_id, "parent": parent,
        "depth": 0 if parent is None else 1, "name": name,
        "wall_s": wall, "cpu_s": wall, "status": "ok", "attrs": attrs,
        "t0_s": t0, "pid": pid,
    }


#: root [0, 10]; child A [0, 4]; child B [2, 9]; B's child C [3, 8].
#: Walking back from 10: root owns [9, 10], B owns [8, 9], C owns [3, 8],
#: B owns [2, 3], and A — still the last-finishing cover before B starts
#: — owns [0, 2].  Every instant lands on exactly one span.
TREE = [
    span(2, 1, "stage.a", 0.0, 4.0),
    span(4, 3, "stage.c", 3.0, 5.0),
    span(3, 1, "stage.b", 2.0, 7.0),
    span(1, None, "suite.run", 0.0, 10.0),
]


class TestCriticalPath:
    def test_backward_walk_picks_last_finishing_chain(self):
        report = critical_path(TREE)
        assert [
            (s.name, s.start_s, s.duration_s) for s in report.segments
        ] == [
            ("stage.a", 0.0, 2.0),
            ("stage.b", 2.0, 1.0),
            ("stage.c", 3.0, 5.0),
            ("stage.b", 8.0, 1.0),
            ("suite.run", 9.0, 1.0),
        ]

    def test_stage_self_times_sum_to_root_wall(self):
        report = critical_path(TREE)
        assert report.total_s == pytest.approx(10.0)
        assert report.attributed_s == pytest.approx(report.total_s)
        assert sum(s.seconds for s in report.stages) == pytest.approx(10.0)
        shares = {s.name: s.share for s in report.stages}
        assert shares["stage.c"] == pytest.approx(0.5)

    def test_stages_sorted_by_seconds(self):
        report = critical_path(TREE)
        seconds = [s.seconds for s in report.stages]
        assert seconds == sorted(seconds, reverse=True)

    def test_picks_dominant_root_among_several(self):
        short = span(10, None, "suite.run", 20.0, 1.0)
        report = critical_path(TREE + [short])
        assert report.root_id == 1

    def test_no_timeline_raises_and_seconds_returns_none(self):
        legacy = [
            {k: v for k, v in record.items() if k != "t0_s"}
            for record in TREE
        ]
        with pytest.raises(TraceFileError, match="t0_s"):
            critical_path(legacy)

    def test_render_lists_stages_and_chain(self):
        text = critical_path(TREE).render(limit=2)
        assert "critical path of suite.run (span 1)" in text
        assert "stage.c" in text
        assert "first 2 segments" in text


def pair(span_id, t0, wall, pid, cache="miss", name="pair.run"):
    record = span(span_id, 1, name, t0, wall, pid=pid)
    record["attrs"] = {"pair": "p%d" % span_id, "cache": cache}
    return record


class TestUtilization:
    def spans(self):
        return [
            pair(2, 0.0, 4.0, 101),
            pair(3, 5.0, 4.0, 101),          # 1 s gap on worker 101
            pair(4, 0.0, 3.0, 102, cache="hit"),
            span(1, None, "suite.run", 0.0, 10.0, pid=100),
        ]

    def test_busy_idle_and_gaps(self):
        report = utilization(self.spans())
        assert report.window_s == pytest.approx(10.0)
        by_pid = {line.pid: line for line in report.workers}
        w101 = by_pid[101]
        assert w101.busy_s == pytest.approx(8.0)
        assert w101.idle_s == pytest.approx(2.0)
        assert w101.utilization == pytest.approx(0.8)
        assert w101.longest_gap_s == pytest.approx(1.0)
        w102 = by_pid[102]
        assert w102.cache_hits == 1
        assert w102.longest_gap_s == pytest.approx(7.0)  # trailing idle

    def test_pool_utilization_and_straggler(self):
        report = utilization(self.spans())
        assert report.pool_utilization == pytest.approx(11.0 / 20.0)
        assert report.straggler_s == pytest.approx(6.0)  # 9.0 vs 3.0 ends

    def test_overlapping_intervals_union_merged(self):
        spans = [
            pair(2, 0.0, 4.0, 101),
            pair(3, 2.0, 4.0, 101),  # overlaps the first
            span(1, None, "suite.run", 0.0, 8.0, pid=100),
        ]
        line = utilization(spans).workers[0]
        assert line.busy_s == pytest.approx(6.0)
        assert line.pairs == 2

    def test_spans_outside_window_excluded(self):
        spans = self.spans() + [pair(9, 50.0, 1.0, 103)]
        assert {line.pid for line in utilization(spans).workers} == {
            101, 102
        }

    def test_parent_track_sorts_last(self):
        spans = self.spans() + [pair(5, 8.0, 1.0, 100)]
        report = utilization(spans)
        assert [line.pid for line in report.workers] == [101, 102, 100]
        assert report.workers[-1].is_parent

    def test_render_footer(self):
        text = utilization(self.spans()).render()
        assert "pool utilization" in text and "straggler spread" in text
