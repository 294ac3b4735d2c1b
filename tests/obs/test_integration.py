"""End-to-end observability tests: spans and metrics through the runner.

The span-tree *shape* is part of the contract: under a fixed seed, two
runs differ only in timing floats, so these tests pin names, nesting,
and attributes exactly — the golden-tree guarantee.
"""

import json
import os

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.runner import SuiteRunner
from repro.workloads import cpu2017

SAMPLE_OPS = 5_000


def load_tree(path):
    """Parse a JSONL trace into (records, children-by-parent-id)."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    children = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    for batch in children.values():
        batch.sort(key=lambda record: record["id"])
    return records, children


def child_names(children, span):
    return [record["name"] for record in children.get(span["id"], [])]


@pytest.fixture
def pairs():
    return cpu2017().pairs()[:2]


class TestGoldenSpanTree:
    #: Stage spans of one cache-miss pair, in execution order.
    COLD_STAGES = [
        "trace.gen", "engine.vector.analyze", "engine.exec",
        "counters.validate",
    ]

    def test_cold_then_cached_sweep(self, tmp_path, pairs):
        trace_path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace_path))
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, cache_dir=tmp_path / "cache"
        )
        cold = runner.run(pairs)
        cached = runner.run(pairs)
        obs.disable()
        assert cold.manifest.cache_misses == 2
        assert cached.manifest.cache_hits == 2

        records, children = load_tree(trace_path)
        roots = children[None]
        assert [r["name"] for r in roots] == ["suite.run", "suite.run"]
        cold_root, cached_root = roots
        assert cold_root["attrs"]["cache_misses"] == 2
        assert cached_root["attrs"]["cache_hits"] == 2

        # Cold sweep: one pair.run per pair, each with the full stage
        # pipeline; engine.exec carries the vector sub-stages.
        cold_pairs = children[cold_root["id"]]
        assert [r["name"] for r in cold_pairs] == ["pair.run", "pair.run"]
        assert [r["attrs"]["pair"] for r in cold_pairs] == [
            p.pair_name for p in pairs
        ]
        for pair_span in cold_pairs:
            assert pair_span["attrs"]["cache"] == "miss"
            assert pair_span["attrs"]["attempts"] == 1
            assert child_names(children, pair_span) == self.COLD_STAGES
            exec_span = [
                r for r in children[pair_span["id"]]
                if r["name"] == "engine.exec"
            ][0]
            assert child_names(children, exec_span) == [
                "engine.vector.memory", "engine.vector.branch",
            ]

        # Cached sweep: the pair.run spans are leaf cache-hit markers.
        cached_pairs = children[cached_root["id"]]
        assert [r["attrs"]["cache"] for r in cached_pairs] == ["hit", "hit"]
        for pair_span in cached_pairs:
            assert pair_span["id"] not in children

        # Determinism: ids are the start-order sequence, 1-based.
        assert sorted(r["id"] for r in records) == list(
            range(1, len(records) + 1)
        )

    def test_sweep_metrics(self, tmp_path, pairs):
        obs.enable()
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, cache_dir=tmp_path / "cache"
        )
        runner.run(pairs)
        runner.run(pairs)
        text = obs.registry().to_prometheus()
        obs.disable()
        assert "repro_suite_runs_total 2" in text
        assert "repro_pairs_total 4" in text
        assert "repro_cache_hits_total 2" in text
        assert "repro_cache_misses_total 2" in text
        assert "repro_cache_hit_ratio 1" in text
        assert "repro_pair_seconds_count 4" in text
        assert 'repro_engine_runs_total{engine="vector"} 2' in text


class TestWorkerFailureTrace:
    def test_failure_run_records_pair_failure_span_with_retries(
        self, tmp_path, pairs
    ):
        trace_path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace_path))
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, retries=1, use_cache=False
        )

        def broken(profile):
            raise SimulationError("injected failure")

        runner._session.run = broken
        result = runner.run(pairs[:1])
        obs.disable()
        assert result.failures[0].attempts == 2

        records, children = load_tree(trace_path)
        failure_spans = [r for r in records if r["name"] == "pair.failure"]
        assert len(failure_spans) == 1
        failure = failure_spans[0]
        assert failure["attrs"]["error_type"] == "SimulationError"
        assert failure["attrs"]["attempts"] == 2
        assert failure["attrs"]["retries"] == 1
        # The failure marker sits inside the pair.run span, which records
        # the exhausted attempt count too.
        pair_span = [r for r in records if r["name"] == "pair.run"][0]
        assert failure["parent"] == pair_span["id"]
        assert pair_span["attrs"]["attempts"] == 2

    def test_metrics_count_failures_and_retries(self, pairs):
        obs.enable()
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, retries=1, use_cache=False
        )

        def broken(profile):
            raise SimulationError("injected failure")

        runner._session.run = broken
        runner.run(pairs[:1])
        text = obs.registry().to_prometheus()
        obs.disable()
        assert "repro_pair_failures_total 1" in text
        assert "repro_retries_total 1" in text


class TestPooledGraft:
    def test_worker_spans_graft_in_submission_order(self, pairs):
        obs.enable()
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=2, use_cache=False
        )
        result = runner.run(pairs)
        records = obs.tracer().finished()
        obs.disable()
        assert result.ok
        suite_span = [r for r in records if r["name"] == "suite.run"][0]
        pair_spans = sorted(
            (r for r in records if r["name"] == "pair.run"),
            key=lambda r: r["id"],
        )
        assert [r["attrs"]["pair"] for r in pair_spans] == [
            p.pair_name for p in pairs
        ]
        for span in pair_spans:
            assert span["parent"] == suite_span["id"]
            assert span["attrs"]["worker"] is True
            assert span["attrs"]["cache"] == "miss"
        # Worker stage spans came along and were re-parented correctly.
        pair_ids = {span["id"] for span in pair_spans}
        stage_names = {
            r["name"] for r in records if r["parent"] in pair_ids
        }
        assert "trace.gen" in stage_names
        assert "counters.validate" in stage_names

    def test_worker_metrics_merge_into_parent(self, pairs):
        obs.enable()
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=2, use_cache=False
        )
        runner.run(pairs)
        text = obs.registry().to_prometheus()
        obs.disable()
        assert 'repro_engine_runs_total{engine="vector"} 2' in text


class TestPooledFailureTrace:
    def test_worker_failure_then_parent_retry(self, pairs, monkeypatch):
        from repro.workloads.generator import TraceGenerator

        parent_pid = os.getpid()
        failing = pairs[0].pair_name
        real_generate = TraceGenerator.generate

        def generate(self, profile, *args, **kwargs):
            # Fails in the forked pool workers only, so the parent's
            # retry of the pair succeeds.
            if os.getpid() != parent_pid and profile.pair_name == failing:
                raise SimulationError("injected worker failure")
            return real_generate(self, profile, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "generate", generate)
        obs.enable()
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=2, use_cache=False
        )
        result = runner.run(pairs)
        records = obs.tracer().finished()
        obs.disable()
        assert result.ok
        assert [r.attempts for r in result.manifest.records] == [2, 1]

        children = {}
        for record in records:
            children.setdefault(record["parent"], []).append(record)
        (suite_span,) = children[None]
        assert suite_span["name"] == "suite.run"
        worker_run, parent_run = sorted(
            (r for r in children[suite_span["id"]]
             if r["attrs"]["pair"] == failing),
            key=lambda r: r["t0_s"],
        )
        # The worker's failed attempt, grafted with its error...
        assert worker_run["name"] == "pair.run"
        assert worker_run["status"] == "error"
        assert worker_run["attrs"]["worker"] is True
        assert worker_run["attrs"]["error_type"] == "SimulationError"
        assert [r["name"] for r in children[worker_run["id"]]] == [
            "trace.gen"
        ]
        # ...then the parent's retry, one pair.retry with the full stages.
        assert parent_run["name"] == "pair.run"
        assert parent_run["status"] == "ok"
        assert parent_run["attrs"]["attempts"] == 2
        assert "worker" not in parent_run["attrs"]
        (retry,) = children[parent_run["id"]]
        assert retry["name"] == "pair.retry"
        assert [r["name"] for r in sorted(
            children[retry["id"]], key=lambda r: r["id"]
        )] == TestGoldenSpanTree.COLD_STAGES
        # The other pair ran once, in a worker.
        (other,) = [
            r for r in children[suite_span["id"]]
            if r["attrs"]["pair"] == pairs[1].pair_name
        ]
        assert other["status"] == "ok" and other["attrs"]["worker"] is True


class TestRetrySpanGraft:
    def test_retry_attempt_gets_own_parented_subtree(self, tmp_path, pairs):
        trace_path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace_path))
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, retries=2, use_cache=False
        )
        real_run = runner._session.run
        calls = {"n": 0}

        def flaky(profile):
            # Run the real stages, then fail once: the first attempt
            # leaves a full stage subtree behind before the retry.
            calls["n"] += 1
            report = real_run(profile)
            if calls["n"] == 1:
                raise SimulationError("injected transient failure")
            return report

        runner._session.run = flaky
        result = runner.run(pairs[:1])
        obs.disable()
        assert result.ok

        records, children = load_tree(trace_path)
        pair_span = [r for r in records if r["name"] == "pair.run"][0]
        assert pair_span["attrs"]["attempts"] == 2
        # First attempt's stages sit directly under pair.run; the retry
        # is one distinct subtree after them — the attempts never
        # interleave.
        stages = TestGoldenSpanTree.COLD_STAGES
        assert child_names(children, pair_span) == stages + ["pair.retry"]
        retry = [r for r in records if r["name"] == "pair.retry"][0]
        assert retry["parent"] == pair_span["id"]
        assert retry["attrs"]["attempt"] == 2
        assert child_names(children, retry) == stages

    def test_utilization_counts_retry_time_as_busy(self, tmp_path, pairs):
        from repro.obs import load_spans, utilization

        trace_path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace_path))
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, retries=2, use_cache=False
        )
        real_run = runner._session.run
        calls = {"n": 0}

        def flaky(profile):
            calls["n"] += 1
            report = real_run(profile)
            if calls["n"] == 1:
                raise SimulationError("injected transient failure")
            return report

        runner._session.run = flaky
        runner.run(pairs[:1])
        obs.disable()

        spans = load_spans(str(trace_path))
        pair_span = [s for s in spans if s["name"] == "pair.run"][0]
        retry_span = [s for s in spans if s["name"] == "pair.retry"][0]
        report = utilization(spans)
        assert len(report.workers) == 1
        line = report.workers[0]
        assert line.pairs == 1
        # The pair.run interval spans both attempts, so the retry's time
        # is busy time, not a scheduling gap.
        assert line.busy_s == pytest.approx(pair_span["wall_s"], rel=1e-6)
        assert line.busy_s > retry_span["wall_s"]


class TestPerformanceAttributionAcceptance:
    """The ISSUE acceptance path: one traced sweep, three artifacts."""

    def test_traced_sweep_yields_timeline_path_and_profile(self, tmp_path):
        from repro.obs import (
            critical_path,
            export_chrome_trace,
            load_spans,
            render_collapsed,
        )

        eight = cpu2017().pairs()[:8]
        trace_path = tmp_path / "trace.jsonl"
        obs.enable(
            trace_path=str(trace_path), profile_stages=["engine.exec"]
        )
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=2, cache_dir=tmp_path / "cache"
        )
        result = runner.run(eight)
        profile_data = obs.active_profiler().data()
        obs.disable()
        assert result.ok

        spans = load_spans(str(trace_path))

        # (a) Chrome export: Perfetto-loadable JSON, one track per
        # recording process (parent + each worker pid seen in the trace).
        out = tmp_path / "trace.chrome.json"
        export_chrome_trace(str(trace_path), str(out))
        document = json.loads(out.read_text())
        span_pids = {s["pid"] for s in spans}
        tracks = {
            e["pid"] for e in document["traceEvents"] if e["ph"] == "M"
        }
        assert tracks == span_pids
        worker_pids = span_pids - {
            s["pid"] for s in spans if s["parent"] is None
        }
        assert set(document["otherData"]["workers"]) == worker_pids
        assert len(worker_pids) == 2

        # (b) Critical path: stage self times sum within 5% of the root
        # span's wall time (exact by construction; 5% is the contract).
        report = critical_path(spans)
        attributed = sum(stage.seconds for stage in report.stages)
        assert report.total_s > 0
        assert abs(attributed - report.total_s) <= 0.05 * report.total_s

        # (c) Collapsed-stack profile for engine.exec crossed the pool
        # boundary and renders flamegraph.pl input.
        text = render_collapsed(profile_data)
        assert text
        for line in text.splitlines():
            stack, _, micros = line.rpartition(" ")
            assert stack and int(micros) > 0
        assert "repro.uarch" in text


class TestDisabledIsInert:
    def test_runner_emits_nothing_when_disabled(self, pairs):
        assert not obs.enabled()
        runner = SuiteRunner(
            sample_ops=SAMPLE_OPS, workers=1, use_cache=False
        )
        result = runner.run(pairs)
        assert result.ok
        assert obs.tracer() is None
        assert obs.registry() is None

    def test_hooks_are_noops_when_disabled(self):
        obs.record("x")
        obs.count("x")
        obs.set_gauge("x", 1.0)
        obs.observe("x", 1.0)
        with obs.profile("x") as span:
            span.set("k", "v")
        assert obs.worker_payload() is None
        obs.absorb_worker_payload(None)
