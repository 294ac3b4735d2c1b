"""Tracer unit tests: nesting, determinism, sinks, grafting."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import NULL_SPAN, ObsError, Tracer
from repro.obs.trace import SPAN_SCHEMA


def names(tracer):
    return [record["name"] for record in tracer.finished()]


class TestSpanBasics:
    def test_spans_nest_and_emit_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert names(tracer) == ["inner", "outer"]
        inner, outer = tracer.finished()
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["depth"] == 1
        assert outer["depth"] == 0

    def test_ids_are_sequential_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        by_name = {r["name"]: r["id"] for r in tracer.finished()}
        assert by_name == {"a": 1, "b": 2, "c": 3}

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("work", engine="vector") as span:
            span.set("ops", 100)
        record = tracer.finished()[0]
        assert record["attrs"] == {"engine": "vector", "ops": 100}
        assert record["schema"] == SPAN_SCHEMA
        assert record["wall_s"] >= 0.0
        assert record["cpu_s"] >= 0.0

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        record = tracer.finished()[0]
        assert record["status"] == "error"
        assert record["attrs"]["error_type"] == "ValueError"

    def test_record_is_parented_under_active_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record("marker", wall_s=0.5, pair="x")
        marker, outer = tracer.finished()
        assert marker["name"] == "marker"
        assert marker["parent"] == outer["id"]
        assert marker["wall_s"] == 0.5
        assert marker["attrs"] == {"pair": "x"}

    def test_out_of_order_finish_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        with pytest.raises(ObsError):
            outer.__exit__(None, None, None)

    def test_deterministic_shape_across_runs(self):
        def run():
            tracer = Tracer()
            with tracer.span("suite.run", pairs=2):
                for pair in ("a", "b"):
                    with tracer.span("pair.run", pair=pair):
                        tracer.record("trace.gen")
            return [
                (r["id"], r["parent"], r["name"], r["attrs"])
                for r in tracer.finished()
            ]

        assert run() == run()


class TestBufferAndSink:
    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(4):
            tracer.record("span%d" % index)
        assert names(tracer) == ["span2", "span3"]
        assert tracer.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObsError):
            Tracer(capacity=0)

    def test_sink_gets_every_span_despite_eviction(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(capacity=1, sink_path=str(path)) as tracer:
            for index in range(3):
                tracer.record("span%d" % index)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "span0", "span1", "span2",
        ]

    def test_bad_sink_path_fails_at_construction(self, tmp_path):
        with pytest.raises(ObsError):
            Tracer(sink_path=str(tmp_path / "missing" / "trace.jsonl"))

    def test_obserror_is_a_reproerror(self):
        assert issubclass(ObsError, ReproError)

    def test_close_is_idempotent(self, tmp_path):
        tracer = Tracer(sink_path=str(tmp_path / "t.jsonl"))
        tracer.close()
        tracer.close()

    def test_drain_empties_the_buffer(self):
        tracer = Tracer()
        tracer.record("one")
        drained = tracer.drain()
        assert [r["name"] for r in drained] == ["one"]
        assert tracer.finished() == []


class TestGraft:
    def worker_batch(self):
        worker = Tracer()
        with worker.span("pair.run", pair="x"):
            with worker.span("trace.gen"):
                pass
        return worker.drain()

    def test_graft_remaps_ids_and_reparents(self):
        parent = Tracer()
        with parent.span("suite.run"):
            grafted = parent.graft(
                self.worker_batch(), extra_root_attrs={"worker": True}
            )
        assert grafted == 2
        by_name = {r["name"]: r for r in parent.finished()}
        pair, suite = by_name["pair.run"], by_name["suite.run"]
        gen = by_name["trace.gen"]
        assert pair["parent"] == suite["id"]
        assert gen["parent"] == pair["id"]
        assert pair["depth"] == 1 and gen["depth"] == 2
        assert pair["attrs"]["worker"] is True
        assert "worker" not in gen["attrs"]
        # Remapped ids continue the parent's sequence, no collisions.
        ids = [r["id"] for r in parent.finished()]
        assert len(ids) == len(set(ids))

    def test_graft_without_active_span_keeps_roots(self):
        parent = Tracer()
        parent.graft(self.worker_batch())
        by_name = {r["name"]: r for r in parent.finished()}
        assert by_name["pair.run"]["parent"] is None

    def test_orphan_attaches_under_graft_point(self):
        # A child whose parent was evicted from the worker's ring buffer.
        batch = [{
            "schema": SPAN_SCHEMA, "id": 7, "parent": 99, "depth": 1,
            "name": "stray", "wall_s": 0.0, "cpu_s": 0.0, "status": "ok",
            "attrs": {},
        }]
        parent = Tracer()
        with parent.span("suite.run"):
            parent.graft(batch)
        by_name = {r["name"]: r for r in parent.finished()}
        assert by_name["stray"]["parent"] == by_name["suite.run"]["id"]

    def test_graft_rejects_record_without_id(self):
        with pytest.raises(ObsError):
            Tracer().graft([{"name": "x"}])


class TestNullSpan:
    def test_null_span_protocol(self):
        with NULL_SPAN as span:
            assert span.set("k", "v") is NULL_SPAN

    def test_null_span_never_swallows(self):
        with pytest.raises(RuntimeError):
            with NULL_SPAN:
                raise RuntimeError("pass through")
