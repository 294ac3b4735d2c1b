"""Span-scoped profiler tests: gating, aggregation, exports, merging."""

import sys

import pytest

from repro import obs
from repro.obs import SpanProfiler, render_collapsed, render_top
from repro.obs.trace import ObsError


def busy_leaf(n=200):
    total = 0
    for i in range(n):
        total += i * i
    return total


def busy_parent():
    return busy_leaf() + busy_leaf()


class TestGating:
    def test_non_matching_span_does_not_install(self):
        profiler = SpanProfiler({"engine.exec"})
        profiler.span_started("trace.gen")
        assert not profiler.active
        assert sys.getprofile() is None
        profiler.span_finished("trace.gen")

    def test_matching_span_installs_and_removes(self):
        profiler = SpanProfiler({"engine.exec"})
        profiler.span_started("engine.exec")
        assert profiler.active
        assert sys.getprofile() is not None
        profiler.span_finished("engine.exec")
        assert not profiler.active
        assert sys.getprofile() is None

    def test_nested_matching_spans_use_activation_counter(self):
        profiler = SpanProfiler({"a", "b"})
        profiler.span_started("a")
        profiler.span_started("b")
        profiler.span_finished("b")
        # Still inside "a": callback must stay installed.
        assert profiler.active
        profiler.span_finished("a")
        assert not profiler.active
        assert sys.getprofile() is None

    def test_unmatched_finish_raises(self):
        profiler = SpanProfiler({"engine.exec"})
        with pytest.raises(ObsError):
            profiler.span_finished("engine.exec")

    def test_empty_stage_set_is_permanently_inactive(self):
        profiler = SpanProfiler([])
        profiler.span_started("engine.exec")
        assert not profiler.active


class TestCollection:
    def collect(self):
        profiler = SpanProfiler({"stage"})
        profiler.span_started("stage")
        busy_parent()
        profiler.span_finished("stage")
        return profiler

    def test_functions_attributed(self):
        data = self.collect().data()
        keys = list(data["funcs"])
        assert any(key.endswith(":busy_leaf") for key in keys)
        assert any(key.endswith(":busy_parent") for key in keys)
        leaf = next(
            entry for key, entry in data["funcs"].items()
            if key.endswith(":busy_leaf")
        )
        assert leaf["calls"] == 2
        assert leaf["self_s"] > 0.0
        assert leaf["cum_s"] >= leaf["self_s"]

    def test_collapsed_stacks_nest_parent_then_leaf(self):
        data = self.collect().data()
        assert any(
            "busy_parent" in stack
            and stack.index("busy_parent") < stack.index("busy_leaf")
            for stack in data["stacks"]
            if "busy_leaf" in stack and "busy_parent" in stack
        )

    def test_data_is_json_types_and_schema_stamped(self):
        import json

        data = self.collect().data()
        assert data["schema"] == 1
        assert data["stages"] == ["stage"]
        json.dumps(data)  # picklable/serializable worker hand-off

    def test_recursion_counts_cum_once(self):
        profiler = SpanProfiler({"stage"})

        def recurse(n):
            if n == 0:
                return 0
            return 1 + recurse(n - 1)

        profiler.span_started("stage")
        recurse(5)
        profiler.span_finished("stage")
        data = profiler.data()
        entry = next(
            entry for key, entry in data["funcs"].items()
            if key.endswith("recurse")
        )
        assert entry["calls"] == 6
        # cum counts only the outermost frame: it cannot exceed the sum
        # of self times across the whole chain by double counting.
        total_self = sum(e["self_s"] for e in data["funcs"].values())
        assert entry["cum_s"] <= total_self * 1.5 + 1e-3

    def test_reset_clears_aggregates(self):
        profiler = self.collect()
        profiler.reset()
        data = profiler.data()
        assert data["funcs"] == {} and data["stacks"] == {}


class TestExports:
    def sample(self):
        return {
            "schema": 1,
            "stages": ["engine.exec"],
            "stacks": {"a:f;a:g": 0.002, "a:f": 0.001, "a:h": 1e-9},
            "funcs": {
                "a:f": {"calls": 1, "self_s": 0.001, "cum_s": 0.003},
                "a:g": {"calls": 1, "self_s": 0.002, "cum_s": 0.002},
            },
        }

    def test_collapsed_is_sorted_microseconds(self):
        text = render_collapsed(self.sample())
        assert text.splitlines() == ["a:f 1000", "a:f;a:g 2000"]

    def test_collapsed_drops_zero_rounded_stacks(self):
        assert "a:h" not in render_collapsed(self.sample())

    def test_top_sorted_by_self_time_with_footer(self):
        text = render_top(self.sample())
        lines = text.splitlines()
        assert "function" in lines[0]
        assert lines[2].startswith("a:g")  # largest self time first
        assert "2 function(s) over stages engine.exec" in lines[-1]

    def test_merge_profile_data_adds_and_unions(self):
        # How the parent pools worker profiles: shared stacks and
        # functions add up, ones only one payload holds carry over.
        profiler = SpanProfiler({"engine.exec"})
        profiler.merge(self.sample())
        assert profiler.data()["stacks"] == {
            k: pytest.approx(v) for k, v in self.sample()["stacks"].items()
        }
        other = self.sample()
        other["stacks"]["a:f;a:k"] = 0.004
        other["funcs"]["a:k"] = {"calls": 3, "self_s": 0.004, "cum_s": 0.004}
        profiler.merge(other)
        merged = profiler.data()
        assert merged["stacks"]["a:f;a:g"] == pytest.approx(0.004)
        assert merged["stacks"]["a:f;a:k"] == pytest.approx(0.004)
        assert merged["funcs"]["a:f"]["calls"] == 2
        assert merged["funcs"]["a:k"]["calls"] == 3


class TestObsWiring:
    def test_enable_without_stages_leaves_profiler_off(self):
        obs.enable()
        assert obs.active_profiler() is None
        assert obs.profile_stage_names() == ()
        # Hot path: the tracer carries no profiler to consult.
        assert obs.tracer()._profiler is None

    def test_profiled_stage_collects_inside_span_only(self):
        obs.enable(profile_stages=["stage"])
        assert obs.profile_stage_names() == ("stage",)
        busy_parent()  # outside any span: must not be recorded
        with obs.profile("stage"):
            busy_parent()
        data = obs.active_profiler().data()
        leaf = next(
            entry for key, entry in data["funcs"].items()
            if key.endswith(":busy_leaf")
        )
        assert leaf["calls"] == 2  # only the in-span call pair

    def test_worker_payload_round_trip_merges_profile(self):
        obs.enable(profile_stages=["stage"])
        with obs.profile("stage"):
            busy_parent()
        payload = obs.worker_payload()
        assert payload["profile"]["funcs"]
        # The worker resets after shipping its payload.
        assert obs.active_profiler().data()["funcs"] == {}
        obs.absorb_worker_payload(payload)
        merged = obs.active_profiler().data()
        assert any(k.endswith(":busy_leaf") for k in merged["funcs"])
