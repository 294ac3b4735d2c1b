"""Trace-file summarization tests."""

import json
import warnings

import pytest

from repro.obs import (
    TraceFileError,
    load_spans,
    render_table,
    render_tree,
    summarize,
    summarize_spans,
)


def span(span_id, parent, name, wall_s, status="ok", **attrs):
    return {
        "schema": 1, "id": span_id, "parent": parent,
        "depth": 0 if parent is None else 1, "name": name,
        "wall_s": wall_s, "cpu_s": wall_s, "status": status, "attrs": attrs,
    }


SAMPLE = [
    span(2, 1, "trace.gen", 0.3),
    span(3, 1, "engine.exec", 0.5),
    span(1, None, "pair.run", 1.0),
    span(5, 4, "trace.gen", 0.1),
    span(6, 4, "engine.exec", 0.2, status="error"),
    span(4, None, "pair.run", 0.4),
]


class TestLoadSpans:
    def test_loads_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(record) for record in SAMPLE) + "\n\n"
        )
        assert [s["name"] for s in load_spans(str(path))] == [
            s["name"] for s in SAMPLE
        ]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFileError):
            load_spans(str(tmp_path / "nope.jsonl"))

    def test_invalid_json_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "ok", "id": 1}\nnot json\n')
        with pytest.warns(UserWarning, match=":2"):
            spans = load_spans(str(path))
        assert [s["name"] for s in spans] == ["ok"]

    def test_non_span_record_warns_and_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": 1}\n{"name": "ok", "id": 2}\n')
        with pytest.warns(UserWarning, match=":1"):
            spans = load_spans(str(path))
        assert [s["id"] for s in spans] == [2]

    def test_non_utf8_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"name": "a", "id": 1}\n\xff\n{"name": "b", "id": 2}\n'
        )
        with pytest.warns(UserWarning, match=":2 is not valid JSON"):
            spans = load_spans(str(path))
        assert [s["name"] for s in spans] == ["a", "b"]

    def test_truncated_trailing_line_salvaged(self, tmp_path):
        # A crash mid-write leaves a partial last line; the good prefix
        # must still load (same salvage contract as RunLedger reads).
        path = tmp_path / "t.jsonl"
        good = "\n".join(json.dumps(record) for record in SAMPLE)
        truncated = json.dumps(span(9, None, "pair.run", 0.7))[:25]
        path.write_text(good + "\n" + truncated)
        with pytest.warns(UserWarning):
            spans = load_spans(str(path))
        assert len(spans) == len(SAMPLE)

    def test_warnings_name_the_caller(self, tmp_path):
        # However many repro.obs frames the read went through, the
        # warning points at the code that asked for it.
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(SAMPLE[0]) + "\nnot json\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_spans(str(path))
            summarize(str(path))
        assert [w.filename for w in caught] == [__file__, __file__]


class TestSummarizeSpans:
    def test_self_time_subtracts_direct_children(self):
        summary = summarize_spans(SAMPLE)
        stages = {line.name: line for line in summary.stages}
        pair = stages["pair.run"]
        assert pair.count == 2
        assert pair.wall_s == pytest.approx(1.4)
        # 1.0 - (0.3 + 0.5) plus 0.4 - (0.1 + 0.2)
        assert pair.self_s == pytest.approx(0.3)
        assert stages["trace.gen"].self_s == pytest.approx(0.4)
        assert stages["engine.exec"].errors == 1

    def test_roots_and_totals(self):
        summary = summarize_spans(SAMPLE)
        assert [r["id"] for r in summary.roots] == [1, 4]
        assert summary.n_spans == 6
        # Self times over the tree sum to the roots' wall time.
        assert summary.total_self_s == pytest.approx(1.4)

    def test_stages_sorted_by_self_time_then_name(self):
        summary = summarize_spans(SAMPLE)
        self_times = [line.self_s for line in summary.stages]
        assert self_times == sorted(self_times, reverse=True)

    def test_negative_self_time_clamped(self):
        # A child reporting more wall time than its parent (clock skew
        # across processes) must not produce negative self time.
        spans = [span(2, 1, "child", 2.0), span(1, None, "parent", 1.0)]
        summary = summarize_spans(spans)
        stages = {line.name: line for line in summary.stages}
        assert stages["parent"].self_s == 0.0

    def test_empty_input(self):
        summary = summarize_spans([])
        assert summary.stages == []
        assert summary.total_self_s == 0.0


class TestRendering:
    def test_table_has_stages_and_footer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(record) for record in SAMPLE) + "\n"
        )
        table = render_table(summarize(str(path)))
        assert "stage" in table and "self_ms" in table
        assert "pair.run" in table
        assert "6 spans, 2 root(s)" in table

    def test_tree_indents_children_and_marks_errors(self):
        tree = render_tree(summarize_spans(SAMPLE))
        lines = tree.splitlines()
        assert lines[0].startswith("pair.run")
        assert lines[1].startswith("  trace.gen")
        assert any("[error]" in line for line in lines)
