"""Chrome trace-event export tests."""

import json

import pytest

from repro.obs import TraceFileError, chrome_trace, export_chrome_trace


def span(span_id, parent, name, t0, wall, pid=100, **attrs):
    return {
        "schema": 2, "id": span_id, "parent": parent,
        "depth": 0 if parent is None else 1, "name": name,
        "wall_s": wall, "cpu_s": wall, "status": "ok", "attrs": attrs,
        "t0_s": t0, "pid": pid,
    }


SAMPLE = [
    span(2, 1, "pair.run", 0.1, 0.4, pid=101, pair="a", cache="miss"),
    span(3, 1, "pair.run", 0.1, 0.6, pid=102, pair="b", cache="hit"),
    span(1, None, "suite.run", 0.0, 0.8, pid=100, pairs=2),
]


class TestChromeTrace:
    def test_x_events_in_microseconds(self):
        doc = chrome_trace(SAMPLE)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == [
            "pair.run", "pair.run", "suite.run"
        ]
        root = xs[-1]
        assert root["ts"] == 0.0 and root["dur"] == pytest.approx(0.8e6)
        assert root["args"]["status"] == "ok"
        assert root["args"]["span_id"] == 1

    def test_one_named_track_per_pid(self):
        doc = chrome_trace(SAMPLE)
        meta = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert meta == {
            100: "sweep (parent)", 101: "worker 101", 102: "worker 102"
        }
        assert doc["otherData"]["workers"] == [101, 102]

    def test_progress_counter_sampled_at_pair_ends(self):
        doc = chrome_trace(SAMPLE)
        counters = [
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "sweep progress"
        ]
        assert [c["args"]["pairs_completed"] for c in counters] == [1, 2]
        assert counters[-1]["args"]["cache_hits"] == 1
        # Counters live on the parent track so the timeline stacks them
        # above the sweep lane.
        assert {c["pid"] for c in counters} == {100}

    def test_pre_timeline_schema_raises(self):
        old = [dict(s) for s in SAMPLE]
        for record in old:
            record.pop("t0_s")
        with pytest.raises(TraceFileError, match="t0_s"):
            chrome_trace(old)

    def test_mixed_schema_skips_and_counts(self):
        legacy = dict(SAMPLE[0])
        legacy.pop("t0_s")
        doc = chrome_trace(SAMPLE + [legacy])
        assert doc["otherData"]["spans"] == 3
        assert doc["otherData"]["skipped_spans"] == 1

    def test_empty_input_yields_empty_document(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert doc["otherData"]["spans"] == 0


class TestExportFile:
    def test_writes_loadable_json(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            "\n".join(json.dumps(record) for record in SAMPLE) + "\n"
        )
        out = tmp_path / "t.chrome.json"
        returned = export_chrome_trace(str(trace), str(out))
        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == len(returned["traceEvents"])
        assert all(
            set(e) >= {"name", "ph", "pid"} for e in document["traceEvents"]
        )
