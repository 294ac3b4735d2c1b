"""Offline analysis of a span file recorded with ``--trace``.

Every reader of a JSONL trace lives here, over one tree index:

* **Summary** — wall/CPU time per span *name* (the "stage"), each stage
  credited with its **self time** (wall time minus the wall time of its
  direct children) as well as its cumulative time, so the table answers
  "where did the run actually go" without double counting nested
  stages; plus the indented span tree itself.
* **Critical path** — through all the parallelism, which chain of spans
  actually determined the sweep's end-to-end wall time?  Speeding up
  anything off that chain cannot move the total.
* **Utilization** — how busy was each worker, where are the scheduling
  gaps, and which pairs straggled?
* **Chrome export** — the Trace Event Format that ``chrome://tracing``
  and https://ui.perfetto.dev load directly: one complete (``"X"``)
  event per span, one track per recording process, and derived counter
  (``"C"``) events for the sweep's progress.

The last three need the span *timeline* (``t0_s`` start offsets, schema
>= 2), not just durations; the summary works on any schema.  The
critical path is computed by walking backwards from the root span's
end: at every instant the algorithm descends into the child span that
finished last and still covers the cursor, so every instant of the
root's wall time is attributed to exactly one span — the per-stage
on-path self times therefore sum to the root's wall time by
construction (the property the acceptance tests lock).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .ledger import salvage_jsonl

#: Span name the runner gives per-pair work (busy time for utilization).
PAIR_SPAN = "pair.run"

#: Trace Event Format "other data" stamp.
TIMELINE_SCHEMA = 1


class TraceFileError(ReproError):
    """Raised when a trace file cannot be read or parsed."""


def load_spans(path: str) -> List[Dict[str, object]]:
    """Read one span dict per JSONL line (blank lines skipped).

    Salvage-friendly, through the same reader as
    :meth:`~repro.obs.ledger.RunLedger.records`
    (:func:`~repro.obs.ledger.salvage_jsonl`): a corrupt or truncated
    line — typically the trailing half-line of a sweep that was killed
    mid-write — is skipped with a warning instead of sinking the whole
    file; every well-formed span around it is still returned.  Only an
    unreadable file raises.
    """
    try:
        return salvage_jsonl(path, "trace", "span", "name")
    except OSError as error:
        raise TraceFileError("cannot read trace %s: %s" % (path, error)) from error


# ---------------------------------------------------------------------------
# The span tree
# ---------------------------------------------------------------------------

def _t0(span: Dict[str, object]) -> float:
    return float(span.get("t0_s") or 0.0)


def _t1(span: Dict[str, object]) -> float:
    return _t0(span) + float(span.get("wall_s") or 0.0)


def _timeline(
    spans: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """The spans that carry a ``t0_s`` start offset.

    Raises when there are spans but none of them can be placed on a
    timeline (a file recorded before span schema 2).
    """
    placeable = [
        span for span in spans if isinstance(span.get("t0_s"), (int, float))
    ]
    if spans and not placeable:
        raise TraceFileError(
            "trace has no t0_s start offsets (span schema < 2); re-record "
            "it with --trace under this version to analyze the timeline"
        )
    return placeable


def _children_index(
    spans: Sequence[Dict[str, object]],
) -> Tuple[List[Dict[str, object]], Dict[object, List[Dict[str, object]]]]:
    """The roots, and each span id's direct children, in file order.

    A span whose parent is not in the file (an orphan) counts as a root.
    """
    known = {span.get("id") for span in spans}
    roots: List[Dict[str, object]] = []
    children: Dict[object, List[Dict[str, object]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is None or parent not in known:
            roots.append(span)
        else:
            children.setdefault(parent, []).append(span)
    return roots, children


def _pick_root(roots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    if not roots:
        raise TraceFileError("trace holds no root span")
    # The newest longest sweep: prefer the root with the largest wall
    # time (ties to the later start) so a file holding several sweeps
    # analyzes the dominant one.
    return max(roots, key=lambda span: (float(span.get("wall_s") or 0.0),
                                        _t0(span)))


# ---------------------------------------------------------------------------
# Per-stage summary and span tree
# ---------------------------------------------------------------------------

@dataclass
class StageLine:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.wall_s / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Everything :func:`summarize` extracts from one trace file."""

    spans: List[Dict[str, object]]
    stages: List[StageLine]
    total_self_s: float
    roots: List[Dict[str, object]] = field(default_factory=list)

    @property
    def n_spans(self) -> int:
        return len(self.spans)


def summarize_spans(spans: List[Dict[str, object]]) -> TraceSummary:
    """Aggregate spans per stage name, computing self times."""
    roots, children = _children_index(spans)
    stages: Dict[str, StageLine] = {}
    total_self = 0.0
    for span in spans:
        name = str(span.get("name"))
        line = stages.get(name)
        if line is None:
            line = stages[name] = StageLine(name)
        wall = float(span.get("wall_s") or 0.0)
        child_wall = sum(
            float(child.get("wall_s") or 0.0)
            for child in children.get(span.get("id"), ())
        )
        self_s = max(wall - child_wall, 0.0)
        line.count += 1
        line.wall_s += wall
        line.self_s += self_s
        line.cpu_s += float(span.get("cpu_s") or 0.0)
        if span.get("status") == "error":
            line.errors += 1
        total_self += self_s

    ordered = sorted(
        stages.values(), key=lambda line: (-line.self_s, line.name)
    )
    return TraceSummary(
        spans=spans, stages=ordered, total_self_s=total_self, roots=roots
    )


def summarize(path: str) -> TraceSummary:
    return summarize_spans(load_spans(path))


def render_table(summary: TraceSummary) -> str:
    """The per-stage breakdown table ``repro trace summarize`` prints."""
    header = "%-24s %7s %12s %12s %10s %7s %7s" % (
        "stage", "count", "total_ms", "self_ms", "mean_ms", "self%", "errors"
    )
    lines = [header, "-" * len(header)]
    total = summary.total_self_s
    for stage in summary.stages:
        share = 100.0 * stage.self_s / total if total > 0 else 0.0
        lines.append(
            "%-24s %7d %12.2f %12.2f %10.3f %6.1f%% %7d"
            % (
                stage.name, stage.count, 1e3 * stage.wall_s,
                1e3 * stage.self_s, stage.mean_ms, share, stage.errors,
            )
        )
    lines.append(
        "%d spans, %d root(s), %.2f ms total self time"
        % (summary.n_spans, len(summary.roots), 1e3 * summary.total_self_s)
    )
    return "\n".join(lines)


def render_tree(summary: TraceSummary) -> str:
    """An indented span tree (names + attrs), for debugging traces."""
    roots, children = _children_index(summary.spans)
    lines: List[str] = []

    def walk(span: Dict[str, object], depth: int) -> None:
        attrs = span.get("attrs") or {}
        attr_text = " ".join(
            "%s=%s" % (key, attrs[key]) for key in sorted(attrs)
        )
        status = span.get("status")
        suffix = " [%s]" % status if status != "ok" else ""
        lines.append("%s%s (%.2f ms)%s%s" % (
            "  " * depth, span.get("name"), 1e3 * float(span.get("wall_s") or 0.0),
            (" " + attr_text) if attr_text else "", suffix,
        ))
        for child in children.get(span.get("id"), ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    """One on-path interval attributed to a single span."""

    name: str
    span_id: int
    start_s: float
    duration_s: float
    depth: int


@dataclass(frozen=True)
class StageShare:
    """Aggregated on-path self time of every span sharing one name."""

    name: str
    seconds: float
    share: float
    segments: int


@dataclass
class CriticalPathReport:
    """What :func:`critical_path` extracts from one trace."""

    root_name: str
    root_id: int
    total_s: float
    segments: List[PathSegment]
    stages: List[StageShare] = field(default_factory=list)

    @property
    def attributed_s(self) -> float:
        return sum(segment.duration_s for segment in self.segments)

    def render(self, limit: Optional[int] = None) -> str:
        header = "%-28s %7s %12s %7s" % (
            "stage (on critical path)", "segs", "self_ms", "share"
        )
        lines = [
            "critical path of %s (span %d): %.2f ms wall"
            % (self.root_name, self.root_id, 1e3 * self.total_s),
            header,
            "-" * len(header),
        ]
        for stage in self.stages:
            lines.append(
                "%-28s %7d %12.2f %6.1f%%"
                % (stage.name, stage.segments, 1e3 * stage.seconds,
                   100.0 * stage.share)
            )
        shown = self.segments[:limit] if limit else self.segments
        lines.append("")
        lines.append("chain (time order%s):"
                     % (", first %d segments" % limit
                        if limit and len(self.segments) > limit else ""))
        for segment in shown:
            lines.append(
                "  %10.2f ms  %s%-28s %10.2f ms"
                % (1e3 * segment.start_s, "  " * segment.depth,
                   segment.name, 1e3 * segment.duration_s)
            )
        return "\n".join(lines)


def critical_path(spans: Sequence[Dict[str, object]]) -> CriticalPathReport:
    """The longest dependency chain through the span tree.

    Walks backwards from the root's end time; at each step the cursor
    descends into the child that finished last before it.  Every instant
    of the root's wall time lands on exactly one span, so the stage
    self-times sum to the root's wall time.
    """
    _timeline(spans)
    roots, children = _children_index(spans)
    root = _pick_root(roots)

    segments: List[PathSegment] = []

    def attribute(span: Dict[str, object], lo: float, hi: float,
                  depth: int) -> None:
        """Attribute [lo, hi] of wall time to ``span`` and its children."""
        cursor = hi
        ordered = sorted(
            children.get(span.get("id"), []),
            key=lambda child: (_t1(child), _t0(child)),
            reverse=True,
        )
        for child in ordered:
            if cursor <= lo:
                break
            child_end = min(_t1(child), cursor)
            child_start = max(_t0(child), lo)
            if child_end <= child_start:
                continue
            if cursor > child_end:
                # The gap after the last-finishing child is the parent's
                # own on-path time.
                segments.append(PathSegment(
                    name=str(span.get("name")),
                    span_id=int(span.get("id") or 0),
                    start_s=child_end,
                    duration_s=cursor - child_end,
                    depth=depth,
                ))
            attribute(child, child_start, child_end, depth + 1)
            cursor = child_start
        if cursor > lo:
            segments.append(PathSegment(
                name=str(span.get("name")),
                span_id=int(span.get("id") or 0),
                start_s=lo,
                duration_s=cursor - lo,
                depth=depth,
            ))

    total = float(root.get("wall_s") or 0.0)
    attribute(root, _t0(root), _t1(root), 0)
    segments.sort(key=lambda segment: segment.start_s)

    by_name: Dict[str, List[PathSegment]] = {}
    for segment in segments:
        by_name.setdefault(segment.name, []).append(segment)
    stages = [
        StageShare(
            name=name,
            seconds=sum(s.duration_s for s in segs),
            share=(
                sum(s.duration_s for s in segs) / total if total > 0 else 0.0
            ),
            segments=len(segs),
        )
        for name, segs in by_name.items()
    ]
    stages.sort(key=lambda stage: (-stage.seconds, stage.name))
    return CriticalPathReport(
        root_name=str(root.get("name")),
        root_id=int(root.get("id") or 0),
        total_s=total,
        segments=segments,
        stages=stages,
    )


# ---------------------------------------------------------------------------
# Worker utilization
# ---------------------------------------------------------------------------

def _merge_intervals(
    intervals: List[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class WorkerLine:
    """Busy/idle accounting of one process over the sweep window."""

    pid: int
    is_parent: bool
    pairs: int
    cache_hits: int
    busy_s: float
    idle_s: float
    utilization: float
    longest_gap_s: float
    last_end_s: float


@dataclass
class UtilizationReport:
    """What :func:`utilization` extracts from one trace."""

    window_s: float
    workers: List[WorkerLine]

    @property
    def pool_utilization(self) -> float:
        """Busy fraction across every track (parent included)."""
        busy = sum(line.busy_s for line in self.workers)
        denom = self.window_s * len(self.workers)
        return busy / denom if denom > 0 else 0.0

    @property
    def straggler_s(self) -> float:
        """How long the last track kept working after the first finished."""
        if len(self.workers) < 2:
            return 0.0
        ends = [line.last_end_s for line in self.workers]
        return max(ends) - min(ends)

    def render(self) -> str:
        header = "%-16s %6s %6s %10s %10s %6s %10s" % (
            "track", "pairs", "hits", "busy_ms", "idle_ms", "util", "gap_ms"
        )
        lines = [
            "sweep window: %.2f ms over %d track(s)"
            % (1e3 * self.window_s, len(self.workers)),
            header,
            "-" * len(header),
        ]
        for line in self.workers:
            label = "parent %d" % line.pid if line.is_parent else (
                "worker %d" % line.pid
            )
            lines.append(
                "%-16s %6d %6d %10.2f %10.2f %5.1f%% %10.2f"
                % (label, line.pairs, line.cache_hits, 1e3 * line.busy_s,
                   1e3 * line.idle_s, 100.0 * line.utilization,
                   1e3 * line.longest_gap_s)
            )
        lines.append(
            "pool utilization %.1f%%, straggler spread %.2f ms"
            % (100.0 * self.pool_utilization, 1e3 * self.straggler_s)
        )
        return "\n".join(lines)


def utilization(spans: Sequence[Dict[str, object]]) -> UtilizationReport:
    """Per-worker busy/idle intervals from pair-span start/end times.

    Busy time is the union of ``pair.run`` intervals recorded by each
    pid — cache hits, simulated misses, *and retry attempts* all count
    (a retried pair occupies its track for every attempt).  Idle time is
    the rest of the sweep window (the analyzed root span's interval),
    and the longest internal gap exposes scheduling stalls.
    """
    _timeline(spans)
    root = _pick_root(_children_index(spans)[0])
    window_start, window_end = _t0(root), _t1(root)
    window = max(window_end - window_start, 0.0)
    main_pid = int(root.get("pid") or 0)

    by_pid: Dict[int, List[Dict[str, object]]] = {}
    for span in spans:
        if span.get("name") != PAIR_SPAN:
            continue
        # Only spans inside the analyzed window (a file can hold several
        # sweeps; accounting must not mix them).
        if _t1(span) < window_start or _t0(span) > window_end:
            continue
        by_pid.setdefault(int(span.get("pid") or 0), []).append(span)

    lines: List[WorkerLine] = []
    for pid in sorted(by_pid):
        batch = by_pid[pid]
        intervals = _merge_intervals([
            (max(_t0(span), window_start), min(_t1(span), window_end))
            for span in batch
        ])
        busy = sum(end - start for start, end in intervals)
        gaps: List[float] = []
        if intervals:
            gaps.append(intervals[0][0] - window_start)
            for (_, prev_end), (next_start, _) in zip(
                intervals, intervals[1:]
            ):
                gaps.append(next_start - prev_end)
            gaps.append(window_end - intervals[-1][1])
        hits = sum(
            1 for span in batch
            if (span.get("attrs") or {}).get("cache") == "hit"
        )
        lines.append(WorkerLine(
            pid=pid,
            is_parent=pid == main_pid,
            pairs=len(batch),
            cache_hits=hits,
            busy_s=busy,
            idle_s=max(window - busy, 0.0),
            utilization=busy / window if window > 0 else 0.0,
            longest_gap_s=max(gaps) if gaps else 0.0,
            last_end_s=max(_t1(span) for span in batch),
        ))
    # Workers first in pid order, parent track last — stable and easy to
    # eyeball for skew.
    lines.sort(key=lambda line: (line.is_parent, line.pid))
    return UtilizationReport(window_s=window, workers=lines)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------

def chrome_trace(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Build a Trace Event Format document from span records.

    Only spans carrying a ``t0_s`` start offset can be placed on the
    timeline; older (schema-1) records are counted and skipped, so a
    mixed file still exports everything it can.

    Raises:
        TraceFileError: When no span carries a timeline position.
    """
    placeable = _timeline(spans)
    roots = _children_index(placeable)[0]
    main_pid = int(_pick_root(roots).get("pid") or 0) if roots else 0
    events: List[Dict[str, object]] = []
    pids = []
    for span in placeable:
        pid = int(span.get("pid") or 0)
        if pid not in pids:
            pids.append(pid)
        args = dict(span.get("attrs") or {})
        args["status"] = span.get("status", "ok")
        args["span_id"] = span.get("id")
        events.append({
            "name": str(span.get("name")),
            "cat": "span",
            "ph": "X",
            "ts": round(_t0(span) * 1e6, 3),
            "dur": round(float(span.get("wall_s") or 0.0) * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": args,
        })

    # One named track per recording process, workers labelled as such.
    for pid in pids:
        label = "sweep (parent)" if pid == main_pid else "worker %d" % pid
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": pid,
            "args": {"name": label},
        })

    # Derived counters: sweep progress over time, sampled at each
    # pair-span end.  Deterministic given the trace (sorted by end time,
    # span id breaking exact ties).
    pair_spans = sorted(
        (span for span in placeable if span.get("name") == PAIR_SPAN),
        key=lambda span: (_t1(span), int(span.get("id") or 0)),
    )
    done = hits = 0
    for span in pair_spans:
        done += 1
        if (span.get("attrs") or {}).get("cache") == "hit":
            hits += 1
        events.append({
            "name": "sweep progress", "ph": "C", "pid": main_pid,
            "ts": round(_t1(span) * 1e6, 3),
            "args": {"pairs_completed": done, "cache_hits": hits},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TIMELINE_SCHEMA,
            "spans": len(placeable),
            "skipped_spans": len(spans) - len(placeable),
            "workers": [pid for pid in pids if pid != main_pid],
        },
    }


def export_chrome_trace(trace_path: str, output_path: str) -> Dict[str, object]:
    """Read a span JSONL file and write the chrome JSON next to it.

    Returns the document for callers that want the event counts.
    """
    document = chrome_trace(load_spans(trace_path))
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return document
