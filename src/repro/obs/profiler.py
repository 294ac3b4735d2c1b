"""Span-scoped deterministic profiler: *which functions* ate a stage.

The span tracer answers "which stage took the time"; this module drops
one level lower and attributes a selected stage's wall time to the
Python (and C) functions that ran inside it.  A :class:`SpanProfiler`
holds a set of stage names (span names, e.g. ``engine.exec``) and
installs a ``sys.setprofile`` callback only while one of those spans is
open, so the rest of the pipeline — and every run that never asks for
profiling — pays nothing beyond one attribute check per span.

Collected data is a plain dict of JSON types (:meth:`SpanProfiler.data`),
so worker processes ship their profiles home through the same picklable
result channel their spans use, and the parent folds them together with
:meth:`SpanProfiler.merge`.  Two export formats:

* **Collapsed stacks** (:func:`render_collapsed`): one
  ``frame;frame;frame <microseconds>`` line per observed call stack —
  the format ``flamegraph.pl`` and speedscope ingest directly.
* **Top-N table** (:func:`render_top`): per-function call count,
  cumulative, and self time, sorted by self time.

Deterministic in shape: under a fixed seed the same stages call the same
functions in the same nesting, so two runs differ only in the timing
values — the same contract the span tree keeps.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .trace import ObsError

#: Profile-payload schema version.
PROFILE_SCHEMA = 1

#: Separator between frames of a collapsed stack line.
STACK_SEP = ";"


def _frame_key(frame) -> str:
    """``module:qualname`` for a Python frame (stable across runs)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    # co_qualname exists from 3.11; co_name keeps 3.9/3.10 working with
    # the plain function name.
    name = getattr(code, "co_qualname", code.co_name)
    return "%s:%s" % (module, name)


def _c_key(func) -> str:
    """A stable key for a built-in/C callable."""
    module = getattr(func, "__module__", None)
    name = getattr(func, "__qualname__", getattr(func, "__name__", "?"))
    if module:
        return "<%s.%s>" % (module, name)
    return "<%s>" % name


class SpanProfiler:
    """Aggregating ``sys.setprofile`` collector gated on span names.

    Args:
        stages: Span names that activate collection (``{"engine.exec"}``).
            An empty set builds a valid but permanently inactive profiler.

    The tracer calls :meth:`span_started` / :meth:`span_finished` on
    every span; only matching names install/remove the profile callback.
    Nested matching spans are handled with an activation counter, so the
    callback is installed exactly while at least one selected stage is
    open.
    """

    def __init__(self, stages: Iterable[str]):
        self.stages: FrozenSet[str] = frozenset(stages)
        self._active = 0
        #: Live call stack: [key, enter_time, child_time] triples.
        self._stack: List[List[object]] = []
        #: Self time per collapsed stack tuple, seconds.
        self._stack_self: Dict[Tuple[str, ...], float] = {}
        #: Per-function aggregates.
        self._calls: Dict[str, int] = {}
        self._self: Dict[str, float] = {}
        self._cum: Dict[str, float] = {}
        #: Active occurrences per key, to keep recursive cumulative time
        #: from double counting.
        self._depth: Dict[str, int] = {}
        self._prior_callback = None

    # -- tracer hooks ------------------------------------------------------

    def span_started(self, name: str) -> None:
        if name not in self.stages:
            return
        self._active += 1
        if self._active == 1:
            self._stack = []
            self._prior_callback = sys.getprofile()
            sys.setprofile(self._callback)

    def span_finished(self, name: str) -> None:
        if name not in self.stages:
            return
        if self._active <= 0:
            raise ObsError(
                "profiler stage %r finished without a matching start" % name
            )
        self._active -= 1
        if self._active == 0:
            sys.setprofile(self._prior_callback)
            self._prior_callback = None
            # Frames still live when the stage closed (the callback saw
            # their call but will never see their return): attribute the
            # time they have accrued so far, innermost first.
            now = time.perf_counter()
            while self._stack:
                self._pop_frame(now)

    # -- the sys.setprofile callback ---------------------------------------

    def _callback(self, frame, event: str, arg) -> None:
        if event == "call":
            self._push(_frame_key(frame))
        elif event == "return":
            # A return for a frame entered before the profiler was
            # installed arrives with an empty stack; ignore it.
            if self._stack:
                self._pop_frame(time.perf_counter())
        elif event == "c_call":
            self._push(_c_key(arg))
        elif event in ("c_return", "c_exception"):
            if self._stack:
                self._pop_frame(time.perf_counter())

    def _push(self, key: str) -> None:
        self._stack.append([key, time.perf_counter(), 0.0])
        self._depth[key] = self._depth.get(key, 0) + 1

    def _pop_frame(self, now: float) -> None:
        key, entered, child_time = self._stack.pop()
        elapsed = now - entered
        self_time = max(elapsed - child_time, 0.0)
        self._calls[key] = self._calls.get(key, 0) + 1
        self._self[key] = self._self.get(key, 0.0) + self_time
        remaining = self._depth.get(key, 1) - 1
        self._depth[key] = remaining
        if remaining == 0:
            # Only the outermost frame of a recursive chain adds to
            # cumulative time, mirroring cProfile's primitive calls.
            self._cum[key] = self._cum.get(key, 0.0) + elapsed
        stack_key = tuple(entry[0] for entry in self._stack) + (key,)
        self._stack_self[stack_key] = (
            self._stack_self.get(stack_key, 0.0) + self_time
        )
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- results -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Is the callback currently installed?"""
        return self._active > 0

    def data(self) -> Dict[str, object]:
        """Picklable aggregate: the worker hand-off and export input."""
        return {
            "schema": PROFILE_SCHEMA,
            "stages": sorted(self.stages),
            "stacks": {
                STACK_SEP.join(key): seconds
                for key, seconds in self._stack_self.items()
            },
            "funcs": {
                key: {
                    "calls": self._calls.get(key, 0),
                    "self_s": self._self.get(key, 0.0),
                    "cum_s": self._cum.get(key, 0.0),
                }
                for key in self._calls
            },
        }

    def merge(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`data` payload (e.g. from a worker) into this
        profiler's aggregates."""
        for stack, seconds in (data.get("stacks") or {}).items():
            key = tuple(stack.split(STACK_SEP))
            self._stack_self[key] = (
                self._stack_self.get(key, 0.0) + float(seconds)
            )
        for key, entry in (data.get("funcs") or {}).items():
            self._calls[key] = self._calls.get(key, 0) + int(
                entry.get("calls", 0)
            )
            self._self[key] = self._self.get(key, 0.0) + float(
                entry.get("self_s", 0.0)
            )
            self._cum[key] = self._cum.get(key, 0.0) + float(
                entry.get("cum_s", 0.0)
            )

    def reset(self) -> None:
        """Drop the aggregates (the worker does this after each task)."""
        self._stack_self.clear()
        self._calls.clear()
        self._self.clear()
        self._cum.clear()
        self._depth.clear()


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------

def render_collapsed(data: Dict[str, object]) -> str:
    """flamegraph.pl-compatible collapsed stacks, one per line.

    Values are integer microseconds of *self* time for that exact stack;
    stacks whose time rounds to zero are dropped.  Lines are sorted so
    two profiles of the same run diff cleanly.
    """
    lines = []
    for stack, seconds in sorted((data.get("stacks") or {}).items()):
        micros = int(round(float(seconds) * 1e6))
        if micros > 0:
            lines.append("%s %d" % (stack, micros))
    return "\n".join(lines)


def render_top(data: Dict[str, object], limit: int = 20) -> str:
    """Per-function table sorted by self time, top ``limit`` rows."""
    funcs = data.get("funcs") or {}
    total_self = sum(float(e.get("self_s", 0.0)) for e in funcs.values())
    header = "%-52s %9s %11s %11s %7s" % (
        "function", "calls", "cum_ms", "self_ms", "self%"
    )
    lines = [header, "-" * len(header)]
    ordered = sorted(
        funcs.items(),
        key=lambda item: (-float(item[1].get("self_s", 0.0)), item[0]),
    )
    for key, entry in ordered[:limit]:
        self_s = float(entry.get("self_s", 0.0))
        share = 100.0 * self_s / total_self if total_self > 0 else 0.0
        lines.append(
            "%-52s %9d %11.3f %11.3f %6.1f%%"
            % (
                key[-52:], int(entry.get("calls", 0)),
                1e3 * float(entry.get("cum_s", 0.0)), 1e3 * self_s, share,
            )
        )
    lines.append(
        "%d function(s) over stages %s, %.2f ms total self time"
        % (len(funcs), ",".join(data.get("stages") or []) or "-",
           1e3 * total_self)
    )
    return "\n".join(lines)
