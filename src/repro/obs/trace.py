"""Hierarchical span tracer: the "where did the time go" half of obs.

A :class:`Tracer` records *spans* — named, attributed, nested timing
records — into a bounded in-memory ring buffer and, optionally, a JSONL
sink file.  Spans form a tree: every span opened while
another is active becomes its child, mirroring the pipeline's call
structure (``suite.run`` → ``pair.run`` → ``trace.gen`` /
``engine.exec`` / ``counters.validate`` → stats stages).

Design constraints, in order:

1. **Determinism.**  Span ids are sequential start-order integers and
   the buffer is finish-ordered, so under a fixed seed two runs produce
   the same span names, nesting, and attributes — only the timing floats
   differ.  Tests pin the tree shape; nothing here reads a clock beyond
   ``perf_counter``/``process_time``.
2. **Picklability.**  Finished spans are plain dicts of JSON types, so
   worker processes can ship their spans back through the existing
   result channel and the parent can :meth:`graft` them into its own
   tree.
3. **Boundedness.**  The ring buffer drops the *oldest* spans once
   ``capacity`` is reached; the JSONL sink (when configured) still sees
   every span, so long sweeps trade memory for disk, never correctness.

Spans are emitted on *completion*: in the buffer and the JSONL file,
children always precede their parent.  Consumers rebuild the tree from
the ``parent`` ids (see :mod:`repro.obs.critical`).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from time import perf_counter, process_time
from typing import Dict, Iterable, List, Optional

from ..errors import ReproError

#: Span-record schema version, stamped on every JSONL line.  Version 2
#: added the ``t0_s`` start offset and the recording ``pid`` — both
#: additive, so version-1 consumers keep working.
SPAN_SCHEMA = 2

#: Default ring-buffer capacity (finished spans kept in memory).
DEFAULT_CAPACITY = 4096


class ObsError(ReproError):
    """Raised for observability-layer misuse (bad sink, bad graft)."""


def _span_record(span_id: int, parent_id: Optional[int], depth: int,
                 name: str, t0_s: float, wall_s: float, cpu_s: float,
                 status: str, attrs: Dict[str, object],
                 pid: int) -> Dict[str, object]:
    """One finished span: the JSONL line's fields (positional, since it
    runs once per span)."""
    return {
        "schema": SPAN_SCHEMA,
        "id": span_id,
        "parent": parent_id,
        "depth": depth,
        "name": name,
        "t0_s": t0_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "status": status,
        "attrs": attrs,
        "pid": pid,
    }


class SpanHandle:
    """Context manager for one live span.

    Returned by :meth:`Tracer.span`; use :meth:`set` to attach outcome
    attributes discovered while the span is open (cache result, attempt
    count, ...).  Exiting with an exception records ``status="error"``
    and the exception type, then lets the exception propagate.
    """

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "depth", "attrs",
        "_t0", "_wall0", "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int,
                 attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs

    def set(self, key: str, value: object) -> "SpanHandle":
        """Attach (or overwrite) one attribute on the live span."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "SpanHandle":
        self._wall0 = perf_counter()
        self._cpu0 = process_time()
        profiler = self._tracer._profiler
        if profiler is not None:
            profiler.span_started(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if tracer._profiler is not None:
            tracer._profiler.span_finished(self.name)
        wall = perf_counter() - self._wall0
        cpu = process_time() - self._cpu0
        status = "ok"
        if exc_type is not None:
            status = "error"
            self.attrs.setdefault("error_type", exc_type.__name__)
        tracer._finish(self, wall, cpu, status)
        return False  # never swallow


class _NullSpan:
    """Shared no-op stand-in used when tracing is disabled.

    Stateless and reentrant: one module-level instance serves every
    disabled call site, so a disabled hook costs one attribute lookup
    and an (empty) context-manager protocol round trip.
    """

    __slots__ = ()

    def set(self, key: str, value: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span (also what ``obs.profile`` returns when off).
NULL_SPAN = _NullSpan()


class Tracer:
    """Records hierarchical spans into a ring buffer and optional sink.

    Args:
        capacity: Maximum finished spans retained in memory (oldest
            dropped first).  The sink is unaffected by this bound.
        sink_path: Optional path of a JSONL file to write every
            finished span to.  Opened eagerly so a bad path fails at
            construction, not mid-sweep, and truncated: span ids restart
            at 1 in every tracer, so one file holds one tracer's spans.

    One tracer serves one process; the process pool gives each worker
    its own (sinkless) tracer whose spans travel back to the parent as
    plain dicts and are re-parented with :meth:`graft`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sink_path: Optional[str] = None):
        if capacity < 1:
            raise ObsError("tracer capacity must be >= 1, got %r" % capacity)
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self._stack: List[SpanHandle] = []
        self._next_id = 1
        self._dropped = 0
        self._sink = None
        #: Optional :class:`~repro.obs.profiler.SpanProfiler` notified on
        #: span enter/exit; ``None`` keeps the hot path at one attribute
        #: read per span.
        self._profiler = None
        #: Clock base for span start offsets: ``t0_s`` is seconds of
        #: ``perf_counter`` since tracer construction, and ``epoch_unix``
        #: maps that offset back onto the shared wall clock so traces from
        #: different processes can be aligned on one timeline.
        self._t_init = time.perf_counter()
        self.epoch_unix = time.time()
        self.pid = os.getpid()
        self.sink_path = sink_path
        if sink_path is not None:
            try:
                self._sink = open(sink_path, "w", encoding="utf-8")
            except OSError as error:
                raise ObsError(
                    "cannot open trace sink %s: %s" % (sink_path, error)
                ) from error

    def set_profiler(self, profiler) -> None:
        """Attach a span-scoped profiler (or detach with ``None``).

        The profiler's ``span_started``/``span_finished`` hooks fire on
        every span enter/exit; it decides internally which stage names
        activate collection (see :class:`repro.obs.profiler.SpanProfiler`).
        """
        self._profiler = profiler

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> SpanHandle:
        """Open a span as a child of the innermost active span."""
        return self._open(name, attrs)

    def _open(self, name: str, attrs: Dict[str, object]) -> SpanHandle:
        stack = self._stack
        handle = SpanHandle(self, name, self._next_id,
                            stack[-1].span_id if stack else None,
                            len(stack), attrs)
        self._next_id += 1
        stack.append(handle)
        return handle

    def record(self, name: str, wall_s: float = 0.0, cpu_s: float = 0.0,
               **attrs: object) -> Dict[str, object]:
        """Record an already-measured span without the context manager.

        Used for events whose duration was timed externally (cache hits)
        or that are instantaneous markers (``pair.failure``).
        """
        return self._record(name, wall_s, cpu_s, attrs)

    def _record(self, name: str, wall_s: float, cpu_s: float,
                attrs: Dict[str, object]) -> Dict[str, object]:
        stack = self._stack
        # The externally timed work ended "now", so it started wall_s ago.
        record = _span_record(
            self._next_id, stack[-1].span_id if stack else None,
            len(stack), name,
            max(perf_counter() - self._t_init - wall_s, 0.0),
            wall_s, cpu_s, "ok", attrs, self.pid,
        )
        self._next_id += 1
        self._emit(record)
        return record

    def _finish(self, handle: SpanHandle, wall_s: float, cpu_s: float,
                status: str) -> None:
        stack = self._stack
        if not stack or stack[-1] is not handle:
            # Mis-nested exit (a hook leaked a handle): fail loudly in
            # tests rather than silently corrupting the tree.
            raise ObsError(
                "span %r finished out of order" % handle.name
            )
        stack.pop()
        self._emit(_span_record(
            handle.span_id, handle.parent_id, handle.depth, handle.name,
            handle._wall0 - self._t_init, wall_s, cpu_s, status,
            handle.attrs, self.pid,
        ))

    def _emit(self, record: Dict[str, object]) -> None:
        if len(self._buffer) == self.capacity:
            self._dropped += 1
        self._buffer.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record, sort_keys=True) + "\n")
            self._sink.flush()

    # -- introspection -----------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring buffer (still in the sink)."""
        return self._dropped

    def finished(self) -> List[Dict[str, object]]:
        """Finished spans currently in the ring buffer (finish order)."""
        return list(self._buffer)

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear the buffered spans (the worker hand-off)."""
        records = list(self._buffer)
        self._buffer.clear()
        return records

    # -- cross-process stitching -------------------------------------------

    def graft(self, records: Iterable[Dict[str, object]],
              extra_root_attrs: Optional[Dict[str, object]] = None,
              rebase_s: float = 0.0) -> int:
        """Adopt spans recorded by another tracer (a pool worker).

        Ids are remapped into this tracer's sequence, roots of the
        grafted batch are re-parented under the innermost active span,
        depths are shifted accordingly, and ``extra_root_attrs`` (e.g.
        ``{"cache": "miss"}``) are merged into the batch's root spans.
        ``rebase_s`` shifts the batch's ``t0_s`` start offsets into this
        tracer's clock frame (the worker's epoch minus ours); the
        recording ``pid`` is preserved so timeline consumers keep one
        track per worker.  Returns the number of spans grafted.
        """
        parent = self._stack[-1] if self._stack else None
        batch = list(records)
        base_depth = len(self._stack)
        # Records arrive finish-ordered (children before parents), so the
        # id remapping needs a first pass over the whole batch before any
        # parent reference can be rewritten.
        id_map: Dict[int, int] = {}
        for record in batch:
            old_id = record.get("id")
            if not isinstance(old_id, int):
                raise ObsError("grafted span record has no integer id")
            id_map[old_id] = self._next_id
            self._next_id += 1
        count = 0
        for record in batch:
            old_parent = record.get("parent")
            attrs = dict(record.get("attrs") or {})
            if old_parent is None:
                new_parent = parent.span_id if parent else None
                if extra_root_attrs:
                    attrs.update(extra_root_attrs)
            else:
                # A parent missing from the batch means the worker's ring
                # buffer evicted it; the orphan attaches under the graft
                # point instead of dangling.
                new_parent = id_map.get(
                    old_parent, parent.span_id if parent else None
                )
            self._emit(_span_record(
                id_map[record["id"]],
                new_parent,
                base_depth + int(record.get("depth") or 0),
                str(record.get("name")),
                float(record.get("t0_s") or 0.0) + rebase_s,
                float(record.get("wall_s") or 0.0),
                float(record.get("cpu_s") or 0.0),
                str(record.get("status") or "ok"),
                attrs,
                int(record.get("pid") or self.pid),
            ))
            count += 1
        return count

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush and close the sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
