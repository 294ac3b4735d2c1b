"""Counters, gauges, histograms: the "how much happened" half of obs.

A :class:`MetricsRegistry` holds metric *families* (one per name), each
with zero or more labeled children.  The model is deliberately the
Prometheus one — monotonically increasing counters, point-in-time
gauges, cumulative-bucket histograms — so :meth:`MetricsRegistry.to_prometheus`
is a straight rendering, and :meth:`to_json` is the same data for
programmatic consumers.

Pool workers accumulate into their own registry and ship
:meth:`MetricsRegistry.dump` snapshots back over the result channel;
the parent folds them in with :meth:`merge` (counters and histogram
buckets add, gauges take the incoming value).

Everything is plain Python; no clocks, no global state, no threads —
one registry per process, same as the tracer.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError

#: Metric names: Prometheus-compatible snake_case.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Prefix prepended to every family name on export.
DEFAULT_PREFIX = "repro_"

#: Default histogram buckets, in seconds — tuned for per-pair wall
#: times, which span ~1 ms (cache hit) to a few seconds (cold scalar).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Buckets for dimensionless scores — relative errors, robust z-scores,
#: drift scores.  The wall-time defaults bottom out at 1 ms, far too
#: coarse for errors that live around 1e-3; families holding scores pass
#: these instead (see ``MetricsRegistry.histogram(buckets=...)``).
ERROR_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

LabelItems = Tuple[Tuple[str, str], ...]


class MetricsError(ReproError):
    """Raised for metric misuse (bad names, kind clashes, bad merges)."""


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash first — escaping it last would re-escape the backslashes
    the quote and newline rules just introduced.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: LabelItems) -> str:
    if not key:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (k, _escape_label_value(v)) for k, v in key
    )


class Counter:
    """A monotonically increasing count (one labeled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A point-in-time value (one labeled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (one labeled child)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class Family:
    """One metric name: kind, help text, and labeled children."""

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.buckets = buckets
        self._children: Dict[LabelItems, object] = {}
        #: The same children keyed by the label items in the order a call
        #: passed them: a call site passes them in one order every time,
        #: so the hot path is one lookup, with no sort.
        self._by_call: Dict[tuple, object] = {}

    def labels(self, **labels: str):
        """The child for this label combination (created on first use)."""
        call = tuple(labels.items())
        child = self._by_call.get(call)
        if child is not None:
            return child
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            if self.kind == COUNTER:
                child = Counter()
            elif self.kind == GAUGE:
                child = Gauge()
            else:
                child = Histogram(self.buckets or DEFAULT_BUCKETS)
            self._children[key] = child
        self._by_call[call] = child
        return child

    # Unlabeled convenience: family.inc() == family.labels().inc() etc.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def children(self) -> Iterable[Tuple[LabelItems, object]]:
        return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}

    # -- family constructors ----------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                buckets: Optional[Tuple[float, ...]] = None) -> Family:
        family = self._families.get(name)
        if family is None:
            # Only names that pass here ever become families.
            if not _NAME_RE.match(name):
                raise MetricsError("invalid metric name %r" % name)
            family = Family(name, kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise MetricsError(
                "metric %r is a %s, not a %s" % (name, family.kind, kind)
            )
        elif kind == HISTOGRAM and buckets is not None:
            # Buckets are a per-family layout decision: the first
            # explicit choice is locked in, and a later conflicting
            # request is a bug (its observations could not merge).
            if family.buckets is None and not family._children:
                family.buckets = buckets
            elif tuple(family.buckets or DEFAULT_BUCKETS) != buckets:
                raise MetricsError(
                    "histogram %r already uses buckets %s; cannot "
                    "re-register with %s"
                    % (name, tuple(family.buckets or DEFAULT_BUCKETS),
                       buckets)
                )
        return family

    def counter(self, name: str, help_text: str = "") -> Family:
        return self._family(name, COUNTER, help_text)

    def gauge(self, name: str, help_text: str = "") -> Family:
        return self._family(name, GAUGE, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Tuple[float, ...]] = None) -> Family:
        """A histogram family; ``buckets`` fixes its per-family layout.

        Omitting ``buckets`` accepts whatever layout the family already
        has (``DEFAULT_BUCKETS`` for a fresh family).  Passing a layout
        that conflicts with an established one raises
        :class:`MetricsError`.
        """
        return self._family(name, HISTOGRAM, help_text,
                            tuple(buckets) if buckets is not None else None)

    # -- exporters ---------------------------------------------------------

    def to_prometheus(self, prefix: str = DEFAULT_PREFIX) -> str:
        """Prometheus text exposition format (families sorted by name)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            full = prefix + name
            if family.help_text:
                lines.append("# HELP %s %s" % (full, family.help_text))
            lines.append("# TYPE %s %s" % (full, family.kind))
            for key, child in family.children():
                if family.kind == HISTOGRAM:
                    cumulative = 0
                    for bound, count in zip(child.buckets, child.counts):
                        cumulative += count
                        bucket_key = key + (("le", "%g" % bound),)
                        lines.append("%s_bucket%s %d" % (
                            full, _render_labels(bucket_key), cumulative))
                    inf_key = key + (("le", "+Inf"),)
                    lines.append("%s_bucket%s %d" % (
                        full, _render_labels(inf_key), child.count))
                    lines.append("%s_sum%s %.9g" % (
                        full, _render_labels(key), child.total))
                    lines.append("%s_count%s %d" % (
                        full, _render_labels(key), child.count))
                else:
                    lines.append("%s%s %.9g" % (
                        full, _render_labels(key), child.value))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        """The same data as JSON (stable key order)."""
        return json.dumps(self.dump(), sort_keys=True, indent=2)

    # -- snapshots / cross-process merging ---------------------------------

    def dump(self) -> Dict[str, object]:
        """Picklable snapshot of every family (the worker hand-off)."""
        families: Dict[str, object] = {}
        for name, family in sorted(self._families.items()):
            children = []
            for key, child in family.children():
                entry: Dict[str, object] = {"labels": [list(kv) for kv in key]}
                if family.kind == HISTOGRAM:
                    entry.update({
                        "buckets": list(child.buckets),
                        "counts": list(child.counts),
                        "sum": child.total,
                        "count": child.count,
                    })
                else:
                    entry["value"] = child.value
                children.append(entry)
            families[name] = {
                "kind": family.kind,
                "help": family.help_text,
                "children": children,
            }
        return families

    def merge(self, dump: Dict[str, object]) -> None:
        """Fold a :meth:`dump` snapshot in: counters and histogram
        buckets add, gauges take the incoming value."""
        for name, data in dump.items():
            kind = data.get("kind")
            if kind not in (COUNTER, GAUGE, HISTOGRAM):
                raise MetricsError("cannot merge metric %r of kind %r"
                                   % (name, kind))
            for entry in data.get("children", []):
                labels = {k: v for k, v in entry.get("labels", [])}
                if kind == HISTOGRAM:
                    family = self.histogram(
                        name, data.get("help", ""),
                        buckets=tuple(entry.get("buckets") or DEFAULT_BUCKETS),
                    )
                    child = family.labels(**labels)
                    incoming = entry.get("counts") or []
                    if tuple(entry.get("buckets") or ()) != child.buckets or \
                            len(incoming) != len(child.counts):
                        raise MetricsError(
                            "histogram %r bucket layout mismatch on merge"
                            % name
                        )
                    for index, count in enumerate(incoming):
                        child.counts[index] += count
                    child.total += entry.get("sum", 0.0)
                    child.count += entry.get("count", 0)
                elif kind == COUNTER:
                    self.counter(name, data.get("help", "")).labels(
                        **labels).inc(entry.get("value", 0.0))
                else:
                    self.gauge(name, data.get("help", "")).labels(
                        **labels).set(entry.get("value", 0.0))

    def reset(self) -> None:
        self._families.clear()
