"""Spans the benchmark records around the public calls into each layer.

Nothing in ``src/`` changes: :func:`install` replaces each public function
or method in :data:`TARGETS` with a wrapper that records a span, in the
process of one traced op only.  A span is ``[name, start, end, parent,
tag]``; ``parent`` indexes the enclosing span of the same process (-1 for
none).  Spans stay in memory.  The op's own process hands them over when
the op ends; a pool worker forked inside the op appends each finished
top-level span tree (one pair) as one line to a file in the op's span
directory, because a worker's memory is gone once the pool shuts down.
All processes stamp ``time.perf_counter`` (one monotonic clock), so every
span lands on one timeline.

A span's self time is its duration minus the part its children cover;
children of one process run one after another, so that part is the sum of
their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List

#: (span name, module, attribute) for every public call wrapped.
TARGETS = (
    ("workloads.generate", "repro.workloads.generator", "TraceGenerator.generate"),
    ("workloads.solve_params", "repro.workloads.calibrate", "solve_pipeline_params"),
    ("uarch.analyze", "repro.uarch.vector", "analyze_trace"),
    ("uarch.exec", "repro.uarch.vector", "execute_vector"),
    ("uarch.run", "repro.uarch.core", "SimulatedCore.run"),
    ("uarch.resolve_engine", "repro.uarch.core", "SimulatedCore.resolve_engine"),
    ("perf.session", "repro.perf.session", "PerfSession.run"),
    ("perf.validate", "repro.perf.report", "CounterReport.require_valid"),
    ("runner.run", "repro.runner.runner", "SuiteRunner.run"),
    ("runner.cache_key", "repro.runner.cache", "ResultCache.key"),
    ("runner.cache_load", "repro.runner.cache", "ResultCache.load"),
    ("runner.cache_store", "repro.runner.cache", "ResultCache.store"),
    ("obs.ledger_record", "repro.obs.ledger", "build_run_record"),
    ("obs.ledger_append", "repro.obs.ledger", "RunLedger.append"),
    ("core.characterize", "repro.reports.experiments", "ExperimentContext.all_metrics17"),
    ("core.means", "repro.reports.experiments", "ExperimentContext.app_means17"),
    ("core.means", "repro.reports.experiments", "ExperimentContext.app_means06"),
    ("core.means", "repro.reports.experiments", "ExperimentContext.group_means"),
    ("core.features", "repro.core.features", "feature_matrix"),
    ("core.subset", "repro.core.subset", "SubsetSelector.select"),
    ("stats.pca", "repro.stats.pca", "PCA.fit_transform"),
    ("stats.cluster", "repro.stats.cluster", "AgglomerativeClustering.fit"),
    ("reports.experiment", "repro.reports.experiments", "run_experiment"),
)

MODULES = sorted({module for _, module, _ in TARGETS})

#: Name of the root span around an op's timed call.
OP_SPAN = "op"


def _tag(name: str, args: tuple, result) -> object:
    """The one fact a span keeps besides its times, where one is needed."""
    if name == "workloads.generate":
        return result.n_ops
    if name == "uarch.run":
        return args[1].n_ops
    if name == "uarch.exec":
        return args[0].branch_predictor
    if name == "perf.session":
        return args[1].pair_name
    if name == "runner.run":
        manifest = result.manifest
        return {
            "workers": manifest.workers,
            "misses": manifest.cache_misses,
            "hits": manifest.cache_hits,
            "simulated_s": sum(r.seconds for r in manifest.records if not r.cached),
            "pair_s": sum(r.seconds for r in manifest.records),
        }
    return None


class Tracer:
    """The spans of one process, recorded only while an op is open."""

    def __init__(self, flush_dir: str):
        self.flush_dir = flush_dir
        self.pid = os.getpid()
        self.worker = False
        self.active = False
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: The context the last ``run_experiment`` call ran on.
        self.context = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if os.getpid() != self.pid:
                # First span in a pool worker forked mid-op: what it
                # inherited are the op process's spans, not its own.
                self.pid, self.worker = os.getpid(), True
                self.spans, self.stack = [], []
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[4] = _tag(name, args, result)
            if name == "reports.experiment":
                self.context = args[1]
            if self.worker and not self.stack:
                self._flush()
            return result

        return wrapper

    def _flush(self) -> None:
        path = os.path.join(self.flush_dir, "spans-%d.jsonl" % self.pid)
        with open(path, "a") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def around(self, timed):
        """Run the op's timed call inside the root span."""
        self.active = True
        try:
            return self.wrap(OP_SPAN, timed)()
        finally:
            self.active = False

    def worker_spans(self) -> List[List[list]]:
        """The spans each pool worker of the op wrote, one list per worker
        (its flushed trees joined, parent indices re-based)."""
        workers = []
        for entry in sorted(os.listdir(self.flush_dir)):
            spans: List[list] = []
            with open(os.path.join(self.flush_dir, entry)) as handle:
                for line in handle:
                    offset = len(spans)
                    for name, start, end, parent, tag in json.loads(line):
                        spans.append([name, start, end,
                                      parent + offset if parent >= 0 else -1,
                                      tag])
            workers.append(spans)
        return workers


def install(tracer: Tracer) -> None:
    """Wrap every target in this process (a wrapper records nothing while
    no op is open, so wrapped calls made outside an op cost one check)."""
    for name, module_name, attribute in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, leaf = attribute.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(name, original)
        if owners:
            setattr(owner, leaf, wrapped)
            continue
        # A module function is also bound by name in every module that
        # imported it with ``from ... import``.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, leaf, None) is original):
                setattr(module, leaf, wrapped)


def _self_times(spans: List[list]) -> List[float]:
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(op_spans: List[list], worker_spans: List[List[list]]) -> Dict[str, object]:
    """Fold one traced op's spans into per-layer sums.

    ``attribution`` holds the self time of every span name in the op's
    own process; the root's self time is what no layer span covers, so
    the values sum to the root span's duration.  ``min_self`` is the
    smallest self time of any span in any process: below zero, a span's
    children overlap it or each other, and the attribution is wrong.
    """
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    exec_by_predictor: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    attribution: Dict[str, float] = defaultdict(float)
    counts = {"ops_generated": 0, "ops_run": 0}
    first_pairs: List[float] = []
    runners: List[Dict[str, object]] = []
    min_self = float("inf")

    processes = [(op_spans, True)] + [(records, False) for records in worker_spans]
    for records, own_process in processes:
        own_times = _self_times(records)
        min_self = min([min_self, *own_times])
        # The first pair each runner (inline) or each worker (pooled) ran.
        first_seen = set()
        for index, span in enumerate(records):
            name, start, end, parent, tag = span
            duration = end - start
            if own_process:
                attribution[name] += own_times[index]
            if name == OP_SPAN:
                continue
            calls[name] += 1
            self_s[name] += own_times[index]
            total[name] += duration
            if name == "uarch.exec":
                exec_by_predictor[tag][0] += 1
                exec_by_predictor[tag][1] += duration
            elif name == "workloads.generate":
                counts["ops_generated"] += tag
            elif name == "uarch.run":
                counts["ops_run"] += tag
            elif name == "runner.run":
                runners.append(dict(tag, wall=duration, self=own_times[index]))
            elif name == "perf.session":
                owner = parent
                while owner >= 0 and records[owner][0] != "runner.run":
                    owner = records[owner][3]
                if owner not in first_seen:
                    first_seen.add(owner)
                    first_pairs.append(duration)
    return {
        "min_self": min_self,
        "attribution": dict(attribution),
        "calls": dict(calls),
        "total": dict(total),
        "self": dict(self_s),
        "exec_by_predictor": {k: tuple(v) for k, v in exec_by_predictor.items()},
        "first_pairs": first_pairs,
        "runners": runners,
        **counts,
    }
