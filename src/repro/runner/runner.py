"""Parallel, cached, fault-tolerant characterization of pair sweeps.

:class:`SuiteRunner` is the one way a pair is characterized: it runs
:class:`~repro.perf.session.PerfSession` on any set of
application-input pairs, serves previously collected results from the
on-disk :class:`~repro.runner.cache.ResultCache`, and fans the remaining
pairs out over a ``concurrent.futures`` process pool.  Workers re-create
their own ``PerfSession`` from the picklable
:class:`~repro.config.SystemConfig` plus the sample parameters, so only
profiles and plain counter dictionaries ever cross the process boundary.

The runner alone owns the per-pair policy.  In strict mode a pair the
paper failed to collect yields a ``CollectionError`` :class:`PairFailure`
before any cache lookup or session runs.  Any other pair that fails never
aborts the sweep: it gets one bounded retry (in the parent process, so a
broken pool cannot take the sweep down with it) and then yields a
structured :class:`PairFailure`.  The runner opens every ``pair.run``
span, a pool task's included; a session opens only its stage spans.
Every report additionally passes the counter-consistency gate
(:meth:`~repro.perf.report.CounterReport.require_valid`): inconsistent
counters from a worker become a ``PairFailure``, and inconsistent cache
entries are re-simulated instead of served.

Each :meth:`SuiteRunner.run` call keeps one per-run record, ``_Sweep``,
where every pair ends exactly once: a validated cache hit, a simulated
report that passed the gate, or a failure.  One function,
``_attempt``, times every ``PerfSession.run`` attempt, a pool task's and
the parent's retries alike.  Every run returns a :class:`RunManifest`
recording per-pair wall time, cache hit/miss counts, worker count, and
failures.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import obs
from ..config import SystemConfig
from ..errors import CounterError, SimulationError
from ..obs.ledger import LEDGER_ENV, RunLedger, build_run_record
from ..perf.report import CounterReport
from ..perf.session import DEFAULT_SAMPLE_OPS, PerfSession
from ..uarch.core import WARMUP_FRACTION
from ..workloads.profile import InputSize, MiniSuite, WorkloadProfile
from ..workloads.suite import AppInput, BenchmarkSuite
from .cache import CacheShard, ResultCache

#: Reason recorded for pairs the paper could not collect (strict mode).
_COLLECTION_REASON = "perf reported collection errors for this pair in the paper"

#: Attempts a failing pair gets beyond its first: one retry, in the parent.
_RETRIES = 1

PairLike = Union[AppInput, WorkloadProfile]


def _attempt(
    session: PerfSession, profile: WorkloadProfile, span
) -> Tuple[str, object, float]:
    """Time one ``session.run(profile)`` inside ``span``.

    Returns ``("ok", counters, seconds)`` or ``("error", (error type
    name, message), seconds)``.  The exception becomes that plain tuple
    only after ``span`` has recorded ``status=error``, so the trace shows
    the failed attempt and no repro exception ever needs to survive
    pickling.
    """
    started = time.perf_counter()
    try:
        with span:
            report = session.run(profile)
        outcome = ("ok", dict(report))
    except Exception as error:  # structured transport; the caller retries
        outcome = ("error", (type(error).__name__, str(error)))
    return outcome + (time.perf_counter() - started,)


# ---------------------------------------------------------------------------
# Worker side.  One PerfSession per worker process, created by the pool
# initializer.
# ---------------------------------------------------------------------------

_WORKER_SESSION: Optional[PerfSession] = None


def _init_worker(
    config: SystemConfig, sample_ops: int, obs_on: bool = False,
    profile_stages: Tuple[str, ...] = (),
) -> None:
    global _WORKER_SESSION
    if obs_on:
        # Sinkless tracer per worker; spans and span-scoped profiler
        # aggregates ride home on the result tuple and are stitched into
        # the parent's trace by the runner.
        obs.enable(profile_stages=profile_stages)
    _WORKER_SESSION = PerfSession(config=config, sample_ops=sample_ops)


def _run_pair(
    profile: WorkloadProfile,
) -> Tuple[str, object, float, Dict[str, object]]:
    span = obs.profile("pair.run", pair=profile.pair_name)
    # worker_payload() drains this task's spans, a failed attempt's too.
    return _attempt(_WORKER_SESSION, profile, span) + (obs.worker_payload(),)


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFailure:
    """One pair whose characterization failed after all attempts."""

    pair_name: str
    error_type: str
    message: str
    attempts: int


@dataclass(frozen=True)
class PairRecord:
    """Per-pair manifest line: where the result came from and how long."""

    pair_name: str
    seconds: float
    cached: bool
    attempts: int
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class RunManifest:
    """Accounting of one :meth:`SuiteRunner.run` sweep."""

    workers: int
    total_pairs: int
    cache_hits: int
    cache_misses: int
    wall_time_seconds: float
    records: Tuple[PairRecord, ...]

    @property
    def failure_count(self) -> int:
        return sum(1 for record in self.records if record.failed)

    @property
    def hit_rate(self) -> float:
        """Fraction of pairs served from cache (0 when nothing ran)."""
        return self.cache_hits / self.total_pairs if self.total_pairs else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (for export or logging)."""
        return {
            "workers": self.workers,
            "total_pairs": self.total_pairs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failures": self.failure_count,
            "wall_time_seconds": self.wall_time_seconds,
            "records": [
                {
                    "pair": record.pair_name,
                    "seconds": record.seconds,
                    "cached": record.cached,
                    "attempts": record.attempts,
                    "error": record.error,
                }
                for record in self.records
            ],
        }

    def summary(self) -> str:
        """One-line human summary."""
        return (
            "%d pairs in %.2fs (%d cached, %d simulated, %d failed, "
            "%d workers)"
            % (
                self.total_pairs,
                self.wall_time_seconds,
                self.cache_hits,
                self.cache_misses,
                self.failure_count,
                self.workers,
            )
        )


@dataclass(frozen=True)
class SuiteRunResult:
    """Everything one sweep produced."""

    reports: Dict[str, CounterReport]
    failures: Tuple[PairFailure, ...]
    manifest: RunManifest

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self, pair_name: str) -> CounterReport:
        try:
            return self.reports[pair_name]
        except KeyError:
            raise CounterError(
                "no report collected for %r in this run" % pair_name
            ) from None


class _Sweep:
    """One :meth:`SuiteRunner.run` call's record of its pairs.

    Every pair ends here exactly once, in one of three ways: :meth:`lookup`
    serves a validated cache hit, :meth:`done` records a simulated pair
    whose counters pass the consistency gate, and :meth:`fail` records a
    failure, whether strict, inconsistent or out of attempts.
    """

    def __init__(self, runner: SuiteRunner, shard: Optional[CacheShard]):
        self.runner = runner
        self.shard = shard
        self.reports: Dict[str, CounterReport] = {}
        self.records: Dict[str, PairRecord] = {}
        self.failures: List[PairFailure] = []
        self.keys: Dict[str, str] = {}

    def lookup(self, profile: WorkloadProfile) -> bool:
        """Serve ``profile`` from the shard; False if it must be simulated."""
        if self.shard is None:
            return False
        started = time.perf_counter()
        runner = self.runner
        name = profile.pair_name
        key = self.keys[name] = runner.cache.key(
            runner.config, profile, runner.sample_ops, WARMUP_FRACTION,
            engine=runner._session.resolved_engine,
        )
        values = runner.cache.load(key, self.shard)
        if values is None:
            return False
        try:
            # require_valid covers both stale layouts (unknown counters ->
            # CounterError) and corrupt entries (inconsistent counters);
            # either way the pair is re-simulated, not served poisoned.
            self.reports[name] = CounterReport(profile, values).require_valid()
        except CounterError:
            return False
        seconds = time.perf_counter() - started
        obs.record("pair.run", wall_s=seconds, pair=name, cache="hit")
        self.records[name] = PairRecord(name, seconds, True, 0)
        return True

    def done(
        self, profile: WorkloadProfile, values: Dict[str, float],
        seconds: float, attempts: int,
    ) -> None:
        """Record (and cache) a simulated pair's counters."""
        name = profile.pair_name
        try:
            # Counter-consistency gate: a worker that returns inconsistent
            # counters (or a transport that mangled them) yields a
            # structured failure here, never a poisoned report — and never
            # a cache entry.
            self.reports[name] = CounterReport(profile, values).require_valid()
        except CounterError as error:
            self.fail(name, (type(error).__name__, str(error)), seconds,
                      attempts)
            return
        if self.shard is not None:
            try:
                self.shard.entries[self.keys[name]] = self.runner.cache.store(
                    self.keys[name], name, values, self.shard
                )
            except OSError:
                # A cache write failure (read-only dir, full disk) must
                # not sink a sweep whose counters are already in hand;
                # the pair simply stays uncached.
                pass
        self.records[name] = PairRecord(name, seconds, False, attempts)

    def fail(
        self, name: str, error: Tuple[str, str], seconds: float,
        attempts: int,
    ) -> None:
        """Record a pair that yields no report: ``error`` is ``(error type
        name, message)``."""
        error_type, message = error
        self.failures.append(PairFailure(name, error_type, message, attempts))
        obs.record(
            "pair.failure", pair=name, error_type=error_type,
            attempts=attempts, retries=_RETRIES,
        )
        self.records[name] = PairRecord(
            name, seconds, False, attempts, error_type
        )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class SuiteRunner:
    """Characterizes sets of application-input pairs in parallel, cached.

    Args:
        config: Simulated system (default: the paper's Table-I machine).
        sample_ops: Simulated micro-ops per pair.
        workers: Process count (default: ``os.cpu_count()``).  ``1`` runs
            everything inline in the calling process.
        cache_dir: Result-cache directory (default: ``$REPRO_CACHE_DIR``
            or ``~/.cache/repro``).
        use_cache: ``False`` disables reading *and* writing the cache —
            the ``--no-cache`` escape hatch.
        use_ledger: ``False`` disables the run ledger entirely.  The
            ledger is ``$REPRO_LEDGER`` if set, else ``ledger.jsonl`` next
            to the result cache, so without either there is none.

    Each session picks its engine per trace and measures after the
    core's warmup window; a failing pair gets one retry.
    """

    def __init__(
        self,
        config=None,
        sample_ops: int = DEFAULT_SAMPLE_OPS,
        workers: Optional[int] = None,
        cache_dir=None,
        use_cache: bool = True,
        use_ledger: bool = True,
    ):
        # The local session validates the sample parameters eagerly and
        # serves inline runs plus in-parent retries.
        self._session = PerfSession(config=config, sample_ops=sample_ops)
        self.config = self._session.config
        self.sample_ops = sample_ops
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise SimulationError("workers must be >= 1, got %r" % workers)
        self.workers = workers
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.ledger: Optional[RunLedger] = None
        if use_ledger and (
            self.cache is not None or os.environ.get(LEDGER_ENV)
        ):
            # $REPRO_LEDGER if set, else next to the cache it describes.
            self.ledger = RunLedger(
                cache_dir=None if self.cache is None else self.cache.directory
            )
        #: The run record appended to the ledger by the last ``run()``
        #: call (None before the first sweep or when the ledger is off).
        self.last_run_record: Optional[Dict[str, object]] = None
        #: Cumulative counts across every ``run()`` call on this runner.
        self.total_cache_hits = 0
        self.total_cache_misses = 0
        #: The shard of this runner's sweep identity, which is fixed at
        #: construction: read by the first ``run()`` and kept, with every
        #: later store added to its entries.
        self._shard: Optional[CacheShard] = None

    # -- public entry points ----------------------------------------------

    def characterize(
        self,
        suite: BenchmarkSuite,
        size: Optional[InputSize] = InputSize.REF,
        mini_suite: Optional[MiniSuite] = None,
        strict_errors: bool = False,
    ) -> SuiteRunResult:
        """Characterize every pair of a suite (see ``BenchmarkSuite.pairs``)."""
        return self.run(
            suite.pairs(size=size, suite=mini_suite), strict_errors=strict_errors
        )

    def run(
        self, pairs: Iterable[PairLike], strict_errors: bool = False
    ) -> SuiteRunResult:
        """Characterize ``pairs``; never raises for individual pair failures."""
        profiles = self._normalize(pairs)
        started = time.perf_counter()
        total = len(profiles)

        engine = self._session.resolved_engine
        with obs.profile(
            "suite.run",
            pairs=total,
            workers=self.workers,
            engine=engine,
            cache=self.cache is not None,
        ) as run_span:
            # Phase 1: strict-mode precheck + cache lookups.  The collection
            # -error check runs *before* the cache so a strict sweep can
            # never serve counters for a pair the paper failed to collect.
            # The shard is read once per runner, before its first sweep's
            # first lookup: the read counts toward that sweep's wall time,
            # not a hit's, and a hit does no file I/O.  Shards and keys name
            # the engine "auto" resolves to for this config.
            if self.cache is not None and self._shard is None:
                self._shard = self.cache.shard(
                    self.config, self.sample_ops, WARMUP_FRACTION,
                    engine=engine,
                )
            sweep = _Sweep(self, self._shard)
            pending: List[WorkloadProfile] = []
            for profile in profiles:
                if strict_errors and profile.collection_error:
                    sweep.fail(
                        profile.pair_name,
                        ("CollectionError", _COLLECTION_REASON), 0.0, 0,
                    )
                elif not sweep.lookup(profile):
                    pending.append(profile)

            hits = sum(record.cached for record in sweep.records.values())
            misses = len(pending)
            self.total_cache_hits += hits
            self.total_cache_misses += misses

            # Phase 2: simulate the misses — pooled when it pays, else
            # inline.
            if self.workers > 1 and len(pending) > 1:
                self._run_pooled(sweep, pending)
            else:
                for profile in pending:
                    self._run_with_retries(sweep, profile)

            manifest = RunManifest(
                workers=self.workers,
                total_pairs=total,
                cache_hits=hits,
                cache_misses=misses,
                wall_time_seconds=time.perf_counter() - started,
                records=tuple(sweep.records[p.pair_name] for p in profiles),
            )
            run_span.set("cache_hits", hits)
            run_span.set("cache_misses", misses)
            run_span.set("failures", manifest.failure_count)
        ordered = {
            p.pair_name: sweep.reports[p.pair_name]
            for p in profiles
            if p.pair_name in sweep.reports
        }
        self._append_ledger(manifest, ordered)
        return SuiteRunResult(ordered, tuple(sweep.failures), manifest)

    def _append_ledger(
        self, manifest: RunManifest, reports: Dict[str, CounterReport]
    ) -> None:
        """Append one run record to the ledger (best-effort, like the
        cache: a write failure never sinks a sweep; it leaves a
        ``ledger.failure`` marker span and no ``last_run_record``)."""
        if self.ledger is None:
            return
        record = build_run_record(
            manifest, reports, self.config, self.sample_ops,
            WARMUP_FRACTION, self._session.resolved_engine,
        )
        try:
            self.ledger.append(record)
        except OSError as error:
            obs.record(
                "ledger.failure", path=str(self.ledger.path),
                error_type=type(error).__name__,
            )
            return
        self.last_run_record = record

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _normalize(pairs: Iterable[PairLike]) -> List[WorkloadProfile]:
        profiles: List[WorkloadProfile] = []
        seen = set()
        for item in pairs:
            profile = item.profile if isinstance(item, AppInput) else item
            if not isinstance(profile, WorkloadProfile):
                raise SimulationError(
                    "SuiteRunner.run expects AppInput or WorkloadProfile "
                    "items, got %r" % type(item).__name__
                )
            if profile.pair_name in seen:
                continue
            seen.add(profile.pair_name)
            profiles.append(profile)
        return profiles

    def _run_with_retries(
        self, sweep: _Sweep, profile: WorkloadProfile, attempts: int = 0,
        seconds: float = 0.0,
    ) -> None:
        """Run one pair inline until it succeeds or has had ``1 +
        _RETRIES`` attempts, ``attempts`` of them already made."""
        name = profile.pair_name
        with obs.profile("pair.run", pair=name, cache="miss") as pair_span:
            while attempts <= _RETRIES:
                attempts += 1
                # Retries get their own subtree so a failed first attempt's
                # stage spans and the retry's never interleave under
                # pair.run — each attempt stays a distinct, correctly
                # parented unit.
                span = obs.NULL_SPAN if attempts == 1 else obs.profile(
                    "pair.retry", pair=name, attempt=attempts
                )
                status, body, elapsed = _attempt(self._session, profile, span)
                seconds += elapsed
                if status == "ok":
                    break
            pair_span.set("attempts", attempts)
            if status == "ok":
                sweep.done(profile, body, seconds, attempts)
            else:
                sweep.fail(name, body, seconds, attempts)

    def _run_pooled(
        self, sweep: _Sweep, pending: List[WorkloadProfile]
    ) -> None:
        workers = min(self.workers, len(pending))
        obs_payloads: Dict[str, object] = {}
        # numpy imports numpy.random on first use, which is each worker's
        # first trace.  Loaded here, forked workers inherit it, and
        # ``import repro.api`` still does without it.
        import numpy.random  # noqa: F401
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                self.config, self.sample_ops, obs.enabled(),
                obs.profile_stage_names(),
            ),
        ) as pool:
            futures = {
                pool.submit(_run_pair, profile): profile
                for profile in pending
            }
            for future in as_completed(futures):
                profile = futures[future]
                try:
                    status, body, seconds, payload = future.result()
                except Exception:
                    # Pool-level failure (e.g. BrokenProcessPool): retry
                    # in the parent so one dead worker cannot sink the run.
                    status, seconds, payload = "error", 0.0, None
                obs_payloads[profile.pair_name] = payload
                if status == "ok":
                    sweep.done(profile, body, seconds, 1)
                else:
                    self._run_with_retries(sweep, profile, 1, seconds)
        # Graft worker traces after the pool drains, in submission order,
        # so the span tree is deterministic despite as_completed racing.
        for profile in pending:
            obs.absorb_worker_payload(
                obs_payloads[profile.pair_name],
                extra_root_attrs={"cache": "miss", "worker": True},
            )
