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
Every run returns a :class:`RunManifest` recording per-pair wall time,
cache hit/miss counts, worker count, and failures.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

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

#: ``store(pair_name, values)`` — persists one validated pair's counters.
StoreCallback = Callable[[str, Dict[str, float]], None]


# ---------------------------------------------------------------------------
# Worker side.  One PerfSession per worker process, created by the pool
# initializer; tasks return plain tuples so no repro exception ever needs
# to survive pickling.
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
    started = time.perf_counter()
    try:
        with obs.profile("pair.run", pair=profile.pair_name):
            report = _WORKER_SESSION.run(profile)
        payload = ("ok", dict(report))
    except Exception as error:  # structured transport; parent retries
        payload = ("error", (type(error).__name__, str(error)))
    status, body = payload
    # worker_payload() drains this task's spans (error spans included —
    # the parent's trace shows the failed attempt).
    return status, body, time.perf_counter() - started, obs.worker_payload()


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

        reports: Dict[str, CounterReport] = {}
        records: Dict[str, PairRecord] = {}
        failures: List[PairFailure] = []
        keys: Dict[str, str] = {}
        pending: List[WorkloadProfile] = []

        def finish(record: PairRecord) -> None:
            records[record.pair_name] = record

        def store(name: str, values: Dict[str, float]) -> None:
            if shard is None:
                return
            try:
                shard.entries[keys[name]] = self.cache.store(
                    keys[name], name, values, shard
                )
            except OSError:
                # A cache write failure (read-only dir, full disk) must
                # not sink a sweep whose counters are already in hand;
                # the pair simply stays uncached.
                pass

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
            shard = self._shard
            hits = 0
            for profile in profiles:
                name = profile.pair_name
                if strict_errors and profile.collection_error:
                    failures.append(
                        PairFailure(
                            name, "CollectionError", _COLLECTION_REASON, 0
                        )
                    )
                    obs.record(
                        "pair.failure", pair=name,
                        error_type="CollectionError", attempts=0,
                        retries=_RETRIES,
                    )
                    finish(PairRecord(name, 0.0, False, 0, "CollectionError"))
                    continue
                if shard is not None:
                    lookup_started = time.perf_counter()
                    key = self.cache.key(
                        self.config, profile, self.sample_ops,
                        WARMUP_FRACTION, engine=engine,
                    )
                    keys[name] = key
                    values = self.cache.load(key, shard)
                    if values is not None:
                        try:
                            # require_valid covers both stale layouts
                            # (unknown counters -> CounterError) and corrupt
                            # entries (inconsistent counters); either way
                            # the pair is re-simulated, not served poisoned.
                            reports[name] = CounterReport(
                                profile, values
                            ).require_valid()
                        except CounterError:
                            values = None
                    if values is not None:
                        hits += 1
                        lookup_seconds = time.perf_counter() - lookup_started
                        obs.record(
                            "pair.run", wall_s=lookup_seconds,
                            pair=name, cache="hit",
                        )
                        finish(PairRecord(name, lookup_seconds, True, 0))
                        continue
                pending.append(profile)

            misses = len(pending)
            self.total_cache_hits += hits
            self.total_cache_misses += misses

            # Phase 2: simulate the misses — pooled when it pays, else
            # inline.
            if pending:
                if self.workers > 1 and len(pending) > 1:
                    self._run_pooled(pending, reports, failures, store, finish)
                else:
                    for profile in pending:
                        self._run_with_retries(
                            profile, reports, failures, store, finish,
                            prior_attempts=0, prior_seconds=0.0,
                        )

            manifest = RunManifest(
                workers=self.workers,
                total_pairs=total,
                cache_hits=hits,
                cache_misses=misses,
                wall_time_seconds=time.perf_counter() - started,
                records=tuple(records[p.pair_name] for p in profiles),
            )
            run_span.set("cache_hits", hits)
            run_span.set("cache_misses", misses)
            run_span.set("failures", manifest.failure_count)
        ordered = {
            p.pair_name: reports[p.pair_name]
            for p in profiles
            if p.pair_name in reports
        }
        self._append_ledger(manifest, ordered)
        return SuiteRunResult(ordered, tuple(failures), manifest)

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

    def _record_success(
        self,
        profile: WorkloadProfile,
        values: Dict[str, float],
        seconds: float,
        attempts: int,
        reports: Dict[str, CounterReport],
        failures: List[PairFailure],
        store: StoreCallback,
        finish: Callable[[PairRecord], None],
    ) -> None:
        name = profile.pair_name
        try:
            # Counter-consistency gate: a worker that returns inconsistent
            # counters (or a transport that mangled them) yields a
            # structured failure here, never a poisoned report — and never
            # a cache entry.
            reports[name] = CounterReport(profile, values).require_valid()
        except CounterError as error:
            error_type = type(error).__name__
            failures.append(PairFailure(name, error_type, str(error), attempts))
            obs.record(
                "pair.failure", pair=name, error_type=error_type,
                attempts=attempts, retries=_RETRIES,
            )
            finish(PairRecord(name, seconds, False, attempts, error_type))
            return
        store(name, values)
        finish(PairRecord(name, seconds, False, attempts))

    def _run_with_retries(
        self,
        profile: WorkloadProfile,
        reports: Dict[str, CounterReport],
        failures: List[PairFailure],
        store: StoreCallback,
        finish: Callable[[PairRecord], None],
        prior_attempts: int,
        prior_seconds: float,
        last_error: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Run one pair inline with the remaining retry budget."""
        name = profile.pair_name
        attempts = prior_attempts
        seconds = prior_seconds
        with obs.profile("pair.run", pair=name, cache="miss") as pair_span:
            while attempts <= _RETRIES:
                attempts += 1
                attempt_started = time.perf_counter()
                try:
                    if attempts > 1:
                        # Retries get their own subtree so a failed first
                        # attempt's stage spans and the retry's never
                        # interleave under pair.run — each attempt stays
                        # a distinct, correctly parented unit.
                        with obs.profile(
                            "pair.retry", pair=name, attempt=attempts
                        ):
                            report = self._session.run(profile)
                    else:
                        report = self._session.run(profile)
                except Exception as error:
                    seconds += time.perf_counter() - attempt_started
                    last_error = (type(error).__name__, str(error))
                    continue
                seconds += time.perf_counter() - attempt_started
                pair_span.set("attempts", attempts)
                self._record_success(
                    profile, dict(report), seconds, attempts, reports,
                    failures, store, finish,
                )
                return
            pair_span.set("attempts", attempts)
            error_type, message = last_error or ("Error", "unknown failure")
            failures.append(PairFailure(name, error_type, message, attempts))
            obs.record(
                "pair.failure", pair=name, error_type=error_type,
                attempts=attempts, retries=_RETRIES,
            )
            finish(PairRecord(name, seconds, False, attempts, error_type))

    def _run_pooled(
        self,
        pending: List[WorkloadProfile],
        reports: Dict[str, CounterReport],
        failures: List[PairFailure],
        store: StoreCallback,
        finish: Callable[[PairRecord], None],
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
                    status, payload, seconds, obs_payload = future.result()
                except Exception as error:
                    # Pool-level failure (e.g. BrokenProcessPool): retry
                    # in the parent so one dead worker cannot sink the run.
                    status = "error"
                    payload = (type(error).__name__, str(error))
                    seconds = 0.0
                    obs_payload = None
                if obs_payload is not None:
                    obs_payloads[profile.pair_name] = obs_payload
                if status == "ok":
                    self._record_success(
                        profile, payload, seconds, 1, reports, failures,
                        store, finish,
                    )
                else:
                    self._run_with_retries(
                        profile, reports, failures, store, finish,
                        prior_attempts=1, prior_seconds=seconds,
                        last_error=tuple(payload),
                    )
        # Graft worker traces after the pool drains, in submission order,
        # so the span tree is deterministic despite as_completed racing.
        for profile in pending:
            payload = obs_payloads.get(profile.pair_name)
            if payload is not None:
                obs.absorb_worker_payload(
                    payload,
                    extra_root_attrs={"cache": "miss", "worker": True},
                )
