"""Every pair of a sweep ends in exactly one manifest record, whatever
happens to it: a strict-mode collection failure, a cache hit, an entry
that fails validation, a simulation, a pair that always raises, or a pool
worker that dies under it."""

import functools
import multiprocessing
import os

import pytest

from repro import obs
from repro.perf import counters as C
from repro.perf.session import PerfSession
from repro.runner import ResultCache, SuiteRunner
from repro.runner import runner as runner_module
from repro.uarch.core import WARMUP_FRACTION
from repro.workloads.profile import InputSize

OPS = 2_000

#: Monkeypatches reach pool workers only when the pool forks them.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the test's patches only when forked",
)

_REAL_RUN_PAIR = runner_module._run_pair


def _exit_on(victim, profile):
    """A pool task that kills its worker process on ``victim``'s pair."""
    if profile.pair_name == victim:
        os._exit(3)
    return _REAL_RUN_PAIR(profile)


@pytest.fixture(scope="module")
def clean_pairs(suite17):
    """REF pairs the paper collected (no strict-mode failure)."""
    return [
        pair.profile for pair in suite17.pairs(size=InputSize.REF)
        if not pair.profile.collection_error
    ]


@needs_fork
def test_dead_worker_pairs_are_retried_in_the_parent(monkeypatch, clean_pairs):
    pairs = clean_pairs[:4]
    victim = pairs[1].pair_name
    inline = SuiteRunner(sample_ops=OPS, workers=1, use_cache=False).run(pairs)
    monkeypatch.setattr(
        runner_module, "_run_pair", functools.partial(_exit_on, victim)
    )
    obs.enable()
    try:
        result = SuiteRunner(
            sample_ops=OPS, workers=2, use_cache=False
        ).run(pairs)
        spans = obs.tracer().finished()
    finally:
        obs.disable()

    assert list(result.reports) == list(inline.reports)
    for name, report in inline.reports.items():
        assert dict(result.reports[name]) == dict(report)
    manifest = result.manifest
    assert manifest.failure_count == 0
    attempts = {r.pair_name: r.attempts for r in manifest.records}
    assert attempts[victim] == 2
    assert set(attempts.values()) <= {1, 2}

    # Each retried pair has one pair.run in the parent, with both attempts
    # counted and the retry as its one child.
    parent_runs = {
        span["attrs"]["pair"]: span for span in spans
        if span["name"] == "pair.run" and "worker" not in span["attrs"]
    }
    retried = sorted(name for name, n in attempts.items() if n == 2)
    assert sorted(parent_runs) == retried
    for name in retried:
        run = parent_runs[name]
        assert run["attrs"]["attempts"] == 2
        children = [s for s in spans if s["parent"] == run["id"]]
        assert [s["name"] for s in children] == ["pair.retry"]


def poison(cache_dir, runner, profile):
    """Append an entry for ``profile`` whose counters fail validation."""
    cache = ResultCache(cache_dir)
    engine = runner._session.resolved_engine
    key = cache.key(
        runner.config, profile, OPS, WARMUP_FRACTION, engine=engine
    )
    shard = cache.shard(runner.config, OPS, WARMUP_FRACTION, engine=engine)
    values = dict(cache.load(key, shard))
    values[C.BR_MISP] = values[C.BR_ALL] * 3 + 1e6  # mispredicts > branches
    cache.store(key, profile.pair_name, values, shard)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_every_pair_ends_in_one_record(
    tmp_path, monkeypatch, suite17, clean_pairs, workers
):
    strict = suite17.find_pair("627.cam4_s").profile
    cached, poisoned, uncached, broken = clean_pairs[:4]
    cache_dir = tmp_path / "cache"
    filler = SuiteRunner(sample_ops=OPS, workers=1, cache_dir=cache_dir)
    assert filler.run([cached, poisoned]).ok
    poison(cache_dir, filler, poisoned)

    real_run = PerfSession.run

    def run(self, profile):
        if profile.pair_name == broken.pair_name:
            raise RuntimeError("always broken")
        return real_run(self, profile)

    # On the class, so forked workers inherit it.
    monkeypatch.setattr(PerfSession, "run", run)
    profiles = [strict, cached, poisoned, uncached, broken]
    result = SuiteRunner(
        sample_ops=OPS, workers=workers, cache_dir=cache_dir
    ).run(profiles, strict_errors=True)

    manifest = result.manifest
    assert [r.pair_name for r in manifest.records] == [
        p.pair_name for p in profiles
    ]
    assert (manifest.cache_hits, manifest.cache_misses) == (1, 3)
    assert manifest.failure_count == len(result.failures) == 2
    records = {r.pair_name: r for r in manifest.records}
    assert (records[strict.pair_name].error,
            records[strict.pair_name].attempts) == ("CollectionError", 0)
    assert (records[cached.pair_name].cached,
            records[cached.pair_name].attempts) == (True, 0)
    assert (records[broken.pair_name].error,
            records[broken.pair_name].attempts) == ("RuntimeError", 2)
    for profile in (poisoned, uncached):
        record = records[profile.pair_name]
        assert (record.cached, record.failed) == (False, False)
    assert list(result.reports) == [
        p.pair_name for p in (cached, poisoned, uncached)
    ]
