"""Engine-aware caching: entries are keyed by the resolved engine.

Both engines are parity-tested, but cache entries are still segregated
per resolved engine so a regression in either one can never be masked
by serving the other engine's cached counters.
"""

import pytest

from repro.runner import SuiteRunner
from repro.runner.cache import ResultCache
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017

OPS = 8_000


@pytest.fixture(scope="module")
def profile():
    return cpu2017().get("505.mcf_r").profile(InputSize.REF)


class TestKeying:
    def test_engine_is_part_of_the_key(self, tmp_path, config, profile):
        cache = ResultCache(tmp_path)
        scalar = cache.key(config, profile, OPS, 0.15, engine="scalar")
        vector = cache.key(config, profile, OPS, 0.15, engine="vector")
        legacy = cache.key(config, profile, OPS, 0.15)
        assert len({scalar, vector, legacy}) == 3

    def test_key_uses_resolved_engine_not_the_knob(self, tmp_path, profile):
        # "auto" resolves to "vector" on the default config, so an auto
        # sweep and an explicit vector sweep share cache entries.
        cache_dir = tmp_path / "cache"
        auto = SuiteRunner(
            workers=1, sample_ops=OPS, cache_dir=cache_dir, engine="auto"
        )
        assert auto.run([profile]).ok
        vector = SuiteRunner(
            workers=1, sample_ops=OPS, cache_dir=cache_dir, engine="vector"
        )
        result = vector.run([profile])
        assert result.ok
        assert result.manifest.cache_hits == 1
        assert ResultCache(cache_dir).entry_count() == 1


class TestSweeps:
    def test_engines_fill_distinct_entries_with_equal_counters(
        self, tmp_path, profile
    ):
        cache_dir = tmp_path / "cache"
        scalar = SuiteRunner(
            workers=1, sample_ops=OPS, cache_dir=cache_dir, engine="scalar"
        ).run([profile])
        vector = SuiteRunner(
            workers=1, sample_ops=OPS, cache_dir=cache_dir, engine="vector"
        ).run([profile])
        assert scalar.ok and vector.ok
        # Two entries on disk (one per engine), identical counter values.
        assert ResultCache(cache_dir).entry_count() == 2
        assert dict(scalar.report(profile.pair_name)) == dict(
            vector.report(profile.pair_name)
        )

    def test_pooled_workers_respect_engine(self, tmp_path, profile):
        # A 2-worker sweep exercises _init_worker's engine argument.
        other = cpu2017().get("519.lbm_r").profile(InputSize.REF)
        cache_dir = tmp_path / "cache"
        pooled = SuiteRunner(
            workers=2, sample_ops=OPS, cache_dir=cache_dir, engine="scalar"
        ).run([profile, other])
        assert pooled.ok
        inline = SuiteRunner(
            workers=1, sample_ops=OPS, use_cache=False, engine="vector"
        ).run([profile, other])
        assert inline.ok
        for name in (profile.pair_name, other.pair_name):
            assert dict(pooled.report(name)) == dict(inline.report(name))
