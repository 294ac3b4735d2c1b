"""Engine-aware caching: entries are keyed by the resolved engine.

Both engines are parity-tested, but cache entries are still segregated
per resolved engine so a regression in either one can never be masked
by serving the other engine's cached counters.  A sweep always picks
``"auto"``, and keys the engine it resolves to.
"""

import pytest

from repro.runner import SuiteRunner
from repro.runner.cache import ResultCache
from repro.uarch.core import WARMUP_FRACTION
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
        # "auto" resolves to "vector" on the default config, so a sweep's
        # entries sit under the vector keys.
        cache_dir = tmp_path / "cache"
        runner = SuiteRunner(workers=1, sample_ops=OPS, cache_dir=cache_dir)
        assert runner.run([profile]).ok
        cache = ResultCache(cache_dir)
        shard = cache.shard(runner.config, OPS, WARMUP_FRACTION,
                            engine="vector")
        assert set(shard.entries) == {
            cache.key(runner.config, profile, OPS, WARMUP_FRACTION,
                      engine="vector")
        }
