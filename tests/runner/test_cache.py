"""Tests for the on-disk result cache (keying, round trips, shards)."""

import json
import subprocess
import sys
import warnings

import pytest

import repro
from repro.config import haswell_e5_2650l_v3
from repro.runner.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    ResultCache,
    content_hash,
    default_cache_dir,
)
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path)


@pytest.fixture(scope="module")
def profile():
    return cpu2017().get("505.mcf_r").profile(InputSize.REF)


class TestKeying:
    def test_key_is_deterministic(self, cache, config, profile):
        a = cache.key(config, profile, 10_000, 0.15)
        b = cache.key(config, profile, 10_000, 0.15)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_key_covers_every_input(self, cache, config, profile):
        base = cache.key(config, profile, 10_000, 0.15)
        other_profile = cpu2017().get("525.x264_r").profile(InputSize.REF)
        assert cache.key(config, profile, 20_000, 0.15) != base
        assert cache.key(config, profile, 10_000, 0.25) != base
        assert cache.key(config, other_profile, 10_000, 0.15) != base
        scaled = haswell_e5_2650l_v3().with_l3_scaled(0.5)
        assert cache.key(scaled, profile, 10_000, 0.15) != base

    def test_content_hash_handles_enums_and_tuples(self):
        assert content_hash({"size": InputSize.REF, "xs": (1, 2)}) == \
            content_hash({"size": "ref", "xs": [1, 2]})


def open_shard(cache, config):
    return cache.shard(config, 10_000, 0.15, engine="vector")


def shard_lines(shard):
    return shard.path.read_bytes().splitlines()


class TestRoundTrip:
    def test_store_then_load(self, cache, config):
        values = {"inst_retired.any": 1.5e12, "ref_cycles": 2.0e12}
        cache.store("k" * 64, "505.mcf_r/ref", values, open_shard(cache, config))
        assert cache.load("k" * 64, open_shard(cache, config)) == values

    def test_load_missing_is_none(self, cache, config):
        assert cache.load("absent" + "0" * 58, open_shard(cache, config)) is None

    def test_load_corrupt_entry_is_none(self, cache, config):
        shard = open_shard(cache, config)
        shard.path.parent.mkdir(parents=True, exist_ok=True)
        shard.path.write_text('{"key": "%s", "schema": 1, "values": {"x"\n'
                              % ("c" * 64))
        with pytest.warns(UserWarning, match="not valid JSON"):
            shard = open_shard(cache, config)
        assert cache.load("c" * 64, shard) is None

    def test_load_wrong_schema_is_none(self, cache, config):
        shard = open_shard(cache, config)
        shard.path.parent.mkdir(parents=True, exist_ok=True)
        shard.path.write_text(json.dumps(
            {"key": "s" * 64, "schema": -1, "values": {"x": 1.0}}) + "\n")
        assert cache.load("s" * 64, open_shard(cache, config)) is None

    def test_entry_count_and_clear(self, cache, config):
        shard = open_shard(cache, config)
        for i in range(3):
            cache.store(("%02d" % i) * 32, "pair", {"x": float(i)}, shard)
        assert cache.entry_count() == 3
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_clear_missing_directory_is_zero(self, tmp_path):
        assert ResultCache(tmp_path / "nope").clear() == 0


class TestShards:
    def test_one_shard_per_sweep_identity(self, cache, config):
        base = open_shard(cache, config)
        assert base.path.parent == cache.directory
        assert base.path.name == "shard-%s.jsonl" % content_hash({
            "schema": CACHE_SCHEMA, "code_version": repro.__version__,
            "config": config, "sample_ops": 10_000,
            "warmup_fraction": 0.15, "engine": "vector",
        })
        others = {
            cache.shard(config, 20_000, 0.15, engine="vector").path,
            cache.shard(config, 10_000, 0.25, engine="vector").path,
            cache.shard(config, 10_000, 0.15, engine="scalar").path,
            cache.shard(haswell_e5_2650l_v3().with_l3_scaled(0.5), 10_000,
                        0.15, engine="vector").path,
        }
        assert len(others) == 4 and base.path not in others

    def test_store_appends_one_canonical_line(self, cache, config):
        shard = open_shard(cache, config)
        cache.store("a" * 64, "505.mcf_r/ref", {"y": 2, "x": 1.5}, shard)
        cache.store("b" * 64, "519.lbm_r/ref", {"x": 3.0}, shard)
        version = repro.__version__.encode()
        assert shard_lines(shard) == [
            b'{"code_version":"%s","key":"%s","pair":"505.mcf_r/ref",'
            b'"schema":1,"values":{"x":1.5,"y":2.0}}' % (version, b"a" * 64),
            b'{"code_version":"%s","key":"%s","pair":"519.lbm_r/ref",'
            b'"schema":1,"values":{"x":3.0}}' % (version, b"b" * 64),
        ]
        # A store appends to the file; the shard read before it is as
        # the file stood then.
        assert shard.entries == {}

    def test_last_line_for_a_key_wins(self, cache, config):
        shard = open_shard(cache, config)
        cache.store("k" * 64, "pair", {"x": 1.0}, shard)
        cache.store("k" * 64, "pair", {"x": 2.0}, shard)
        assert len(shard_lines(shard)) == 2
        assert cache.load("k" * 64, open_shard(cache, config)) == {"x": 2.0}
        assert cache.entry_count() == 1

    @pytest.mark.parametrize("bad", [
        b"{broken\n", b"\xff\n", b'{"key": "kkkk', b'["not", "a", "dict"]\n',
    ], ids=["corrupt", "non-utf8", "truncated", "not-an-entry"])
    def test_bad_line_is_skipped_with_a_warning(self, cache, config, bad):
        shard = open_shard(cache, config)
        cache.store("a" * 64, "pair", {"x": 1.0}, shard)
        with open(shard.path, "ab") as handle:
            handle.write(bad)
        # A store after a torn last line starts a line of its own.
        cache.store("b" * 64, "pair", {"x": 2.0}, shard)
        with pytest.warns(UserWarning, match=r"cache shard .*:2 is not"):
            reread = open_shard(cache, config)
        assert cache.load("a" * 64, reread) == {"x": 1.0}
        assert cache.load("b" * 64, reread) == {"x": 2.0}

    def test_concurrent_appends_leave_every_line_whole(self, cache, config):
        """Two processes storing into one shard never tear a line."""
        script = (
            "import sys\n"
            "from repro.config import haswell_e5_2650l_v3\n"
            "from repro.runner.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "shard = cache.shard(haswell_e5_2650l_v3(), 10_000, 0.15,\n"
            "                    engine='vector')\n"
            "values = {'counter.%d' % i: float(i) for i in range(40)}\n"
            "for i in range(200):\n"
            "    cache.store(sys.argv[2] + '%061d' % i, 'pair', values, shard)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache.directory), tag],
            )
            for tag in ("one", "two")
        ]
        for proc in procs:
            assert proc.wait() == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn line would warn
            shard = open_shard(cache, config)
        assert len(shard_lines(shard)) == 400
        assert len(shard.entries) == 400
        for key in shard.entries:
            assert len(cache.load(key, shard)) == 40

    def test_entry_count_and_clear_cover_leftover_entry_files(
        self, cache, config
    ):
        shard = open_shard(cache, config)
        for i in range(3):
            cache.store(("%02d" % i) * 32, "pair", {"x": float(i)}, shard)
        # A file of the one-file-per-entry layout: counted and cleared,
        # never read.
        leftover = cache.directory / ("f" * 64 + ".json")
        leftover.write_text(json.dumps(
            {"schema": CACHE_SCHEMA, "pair": "pair", "values": {"x": 9.0}}))
        ledger = cache.directory / "ledger.jsonl"
        ledger.write_text('{"schema": 1, "kind": "run"}\n')
        assert cache.load("f" * 64, open_shard(cache, config)) is None
        assert cache.entry_count() == 4
        assert cache.clear() == 4
        assert cache.entry_count() == 0
        assert not leftover.exists() and not shard.path.exists()
        assert ledger.read_text() == '{"schema": 1, "kind": "run"}\n'


class TestDefaultDirectory:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().directory == tmp_path / "elsewhere"

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(default_cache_dir()).endswith(".cache/repro")
