"""Golden values and an oracle property for the canonical content hash.

Cache keys name users' on-disk entries and the ledger's ``config_hash``
selects the history a run is compared against, so every output of
:func:`repro.hashing.content_hash` is a persisted format: the golden
values below must never change, and the oracle property pins the hash to
its definition, ``sha256(json.dumps(jsonable(x), sort_keys=True,
separators=(",", ":")))`` over the straightforward ``jsonable`` kept here.
"""

import dataclasses
import enum
import hashlib
import json
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import haswell_e5_2650l_v3
from repro.hashing import content_hash, jsonable
from repro.runner.cache import ResultCache
from repro.workloads.profile import InputSize
from repro.workloads.spec2017 import cpu2017

CONFIG_HASH = "f90bfd09e8f7f1dab9319cc8f35d1221e54505653810ec427a9d7c65917320c5"
FLOAT_CONFIG_HASH = (
    "ccef6652a893e97dddead3e4891fe4b418e65caa6ca471a6fc3b4c1bd7e6c818"
)
KEY_10K = "0ddcecfb267967aec5230514e4c7effd428c7be7c14c79b479301d163e3bfccb"
KEY_60K_VECTOR = (
    "85be313c7c1781c98519ea55ff25935ce161cf12e57f16d2c156a14d5b03b893"
)
FLOAT_KEY_10K = (
    "87e2d1d2f0eb2c8573a49873f6e13441c7fbc4e4a4c3ad7a0f9a4af2cfb67d67"
)


def oracle_jsonable(obj):
    """The reference definition of ``jsonable``: every branch, every node."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: oracle_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): oracle_jsonable(value) for key, value in obj.items()}
    return obj


def oracle_hash(material) -> str:
    payload = json.dumps(
        oracle_jsonable(material), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def mcf_profile():
    return cpu2017().get("505.mcf_r").profile(InputSize.REF)


def float_frequency(config):
    """A config equal to ``config`` whose frequency encodes as a float."""
    return dataclasses.replace(config, frequency_hz=float(config.frequency_hz))


class TestGoldenValues:
    def test_config_hash(self):
        assert content_hash(haswell_e5_2650l_v3()) == CONFIG_HASH

    def test_cache_keys(self, tmp_path, mcf_profile):
        cache = ResultCache(tmp_path)
        config = haswell_e5_2650l_v3()
        assert cache.key(config, mcf_profile, 10_000, 0.15) == KEY_10K
        assert cache.key(
            config, mcf_profile, 60_000, 0.15, engine="vector"
        ) == KEY_60K_VECTOR

    def test_equal_config_with_float_frequency_keeps_its_own_bytes(
        self, tmp_path, mcf_profile
    ):
        # Hashed right after the int-typed config it equals: a memo keyed
        # by equality would return the first config's encoding here.
        cache = ResultCache(tmp_path)
        config = haswell_e5_2650l_v3()
        twin = float_frequency(config)
        assert twin == config and hash(twin) == hash(config)
        assert content_hash(config) == CONFIG_HASH
        assert content_hash(twin) == FLOAT_CONFIG_HASH
        assert cache.key(config, mcf_profile, 10_000, 0.15) == KEY_10K
        assert cache.key(twin, mcf_profile, 10_000, 0.15) == FLOAT_KEY_10K


# ---------------------------------------------------------------------------
# Oracle property over nested material
# ---------------------------------------------------------------------------

class Color(enum.Enum):
    RED = 1
    GREEN = "green"


class Shade(str, enum.Enum):
    DARK = "dark"
    LIGHT = "light"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class FrozenPair:
    left: object
    right: object


@dataclasses.dataclass
class MutablePair:
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class FrozenWithList:
    name: str
    items: List[object]


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    # Equal across types: the encoding must keep each one's own type.
    st.sampled_from([0, 1, 0.0, 1.0, False, True, -0.0]),
    st.sampled_from(list(Color) + list(Shade) + list(Level)),
)

KEYS = st.one_of(
    st.text(max_size=6),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([True, None, 1.5, "1", Color.RED, Shade.DARK]),
)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
        st.builds(FrozenPair, children, children),
        st.builds(MutablePair, children, children),
        st.builds(FrozenWithList, st.text(max_size=4),
                  st.lists(children, max_size=3)),
    )


MATERIAL = st.recursive(LEAVES, _extend, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(MATERIAL)
def test_content_hash_matches_the_oracle(material):
    assert content_hash(material) == oracle_hash(material)
    # A second pass goes through whatever the first one memoized.
    assert content_hash(material) == oracle_hash(material)
    assert repr(jsonable(material)) == repr(oracle_jsonable(material))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), MATERIAL, max_size=6))
def test_top_level_dicts_match_the_oracle(material):
    # ResultCache.key's shape: one dict with exact-str keys, values shared
    # across calls (the same objects hashed again inside a new dict).
    assert content_hash(material) == oracle_hash(material)
    reordered = dict(reversed(list(material.items())))
    assert content_hash(reordered) == oracle_hash(material)


def test_str_and_non_str_keys_that_collide_as_strings():
    material = {1: "int", "1": "str", True: "bool", "x": Color.RED}
    assert content_hash(material) == oracle_hash(material)


def test_mutation_after_hashing_changes_the_hash():
    mutable = MutablePair([1, 2], {"a": 1})
    frozen_with_list = FrozenWithList("f", [1, 2])
    holder = FrozenPair(mutable, frozen_with_list)
    for material in (mutable, frozen_with_list, holder, {"v": holder}):
        before = content_hash(material)
        assert before == oracle_hash(material)
    mutable.left.append(3)
    frozen_with_list.items.append(3)
    for material in (mutable, frozen_with_list, holder, {"v": holder}):
        assert content_hash(material) == oracle_hash(material)
