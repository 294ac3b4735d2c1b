"""Golden-trace lock on the generator's exact output.

The batched RNG path in :class:`TraceGenerator` (one ``rng.random``
matrix per branch-outcome family instead of consecutive per-array
draws) is only legal because PCG64 fills C-order matrices row-by-row,
making it draw-for-draw identical to the sequential code it replaced.
These digests were captured from the pre-batching generator; any change
to draw order, dtype, or array layout shows up as a digest mismatch.

The 60,000-op digests (the default sample size) were captured before the
label shuffles moved to word width, on Table I and on the quarter-size
L3, whose region layout differs; the oracle property pins
``_stratified_assign`` to the byte-width function it replaced.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import haswell_e5_2650l_v3
from repro.workloads.generator import TraceGenerator, _stratified_assign
from repro.workloads.profile import InputSize

GOLDEN_OPS = 4096

#: sha256 over the concatenated raw bytes of every trace array, per pair.
GOLDEN_DIGESTS = {
    "505.mcf_r":
        "d87799eb704b57670894011eba857853ac72c0e845211ea2161505dfece55b47",
    "548.exchange2_r":
        "026655a5cad1864adc077c020022a34d4f159690686564220b8d43d3a3b568cc",
    "519.lbm_r":
        "55dd8625cdf0d19d2f8f1e6aa5a0448b73d2c999ff68c7a181d652804bcdb9d4",
    "541.leela_r":
        "0de0932ea78fa49a7eaddfb1ed11bf63e3b6b4c3ab7b12ba11ae4987a6899188",
}

#: sha256 per (config, suite, benchmark, input size) at 60,000 ops.
GOLDEN_DIGESTS_60K = {
    ("table1", "cpu2017", "505.mcf_r", "ref"):
        "fcbcd0261d7d2fde000dca5b2310a366deceadd6fbeacf4a73b1871e2eef0690",
    ("table1", "cpu2017", "548.exchange2_r", "ref"):
        "3fa266767aa294b18ab734011ba57d351a7eef5c547a9c32fb6aaaf94fd60e9a",
    ("table1", "cpu2017", "519.lbm_r", "ref"):
        "4ab89faae2b190b63728593668569e31f11f7f75034737b0ec39a3df6f2f5089",
    ("table1", "cpu2017", "541.leela_r", "ref"):
        "88e5f4c7d006c38f931be22420177dfcf36e24e6e6d323ec1e2b8405a88fc9f8",
    ("table1", "cpu2006", "429.mcf", "ref"):
        "9aae0a240f3b5adaa2bf811afd8450c2f19d07656d087faa510ba3ed697732f4",
    ("table1", "cpu2017", "525.x264_r", "test"):
        "aa00a0c25a0409efa0be65cbaca89ffa852aa45a4fbf3593847bbe4db101b2aa",
    ("l3x0.25", "cpu2017", "505.mcf_r", "ref"):
        "232ebd4e6b370d17f4b0e797aa4d57b2e3bc1c2c1d387cd8fc6f7c18d7dc5080",
    ("l3x0.25", "cpu2017", "548.exchange2_r", "ref"):
        "3fa266767aa294b18ab734011ba57d351a7eef5c547a9c32fb6aaaf94fd60e9a",
    ("l3x0.25", "cpu2017", "519.lbm_r", "ref"):
        "3b78c8b2aa56c4a42e2ca0a514c6369e29e68031e892c99d9e96f6b319508ffb",
    ("l3x0.25", "cpu2017", "541.leela_r", "ref"):
        "5a5081d15f1b8a967cb679595e8f6872582a1fa6d13391aafb2191c96dc65ed6",
    ("l3x0.25", "cpu2006", "429.mcf", "ref"):
        "122aa701885f62bce5b4cdaf767e81b0da4c69353b68b3fa8e9f7a4ad341bcfd",
    ("l3x0.25", "cpu2017", "525.x264_r", "test"):
        "aa00a0c25a0409efa0be65cbaca89ffa852aa45a4fbf3593847bbe4db101b2aa",
}


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for array in (
        trace.kind, trace.addr, trace.region, trace.btype,
        trace.site, trace.taken, trace.new_page,
    ):
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_generator_output_matches_golden_digest(suite17, name):
    generator = TraceGenerator(haswell_e5_2650l_v3())
    profile = suite17.get(name).profile(InputSize.REF)
    trace = generator.generate(profile, n_ops=GOLDEN_OPS)
    assert trace_digest(trace) == GOLDEN_DIGESTS[name], (
        "trace bytes for %s diverged from the golden seed-for-seed output"
        % name
    )


def test_generation_is_deterministic(suite17):
    generator = TraceGenerator(haswell_e5_2650l_v3())
    profile = suite17.get("505.mcf_r").profile(InputSize.REF)
    first = generator.generate(profile, n_ops=GOLDEN_OPS)
    second = generator.generate(profile, n_ops=GOLDEN_OPS)
    assert trace_digest(first) == trace_digest(second)


@pytest.mark.parametrize(
    "config_label, suite, name, size", sorted(GOLDEN_DIGESTS_60K),
    ids=["-".join(key) for key in sorted(GOLDEN_DIGESTS_60K)],
)
def test_default_size_traces_match_golden_digest(
    suite17, suite06, config_label, suite, name, size
):
    config = haswell_e5_2650l_v3()
    if config_label == "l3x0.25":
        config = config.with_l3_scaled(0.25)
    registry = {"cpu2017": suite17, "cpu2006": suite06}[suite]
    profile = registry.get(name).profile(InputSize(size))
    trace = TraceGenerator(config).generate(profile, n_ops=60_000)
    assert trace_digest(trace) == GOLDEN_DIGESTS_60K[
        (config_label, suite, name, size)
    ]


def byte_width_stratified_assign(n, fractions, labels, default_label, rng):
    """The generator's label assignment as it was, shuffling ``uint8``."""
    raw = [fraction * n for fraction in fractions]
    counts = [int(value) for value in raw]
    spare = n - sum(counts)
    for i in sorted(range(len(raw)), key=lambda i: raw[i] - counts[i],
                    reverse=True):
        if spare > 0 and raw[i] - counts[i] >= 0.5:
            counts[i] += 1
            spare -= 1
    out = np.full(n, default_label, dtype=np.uint8)
    cursor = 0
    for label, count in zip(labels, counts):
        out[cursor:cursor + count] = label
        cursor += count
    rng.shuffle(out)
    return out


@st.composite
def assignments(draw):
    """(n, fractions, labels, default label, seed) as the generator passes
    them: fractions that sum to at most 1, distinct byte labels."""
    n = draw(st.integers(min_value=0, max_value=5000))
    k = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=k + 1, max_size=k + 1))
    total = sum(weights) or 1.0
    fractions = tuple(weight / total for weight in weights[:k])
    labels = draw(st.lists(st.integers(min_value=0, max_value=254),
                           min_size=k + 1, max_size=k + 1, unique=True))
    seed = draw(st.integers(min_value=0, max_value=2**63 - 1))
    return n, fractions, tuple(labels[:k]), labels[k], seed


@settings(max_examples=300, deadline=None)
@given(assignments())
def test_stratified_assign_matches_the_byte_width_oracle(case):
    n, fractions, labels, default_label, seed = case
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    out, counts = _stratified_assign(n, fractions, labels, default_label, rng)
    expected = byte_width_stratified_assign(
        n, fractions, labels, default_label, oracle_rng
    )
    assert out.dtype == np.uint8
    assert np.array_equal(out, expected)
    # The counts it returns are its labels' counts.
    assert counts == [int(np.count_nonzero(out == label)) for label in labels]
    # The same draws were taken: the generator's next draw agrees too.
    assert rng.random() == oracle_rng.random()
