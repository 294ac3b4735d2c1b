"""Shared fixtures.

Heavy objects (suite registries, the characterization pass) are
session-scoped: every test that needs "all pairs characterized" shares one
simulation pass, keeping the suite fast without sacrificing realism.
"""

from __future__ import annotations

import pytest

from repro.config import haswell_e5_2650l_v3
from repro.core.characterize import Characterizer
from repro.core.subset import SubsetSelector
from repro.perf.session import PerfSession
from repro.reports.experiments import ExperimentContext
from repro.runner import SuiteRunner
from repro.workloads.profile import InputSize
from repro.workloads.spec2006 import cpu2006
from repro.workloads.spec2017 import cpu2017

#: Sample size used by shared fixtures: small enough for a fast suite,
#: large enough that rates converge (regions make miss rates exact by
#: construction; only branch rates carry sampling noise).
TEST_SAMPLE_OPS = 20_000


@pytest.fixture(scope="session", autouse=True)
def isolated_result_cache(tmp_path_factory):
    """Point the SuiteRunner result cache at a throwaway directory so the
    suite never reads or pollutes the user's real ~/.cache/repro."""
    from _pytest.monkeypatch import MonkeyPatch

    patch = MonkeyPatch()
    patch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
    )
    yield
    patch.undo()


@pytest.fixture(scope="session")
def config():
    return haswell_e5_2650l_v3()


@pytest.fixture(scope="session")
def suite17():
    return cpu2017()


@pytest.fixture(scope="session")
def suite06():
    return cpu2006()


@pytest.fixture(scope="session")
def session(config):
    return PerfSession(config=config, sample_ops=TEST_SAMPLE_OPS)


def inline_runner(config):
    """A runner like ``Characterizer()``'s default (one process, no cache,
    no ledger) at the shared fixtures' sample size."""
    return SuiteRunner(
        config=config, sample_ops=TEST_SAMPLE_OPS, workers=1,
        use_cache=False, use_ledger=False,
    )


@pytest.fixture(scope="session")
def characterizer(config):
    return Characterizer(runner=inline_runner(config))


@pytest.fixture(scope="session")
def selector(characterizer):
    return SubsetSelector(characterizer)


@pytest.fixture(scope="session")
def ctx(config):
    return ExperimentContext(runner=inline_runner(config))


@pytest.fixture(scope="session")
def mcf_ref(suite17):
    return suite17.get("505.mcf_r").profile(InputSize.REF)


@pytest.fixture(scope="session")
def x264_ref(suite17):
    return suite17.get("525.x264_r").profile(InputSize.REF)


@pytest.fixture(scope="session")
def ref_metrics17(characterizer, suite17):
    return characterizer.characterize(suite17, size=InputSize.REF)


@pytest.fixture(scope="session")
def all_metrics17(characterizer, suite17):
    return characterizer.characterize(suite17, size=None)


@pytest.fixture(scope="session")
def app_means17(characterizer, suite17):
    return characterizer.benchmark_means(suite17)


@pytest.fixture(scope="session")
def app_means06(characterizer, suite06):
    return characterizer.benchmark_means(suite06)
