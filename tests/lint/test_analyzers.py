"""The four whole-program analyzers against fixture mini-projects."""

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.analyzers.cachekey import CacheKeyAnalyzer, KeySpec
from repro.lint.analyzers.layering import LayeringAnalyzer
from repro.lint.analyzers.pickles import PicklabilityAnalyzer, PklSpec
from repro.lint.analyzers.seeds import SeedTaintAnalyzer


def run(analyzer, project):
    return sorted(analyzer.check(project))


class TestLayering:
    def test_leaf_layer_importing_runner_is_flagged(self, build_tree,
                                                    project_of):
        root = build_tree({
            "repro/uarch/core.py": "import repro.runner\n",
            "repro/runner/api.py": "x = 1\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        assert any(
            f.rule_id == "LAY001" and "'uarch'" in f.message
            and "'runner'" in f.message for f in findings
        )

    def test_lazy_violation_still_counts_for_layering(self, build_tree,
                                                      project_of):
        root = build_tree({
            "repro/stats/fit.py":
                "def go():\n    from repro import obs\n    return obs\n",
            "repro/obs/probe.py": "x = 1\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        assert any("even lazily" in f.message for f in findings)

    def test_import_cycle_is_one_finding_with_the_chain(self, build_tree,
                                                        project_of):
        root = build_tree({
            "repro/a.py": "import repro.b\n",
            "repro/b.py": "import repro.a\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        cycle = [f for f in findings if "import cycle" in f.message]
        assert len(cycle) == 1
        assert "repro.a -> repro.b -> repro.a" in cycle[0].message

    def test_examples_must_import_the_facade(self, build_tree, project_of):
        root = build_tree({
            "examples/demo.py": "from repro.uarch import core\n",
            "examples/ok.py": "from repro.api import run_suite\n",
            "repro/uarch/core.py": "x = 1\n",
        })
        findings = run(LayeringAnalyzer(), project_of(root))
        facade = [f for f in findings if "facade-only" in f.message]
        assert len(facade) == 1
        assert facade[0].path.endswith("examples/demo.py")

    # Every input of the retired per-file API001 rule, with the number of
    # deep imports it holds: the facade check must agree on each one.
    @pytest.mark.parametrize("rel,source,deep_imports", [
        pytest.param("examples/demo.py",
                     "from repro.uarch.core import SimulatedCore\n", 1,
                     id="deep-from-import"),
        pytest.param("examples/demo.py",
                     "import repro.workloads.generator\n", 1,
                     id="deep-plain-import"),
        pytest.param("docs/snippets/pca.py",
                     "from repro.stats import PCA\n", 1,
                     id="docs-snippet"),
        pytest.param("examples/demo.py",
                     "import repro\n"
                     "import repro.api\n"
                     "from repro import PerfSession\n"
                     "from repro.api import SuiteRunner, cpu2017\n", 0,
                     id="facade-and-top-level"),
        pytest.param("examples/demo.py",
                     "import numpy as np\n"
                     "from dataclasses import replace\n"
                     "from reprolib import thing\n", 0,
                     id="non-repro-imports"),
        pytest.param("src/repro/perf/session.py",
                     "from repro.uarch.core import SimulatedCore\n", 0,
                     id="library-code"),
        pytest.param("examples/demo.py",
                     "from repro.config import CacheConfig\n"
                     "from repro.phases import PhaseDetector\n", 2,
                     id="one-finding-per-import"),
    ])
    def test_facade_check_covers_the_former_api001_inputs(
            self, build_tree, project_of, rel, source, deep_imports):
        root = build_tree({rel: source})
        findings = run(LayeringAnalyzer(), project_of(root))
        facade = [f for f in findings if "facade-only" in f.message]
        assert len(facade) == deep_imports

    def test_shipped_examples_pass(self):
        examples = Path(__file__).resolve().parents[2] / "examples"
        assert run_lint([str(examples)], select=["LAY001"]).findings == []

    def test_clean_tree_has_no_findings(self, build_tree, project_of):
        root = build_tree({
            "repro/uarch/core.py": "from . import caches\n",
            "repro/uarch/caches.py": "x = 1\n",
        })
        assert run(LayeringAnalyzer(), project_of(root)) == []


class TestSeedTaint:
    def test_unthreaded_parameter_with_no_callers_is_flagged(
            self, build_tree, project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
        })
        findings = run(SeedTaintAnalyzer(), project_of(root))
        assert len(findings) == 1
        assert "no project call site threads a seed" in findings[0].message

    def test_cross_module_threaded_seed_is_clean(self, build_tree,
                                                 project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
            "repro/app.py": """\
                from repro import gen

                def sweep(seed):
                    return gen.make(seed)
            """,
        })
        assert run(SeedTaintAnalyzer(), project_of(root)) == []

    def test_nondeterministic_argument_across_modules_is_flagged(
            self, build_tree, project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
            "repro/app.py": """\
                import time

                from repro import gen

                def sweep():
                    return gen.make(int(time.time()))
            """,
        })
        findings = run(SeedTaintAnalyzer(), project_of(root))
        assert len(findings) == 1
        assert "does not seed it" in findings[0].message
        assert "app.py" in findings[0].message

    def test_no_arg_rng_construction_is_poison(self, build_tree,
                                               project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def fresh():
                    return np.random.default_rng()
            """,
        })
        findings = run(SeedTaintAnalyzer(), project_of(root))
        assert len(findings) == 1
        assert "nondeterministic source" in findings[0].message

    def test_two_hop_threading_is_clean(self, build_tree, project_of):
        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(n):
                    return np.random.default_rng(n)
            """,
            "repro/mid.py": """\
                from repro import gen

                def build(k):
                    return gen.make(k)
            """,
            "repro/app.py": """\
                from repro import mid

                def sweep(seed):
                    return mid.build(seed)
            """,
        })
        assert run(SeedTaintAnalyzer(), project_of(root)) == []


KEY_FIXTURE = {
    "repro/config.py": """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SystemConfig:
            l1d: int
            l2: int
    """,
    "repro/cache.py": """\
        from repro.util import content_hash

        class ResultCache:
            def key(self, config, profile, sample_ops):
                return content_hash({
                    "config": config.l1d,
                    "profile": profile,
                    "sample_ops": sample_ops,
                })
    """,
    "repro/profile.py": """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class WorkloadProfile:
            name: str
    """,
    "repro/engine.py": """\
        def simulate(config, profile, sample_ops):
            return config.l1d + config.l2 + len(profile.name) + sample_ops
    """,
    "repro/util.py": "def content_hash(material):\n    return str(material)\n",
}

KEY_SPEC = KeySpec(
    key_module="repro.cache",
    engine_modules=("repro.engine",),
    param_types=(
        ("config", "repro.config.SystemConfig"),
        ("profile", "repro.profile.WorkloadProfile"),
    ),
)


class TestCacheKey:
    def test_field_read_but_not_hashed_is_flagged(self, build_tree,
                                                  project_of):
        root = build_tree(KEY_FIXTURE)
        findings = run(CacheKeyAnalyzer(KEY_SPEC), project_of(root))
        assert len(findings) == 1
        assert "config.l2" in findings[0].message
        assert findings[0].path.endswith("repro/engine.py")

    def test_whole_object_hash_covers_every_field(self, build_tree,
                                                  project_of):
        fixture = dict(KEY_FIXTURE)
        fixture["repro/cache.py"] = fixture["repro/cache.py"].replace(
            '"config": config.l1d,', '"config": config,'
        )
        root = build_tree(fixture)
        assert run(CacheKeyAnalyzer(KEY_SPEC), project_of(root)) == []

    def test_key_parameter_never_folded_in_is_flagged(self, build_tree,
                                                      project_of):
        fixture = dict(KEY_FIXTURE)
        fixture["repro/cache.py"] = """\
from repro.util import content_hash

class ResultCache:
    def key(self, config, profile, sample_ops):
        return content_hash({"config": config, "profile": profile})
"""
        root = build_tree(fixture)
        findings = run(CacheKeyAnalyzer(KEY_SPEC), project_of(root))
        assert any("'sample_ops'" in f.message and "never folded"
                   in f.message for f in findings)

    def test_real_repo_key_is_complete(self, project_of):
        project = project_of("src")
        assert run(CacheKeyAnalyzer(), project) == []


class TestPicklability:
    def test_unannotated_boundary_param_and_return_are_flagged(
            self, build_tree, project_of):
        root = build_tree({
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def _init(config):
                    pass

                def _work(x):
                    return x

                def sweep(n):
                    with ProcessPoolExecutor(
                        max_workers=n, initializer=_init, initargs=(1,)
                    ) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        findings = run(PicklabilityAnalyzer(spec), project_of(root))
        messages = "\n".join(f.message for f in findings)
        assert "'config' is unannotated" in messages
        assert "no return annotation" in messages

    def test_hazard_field_in_the_type_closure_is_flagged(self, build_tree,
                                                         project_of):
        root = build_tree({
            "repro/results.py": """\
                from dataclasses import dataclass
                from typing import Callable

                @dataclass
                class Inner:
                    callback: Callable[[], None]

                @dataclass
                class Result:
                    value: float
                    inner: Inner
            """,
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.results import Result

                def _work(x: int) -> Result:
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        findings = run(PicklabilityAnalyzer(spec), project_of(root))
        assert len(findings) == 1
        assert "Inner.callback" in findings[0].message
        assert findings[0].path.endswith("repro/results.py")

    def test_exception_with_init_but_no_reduce_is_flagged(self, build_tree):
        # PKL001 checks every exception in the tree, so it owns this
        # defect; the closure walk leaves it alone and both tiers
        # together report it once.
        root = build_tree({
            "repro/results.py": """\
                from dataclasses import dataclass

                class SweepError(Exception):
                    def __init__(self, pair, detail):
                        super().__init__(pair + detail)

                @dataclass
                class Result:
                    err: SweepError
            """,
            "repro/runner/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.results import Result

                def _work(x: int) -> Result:
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        findings = run_lint([str(root / "repro")]).findings
        assert [f.rule_id for f in findings] == ["PKL001"]
        assert "__reduce__" in findings[0].message

    # PKL001 reports every function-local exception or dataclass; the
    # closure walk adds only the plain local classes PKL001 cannot see.
    @pytest.mark.parametrize("decorator,owner", [
        ("@dataclass", "PKL001"),
        ("", "PKL010"),
    ])
    def test_local_class_reaching_the_pool_is_reported_once(
            self, build_tree, decorator, owner):
        root = build_tree({
            "repro/runner/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor
                from dataclasses import dataclass

                def build():
                    %s
                    class Local:
                        value: int = 0
                    return Local

                def _work(x: int) -> "Local":
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """ % decorator,
        })
        findings = run_lint([str(root / "repro")]).findings
        assert [f.rule_id for f in findings] == [owner]

    def test_clean_value_type_closure_passes(self, build_tree, project_of):
        root = build_tree({
            "repro/results.py": """\
                from dataclasses import dataclass
                from typing import Tuple

                @dataclass
                class Result:
                    value: float
                    names: Tuple[str, ...]
            """,
            "repro/runner.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.results import Result

                def _work(x: int) -> Result:
                    raise NotImplementedError

                def sweep(n):
                    with ProcessPoolExecutor(max_workers=n) as pool:
                        return pool.submit(_work, 1)
            """,
        })
        spec = PklSpec(boundary_module="repro.runner")
        assert run(PicklabilityAnalyzer(spec), project_of(root)) == []

    def test_real_repo_boundary_is_clean(self, project_of):
        project = project_of("src")
        assert run(PicklabilityAnalyzer(), project) == []
