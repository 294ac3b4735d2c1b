"""Per-rule fixture tests: every rule fires on a seeded violation and
stays silent on a clean twin."""

import textwrap

import pytest

from repro.lint import PARSE_RULE_ID, lint_source, run_lint


def findings_for(source, path="src/repro/example.py", rules=None):
    return lint_source(textwrap.dedent(source), path, rules=rules)


def rule_ids(source, path="src/repro/example.py", rules=None):
    return [f.rule_id for f in findings_for(source, path, rules=rules)]


class TestRNG001:
    def test_numpy_module_function_fires(self):
        ids = rule_ids("""
            import numpy as np
            x = np.random.rand(4)
        """)
        assert ids == ["RNG001"]

    def test_stdlib_module_function_fires(self):
        ids = rule_ids("""
            import random
            random.seed(42)
            value = random.randint(1, 5)
        """)
        assert ids == ["RNG001", "RNG001"]

    def test_from_import_of_module_function_fires(self):
        ids = rule_ids("""
            from random import shuffle
            shuffle([3, 1, 2])
        """)
        assert ids == ["RNG001"]

    def test_numpy_random_alias_fires(self):
        ids = rule_ids("""
            from numpy import random as npr
            x = npr.normal(0.0, 1.0)
        """)
        assert ids == ["RNG001"]

    def test_seeded_constructors_are_clean(self):
        assert rule_ids("""
            import random
            import numpy as np
            rng = np.random.default_rng(7)
            stdlib_rng = random.Random(7)
            x = rng.random()
            y = stdlib_rng.randrange(4)
            sequence = np.random.SeedSequence(11)
        """) == []

    def test_unresolvable_roots_are_clean(self):
        # self._rng.random() has no plain-name root; never a false positive.
        assert rule_ids("""
            class Box:
                def draw(self):
                    return self._rng.random()
        """) == []


class TestPKL001:
    def test_exception_with_init_but_no_reduce_fires(self):
        ids = rule_ids("""
            class BoundaryError(ValueError):
                def __init__(self, name, detail):
                    self.name = name
                    super().__init__("%s: %s" % (name, detail))
        """)
        assert ids == ["PKL001"]

    def test_exception_with_matching_reduce_is_clean(self):
        assert rule_ids("""
            class BoundaryError(ValueError):
                def __init__(self, name, detail):
                    self.name = name
                    super().__init__("%s: %s" % (name, detail))

                def __reduce__(self):
                    return (type(self), (self.name, "detail"))
        """) == []

    def test_exception_without_custom_init_is_clean(self):
        assert rule_ids("""
            class SimpleError(RuntimeError):
                pass
        """) == []

    def test_dataclass_inside_function_fires(self):
        ids = rule_ids("""
            from dataclasses import dataclass

            def build():
                @dataclass
                class Local:
                    value: int
                return Local(1)
        """)
        assert ids == ["PKL001"]

    def test_exception_inside_function_fires(self):
        ids = rule_ids("""
            def build():
                class LocalError(ValueError):
                    pass
                return LocalError()
        """)
        assert ids == ["PKL001"]

    def test_module_level_dataclass_is_clean(self):
        assert rule_ids("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Record:
                value: int
        """) == []


class TestFLT001:
    STATS_PATH = "src/repro/stats/example.py"

    def test_float_literal_equality_fires(self):
        ids = rule_ids("""
            def check(x):
                return x == 1.0
        """, path=self.STATS_PATH)
        assert ids == ["FLT001"]

    def test_division_inequality_fires(self):
        ids = rule_ids("""
            def check(a, b, c):
                return a / b != c
        """, path="src/repro/core/example.py")
        assert ids == ["FLT001"]

    def test_float_cast_comparison_fires(self):
        ids = rule_ids("""
            def check(x, y):
                return float(x) == y
        """, path=self.STATS_PATH)
        assert ids == ["FLT001"]

    def test_integer_comparison_is_clean(self):
        assert rule_ids("""
            def check(n):
                return n == 0
        """, path=self.STATS_PATH) == []

    def test_ordering_comparisons_are_clean(self):
        assert rule_ids("""
            def check(x):
                return x <= 0.0 or x >= 1.0
        """, path=self.STATS_PATH) == []

    def test_rule_is_scoped_to_stats_and_core(self):
        # The identical float equality outside stats/ and core/ is
        # someone else's problem (e.g. exact sentinel compares in uarch).
        assert rule_ids("""
            def check(x):
                return x == 1.0
        """, path="src/repro/uarch/example.py") == []


class TestCTR001:
    def test_known_counter_literal_fires(self):
        ids = rule_ids("""
            value = report["mem_load_uops_retired.l1_hit"]
        """)
        assert ids == ["CTR001"]

    def test_prefixed_event_literal_fires(self):
        ids = rule_ids("""
            EXTRA = "br_inst_exec.taken_conditional"
        """)
        assert ids == ["CTR001"]

    def test_counters_module_is_exempt(self):
        assert rule_ids("""
            L1_HIT = "mem_load_uops_retired.l1_hit"
        """, path="src/repro/perf/counters.py") == []

    def test_docstrings_are_exempt(self):
        assert rule_ids('''
            def fetch(report):
                """Returns mem_load_uops_retired.l1_hit for the pair."""
                return report.l1_hits
        ''') == []

    def test_unrelated_strings_are_clean(self):
        assert rule_ids("""
            NAME = "505.mcf_r"
            MESSAGE = "cache hits and misses"
        """) == []


class TestMUT001:
    def test_list_default_fires(self):
        assert rule_ids("""
            def collect(items=[]):
                return items
        """) == ["MUT001"]

    def test_dict_and_set_defaults_fire(self):
        ids = rule_ids("""
            def a(x={}):
                return x

            def b(*, y=set()):
                return y
        """)
        assert ids == ["MUT001", "MUT001"]

    def test_constructor_call_default_fires(self):
        assert rule_ids("""
            def collect(items=list()):
                return items
        """) == ["MUT001"]

    def test_none_and_tuple_defaults_are_clean(self):
        assert rule_ids("""
            def collect(items=None, fixed=(), name="x"):
                return items, fixed, name
        """) == []


class TestSEED001:
    def test_hard_coded_seed_fires(self):
        ids = rule_ids("""
            import numpy as np

            def make_noise():
                rng = np.random.default_rng(1234)
                return rng.random(8)
        """)
        assert ids == ["SEED001"]

    def test_unseeded_generator_fires(self, tmp_path):
        # No seed at all draws OS entropy in public and private code
        # alike, so SEED010 owns it and SEED001 stays silent: both tiers
        # together report the defect once.
        target = tmp_path / "noise.py"
        target.write_text(textwrap.dedent("""
            import numpy as np

            def make_noise():
                return np.random.default_rng().random(8)
        """))
        ids = [f.rule_id for f in run_lint([str(target)]).findings]
        assert ids == ["SEED010"]

    def test_seed_parameter_is_clean(self):
        assert rule_ids("""
            import numpy as np

            def make_noise(seed=0):
                rng = np.random.default_rng(seed)
                return rng.random(8)
        """) == []

    def test_instance_state_seed_is_clean(self):
        assert rule_ids("""
            import numpy as np

            class Model:
                def fit(self, points):
                    rng = np.random.default_rng(self.seed)
                    return rng.choice(points)
        """) == []

    def test_private_helpers_are_exempt(self):
        assert rule_ids("""
            import numpy as np

            def _fixture_rng():
                return np.random.default_rng(99)
        """) == []

    def test_stdlib_random_constructor_checked_too(self):
        ids = rule_ids("""
            import random

            def pick(values):
                return random.Random(7).choice(values)
        """)
        assert ids == ["SEED001"]


class TestParseFailures:
    def test_syntax_error_reported_as_parse_finding(self):
        findings = findings_for("def broken(:\n    pass\n")
        assert [f.rule_id for f in findings] == [PARSE_RULE_ID]
        assert "cannot parse" in findings[0].message


@pytest.mark.parametrize("rule_id", [
    "RNG001", "PKL001", "FLT001", "CTR001", "MUT001", "SEED001",
])
def test_every_rule_is_registered_with_a_summary(rule_id):
    from repro.lint import get_rule

    rule = get_rule(rule_id)
    assert rule.rule_id == rule_id
    assert rule.summary
