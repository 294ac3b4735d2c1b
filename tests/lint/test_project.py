"""The project model: module naming, import graph, cycles, indexes."""

from pathlib import Path

from repro.lint.project import (
    Project,
    is_seed_name,
    module_name_for,
    summarize_module,
)


class TestModuleNaming:
    def test_package_chain_gives_dotted_names(self, build_tree, project_of):
        root = build_tree({"repro/uarch/core.py": "x = 1\n"})
        project = project_of(root)
        assert "repro.uarch.core" in project.by_module
        assert "repro" in project.by_module  # the package __init__ itself

    def test_loose_script_maps_to_its_stem(self, tmp_path):
        script = tmp_path / "quickstart.py"
        script.write_text("x = 1\n")
        assert module_name_for(script) == ("quickstart", False)

    def test_package_init_is_the_package_name(self, build_tree):
        root = build_tree({"repro/obs/probe.py": "x = 1\n"})
        name, is_package = module_name_for(root / "repro" / "obs"
                                           / "__init__.py")
        assert (name, is_package) == ("repro.obs", True)


class TestImportGraph:
    def test_relative_import_resolves_to_sibling(self, build_tree,
                                                 project_of):
        root = build_tree({
            "repro/uarch/core.py": "from . import caches\n",
            "repro/uarch/caches.py": "x = 1\n",
        })
        project = project_of(root)
        edges = project.import_edges()
        targets = {e["target"] for e in edges["repro.uarch.core"]}
        assert "repro.uarch.caches" in targets

    def test_from_package_import_submodule_hits_the_submodule(
            self, build_tree, project_of):
        root = build_tree({
            "repro/app.py": "from repro import obs\n",
            "repro/obs/probe.py": "x = 1\n",
        })
        project = project_of(root)
        targets = {e["target"] for e in project.import_edges()["repro.app"]}
        assert "repro.obs" in targets
        assert "repro" not in targets  # not the package root

    def test_lazy_imports_are_flagged_non_toplevel(self, build_tree,
                                                   project_of):
        root = build_tree({
            "repro/a.py": "def go():\n    from repro import b\n    return b\n",
            "repro/b.py": "x = 1\n",
        })
        project = project_of(root)
        edge = [e for e in project.import_edges()["repro.a"]
                if e["target"] == "repro.b"]
        assert edge and edge[0]["toplevel"] is False
        assert project.import_edges(toplevel_only=True)["repro.a"] == []


class TestCycles:
    def test_toplevel_cycle_is_reported_once(self, build_tree, project_of):
        root = build_tree({
            "repro/a.py": "import repro.b\n",
            "repro/b.py": "import repro.a\n",
        })
        cycles = project_of(root).cycles()
        assert cycles == [["repro.a", "repro.b"]]

    def test_lazy_edge_breaks_the_cycle(self, build_tree, project_of):
        root = build_tree({
            "repro/a.py": "import repro.b\n",
            "repro/b.py": "def go():\n    import repro.a\n",
        })
        assert project_of(root).cycles() == []

    def test_acyclic_chain_has_no_cycles(self, build_tree, project_of):
        root = build_tree({
            "repro/a.py": "import repro.b\n",
            "repro/b.py": "import repro.c\n",
            "repro/c.py": "x = 1\n",
        })
        assert project_of(root).cycles() == []


class TestIndexes:
    def test_function_and_class_indexes_are_qualified(self, build_tree,
                                                      project_of):
        root = build_tree({
            "repro/gen.py": """\
                class Maker:
                    def build(self, n: int) -> int:
                        return n

                def top(seed):
                    return seed
            """,
        })
        project = project_of(root)
        assert "repro.gen.Maker.build" in project.functions_index()
        assert "repro.gen.top" in project.functions_index()
        assert "repro.gen.Maker" in project.classes_index()

    def test_resolve_class_through_import_alias(self, build_tree,
                                                project_of):
        root = build_tree({
            "repro/models.py": """\
                from dataclasses import dataclass

                @dataclass
                class Config:
                    size: int
            """,
            "repro/app.py": "from repro.models import Config\n",
        })
        project = project_of(root)
        record = project.resolve_class("Config", "repro.app")
        assert record is not None and record["module"] == "repro.models"
        assert record["is_dataclass"] is True

    def test_calls_to_matches_constructor_as_dunder_init(self, build_tree,
                                                         project_of):
        root = build_tree({
            "repro/models.py": """\
                class Policy:
                    def __init__(self, start):
                        self.start = start
            """,
            "repro/app.py": """\
                from repro.models import Policy

                def run(seed):
                    return Policy(seed)
            """,
        })
        project = project_of(root)
        calls = project.calls_to("repro.models.Policy.__init__")
        assert len(calls) == 1 and calls[0]["module"] == "repro.app"


class TestSummaries:
    def test_summary_round_trips_through_json(self, build_tree):
        import json

        root = build_tree({
            "repro/gen.py": """\
                import numpy as np

                def make(seed):
                    return np.random.default_rng(seed)
            """,
        })
        path = root / "repro" / "gen.py"
        source = path.read_text()
        import ast as ast_mod

        summary = summarize_module(str(path), ast_mod.parse(source))
        assert summary == json.loads(json.dumps(summary))
        assert summary["rng_sites"][0]["status"] == "seeded"

    def test_seed_name_heuristic(self):
        assert is_seed_name("seed")
        assert is_seed_name("base_seed")
        assert is_seed_name("_rng")
        assert not is_seed_name("count")
