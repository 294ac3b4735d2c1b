"""Shared fixtures for the whole-program lint tests.

``build_tree`` writes a mini source tree under ``tmp_path``; files under
a ``repro/`` directory get ``__init__.py`` package markers all the way
down, so their dotted module names root at ``repro`` and the layering
and callee-resolution rules behave exactly as they do on the real
repository.  The project model is built purely from the fixture files,
so the real package never interferes.
"""

import ast
import textwrap

import pytest

from repro.lint.engine import iter_python_files
from repro.lint.project import Project, summarize_module


@pytest.fixture
def build_tree(tmp_path):
    def _build(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
            parts = rel.split("/")
            if parts[0] == "repro":
                # Mark every directory of the chain as a package.
                for depth in range(1, len(parts)):
                    marker = tmp_path.joinpath(*parts[:depth], "__init__.py")
                    if not marker.exists():
                        marker.write_text("", encoding="utf-8")
        return tmp_path

    return _build


@pytest.fixture
def project_of():
    def _project(root):
        return Project([
            summarize_module(str(path), ast.parse(path.read_text(encoding="utf-8")))
            for path in iter_python_files([str(root)])
        ])

    return _project
