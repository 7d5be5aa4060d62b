"""The public names: every export resolves, and the package re-exports
only names its modules declare public, so a deleted name cannot survive as
a dangling export."""

import ast
import importlib
from pathlib import Path

import pytest

import powertree

MODULES = ("workload", "model", "selection", "tuning", "hwsim", "pdn", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"powertree.{name}")
    missing = [n for n in module.__all__
               if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(powertree.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"powertree.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], \
            node.module
        for alias in node.names:
            assert hasattr(powertree, alias.name)
