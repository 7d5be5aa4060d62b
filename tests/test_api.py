"""The public names: every export resolves, and the package republishes
exactly the names its modules declare public, none of which two modules
share, so a deleted name cannot survive as a dangling export."""

import importlib
import types

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
    declared = [n for m in MODULES if m != "cli"
                for n in importlib.import_module(f"powertree.{m}").__all__]
    assert len(set(declared)) == len(declared)
    exported = {n for n, v in vars(powertree).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == set(declared)
