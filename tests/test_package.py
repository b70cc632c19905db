"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import frspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(frspec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"frspec.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, missing


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(frspec.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"frspec.{module}"), name), (module, name)
        assert hasattr(frspec, name), name
