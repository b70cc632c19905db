"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


def test_every_private_function_has_a_caller():
    # a private function or method that nothing in the package names is
    # dead code: it is neither API nor used
    trees = [ast.parse(p.read_text()) for p in Path(frspec.__file__).parent.glob("*.py")]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert sorted(defined - named) == []


def test_every_public_name_has_a_caller():
    # the public twin of the check above: a name in a module's __all__ that
    # no code in src, tests or perfbench reads is API without a user (an
    # import alone does not count)
    root = Path(__file__).resolve().parents[1]
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    nodes = [node for p in paths for node in ast.walk(ast.parse(p.read_text()))]
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    exported = {
        (name, n) for name in MODULES for n in getattr(importlib.import_module(f"frspec.{name}"), "__all__", ())
    }
    assert sorted((m, n) for m, n in exported if n not in named) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # a module that imports a name it never reads keeps a leftover of code
    # that has gone (the package's own imports, in __init__.py, are its API,
    # checked above)
    tree = ast.parse((Path(frspec.__file__).parent / f"{name}.py").read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


def test_no_module_imports_a_private_name_of_fields():
    # the fields kernels have one public entry per job (convolve_quadratic,
    # transport, leray_project, ...); a private name of fields used
    # elsewhere is a second path around them
    for path in sorted(Path(frspec.__file__).parent.glob("*.py")):
        if path.stem == "fields":
            continue
        private = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("fields", 1), ("frspec.fields", 0)):
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "fields":
                private += [node.attr] if node.attr.startswith("_") else []
        assert private == [], (path.name, private)


def test_the_package_runs_without_scipy():
    # scipy is a test oracle only: a fresh interpreter that imports every
    # frspec module and takes one filtered step has loaded no scipy module
    src = Path(frspec.__file__).parent.parent
    script = f"""
import importlib, sys
sys.path.insert(0, {str(src)!r})
for name in {MODULES!r}:
    importlib.import_module("frspec." + name)
from frspec.forms import FormEngine
from frspec.geometry import TorusGeometry
from frspec.harness import SimConfig, random_initial_data
from frspec.solvers import EnergyLedger, FilteredStepper, SimState
V, _ = random_initial_data(SimConfig(N=2))
stepper = FilteredStepper(FormEngine(V.geometry, nu=1.0), eps=0.1, dt=1e-3)
stepper.step(SimState(0.0, V, 1.0, 0.1), EnergyLedger(1.0))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
