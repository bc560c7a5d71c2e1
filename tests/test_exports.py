"""One public surface: each public name is listed in, and imported from, one module."""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import layered442

# Every module but ``cli``, the command-line entry point, which is run, not imported from.
MODULES = ["hilbert", "circuit", "witness", "tomography", "qkd", "fixtures"]

REPO = Path(__file__).resolve().parents[1]

# Public names that no code in src/ or bench/ reads, each kept for a reason of its own.
UNREFERENCED = {
    "fmax_class_bound": "acceptance criterion 2 imports it",
    "estimate_elements": "acceptance criterion 5 imports it",
    "gme_witnessed": "acceptance criterion 6 imports it",
    "visibility_for_fidelity": "ROADMAP item 13, the calibration of decision constants, uses it",
    "compute_qbers": "BENCHMARK.json binds it by name for the traced benchmark run",
}


def _top_level_definitions(module) -> dict[str, type]:
    """Names bound at the top level of ``module``'s source, each to its kind of statement."""
    defined = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = type(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, ast.Assign) for t in targets if isinstance(t, ast.Name))
    return defined


def _module(name):
    return importlib.import_module(f"layered442.{name}")


def test_package_holds_only_submodules_and_dunders():
    for name in MODULES:
        _module(name)
    # Importing a submodule binds it in the package, as does reading the ``data`` directory.
    others = [name for name, value in vars(layered442).items()
              if not (name.startswith("__") and name.endswith("__"))
              and not (isinstance(value, types.ModuleType)
                       and value.__name__ == f"layered442.{name}")]
    assert others == []
    assert {m.name for m in pkgutil.iter_modules(layered442.__path__)} == set(MODULES) | {"cli"}


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_exist(module_name):
    # Each __all__ name is defined by its module, not imported into it.
    module = _module(module_name)
    defined = _top_level_definitions(module)
    assert [n for n in module.__all__ if n not in defined] == []


def test_no_name_has_two_homes():
    homes = {}
    for name in MODULES:
        for public in _module(name).__all__:
            homes.setdefault(public, []).append(name)
    assert {n: h for n, h in homes.items() if len(h) > 1} == {}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_function_and_class_is_in_all(module_name):
    module = _module(module_name)
    public = [n for n, kind in _top_level_definitions(module).items()
              if kind in (ast.FunctionDef, ast.ClassDef) and not n.startswith("_")]
    assert [n for n in public if n not in module.__all__] == []


def _referenced_names(paths) -> set[str]:
    """Every name the code in ``paths`` reads, as a name, an attribute or an import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # A name only the tests use belongs in the tests (see conftest.py).
    code = [path for top in ("src", "bench") for path in sorted((REPO / top).rglob("*.py"))
            if not path.name.startswith("test_")]
    referenced = _referenced_names(code)
    unreferenced = {name for module in MODULES for name in _module(module).__all__
                    if name not in referenced}
    assert unreferenced == set(UNREFERENCED)
