import ast
import importlib
import inspect

import pytest

import layered442


def _package_imports(module_name: str) -> list[str]:
    """Names that layered442/__init__.py imports from one of its modules."""
    tree = ast.parse(inspect.getsource(layered442))
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module_name
            for alias in node.names]


@pytest.mark.parametrize("module_name",
                         ["hilbert", "circuit", "witness", "tomography", "qkd", "fixtures"])
def test_exported_names_exist(module_name):
    module = importlib.import_module(f"layered442.{module_name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert [n for n in _package_imports(module_name) if not hasattr(module, n)] == []
