"""Every exported name resolves: each module's __all__, and each name the
package imports into its own namespace. A deleted function left behind in an
export list fails here rather than at a user's import."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bentswimmer

MODULES = sorted(m.name for m in pkgutil.iter_modules(bentswimmer.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bentswimmer.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(bentswimmer.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"bentswimmer.{module}")
        assert getattr(bentswimmer, name) is getattr(source, name), name
