"""Every name a spin7 module lists in `__all__`, and every name the package
re-exports, must resolve: a function moved or deleted while its export entry
stays fails here, not at the first `from spin7.<module> import *`."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import spin7

MODULES = sorted(info.name for info in pkgutil.iter_modules(spin7.__path__))


def _reexports():
    """(module, name) of each `from .module import name` in spin7/__init__.py."""
    tree = ast.parse(pathlib.Path(spin7.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(f"spin7.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name,name", _reexports())
def test_package_reexport_resolves(module_name, name):
    source = importlib.import_module(f"spin7.{module_name}")
    assert getattr(spin7, name) is getattr(source, name)
