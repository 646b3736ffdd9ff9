"""Every exported name resolves, so a deleted symbol cannot linger in __all__."""

import importlib
import pkgutil

import pytest

import gexr

MODULES = [
    name
    for name in ["gexr"] + [f"gexr.{m.name}" for m in pkgutil.iter_modules(gexr.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
