"""Every exported name resolves, so a deleted symbol cannot linger in __all__,
and the CLI imports no scipy subpackage beyond scipy.special."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_out_unused_scipy_subpackages():
    code = (
        "import sys, gexr.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.ndimage', 'scipy.integrate') "
        "if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(gexr.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
