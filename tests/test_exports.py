"""Every exported name resolves, so a deleted symbol cannot linger in __all__,
and scipy loads only where it is used.

Importing gexr loads numpy only.  ``scipy.special`` loads on the first
normal-tail, inverse-normal, Clopper-Pearson or incomplete-gamma call; the
``constants`` and ``list-presets`` commands never load it, and no command
loads ``scipy.stats``, ``scipy.ndimage`` or ``scipy.integrate``.  Each check
runs in a fresh interpreter, since the test process itself imports scipy.
"""

import importlib
import json
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


SCIPY_LEFT_OUT = ("scipy.stats", "scipy.ndimage", "scipy.integrate")

# argv, allowed exit codes, whether scipy.special loads
COMMANDS = {
    "list-presets": (["list-presets"], (0,), False),
    "constants": (["constants", "--preset", "pickands-alpha-1", "--out", "out"], (0, 1), False),
    "tail": (["tail", "--preset", "short-interval-tail", "--out", "out"], (0, 1), True),
}


def _fresh_modules(argv, cwd=None):
    """Exit code and loaded modules after importing gexr.cli in a fresh
    interpreter and, unless argv is None, running one command in cwd."""
    code = (
        "import json, sys, gexr.cli; "
        f"argv = {argv!r}; "
        "rc = None if argv is None else gexr.cli.main(argv); "
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )
    src = os.path.dirname(os.path.dirname(gexr.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "GEXR_BUDGET": "200"}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, cwd=cwd,
    )
    rc, modules = json.loads(out.stdout.strip().splitlines()[-1])
    return rc, set(modules)


def _scipy(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_cli_import_leaves_out_unused_scipy_subpackages():
    _, modules = _fresh_modules(None)
    assert _scipy(modules) == set()
    assert "concurrent.futures" not in modules


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_command_loads_scipy_special_only_where_used(command, tmp_path):
    argv, exit_codes, loads_special = COMMANDS[command]
    rc, modules = _fresh_modules(argv, tmp_path)
    assert rc in exit_codes
    if loads_special:
        assert "scipy.special" in modules
        assert modules.isdisjoint(SCIPY_LEFT_OUT)
    else:
        assert _scipy(modules) == set()
