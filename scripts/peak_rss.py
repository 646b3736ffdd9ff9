#!/usr/bin/env python3
"""Peak resident memory and wall time of presets, each in a fresh interpreter.

    python scripts/peak_rss.py PRESET [PRESET ...] [--out DIR]

Each preset runs through ``gexr.cli.main`` in a Python process of its own,
at one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1).  When the run returns, that process reads its
own peak resident set, ``VmHWM`` of ``/proc/self/status`` (Linux only), so
the figure holds no other process's memory.  One line per preset:

    pickands-alpha-1             vmhwm_mb   94.6  wall_s  1.39  exit 0

``wall_s`` spans the whole process, interpreter start and imports included;
``exit`` is the run's exit code.  Set GEXR_BUDGET for a quick pass.  The
outputs go to DIR/PRESET, by default in a temporary directory that is
removed afterwards.  The process imports gexr from its PYTHONPATH, so
``PYTHONPATH=OTHER/src`` measures another checkout.  Exits 1 if a process
dies without reporting.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

CHILD = """
import json, sys
from gexr.cli import main
from gexr.presets import PRESETS
name, out = sys.argv[1:]
code = main([PRESETS[name][1]["kind"], "--preset", name, "--out", out])
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "vmhwm_kb": kb}))
"""

ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def measure(name: str, out_dir: str) -> dict:
    """Run one preset in a fresh interpreter: its exit code, VmHWM (MB) and wall time (s)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, name, out_dir],
        env={**os.environ, **ONE_THREAD}, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: the process exited {proc.returncode}\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    return {"exit": report["exit"], "vmhwm_mb": report["vmhwm_kb"] / 1024, "wall_s": wall}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("presets", nargs="+", metavar="PRESET")
    parser.add_argument("--out", default=None, help="keep each preset's outputs in DIR/PRESET")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = args.out or tmp
        for name in args.presets:
            r = measure(name, os.path.join(root, name))
            print(f"{name:28s} vmhwm_mb {r['vmhwm_mb']:6.1f}  wall_s {r['wall_s']:5.2f}"
                  f"  exit {r['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
