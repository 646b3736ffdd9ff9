"""The benchmark's tracing wrappers still find every entry point they wrap.

``bench/tracing.py`` replaces named functions of gexr's modules with timed
wrappers.  A rename in gexr would break the traced benchmark run; this test
makes it break the test suite instead.
"""

import importlib
import sys
from pathlib import Path

from gexr.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_tail_run_records_its_spans(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    tracing = importlib.import_module("tracing")
    monkeypatch.setenv("GEXR_BUDGET", "300")
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        code = main(["tail", "--preset", "short-interval-tail", "--out", str(tmp_path)])
    finally:
        restore()
    assert code == 0
    names = {span[0] for span in rec.spans}
    assert {"cli.config", "tailprob.conditional", "mc.estimate", "rng.normal"} <= names
    assert rec.counts["tailprob.cells"] == 1 and rec.counts["rng.generators"] >= 1
    # the originals are back: a second run records nothing
    rec.reset()
    main(["tail", "--preset", "short-interval-tail", "--out", str(tmp_path / "again")])
    assert rec.spans == []


def test_traced_pickands_run_counts_its_normals(monkeypatch, tmp_path, capsys):
    # white increments at alpha = 1: 2048 normals a draw of eta, where the
    # circulant embedding of the same 2048 increments drew 4096; each draw
    # serves an antithetic pair of paths, so 300 paths take 150 draws
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    monkeypatch.setenv("GEXR_BUDGET", "300")
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        code = main(["constants", "--preset", "pickands-alpha-1", "--out", str(tmp_path)])
    finally:
        restore()
    assert code == 0
    names = {span[0] for span in rec.spans}
    # the window reduction's time is read from the window_sup_levels span
    assert {"simkit.circulant.setup", "simkit.circulant.sample", "constants.window"} <= names
    assert rec.counts["rng.normals"] == 150 * 2048


def test_traced_doublesum_run_counts_its_normals(monkeypatch, tmp_path, capsys):
    # 150 antithetic pairs a cell, one normal per distinct grid point: 17 at
    # separation 0, where the boxes share a point, and 18 at separations 1, 2, 4
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    monkeypatch.setenv("GEXR_BUDGET", "300")
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        code = main(["doublesum", "--preset", "doublesum-flat", "--out", str(tmp_path)])
    finally:
        restore()
    assert code == 1
    names = {span[0] for span in rec.spans}
    assert {"doublesum.estimate", "simkit.cholesky.setup", "rng.normal"} <= names
    assert rec.counts["rng.normals"] == 150 * (17 + 3 * 18)
