"""scripts/compare_preset_runs.py: byte identity and relative cell changes."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_preset_runs.py"
spec = importlib.util.spec_from_file_location("compare_preset_runs", SCRIPT)
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def _tree(root: Path, files: dict) -> str:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_reports_identity_and_largest_relative_change(tmp_path, capsys):
    old = _tree(tmp_path / "old", {
        "a/levels.csv": "level,value\n1,0.5\n2,0.25\n",
        "b/tail.csv": "u,pHat\n5,1e-7\n",
    })
    new = _tree(tmp_path / "new", {
        "a/levels.csv": "level,value\n1,0.5\n2,0.25\n",
        "b/tail.csv": "u,pHat\n5,1.000001e-7\n",
    })
    assert compare.run([old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a/levels.csv: identical"
    assert out[1] == "b/tail.csv: differs, max relative change 1e-06"
    assert out[-1] == "max relative change over all CSVs: 1e-06"


def test_missing_file_and_text_change_fail(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"a.csv": "status\npass\n", "gone.csv": "x\n1\n"})
    new = _tree(tmp_path / "new", {"a.csv": "status\nfail\n"})
    assert compare.run([old, new]) == 1
    out = capsys.readouterr().out
    assert "a.csv: differs, text cell differs: 'pass' -> 'fail'" in out
    assert "gone.csv: missing from new" in out


def test_relative_change_edge_cases():
    assert compare.relative_change(0.0, 0.0) == 0.0
    assert compare.relative_change(0.0, 1e-300) == math.inf
    assert compare.relative_change(math.inf, math.inf) == 0.0
    assert compare.relative_change(math.nan, math.nan) == 0.0
    assert compare.relative_change(1.0, math.inf) == math.inf
    assert compare.relative_change(-2.0, -1.0) == 0.5
