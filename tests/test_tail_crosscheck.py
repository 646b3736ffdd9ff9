"""scripts/tail_crosscheck.py: crude and conditioned tails agree, no-hit rows too."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tail_crosscheck.py"
spec = importlib.util.spec_from_file_location("tail_crosscheck", SCRIPT)
crosscheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(crosscheck)


@pytest.mark.parametrize(
    "functional",
    ["sup", "inf", {"mix": 0.5}, {"composed": {"inner": "inf", "sAxes": []}}],
    ids=["sup", "inf", "mix", "composed-inf"],
)
def test_estimators_agree(functional, capsys):
    # inf finds no crude hits at u = 3: the row is judged by its exact interval
    argv = ["--functional", json.dumps(functional),
            "--crude-reps", "20000", "--cond-reps", "4000"]
    assert crosscheck.run(argv) == 0, capsys.readouterr().out
