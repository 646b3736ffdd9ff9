"""scripts/pickands_convergence.py: a short study runs, a zero domain size is rejected."""

import importlib.util
from pathlib import Path

import pytest

from gexr.covmodels import ModelError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pickands_convergence.py"
spec = importlib.util.spec_from_file_location("pickands_convergence", SCRIPT)
convergence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(convergence)


def test_short_study_prints_a_difference_quotient(capsys):
    argv = ["--reps", "400", "--domains", "1", "2", "4", "--step", "0.125"]
    assert convergence.run(argv) == 0
    out = capsys.readouterr().out
    assert "reps = 400" in out and "difference quotient:" in out


def test_zero_domain_size_is_a_model_error():
    with pytest.raises(ModelError, match="domain sizes must be positive"):
        convergence.run(["--reps", "400", "--domains", "0", "2", "4", "--step", "0.125"])
