"""scripts/run_all_presets.py: one preset's internal error ends that preset only."""

import importlib.util
from pathlib import Path

from gexr import tailprob
from gexr.presets import PRESETS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_presets.py"
spec = importlib.util.spec_from_file_location("run_all_presets", SCRIPT)
sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep)


def test_internal_error_is_reported_and_the_sweep_goes_on(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise TypeError("an internal bug")

    monkeypatch.setattr(tailprob, "conditional_tail", broken)
    names = ("short-interval-tail", "pickands-alpha-1")
    monkeypatch.setattr(sweep, "PRESETS", {name: PRESETS[name] for name in names})
    monkeypatch.setenv("GEXR_BUDGET", "300")
    assert sweep.run(["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = {line.split()[0]: line for line in captured.out.splitlines()
             if line.startswith(names)}
    assert lines["short-interval-tail"].endswith(
        "INTERNAL ERROR TypeError: an internal bug"
    )
    assert lines["pickands-alpha-1"].endswith(" ok")
    assert "Traceback" in captured.err and "an internal bug" in captured.err
    assert "unexpected outcomes: short-interval-tail" in captured.err
    assert not (tmp_path / "short-interval-tail").exists()
    assert (tmp_path / "pickands-alpha-1" / "levels.csv").exists()
