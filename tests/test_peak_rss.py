"""scripts/peak_rss.py: one fresh process per preset reports its own peak memory."""

import importlib.util
from pathlib import Path

import pytest

import gexr

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
spec = importlib.util.spec_from_file_location("peak_rss", SCRIPT)
peak_rss = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_rss)

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc"
)


def test_each_preset_reports_its_own_peak_and_wall_time(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", "200")
    monkeypatch.setenv("PYTHONPATH", str(Path(gexr.__file__).resolve().parents[1]))
    names = ["pickands-alpha-1", "piterbarg-gamma"]
    assert peak_rss.run([*names, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == names
    for line in lines:
        _, key, mb, wall_key, wall, exit_key, code = line.split()
        assert (key, wall_key, exit_key, code) == ("vmhwm_mb", "wall_s", "exit", "0")
        # the process imported numpy, so it held more than 10 MB at its peak
        assert float(mb) > 10 and float(wall) > 0
    for name in names:
        assert (tmp_path / name / "levels.csv").exists()


def test_a_process_that_dies_ends_the_script(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", str(Path(gexr.__file__).resolve().parents[1]))
    with pytest.raises(SystemExit) as info:
        peak_rss.run(["no-such-preset"])
    assert "no-such-preset: the process exited 1" in str(info.value)
    assert "KeyError" in str(info.value)
    assert capsys.readouterr().out == ""
