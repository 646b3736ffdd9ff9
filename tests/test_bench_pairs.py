"""scripts/bench_pairs.py: pair order, seeds, summary and the merged JSON file."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "hits", "unit": "count", "better": "higher", "bound": 0.25},
]


def _checkout(root: Path) -> Path:
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return root


def test_pairs_alternate_and_summary_counts_wins(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    # parent: wall 2, 3, 4, 5; change: wall 1, 3 (a tie), 2, 9; hits up by one
    walls = {parent: iter([2.0, 3.0, 4.0, 5.0]), change: iter([1.0, 3.0, 2.0, 9.0])}
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, seed))
        wall = next(walls[checkout])
        hits = wall + (checkout == change)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "hits": {"value": hits, "unit": "count"}}}

    monkeypatch.setattr(bench_pairs, "bench_run", fake_run)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"audit": {"kept": True}}}))
    argv = [str(parent), str(change), "--workload", "pickands", "--pairs", "4",
            "--first-seed", "50", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 50), ("change", 50), ("change", 51), ("parent", 51),
                     ("parent", 52), ("change", 52), ("change", 53), ("parent", 53)]
    doc = json.loads(out.read_text())
    assert doc["workloads"]["audit"] == {"kept": True}
    assert set(doc["machine"]) >= {"nproc", "blas", "numpy", "python"}
    run = doc["workloads"]["pickands"]
    assert run["seeds"] == [50, 51, 52, 53] and run["all_correct"]
    assert [p["first"] for p in run["pairs"]] == ["parent", "change"] * 2
    wall = run["summary"]["wall_s"]
    assert wall["parent_median"] == 3.5 and wall["change_median"] == 2.5
    assert wall["parent_quartiles"] == [2.75, 4.25] and wall["parent_iqr"] == 1.5
    assert wall["change_better_pairs"] == 2 and wall["pairs"] == 4
    assert run["summary"]["hits"]["change_better_pairs"] == 2  # higher is better


def test_failed_check_makes_the_exit_code_1(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")

    def fake_run(checkout, workload, seed):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in METRICS}
        return {"correct": checkout == parent, "attempted": 1, "failed": 0,
                "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "bench_run", fake_run)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "mixed", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert json.loads(out.read_text())["workloads"]["mixed"]["all_correct"] is False


@pytest.mark.parametrize("pairs", ["0", "1"])
def test_fewer_than_two_pairs_is_refused_before_any_run(tmp_path, monkeypatch, pairs):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    calls = []
    monkeypatch.setattr(bench_pairs, "bench_run", lambda *args: calls.append(args))
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "pickands", "--pairs", pairs, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert calls == [] and not out.exists()
