#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs K
        [--first-seed S] [--out BENCH.json]

Pair i (1-based) runs ``python3 bench/run.py --workload W --seed S+i-1``, at
the benchmark's own run length, once in each checkout, one run after the
other: odd pairs run PARENT first, even pairs CHANGE first, so a drift in
machine load does not favour one side.  K must be at least 2.
Pick seeds that were not used while the change was written.  Each run uses
its own checkout's ``bench/`` and ``src/``.

The result is merged into the JSON file ``--out`` (default ``BENCH.json`` in
the current directory) under ``workloads[W]``, next to a ``machine`` record
(nproc, BLAS, numpy and Python versions).  Per workload it holds the seeds
and metrics of every pair and, per end-to-end metric of CHANGE's
``BENCHMARK.json``: each side's median and quartiles (linear interpolation),
the parent's IQR, and in how many pairs CHANGE was better (ties count for
neither side).  Exits 1 if a run fails or reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def machine() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = "{name} {version}".format(**deps["blas"])
    except (TypeError, KeyError):  # numpy 1.x prints its config instead
        pass
    return {"nproc": os.cpu_count(), "blas": blas, "numpy": np.__version__,
            "python": platform.python_version(), "platform": platform.platform()}


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        q_old, q_new = quartiles(old), quartiles(new)
        out[name] = {
            "unit": spec["unit"],
            "parent_median": q_old[1],
            "change_median": q_new[1],
            "parent_quartiles": [q_old[0], q_old[2]],
            "change_quartiles": [q_new[0], q_new[2]],
            "parent_iqr": q_old[2] - q_old[0],
            "relative_change": (q_new[1] - q_old[1]) / q_old[1] if q_old[1] else None,
            "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="at least 2 (default 10)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    pairs, ok = [], True
    for i in range(1, args.pairs + 1):
        seed = args.first_seed + i - 1
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        record = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            result = bench_run(sides[side], args.workload, seed)
            ok &= bool(result["correct"]) and result["failed"] == 0
            record[side] = result
        pairs.append(record)
        line = "  ".join(f"{s} {record[s]['metrics']['wall_s']['value']:.3f}"
                         for s in ("parent", "change"))
        print(f"pair {i} seed {seed} ({order[0]} first): wall_s {line}", flush=True)

    summary = summarize(pairs, spec["end_to_end"])
    for name, row in summary.items():
        print(f"{name:12s} {row['parent_median']:.4g} -> {row['change_median']:.4g} "
              f"(parent IQR {row['parent_iqr']:.3g}; change better in "
              f"{row['change_better_pairs']}/{row['pairs']})")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = machine()
    doc.setdefault("workloads", {})[args.workload] = {
        "command": "python3 bench/run.py --workload W --seed SEED",
        "seeds": [p["seed"] for p in pairs],
        "all_correct": ok,
        "summary": summary,
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
