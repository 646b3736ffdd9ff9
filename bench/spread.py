"""Spread of the benchmark's end-to-end metrics over runs with seeds 1..N.

    python3 bench/spread.py [--runs 10]

Runs bench/run.py once per (seed, workload) for every workload of
BENCHMARK.json, at its run_seconds, one process at a time, the workloads
interleaved so that a drift of the machine's speed touches each of them
alike.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the interquartile range as a share of
the median, next to the bound BENCHMARK.json fixes; a spread above a third
of its bound is marked, and the exit code is then 3.  The bounds were set
from this command's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in doc["workloads"]]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(doc["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            print(f"{w:9s} seed {seed:3d}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)

    ok = True
    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q3 - q1) / med
            mark = ""
            if share > bound / 3:
                mark = "  above a third of the bound"
                ok = False
            print(f"  {name:<32} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%} "
                  f"{bound:6.2f}{mark}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
