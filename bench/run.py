"""Benchmark of gexr: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {pickands,audit,mixed} [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from anywhere inside a gexr checkout; it uses the checkout's src/.
Seed 0 runs the presets at their own seeds (see workloads.seed_for).  Every
child process gets one BLAS/OpenMP thread, and the processes run one at a
time:

1. ``setup_s``: one untimed, then IMPORT_SAMPLES timed fresh interpreters
   that import gexr.cli, half before and half after the worker; the median
   is reported.  With ``--trace 1`` one import runs under ``-X importtime``
   instead, for the per-module figures.
2. The worker (bench/worker.py) runs the workload's rounds for ``--seconds``.
3. The references of bench/checks.py are computed, and every output is
   checked against them; repeated seeds must reproduce their CSVs byte for
   byte.

The metrics printed are those BENCHMARK.json lists: with ``--trace 0`` its
end-to-end metrics, with ``--trace 1`` its per-layer metrics.  The last line
of the output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import parse_importtime  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_SAMPLES = 8
# time allowed beyond --seconds: imports, warm-up, the last round, checks
DEADLINE_MARGIN_S = 145.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import gexr.cli; print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # OpenBLAS otherwise starts a thread per core for tiny products
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GEXR_BUDGET", None)
    return env


def run_child(args: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def import_seconds(deadline: float, importtime: bool = False) -> tuple[float, str]:
    args = (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_SNIPPET]
    proc = run_child(args, deadline)
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def output_bytes(calls: list[dict]) -> int:
    return sum(f.stat().st_size for c in calls for f in Path(c["out"]).iterdir() if f.is_file())


def check_outputs(result: dict, ops) -> tuple[list[str], int, int, dict]:
    """Check every call's outputs; returns (problems, attempted, failed, weights).

    ``weights[(preset, seed_index)]`` is the time-to-accuracy weight of the
    outputs of that preset at that seed.
    """
    expected = {op.preset: op.exit_code for op in ops}
    configs = result["configs"]
    refs = {p: checks.reference(p, cfg) for p, cfg in configs.items()}
    problems, weights, first_out = [], {}, {}
    attempted = failed = 0
    for calls in result["rounds"]:
        for call in calls:
            attempted += 1
            preset, key = call["preset"], (call["preset"], call["seed_index"])
            if call["exit"] != expected[preset]:
                failed += 1
                print(f"FAILED {preset}: exit {call['exit']}\n{call['error'] or ''}",
                      file=sys.stderr)
                continue
            if key not in first_out:
                first_out[key] = call["out"]
                found, weight = checks.check(preset, configs[preset], refs[preset], call["out"])
                problems += [f"{preset}: {p}" for p in found]
                if weight is not None:
                    weights[key] = weight
            else:
                for csv in sorted(Path(first_out[key]).glob("*.csv")):
                    if csv.read_bytes() != (Path(call["out"]) / csv.name).read_bytes():
                        problems.append(f"{preset}: {csv.name} differs on a rerun of one seed")
    return problems, attempted, failed, weights


def end_to_end(result: dict, setup: list[float], weights: dict, ops) -> dict:
    rounds = result["rounds"]
    wall = [sum(c["wall_s"] for c in calls) for calls in rounds]
    cpu = [sum(c["cpu_s"] for c in calls) for calls in rounds]
    # timing noise is damped by the median over rounds, stderr noise by the
    # mean over the run's seeds
    tts = 0.0
    for op in ops:
        op_wall = statistics.median(c["wall_s"] for calls in rounds for c in calls
                                    if c["preset"] == op.preset)
        ws = [w for (p, _), w in weights.items() if p == op.preset]
        if not ws:  # a preset that never succeeds must not make tts_s smaller
            raise BenchError(f"{op.preset}: no checked output, so no tts_s")
        tts += op_wall * statistics.fmean(ws)
    return {"setup_s": statistics.median(setup), "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(cpu), "peak_rss_mb": result["peak_rss_mb"],
            "tts_s": tts}


def per_layer(result: dict, importtimes: str) -> dict:
    rounds = result["rounds"]
    reference_wall = sum(c["wall_s"] for c in rounds[0])
    samples = []
    for t in result["traced"]:
        calls = rounds[t["round"]]
        wall = sum(c["wall_s"] for c in calls)
        row = {f"{name}_s": v for name, v in t["self_s"].items()}
        row.update(t["counts"])
        row["cli.io_bytes"] = output_bytes(calls)
        row["trace.wall_s"] = wall
        row["trace.overhead_s"] = wall - reference_wall
        row["trace.coverage"] = 1.0 - t["self_s"].get("cli.main", 0.0) / wall
        samples.append(row)
    names = {k for row in samples for k in row}
    out = {k: statistics.median(row.get(k, 0.0) for row in samples) for k in names}
    for module, seconds in parse_importtime(importtimes).items():
        out[f"import.{module}_s"] = seconds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "gexr" / "cli.py").is_file():
            raise BenchError(f"no gexr sources under {SRC}")
        if args.seed < 0:
            raise BenchError("--seed must be nonnegative")
        specs = load_spec()
        if args.seconds is None:
            args.seconds = float(specs["run_seconds"])
        deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
        ops = WORKLOADS[args.workload]
        out_dir = OUT / args.workload
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)

        import_seconds(deadline)  # untimed: bytecode and page cache
        # half the import samples before the worker and half after, so that
        # their median spans the machine's drift over the run
        imports = 0 if args.trace else IMPORT_SAMPLES // 2
        setup = [import_seconds(deadline)[0] for _ in range(imports)]
        importtimes = import_seconds(deadline, importtime=True)[1] if args.trace else ""
        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "out": str(out_dir), "src": str(SRC)}
        proc = run_child([str(BENCH / "worker.py"), json.dumps(spec)], deadline)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup += [import_seconds(deadline)[0] for _ in range(imports)]

        problems, attempted, failed, weights = check_outputs(result, ops)
        for p in problems:
            print(f"CHECK FAILED {p}", file=sys.stderr)
        if args.trace:
            values, wanted = per_layer(result, importtimes), specs["per_layer"]
        else:
            values, wanted = end_to_end(result, setup, weights, ops), specs["end_to_end"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    rounds = result["rounds"]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} calls, {failed} failed, {len(problems)} check failures")
    for call in rounds[-1]:
        print(f"  {call['preset']:<26} {call['wall_s']:8.3f} s  exit {call['exit']}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
