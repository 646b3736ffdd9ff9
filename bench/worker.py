"""Worker process of the benchmark: runs one workload's rounds and reports.

bench/run.py starts it in a fresh interpreter whose environment pins BLAS
and OpenMP to one thread and puts the checkout's src/ first on the path:

    python3 bench/worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                              "trace": ..., "out": ..., "src": ...}'

It imports gexr.cli, makes one untimed warm-up round with capped
replications (bytecode, page cache, allocator), then runs whole rounds until
``seconds`` have passed.  With ``trace`` the first timed round runs without
tracing, as the reference for the tracing overhead, and the wrappers of
bench/tracing.py are installed for the rounds after it.  The last line of
its output is one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import SEEDS_PER_RUN, WARMUP_BUDGET, WORKLOADS, seed_for


def main(spec: dict) -> int:
    start = time.perf_counter()
    import gexr
    import gexr.cli as cli
    from gexr.presets import preset_config

    import_s = time.perf_counter() - start
    if not os.path.abspath(gexr.__file__).startswith(spec["src"] + os.sep):
        print(f"gexr imported from {gexr.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    ops = WORKLOADS[spec["workload"]]
    configs = {op.preset: preset_config(op.preset) for op in ops}

    def run_round(index: int, label: str, rec=None) -> list[dict]:
        calls = []
        for op in ops:
            out = os.path.join(spec["out"], label, op.preset)
            seed = seed_for(int(configs[op.preset]["seed"]), spec["seed"], index)
            error = None
            gc.collect()
            root = rec.open("cli.main") if rec else None
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(op.argv(seed, out))
            except Exception:  # a crash is a failed operation, not a dead run
                code, error = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if rec:
                rec.close(root)
            calls.append({"preset": op.preset, "seed_index": index % SEEDS_PER_RUN, "out": out,
                          "exit": code, "error": error, "wall_s": wall, "cpu_s": cpu})
        return calls

    os.environ["GEXR_BUDGET"] = WARMUP_BUDGET
    try:
        run_round(0, "warmup")
    finally:
        del os.environ["GEXR_BUDGET"]

    rounds, traced = [], []
    begin = time.perf_counter()
    if spec["trace"]:
        from tracing import Recorder, install

        rounds.append(run_round(0, "r0"))
        rec = Recorder()
        restore = install(rec)
        try:
            while not traced or time.perf_counter() - begin < spec["seconds"]:
                index = len(rounds)
                rounds.append(run_round(index, f"r{index}", rec))
                traced.append({"round": index, "self_s": rec.self_times(),
                               "counts": dict(rec.counts)})
                rec.reset()
        finally:
            restore()
    else:
        while not rounds or time.perf_counter() - begin < spec["seconds"]:
            rounds.append(run_round(len(rounds), f"r{len(rounds)}"))

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"import_s": import_s, "configs": configs, "rounds": rounds,
                      "traced": traced, "peak_rss_mb": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
