#!/usr/bin/env python3
"""Run every shipped preset and summarize the verdicts.

Each preset runs in its own subdirectory of --out (CSV, gnuplot script,
results.json).  Set GEXR_BUDGET for a quick smoke pass; leave it unset for
the full replication counts.  Exits nonzero if any preset ends in an
unexpected state (the flat-correlation counterexample is expected to fail).
An internal error (an exception out of the runner) is such a state: it is
printed on that preset's line as ``INTERNAL ERROR <type>: <message>``, its
traceback goes to stderr, and the sweep goes on with the next preset.
The expected-verdict check is only meaningful at full replication counts;
under a small GEXR_BUDGET the statistical verdicts are noise.

The sha256 of every CSV written is printed on a line of its own, so the
outputs of two checkouts can be compared byte for byte with
``diff <(... | grep sha256) <(... | grep sha256)``.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

from gexr.cli import main as gexr_main
from gexr.presets import PRESETS

# presets that are supposed to exit 1: their point is a flagged failure
EXPECTED_FAIL = {"doublesum-flat"}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="preset-runs")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    bad = []
    for name, (desc, cfg) in PRESETS.items():
        out_dir = os.path.join(args.out, name)
        cli_args = [cfg["kind"], "--preset", name, "--out", out_dir]
        if args.seed is not None:
            cli_args += ["--seed", str(args.seed)]
        expected = 1 if name in EXPECTED_FAIL else 0
        t0 = time.time()
        try:
            code = gexr_main(cli_args)
            verdict = "ok" if code == expected else f"UNEXPECTED exit {code}"
        except Exception as exc:  # one internal error ends its preset only
            traceback.print_exc()
            code = None
            verdict = f"INTERNAL ERROR {type(exc).__name__}: {exc}"
        elapsed = time.time() - t0
        print(f"{name:28s} exit={code} ({elapsed:5.1f}s) {verdict}")
        if code != expected:
            bad.append(name)
        if code in (0, 1):  # only these exits write files
            for fname in sorted(os.listdir(out_dir)):
                if fname.endswith(".csv"):
                    with open(os.path.join(out_dir, fname), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    print(f"{'':28s} sha256 {digest}  {name}/{fname}")
        summary_path = os.path.join(out_dir, "results.json")
        if os.path.exists(summary_path):
            with open(summary_path) as fh:
                status = json.load(fh)["summary"].get("status")
            print(f"{'':28s} status={status}")
    if bad:
        print(f"unexpected outcomes: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
