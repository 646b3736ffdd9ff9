#!/usr/bin/env python3
"""Cross-validate the crude and conditional tail estimators on one family.

Runs both estimators over a threshold schedule and prints the estimates,
their z-distance, and the variance-reduction factor of the conditioning
identity.  At large thresholds the crude estimator loses all its hits while
the conditional one keeps a stable relative error — which is the point.
A crude row with no hits (or all hits) has stderr 0 and no useful z: there
the conditional value must lie in the crude row's exact 95% interval.
Exits 1 if a row fails, |z| > 3 or outside that interval.
The functional is sup unless --functional names another, as a JSON document
of the config dialect ('"inf"', '{"mix": 0.5}').
"""

import argparse
import json
import math
import sys

from gexr.configio import family_from_config, functional_from_config, grid_from_config
from gexr.rng import RngStream
from gexr.tailprob import ConditionalSampler, conditional_tail, crude_mc_tail

DEFAULT_FAMILY = {"kind": "stationary", "alpha": 1.0}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", help="JSON family document",
                        default=json.dumps(DEFAULT_FAMILY))
    parser.add_argument("--grid", default='{"perAxis": [[0.0, 1.0, 33]]}')
    parser.add_argument("--functional", help="JSON functional document",
                        default='"sup"')
    parser.add_argument("--u", type=float, nargs="+", default=[1.5, 2.0, 2.5, 3.0])
    parser.add_argument("--crude-reps", type=int, default=200_000)
    parser.add_argument("--cond-reps", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    family = family_from_config(json.loads(args.family))
    grid = grid_from_config(json.loads(args.grid))
    gamma = functional_from_config(json.loads(args.functional))
    rng = RngStream(args.seed)
    print(f"{'u':>5s} {'crude':>12s} {'conditional':>12s} {'z':>6s} {'var ratio':>10s}")
    worst, failed = 0.0, False
    for i, u in enumerate(args.u):
        crude = crude_mc_tail(family, u, 0.0, gamma, grid, args.crude_reps,
                              rng.substream(i, 0))
        cond = conditional_tail(ConditionalSampler(family, u, 0.0, grid), gamma,
                                args.cond_reps, rng.substream(i, 1))
        comb = math.hypot(crude.stderr, cond.stderr)
        z = abs(crude.value - cond.value) / comb if comb > 0 else 0.0
        note = " (no hits)" if crude.meta.get("low_confidence") else ""
        if crude.stderr == 0.0:
            lo, hi = crude.meta["ci_exact"]
            inside = lo <= cond.value <= hi
            failed |= not inside
            note += f" {'inside' if inside else 'OUTSIDE'} [{lo:.2e}, {hi:.2e}]"
        else:
            worst = max(worst, z)
        # per-sample variance ratio at equal replication counts
        vr = ((crude.stderr**2 * args.crude_reps)
              / (cond.stderr**2 * args.cond_reps)
              if cond.stderr > 0 else math.inf)
        print(f"{u:5.2f} {crude.value:12.3e} {cond.value:12.3e} {z:6.2f} "
              f"{vr:10.1f}{note}")
    print(f"worst |z| = {worst:.2f}")
    return 0 if worst <= 3.0 and not failed else 1


if __name__ == "__main__":
    sys.exit(run())
