"""The benchmark's workloads: which preset runs make up one round of each.

Each workload is a closed loop: one ``gexr.cli.main`` call after another in
a single process, the next call starting when the previous one returns.
Every call runs a shipped preset at its full replication counts; only the
seed changes (see :func:`seed_for`).
"""

from __future__ import annotations

from dataclasses import dataclass

# Rounds cycle through this many seeds per run, so a run's time-to-accuracy
# averages the batch-means noise of several stderr estimates.
SEEDS_PER_RUN = 3

# Replication cap for the untimed warm-up round: it runs every code path on
# the full-size grids but costs a fraction of a timed round.
WARMUP_BUDGET = "2000"


@dataclass(frozen=True)
class Op:
    """One CLI call: ``gexr <command> --preset <preset> <extra>``."""

    command: str
    preset: str
    extra: tuple[str, ...] = ()
    exit_code: int = 0  # the exit code that means the call did its job

    def argv(self, seed: int, out: str) -> list[str]:
        return [self.command, "--preset", self.preset, *self.extra,
                "--seed", str(seed), "--out", out]


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # circulant generator + window-identity reduction, no Cholesky
    "pickands": (Op("constants", "pickands-alpha-1"),),
    # 63 small Cholesky cells with the crossing reduction, one worker
    "audit": (Op("audit", "uniform-audit-stationary", ("--workers", "1")),),
    # one large Cholesky grid, circulant alpha=2 with apply_functional,
    # binomial double maxima.  generalized-piterbarg is left out: its
    # plateau verdict flips to "not-converged" (exit 1) at some seeds.
    "mixed": (
        Op("constants", "piterbarg-gamma"),
        Op("tail", "short-interval-tail"),
        Op("doublesum", "doublesum-gaussian"),
        # the counterexample: the growth flag is set and the run exits 1
        Op("doublesum", "doublesum-flat", exit_code=1),
        Op("formula", "formula-product-1d"),
    ),
}


def seed_for(preset_seed: int, run_seed: int, round_index: int) -> int:
    """Seed of a preset call: run seed 0, round 0 is the preset's own seed.

    Runs with different seeds never share a call seed; rounds beyond
    SEEDS_PER_RUN repeat earlier seeds and must reproduce their outputs.
    """
    return preset_seed + SEEDS_PER_RUN * run_seed + round_index % SEEDS_PER_RUN
