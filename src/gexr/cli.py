"""Config-driven experiment runner.

    gexr <subcommand> --config file.json [--seed N] [--workers K] [--out dir]
    gexr <subcommand> --preset name ...
    gexr list-presets

Subcommands: constants, tail, audit, doublesum, formula, ruin-demo.  Every
run writes a CSV of per-level/per-cell rows, a results.json summary (with a
config hash covering all numeric inputs), and a gnuplot script referencing
the CSV.  Exit codes: 0 pass, 1 statistical fail, 2 config error (an
unreadable --config or an --out that cannot be made a directory included:
--out is created before any estimator runs), 3 numerical/model rejection.
A run that exits 2 or 3 removes the --out directories it created itself.
The environment variable GEXR_BUDGET caps replication counts for smoke
runs; results.json records the cap as "budget" (null when unset).  Any
overflowed (non-finite) sample of a Monte Carlo estimate fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import constants as constmod
from . import doublesum as dsmod
from . import tailprob
from .configio import (
    doublesum_correlation_from_config,
    drift_from_config,
    eta_from_config,
    family_from_config,
    grid_from_config,
    schedule_from_config,
)
from .covmodels import ModelError, variance_function_from_json
from .functionals import FunctionalSpec, functional_from_config
from .mc import Estimate, cell_map
from .presets import list_presets, preset_config
from .rng import RngStream
from .simkit import SimulationError

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _budget() -> int | None:
    raw = os.environ.get("GEXR_BUDGET")
    if raw is None:
        return None
    try:
        val = int(raw)
    except ValueError:
        raise ModelError(f"GEXR_BUDGET must be an integer, got {raw!r}")
    if val < 1:
        raise ModelError("GEXR_BUDGET must be positive")
    return val


def _reps(cfg: dict, key: str = "reps") -> int:
    if key not in cfg:
        raise ModelError(f"config is missing {key!r}")
    reps = int(cfg[key])
    if reps < 1:
        raise ModelError(f"{key} must be positive")
    cap = _budget()
    return min(reps, cap) if cap else reps


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    def fmt(x):
        if isinstance(x, float):
            # repr of a numpy float spells out its type under numpy >= 2
            return repr(float(x))
        return str(x)

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def _write_plot(path: str, csv_name: str, title: str, x: int, y: int) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "set datafile separator ','\n"
            f"set title '{title}'\n"
            "set key off\n"
            f"plot '{csv_name}' using {x}:{y} skip 1 with linespoints\n"
        )


def _overflow(est: Estimate) -> int:
    return est.meta.get("overflow_count", 0)


def _fail_on_overflow(status: str, summary: dict, counts) -> str:
    """The one overflow rule: any overflowed sample fails the run (exit 1).

    ``counts`` are the overflow counts of the run's Monte Carlo estimates;
    ``summary["overflowCount"]`` reports the largest.
    """
    overflow = max(counts)
    if overflow:
        status = summary["status"] = "fail"
        summary["overflowCount"] = overflow
    return status


def _apply_target(status: str, value: float, cfg: dict) -> str:
    """Tighten a passing status with the preset's declared target check."""
    if status != "pass" or "target" not in cfg:
        return status
    target = float(cfg["target"])
    tol = float(cfg.get("tolerance", 0.05))
    return "pass" if abs(value - target) <= tol * abs(target) else "fail"


# ---------------------------------------------------------------------------
# per-kind runners: return (status, summary, files) where files is a list of
# (filename, header, rows, plot-title, x-col, y-col)


def _pickands_trace(cfg: dict, reps: int, rng: RngStream) -> constmod.LevelTrace:
    eta = eta_from_config(cfg["eta"])
    schedule = schedule_from_config(cfg["schedule"])
    return constmod.estimate_pickands(eta, schedule, reps, rng)


def _piterbarg_trace(cfg: dict, reps: int, rng: RngStream) -> constmod.LevelTrace:
    eta = eta_from_config(cfg["eta"])
    drift = drift_from_config(cfg.get("drift"))
    schedule = schedule_from_config(cfg["schedule"])
    return constmod.estimate_piterbarg(
        eta, drift, schedule, reps, rng, domain=cfg.get("domain", "right")
    )


def _sup_inf_trace(cfg: dict, reps: int, rng: RngStream) -> constmod.LevelTrace:
    vf = variance_function_from_json(cfg["varianceFunction"])
    schedule = schedule_from_config(cfg["tSchedule"])
    b, S, step = float(cfg["b"]), float(cfg["S"]), float(cfg["gridStep"])
    return constmod.estimate_generalized_piterbarg(vf, b, S, schedule, step, reps, rng)


def _generalized_trace(cfg: dict, reps: int, rng: RngStream) -> constmod.LevelTrace:
    eta = eta_from_config(cfg["eta"])
    drift = drift_from_config(cfg.get("drift"))
    gamma = functional_from_config(cfg.get("functional", "sup"))
    grid = grid_from_config(cfg["grid"])
    est = constmod.estimate_generalized_constant(eta, drift, gamma, grid, reps, rng)
    return constmod.LevelTrace((est,), est, "plateau")


# estimator -> (trace builder, meta keys of the level and step columns, plot
# title); a single estimate leaves both columns blank
_CONSTANTS = {
    "pickands": (_pickands_trace, ("domain", "step"), "domain-growth trace"),
    "piterbarg": (_piterbarg_trace, ("domain", "step"), "domain-growth trace"),
    "generalized-piterbarg": (
        _sup_inf_trace, ("horizon", "step"), "horizon-growth trace"
    ),
    "generalized": (_generalized_trace, (None, None), "constant estimate"),
}


def run_constants(cfg: dict, seed: int, workers: int):
    """Run one constants estimator; any overflowed sample fails the run."""
    estimator = cfg.get("estimator")
    reps = _reps(cfg)
    if estimator not in _CONSTANTS:
        raise ModelError(f"unknown constants estimator {estimator!r}")
    build, keys, title = _CONSTANTS[estimator]
    trace = build(cfg, reps, RngStream(seed))
    est = trace.estimate
    status = "pass" if trace.status == "plateau" else trace.status
    status = _apply_target(status, est.value, cfg)
    summary = {"estimate": est.value, "stderr": est.stderr, "status": status}
    if "drift_warning" in est.meta:
        summary["warning"] = est.meta["drift_warning"]
    status = _fail_on_overflow(status, summary, map(_overflow, (*trace.levels, est)))
    rows = [
        [*(e.meta.get(k, "") for k in keys), e.value, e.stderr, e.n_reps]
        for e in trace.levels
    ]
    return status, summary, [
        ("levels.csv", ["level", "step", "value", "stderr", "nReps"], rows, title, 1, 3)
    ]


def run_tail(cfg: dict, seed: int, workers: int):
    family = family_from_config(cfg["family"])
    gamma = functional_from_config(cfg.get("functional", "sup"))
    grid = grid_from_config(cfg["grid"])
    u, tau = float(cfg["u"]), float(cfg.get("tau", 0.0))
    reps = _reps(cfg)
    rng = RngStream(seed)
    estimator = cfg.get("estimator", "conditional")
    if estimator == "conditional":
        sampler = tailprob.ConditionalSampler(family, u, tau, grid)
        est = tailprob.conditional_tail(sampler, gamma, reps, rng)
        g = sampler.g
    elif estimator == "crude":
        est = tailprob.crude_mc_tail(family, u, tau, gamma, grid, reps, rng)
        g = est.meta["g"]
    else:
        raise ModelError(f"unknown tail estimator {estimator!r}")
    psi = tailprob.survival_psi(g)
    ratio = est.value / psi if psi > 0 else math.inf
    status = "low-confidence" if est.meta.get("low_confidence") else "pass"
    summary = {
        "pHat": est.value,
        "stderr": est.stderr,
        "psi": psi,
        "ratio": ratio,
        "status": status,
    }
    status = _fail_on_overflow(status, summary, [_overflow(est)])
    rows = [[u, tau, est.value, est.stderr, psi, ratio]]
    return status, summary, [
        ("tail.csv", ["u", "tau", "pHat", "stderr", "psi", "ratio"], rows,
         "tail ratio", 1, 6)
    ]


def _audit_constant(cfg: dict, grid_doc: dict, rng: RngStream) -> Estimate:
    doc = cfg["constant"]
    if "value" in doc:
        return Estimate(float(doc["value"]), float(doc.get("stderr", 0.0)), 0)
    if "windowConstant" in doc:
        sub = doc["windowConstant"]
        eta = eta_from_config(sub["eta"])
        if len(grid_doc["perAxis"]) != 1:
            raise ModelError("windowConstant needs a grid with one axis")
        # the constant of [lo, hi] is that of [0, hi - lo]: stationary increments
        lo, hi, n = grid_doc["perAxis"][0]
        step = (hi - lo) / (n - 1)
        levels, pairs = constmod.window_sup_levels(
            eta, [float(hi - lo)], step, _reps(sub), rng
        )
        return pairs.estimate(levels[0][0])
    raise ModelError("audit constant must give 'value' or 'windowConstant'")


def run_audit(cfg: dict, seed: int, workers: int):
    family = family_from_config(cfg["family"])
    gamma = functional_from_config(cfg.get("functional", "sup"))
    grid = grid_from_config(cfg["grid"])
    rng = RngStream(seed)
    constant = _audit_constant(cfg, cfg["grid"], rng.substream(0))
    report = tailprob.uniform_ratio_audit(
        family,
        gamma,
        constant,
        [float(u) for u in cfg["uSchedule"]],
        grid,
        _reps(cfg),
        rng.substream(1),
        tolerance=float(cfg.get("tolerance", 0.1)),
        workers=workers,
    )
    status = "pass" if report.passed else "fail"
    rows = [
        [r["u"], r["tau"], r["p_hat"], r["stderr"], r["psi"], r["ratio"]]
        for r in report.rows
    ]
    urows = [[r["u"], r["max_deviation"], r["passed"]] for r in report.per_u]
    summary = {
        "constant": constant.value,
        "constantStderr": constant.stderr,
        "maxDeviations": [r["max_deviation"] for r in report.per_u],
        "status": status,
    }
    counts = [_overflow(constant), *(r["overflow_count"] for r in report.rows)]
    status = _fail_on_overflow(status, summary, counts)
    return status, summary, [
        ("ratios.csv", ["u", "tau", "pHat", "stderr", "psi", "ratio"], rows,
         "tail ratios", 2, 6),
        ("audit.csv", ["u", "maxDeviation", "pass"], urows,
         "uniform deviation trace", 1, 2),
    ]


def run_doublesum(cfg: dict, seed: int, workers: int):
    corr = doublesum_correlation_from_config(cfg["model"])
    c1, beta = float(cfg["c1"]), float(cfg["beta"])
    ppu = int(cfg.get("pointsPerUnit", 4))
    reps = _reps(cfg)
    configs = []
    for s2 in cfg["boxScales"]:
        for u in cfg["uLevels"]:
            for sep in cfg["separations"]:
                dcfg = dsmod.DoubleMaximaConfig(
                    correlation=corr,
                    cell1=((0.0, float(s2)),),
                    cell2=((0.0, float(s2)),),
                    offset1=(0.0,),
                    offset2=(float(s2) + float(sep),),
                    m1_fn=lambda v: v,
                    m2_fn=lambda v: v,
                    c1=c1,
                    beta=beta,
                    s2=float(s2),
                )
                configs.append((dcfg, float(u)))
    rng = RngStream(seed)
    ppa = [max(2, int(round(ppu * c.cell1[0][1])) + 1) for c, _ in configs]

    def _one(i):
        c, u = configs[i]
        return dsmod.estimate_double_maxima(c, u, ppa[i], reps, rng.substream(i))

    estimates = cell_map(_one, range(len(configs)), workers)
    report = dsmod.fit_bound_constant(configs, estimates)
    status = "pass" if report.passed else "fail"
    rows = [
        [r["separation"], r["s2"], r["u"], r["d_hat"],
         estimates[i].stderr, r["bound"], r["slack"]]
        for i, r in enumerate(report.table)
    ]
    summary = {
        "fittedC": report.fitted_c,
        "pass": report.passed,
        "growingWithSeparation": report.growing_with_separation,
        "status": status,
    }
    return status, summary, [
        ("doublesum.csv", ["sep", "S2", "u", "dHat", "stderr", "bound", "slack"], rows,
         "double-maxima vs bound", 1, 4)
    ]


def _setup_from_config(doc: dict) -> tailprob.AsymptoticSetup:
    gammas = tuple(
        math.inf if g in ("inf", "infinity") else float(g) for g in doc["gammas"]
    )
    g_fns = tuple(
        (lambda u, p=float(p): u**p) for p in doc["gPowers"]
    )
    m_power = float(doc.get("mPower", 1.0))
    return tailprob.AsymptoticSetup(
        d=int(doc["d"]),
        n=int(doc["n"]),
        d1=int(doc["d1"]),
        d2=int(doc["d2"]),
        betas=tuple(float(b) for b in doc["betas"]),
        gammas=gammas,
        g_fns=g_fns,
        m_fn=lambda u: u**m_power,
        y_ranges=tuple(
            (float(lo), float(hi)) for lo, hi in doc.get("yRanges", [])
        ),
    )


def run_formula(cfg: dict, seed: int, workers: int):
    setup = _setup_from_config(cfg["setup"])
    u = float(cfg["u"])
    cdoc = cfg.get("constants", {})
    constants = {
        "per_unit": [float(x) for x in cdoc.get("perUnit", [])],
        "drifted": [float(x) for x in cdoc.get("drifted", [])],
    }
    if "field" in cdoc:
        constants["field"] = float(cdoc["field"])
    result = tailprob.eval_mainm_formula(setup, u, constants)
    summary = {"value": result.value, "factors": result.factors, "status": "pass"}
    status = "pass"
    rows = [[u, result.value, "", ""]]
    if "mcCheck" in cfg:
        mc = cfg["mcCheck"]
        family = family_from_config(mc["family"])
        gamma = FunctionalSpec.sup()
        rng = RngStream(seed)
        reps = _reps(mc)
        fine_grid = grid_from_config(mc["grid"])
        fine = tailprob.conditional_tail(
            tailprob.ConditionalSampler(family, u, 0.0, fine_grid),
            gamma, reps, rng.substream(0),
        )
        estimates = [fine]
        value, stderr = fine.value, fine.stderr
        if "coarseGrid" in mc:
            coarse_grid = grid_from_config(mc["coarseGrid"])
            coarse = tailprob.conditional_tail(
                tailprob.ConditionalSampler(family, u, 0.0, coarse_grid),
                gamma, reps, rng.substream(1),
            )
            estimates.append(coarse)
            # linear extrapolation in sqrt(step) removes the grid-sup deficit
            x_f = math.sqrt(fine_grid.steps[0])
            x_c = math.sqrt(coarse_grid.steps[0])
            f = x_f / (x_c - x_f)
            value = fine.value + (fine.value - coarse.value) * f
            stderr = math.sqrt((1 + f) ** 2 * fine.stderr**2 + f**2 * coarse.stderr**2)
        deviation = abs(value - result.value) / result.value
        tol = float(mc.get("tolerance", 0.15))
        status = "pass" if deviation <= tol + 3 * stderr / result.value else "fail"
        summary.update(
            {
                "mcEstimate": value,
                "mcStderr": stderr,
                "relativeDeviation": deviation,
                "status": status,
            }
        )
        rows = [[u, result.value, value, stderr]]
        status = _fail_on_overflow(status, summary, map(_overflow, estimates))
    return status, summary, [
        ("formula.csv", ["u", "formula", "mcEstimate", "mcStderr"], rows,
         "formula vs MC", 1, 2)
    ]


def run_ruin_demo(cfg: dict, seed: int, workers: int):
    family = family_from_config(cfg["family"])
    grid = grid_from_config(cfg["grid"])
    reps = _reps(cfg)
    rng = RngStream(seed)
    rows = []
    ratios = []
    counts = []
    for ui, u in enumerate(cfg["uSchedule"]):
        sampler = tailprob.ConditionalSampler(family, float(u), 0.0, grid)
        est = tailprob.conditional_tail(
            sampler, FunctionalSpec.sup(), reps, rng.substream(ui)
        )
        psi = tailprob.survival_psi(sampler.g)
        ratio = est.value / psi
        ratios.append(ratio)
        counts.append(_overflow(est))
        rows.append([u, sampler.g, est.value, est.stderr, psi, ratio])
    summary = {"ratios": ratios, "status": "pass", "note": "qualitative"}
    status = _fail_on_overflow("pass", summary, counts)
    return status, summary, [
        ("ruin.csv", ["u", "g", "pHat", "stderr", "psi", "ratio"], rows,
         "level-crossing tail ratios", 1, 6)
    ]


_RUNNERS = {
    "constants": run_constants,
    "tail": run_tail,
    "audit": run_audit,
    "doublesum": run_doublesum,
    "formula": run_formula,
    "ruin-demo": run_ruin_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gexr", description="Gaussian-extremes experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_RUNNERS, "list-presets"]:
        p = sub.add_parser(name)
        if name != "list-presets":
            p.add_argument("--config", help="path to a JSON experiment config")
            p.add_argument("--preset", help="name of a shipped preset")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--workers", type=int, default=1)
            p.add_argument("--out", default=".")
    return parser


def _remove_dirs(made: list[str]) -> None:
    """Remove the --out directories a failed run created, deepest first."""
    for path in made:
        try:
            os.rmdir(path)
        except OSError:
            return


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-presets":
        for name, desc in list_presets():
            print(f"{name}: {desc}")
        return EXIT_PASS
    made: list[str] = []  # --out and its parents that this run creates
    try:
        if args.preset:
            cfg = preset_config(args.preset)
        elif args.config:
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except OSError as exc:
                raise ModelError(f"cannot read --config {args.config!r}: {exc}") from exc
        else:
            raise ModelError("one of --config or --preset is required")
        if not isinstance(cfg, dict):
            raise ModelError("config must be a JSON object")
        if cfg.get("kind") != args.command:
            raise ModelError(
                f"config kind {cfg.get('kind')!r} does not match subcommand"
            )
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None:
            raise ModelError("config is missing 'seed' and no --seed was given")
        if args.workers < 1:
            raise ModelError("--workers must be at least 1")
        budget = _budget()
        path = os.path.abspath(args.out)
        while not os.path.lexists(path):
            made.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ModelError(f"cannot create --out {args.out!r}: {exc}") from exc
        runner = _RUNNERS[args.command]
        status, summary, files = runner(cfg, int(seed), args.workers)
    # LinAlgError subclasses ValueError: numerical failures are caught first
    except (SimulationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"model rejected: {exc}", file=sys.stderr)
        _remove_dirs(made)
        return EXIT_NUMERIC
    except (ModelError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _remove_dirs(made)
        return EXIT_CONFIG
    for fname, header, rows, title, x, y in files:
        path = os.path.join(args.out, fname)
        _write_csv(path, header, rows)
        _write_plot(os.path.splitext(path)[0] + ".gp", fname, title, x, y)
    record = {
        "experiment": args.command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "configHash": _config_hash(cfg),
        "seed": int(seed),
        "budget": budget,
        "workers": args.workers,
        "summary": summary,
    }
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")
    print(f"{args.command}: {status}")
    return EXIT_PASS if status == "pass" else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
