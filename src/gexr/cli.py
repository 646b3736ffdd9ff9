"""Config-driven experiment runner.

    gexr <subcommand> --config file.json [--seed N] [--out dir]
    gexr <subcommand> --preset name ...
    gexr list-presets

Subcommands: constants, tail, audit, doublesum, formula, ruin-demo.  Every
run writes a CSV of per-level/per-cell rows, a results.json summary (with a
config hash covering all numeric inputs), and a gnuplot script referencing
the CSV.  A run reads its whole config before the first estimator call.

Exit codes: 0 pass, 1 statistical fail, 2 ModelError: a missing or
malformed config value, an unreadable or non-JSON --config, an --out that
cannot be made a directory, a bad GEXR_BUDGET or flag value, or a model an
estimator rejects; 3 SimulationError, LinAlgError or FloatingPointError.
Every number in a config must be finite and not a boolean, and a count a
whole number; infinity is spelled "inf" (or "infinity"), for a component's
mode and the formula setup's gammas only.  Any other exception is an
internal error and propagates with its traceback, so the interpreter exits
1, the code of a statistical fail.  A run that does not finish removes the
--out directories it created.  GEXR_BUDGET caps replication counts for
smoke runs; results.json records it as "budget" (null when unset).  Any
overflowed (non-finite) sample of a Monte Carlo estimate fails the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import sys
import time

import numpy as np

from . import constants as constmod
from . import doublesum as dsmod
from . import tailprob
from .configio import (
    count,
    doublesum_correlation_from_config,
    drift_from_config,
    eta_from_config,
    family_from_config,
    grid_from_config,
    number,
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
    return None if raw is None else count(raw, "GEXR_BUDGET")


@contextlib.contextmanager
def _config_boundary():
    """The read phase of a run, where a Python error is a config error.

    ``main`` and every runner read their config inside it, before the first
    estimator call; the same error raised by an estimator propagates.
    """
    try:
        yield
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"config is missing {exc}") from exc
    except (IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed config value: {exc}") from exc


def _u_schedule(cfg: dict) -> list[float]:
    u_schedule = [number(u, "uSchedule", gt=0) for u in cfg["uSchedule"]]
    if not u_schedule:
        raise ModelError("uSchedule must list at least one level")
    return u_schedule


def _reps(cfg: dict) -> int:
    reps, cap = count(cfg["reps"], "reps"), _budget()
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


# ---------------------------------------------------------------------------
# per-kind runners: each reads its whole config inside _config_boundary, then
# runs, and returns (status, summary, files) where files is a list of
# (filename, header, rows, plot-title, x-col, y-col)


def _cell_csv(cells: list[dict], index: str = "tau"):
    """Header and rows of ``tailprob.tail_row`` cells; ``index`` is column 2."""
    header = ["u", index, "pHat", "stderr", "psi", "ratio"]
    rows = [[c["u"], c[index], c["p_hat"], c["stderr"], c["psi"], c["ratio"]]
            for c in cells]
    return header, rows


# Each constants reader returns the estimator as a function of (reps, rng).


def _pickands_trace(cfg: dict):
    eta = eta_from_config(cfg["eta"])
    schedule = schedule_from_config(cfg["schedule"])
    if not schedule.domain_sizes[0] > 0:  # the constant is per unit length
        raise ModelError("Pickands domain sizes must be positive")
    return lambda reps, rng: constmod.estimate_pickands(eta, schedule, reps, rng)


def _piterbarg_trace(cfg: dict):
    eta = eta_from_config(cfg["eta"])
    drift = drift_from_config(cfg.get("drift"))
    schedule = schedule_from_config(cfg["schedule"])
    domain = cfg.get("domain", "right")
    return lambda reps, rng: constmod.estimate_piterbarg(
        eta, drift, schedule, reps, rng, domain=domain
    )


def _sup_inf_trace(cfg: dict):
    if "gridStep" in cfg:
        raise ModelError("gridStep is not read: give the step in tSchedule.gridSteps")
    vf = variance_function_from_json(cfg["varianceFunction"])
    schedule = schedule_from_config(cfg["tSchedule"])
    b, S = number(cfg["b"], "b"), number(cfg["S"], "S")
    return lambda reps, rng: constmod.estimate_generalized_piterbarg(
        vf, b, S, schedule, reps, rng
    )


def _generalized_trace(cfg: dict):
    eta = eta_from_config(cfg["eta"])
    drift = drift_from_config(cfg.get("drift"))
    gamma = functional_from_config(cfg.get("functional", "sup"))
    grid = grid_from_config(cfg["grid"])

    def trace(reps, rng):
        est = constmod.estimate_generalized_constant(eta, drift, gamma, grid, reps, rng)
        return constmod.LevelTrace((est,), est, "plateau")

    return trace


# estimator -> (config reader, meta keys of the level and step columns, plot
# title); a single estimate leaves both columns blank
_CONSTANTS = {
    "pickands": (_pickands_trace, ("domain", "step"), "domain-growth trace"),
    "piterbarg": (_piterbarg_trace, ("domain", "step"), "domain-growth trace"),
    "generalized-piterbarg": (
        _sup_inf_trace, ("horizon", "step"), "horizon-growth trace"
    ),
    "generalized": (_generalized_trace, (None, None), "constant estimate"),
}


def run_constants(cfg: dict, seed: int):
    """Run one constants estimator against the config's target, if any; any
    overflowed sample fails the run."""
    with _config_boundary():
        estimator = cfg.get("estimator")
        if estimator not in _CONSTANTS:
            raise ModelError(f"unknown constants estimator {estimator!r}")
        read, keys, title = _CONSTANTS[estimator]
        trace_of = read(cfg)
        reps = _reps(cfg)
        target = number(cfg["target"], "target") if "target" in cfg else None
        tol = number(cfg.get("tolerance", 0.05), "tolerance", ge=0)
    trace = trace_of(reps, RngStream(seed))
    est = trace.estimate
    status = "pass" if trace.status == "plateau" else trace.status
    if status == "pass" and target is not None:
        status = "pass" if abs(est.value - target) <= tol * abs(target) else "fail"
    summary = {"estimate": est.value, "stderr": est.stderr, "status": status}
    if "drift_warning" in est.meta:
        summary["warning"] = est.meta["drift_warning"]
    status = _fail_on_overflow(status, summary, map(_overflow, (*trace.levels, est)))
    rows = [[*(e.meta.get(k, "") for k in keys), e.value, e.stderr, e.n_reps]
            for e in trace.levels]
    return status, summary, [
        ("levels.csv", ["level", "step", "value", "stderr", "nReps"], rows, title, 1, 3)
    ]


def run_tail(cfg: dict, seed: int):
    with _config_boundary():
        family = family_from_config(cfg["family"])
        gamma = functional_from_config(cfg.get("functional", "sup"))
        grid = grid_from_config(cfg["grid"])
        u, tau = number(cfg["u"], "u", gt=0), number(cfg.get("tau", 0.0), "tau")
        reps = _reps(cfg)
        estimator = cfg.get("estimator", "conditional")
        if estimator not in ("conditional", "crude"):
            raise ModelError(f"unknown tail estimator {estimator!r}")
    rng = RngStream(seed)
    status = "pass"
    if estimator == "conditional":
        cell = tailprob.tail_cell(family, gamma, u, tau, grid, reps, rng)
    else:
        est = tailprob.crude_mc_tail(family, u, tau, gamma, grid, reps, rng)
        cell = tailprob.tail_row(u, tau, est)
        if est.meta.get("low_confidence"):
            status = "low-confidence"
    summary = {"pHat": cell["p_hat"], "stderr": cell["stderr"], "psi": cell["psi"],
               "ratio": cell["ratio"], "status": status}
    status = _fail_on_overflow(status, summary, [cell["overflow_count"]])
    return status, summary, [("tail.csv", *_cell_csv([cell]), "tail ratio", 1, 6)]


def _audit_constant(cfg: dict, grid):
    """Read the audit's constant: a given value (and stderr), or the window
    constant of an interval as long as the grid, estimated from the stream
    that the returned function is given."""
    doc = cfg["constant"]
    if "value" in doc:
        given = Estimate(number(doc["value"], "value", gt=0),
                         number(doc.get("stderr", 0.0), "stderr", ge=0), 0)
        return lambda rng: given
    if "windowConstant" not in doc:
        raise ModelError("audit constant must give 'value' or 'windowConstant'")
    sub = doc["windowConstant"]
    eta = eta_from_config(sub["eta"])
    reps = _reps(sub)
    if grid.dim != 1:
        raise ModelError("windowConstant needs a grid with one axis")
    # the constant of [lo, hi] is that of [0, hi - lo]: stationary increments
    lo, hi, _ = grid.per_axis[0]

    def estimate(rng):
        levels, pairs = constmod.window_sup_levels(
            eta, [hi - lo], grid.steps[0], reps, rng
        )
        return pairs.estimate(levels[0][0])

    return estimate


def run_audit(cfg: dict, seed: int):
    with _config_boundary():
        family = family_from_config(cfg["family"])
        gamma = functional_from_config(cfg.get("functional", "sup"))
        grid = grid_from_config(cfg["grid"])
        constant_of = _audit_constant(cfg, grid)
        u_schedule = _u_schedule(cfg)
        reps = _reps(cfg)
        tolerance = number(cfg.get("tolerance", 0.1), "tolerance", ge=0)
    rng = RngStream(seed)
    constant = constant_of(rng.substream(0))
    report = tailprob.uniform_ratio_audit(
        family, gamma, constant, u_schedule, grid, reps, rng.substream(1),
        tolerance=tolerance,
    )
    status = "pass" if report.passed else "fail"
    urows = [[r["u"], r["max_deviation"], r["passed"]] for r in report.per_u]
    summary = {"constant": constant.value, "constantStderr": constant.stderr,
               "maxDeviations": [r["max_deviation"] for r in report.per_u],
               "status": status}
    counts = [_overflow(constant), *(r["overflow_count"] for r in report.rows)]
    status = _fail_on_overflow(status, summary, counts)
    return status, summary, [
        ("ratios.csv", *_cell_csv(report.rows), "tail ratios", 2, 6),
        ("audit.csv", ["u", "maxDeviation", "pass"], urows,
         "uniform deviation trace", 1, 2),
    ]


def run_doublesum(cfg: dict, seed: int):
    with _config_boundary():
        corr = doublesum_correlation_from_config(cfg["model"])
        c1, beta = number(cfg["c1"], "c1"), number(cfg["beta"], "beta")
        ppu = count(cfg.get("pointsPerUnit", 4), "pointsPerUnit")
        reps = _reps(cfg)
        configs = []  # box scale outermost, separation innermost
        for s2, u, sep in itertools.product(
            [number(s2, "boxScales") for s2 in cfg["boxScales"]],
            [number(u, "uLevels", gt=0) for u in cfg["uLevels"]],
            [number(sep, "separations", ge=0) for sep in cfg["separations"]],
        ):
            box = ((0.0, s2),)
            dcfg = dsmod.DoubleMaximaConfig(
                correlation=corr, cell1=box, cell2=box, offset1=(0.0,),
                offset2=(s2 + sep,), m1_fn=lambda v: v,
                m2_fn=lambda v: v, c1=c1, beta=beta, s2=s2,
            )
            configs.append((dcfg, u))
        ppa = [round(ppu * c.s2) + 1 for c, _ in configs]
    rng = RngStream(seed)

    def _one(i):
        c, u = configs[i]
        return dsmod.estimate_double_maxima(c, u, ppa[i], reps, rng.substream(i))

    estimates = cell_map(_one, range(len(configs)))
    report = dsmod.fit_bound_constant(configs, estimates)
    status = "pass" if report.passed else "fail"
    rows = [
        [r["separation"], r["s2"], r["u"], r["d_hat"],
         estimates[i].stderr, r["bound"], r["slack"]]
        for i, r in enumerate(report.table)
    ]
    summary = {"fittedC": report.fitted_c, "pass": report.passed,
               "growingWithSeparation": report.growing_with_separation,
               "status": status}
    return status, summary, [
        ("doublesum.csv", ["sep", "S2", "u", "dHat", "stderr", "bound", "slack"], rows,
         "double-maxima vs bound", 1, 4)
    ]


def _setup_from_config(doc: dict) -> tailprob.AsymptoticSetup:
    m_power = number(doc.get("mPower", 1.0), "mPower")
    return tailprob.AsymptoticSetup(
        **{key: count(doc[key], key, ge=0) for key in ("d", "n", "d1", "d2")},
        betas=tuple(number(b, "betas") for b in doc["betas"]),
        gammas=tuple(number(g, "gammas", inf=True) for g in doc["gammas"]),
        g_fns=tuple((lambda u, p=number(p, "gPowers"): u**p) for p in doc["gPowers"]),
        m_fn=lambda u: u**m_power,
        y_ranges=tuple((number(lo, "yRanges"), number(hi, "yRanges"))
                       for lo, hi in doc.get("yRanges", [])),
    )


def run_formula(cfg: dict, seed: int):
    """The product formula, cross-checked by the conditioned tail on the
    grid of the config's ``mcCheck`` when it has one."""
    with _config_boundary():
        setup = _setup_from_config(cfg["setup"])
        u = number(cfg["u"], "u", gt=0)
        cdoc = cfg.get("constants", {})
        constants = {
            "per_unit": [number(x, "perUnit", gt=0) for x in cdoc.get("perUnit", [])],
            "drifted": [number(x, "drifted", gt=0) for x in cdoc.get("drifted", [])],
        }
        if "field" in cdoc:
            constants["field"] = number(cdoc["field"], "field", gt=0)
        check = "mcCheck" in cfg
        if check:
            mc = cfg["mcCheck"]
            if "coarseGrid" in mc:
                raise ModelError("mcCheck.coarseGrid is not read: give one grid")
            family = family_from_config(mc["family"])
            reps = _reps(mc)
            grid = grid_from_config(mc["grid"])
            tol = number(mc.get("tolerance", 0.15), "tolerance", ge=0)
    result = tailprob.eval_mainm_formula(setup, u, constants)
    summary = {"value": result.value, "factors": result.factors, "status": "pass"}
    status = "pass"
    rows = [[u, result.value, "", ""]]
    if check:
        cell = tailprob.tail_cell(family, FunctionalSpec.sup(), u, 0.0, grid, reps,
                                  RngStream(seed).substream(0))
        value, stderr = cell["p_hat"], cell["stderr"]
        deviation = abs(value - result.value) / result.value
        status = "pass" if deviation <= tol + 3 * stderr / result.value else "fail"
        summary.update(mcEstimate=value, mcStderr=stderr,
                       relativeDeviation=deviation, status=status)
        rows = [[u, result.value, value, stderr]]
        status = _fail_on_overflow(status, summary, [cell["overflow_count"]])
    return status, summary, [
        ("formula.csv", ["u", "formula", "mcEstimate", "mcStderr"], rows,
         "formula vs MC", 1, 2)
    ]


def run_ruin_demo(cfg: dict, seed: int):
    with _config_boundary():
        family = family_from_config(cfg["family"])
        grid = grid_from_config(cfg["grid"])
        u_schedule = _u_schedule(cfg)
        reps = _reps(cfg)
    rng = RngStream(seed)
    sup = FunctionalSpec.sup()
    cells = [tailprob.tail_cell(family, sup, u, 0.0, grid, reps, rng.substream(ui))
             for ui, u in enumerate(u_schedule)]
    summary = {"ratios": [c["ratio"] for c in cells], "status": "pass",
               "note": "qualitative"}
    status = _fail_on_overflow("pass", summary, [c["overflow_count"] for c in cells])
    return status, summary, [
        ("ruin.csv", *_cell_csv(cells, "g"), "level-crossing tail ratios", 1, 6)
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
            p.add_argument("--workers", type=int, default=1, help="retired: only 1")
            p.add_argument("--out", default=".")
    return parser


def _load_config(args) -> dict:
    """The config of the run: the named preset, or the object in --config."""
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ModelError(f"cannot read --config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelError(f"--config {args.config!r} is not JSON: {exc}") from exc
    else:
        raise ModelError("one of --config or --preset is required")
    if not isinstance(cfg, dict):
        raise ModelError("config must be a JSON object")
    if cfg.get("kind") != args.command:
        raise ModelError(f"config kind {cfg.get('kind')!r} does not match subcommand")
    return cfg


def _make_out(out: str, made: list[str]) -> None:
    """Create --out; ``made`` gets the directories this creates, deepest first."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ModelError(f"cannot create --out {out!r}: {exc}") from exc


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
    files = None  # the runner's output: until it returns, --out is not kept
    try:
        with _config_boundary():
            cfg = _load_config(args)
            seed = count(cfg["seed"] if args.seed is None else args.seed, "seed", ge=0)
        if args.workers != 1:  # bench/workloads.py's audit workload still passes 1
            raise ModelError("--workers is retired: runs choose their own threads")
        budget = _budget()
        _make_out(args.out, made)
        status, summary, files = _RUNNERS[args.command](cfg, seed)
    except ModelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"model rejected: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if files is None:  # the run failed, whatever the reason
            _remove_dirs(made)
    for fname, header, rows, title, x, y in files:
        path = os.path.join(args.out, fname)
        _write_csv(path, header, rows)
        _write_plot(os.path.splitext(path)[0] + ".gp", fname, title, x, y)
    record = {"experiment": args.command, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "configHash": _config_hash(cfg), "seed": seed, "budget": budget,
              "summary": summary}
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")
    print(f"{args.command}: {status}")
    return EXIT_PASS if status == "pass" else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
