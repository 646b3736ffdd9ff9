"""Config-driven experiment runner.

    gexr <subcommand> --config file.json [--seed N] [--out dir]
    gexr <subcommand> --preset name ...
    gexr list-presets

Subcommands: constants, tail, audit, doublesum, formula, ruin-demo.  Every
run writes a CSV of per-level/per-cell rows, a results.json summary (with a
config hash covering all numeric inputs), and a gnuplot script referencing
the CSV.  A run reads its whole config, then makes --out and runs; a key
it has not read by then is a config error that names the key's path.

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
smoke runs; results.json records it as "budget" (null when unset).  A run
step reports its verdict and the largest overflow count of its Monte Carlo
estimates, and main judges: any overflowed (non-finite) sample, in any
estimate, fails the run and puts its count in the summary's "overflowCount".
A run holds every loaded OpenBLAS at one thread (``mc.one_blas_thread``), so
its bytes are the same whatever BLAS thread count the caller set.
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
    ConfigView,
    count,
    doublesum_correlation_from_config,
    drift_from_config,
    eta_from_config,
    family_from_config,
    functional_from_config,
    grid_from_config,
    number,
    schedule_from_config,
    variance_function_from_json,
)
from .covmodels import ModelError
from .functionals import FunctionalSpec
from .mc import Estimate, cell_map, one_blas_thread
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
    """The read phase of ``main``, where a Python error is a config error;
    the same error raised by a run step propagates."""
    try:
        yield
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"config is missing {exc}") from exc
    except (IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed config value: {exc}") from exc


def _numbers(cfg: dict, key: str, **bounds) -> list[float]:
    """The non-empty list of numbers ``cfg[key]``, each within ``bounds``."""
    values = [number(x, key, **bounds) for x in cfg[key]]
    if not values:
        raise ModelError(f"{key} must list at least one number")
    return values


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


# ---------------------------------------------------------------------------
# per-kind readers: each reads its config and returns its run step, a function
# of the run's RngStream returning (summary, files, overflow): the summary
# holds the step's verdict as "status", files is a list of (filename, header,
# rows, plot-title, x-col, y-col), and overflow is the largest overflow count
# of the step's Monte Carlo estimates


def _cell_csv(cells: list[dict], index: str = "tau"):
    """Header and rows of ``tailprob.tail_row`` cells; ``index`` is column 2."""
    header = ["u", index, "pHat", "stderr", "psi", "ratio"]
    rows = [[c["u"], c[index], c["p_hat"], c["stderr"], c["psi"], c["ratio"]]
            for c in cells]
    return header, rows


def _pickands_trace(cfg: dict):
    eta = eta_from_config(cfg["eta"])
    schedule = schedule_from_config(cfg["schedule"])
    if not schedule.domain_sizes[0] > 0:  # the constant is per unit length
        raise ModelError("Pickands domain sizes must be positive")
    for S in schedule.domain_sizes:  # the estimator's coarse step 2h, or its one step
        constmod._grid_count(S, schedule.grid_steps[0])
    return lambda reps, rng: constmod.estimate_pickands(eta, schedule, reps, rng)


def _piterbarg_trace(cfg: dict):
    eta = eta_from_config(cfg["eta"])
    drift = drift_from_config(cfg.get("drift"))
    schedule = schedule_from_config(cfg["schedule"])
    domain = cfg.get("domain", "right")
    if domain not in ("right", "symmetric"):
        raise ModelError("domain must be 'right' or 'symmetric'")
    for S in schedule.domain_sizes:
        constmod._grid_count(S, schedule.step)
    return lambda reps, rng: constmod.estimate_piterbarg(
        eta, drift, schedule, reps, rng, domain=domain
    )


def _sup_inf_trace(cfg: dict):
    vf = variance_function_from_json(cfg["varianceFunction"])
    schedule = schedule_from_config(cfg["tSchedule"])
    b, S = number(cfg["b"], "b", gt=0), number(cfg["S"], "S", ge=0)
    for length in (S, *schedule.domain_sizes):  # the window and every horizon
        constmod._grid_count(length, schedule.step)
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


# estimator -> (config reader, returning the estimator as a function of (reps,
# rng); meta keys of the level and step columns, blank for a single estimate;
# plot title)
_CONSTANTS = {
    "pickands": (_pickands_trace, ("domain", "step"), "domain-growth trace"),
    "piterbarg": (_piterbarg_trace, ("domain", "step"), "domain-growth trace"),
    "generalized-piterbarg": (_sup_inf_trace, ("horizon", "step"), "horizon-growth trace"),
    "generalized": (_generalized_trace, (None, None), "constant estimate"),
}


def run_constants(cfg: dict):
    """One constants estimator, checked against the config's target, if any;
    any overflowed sample fails the run."""
    estimator = cfg.get("estimator")
    if estimator not in _CONSTANTS:
        raise ModelError(f"unknown constants estimator {estimator!r}")
    read, keys, title = _CONSTANTS[estimator]
    trace_of = read(cfg)
    reps = _reps(cfg)
    target = number(cfg["target"], "target") if "target" in cfg else None
    tol = number(cfg.get("tolerance", 0.05), "tolerance", ge=0)

    def run(rng):
        trace = trace_of(reps, rng)
        est = trace.estimate
        status = "pass" if trace.status == "plateau" else trace.status
        if status == "pass" and target is not None:
            status = "pass" if abs(est.value - target) <= tol * abs(target) else "fail"
        summary = {"estimate": est.value, "stderr": est.stderr, "status": status}
        if "drift_warning" in est.meta:
            summary["warning"] = est.meta["drift_warning"]
        rows = [[*(e.meta.get(k, "") for k in keys), e.value, e.stderr, e.n_reps]
                for e in trace.levels]
        return summary, [
            ("levels.csv", ["level", "step", "value", "stderr", "nReps"], rows, title, 1, 3)
        ], max(map(_overflow, (*trace.levels, est)))
    return run


def run_tail(cfg: dict):
    family = family_from_config(cfg["family"])
    gamma = functional_from_config(cfg.get("functional", "sup"))
    grid = grid_from_config(cfg["grid"])
    u, tau = number(cfg["u"], "u", gt=0), number(cfg.get("tau", 0.0), "tau")
    reps = _reps(cfg)
    estimator = cfg.get("estimator", "conditional")
    if estimator not in ("conditional", "crude"):
        raise ModelError(f"unknown tail estimator {estimator!r}")
    if estimator == "conditional":  # the conditioned tail pivots on t = 0
        grid.origin_index()

    def run(rng):
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
        files = [("tail.csv", *_cell_csv([cell]), "tail ratio", 1, 6)]
        return summary, files, cell["overflow_count"]
    return run


def _audit_constant(cfg: dict, grid):
    """Read the audit's constant: a given value (and stderr), or the window
    constant of an interval as long as the grid, estimated from the stream
    that the returned function is given."""
    doc = cfg["constant"]
    if "value" in doc:
        given = Estimate(number(doc["value"], "value", gt=0),
                         number(doc.get("stderr", 0.0), "stderr", ge=0), 0)
        return lambda rng: given
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


def run_audit(cfg: dict):
    family = family_from_config(cfg["family"])
    gamma = functional_from_config(cfg.get("functional", "sup"))
    grid = grid_from_config(cfg["grid"])
    grid.origin_index()
    constant_of = _audit_constant(cfg, grid)
    u_schedule = _numbers(cfg, "uSchedule", gt=0)
    if not all(a < b for a, b in zip(u_schedule, u_schedule[1:])):  # the verdict is "as u grows"
        raise ModelError("uSchedule must increase strictly")
    reps = _reps(cfg)
    tolerance = number(cfg.get("tolerance", 0.1), "tolerance", ge=0)

    def run(rng):
        constant = constant_of(rng.substream(0))
        report = tailprob.uniform_ratio_audit(
            family, gamma, constant, u_schedule, grid, reps, rng.substream(1),
            tolerance=tolerance,
        )
        urows = [[r["u"], r["max_deviation"], r["passed"]] for r in report.per_u]
        summary = {"constant": constant.value, "constantStderr": constant.stderr,
                   "maxDeviations": [r["max_deviation"] for r in report.per_u],
                   "status": "pass" if report.passed else "fail"}
        return summary, [
            ("ratios.csv", *_cell_csv(report.rows), "tail ratios", 2, 6),
            ("audit.csv", ["u", "maxDeviation", "pass"], urows,
             "uniform deviation trace", 1, 2),
        ], max([_overflow(constant), *(r["overflow_count"] for r in report.rows)])
    return run


def run_doublesum(cfg: dict):
    corr = doublesum_correlation_from_config(cfg["model"])
    c1, beta = number(cfg["c1"], "c1"), number(cfg["beta"], "beta")
    ppu = count(cfg.get("pointsPerUnit", 4), "pointsPerUnit")
    reps = _reps(cfg)
    configs = []  # box scale outermost, separation innermost
    geometries: dict = {}  # (box scale, separation) -> its cells, lowest index first
    for i, (s2, u, sep) in enumerate(itertools.product(
        _numbers(cfg, "boxScales"), _numbers(cfg, "uLevels", gt=0),
        _numbers(cfg, "separations", ge=0),
    )):
        box = ((0.0, s2),)
        dcfg = dsmod.DoubleMaximaConfig(
            correlation=corr, cell1=box, cell2=box, offset1=(0.0,),
            offset2=(s2 + sep,), m1_fn=lambda v: v,
            m2_fn=lambda v: v, c1=c1, beta=beta, s2=s2,
        )
        configs.append((dcfg, u))
        geometries.setdefault((s2, sep), []).append(i)

    def run(rng):
        # the levels of one geometry share its draw, from its lowest cell's substream
        def _one(cells):
            c = configs[cells[0]][0]
            return dsmod.estimate_double_maxima(c, [configs[i][1] for i in cells],
                                                round(ppu * c.s2) + 1, reps,
                                                rng.substream(cells[0]))

        groups = list(geometries.values())
        by_cell = {i: est for cells, ests in zip(groups, cell_map(_one, groups))
                   for i, est in zip(cells, ests)}
        estimates = [by_cell[i] for i in range(len(configs))]
        report = dsmod.fit_bound_constant(configs, estimates)
        rows = [
            [r["separation"], r["s2"], r["u"], r["d_hat"],
             estimates[i].stderr, r["bound"], r["slack"]]
            for i, r in enumerate(report.table)
        ]
        summary = {"fittedC": report.fitted_c, "pass": report.passed,
                   "growingWithSeparation": report.growing_with_separation,
                   "status": "pass" if report.passed else "fail"}
        return summary, [
            ("doublesum.csv", ["sep", "S2", "u", "dHat", "stderr", "bound", "slack"], rows,
             "double-maxima vs bound", 1, 4)
        ], max(map(_overflow, estimates))
    return run


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


def run_formula(cfg: dict):
    """The product formula, cross-checked by the conditioned tail on the
    grid of the config's ``mcCheck`` when it has one."""
    setup = _setup_from_config(cfg["setup"])
    u = number(cfg["u"], "u", gt=0)
    cdoc = cfg.get("constants", {})
    constants = {
        "per_unit": [number(x, "perUnit", gt=0) for x in cdoc.get("perUnit", [])],
        "drifted": [number(x, "drifted", gt=0) for x in cdoc.get("drifted", [])],
    }
    setup.check_constants(constants["per_unit"], constants["drifted"])
    if "field" in cdoc:
        constants["field"] = number(cdoc["field"], "field", gt=0)
    check = "mcCheck" in cfg
    if check:
        mc = cfg["mcCheck"]
        family = family_from_config(mc["family"])
        reps = _reps(mc)
        grid = grid_from_config(mc["grid"])
        grid.origin_index()
        tol = number(mc.get("tolerance", 0.15), "tolerance", ge=0)

    def run(rng):
        result = tailprob.eval_mainm_formula(setup, u, constants)
        summary = {"value": result.value, "factors": result.factors, "status": "pass"}
        rows, overflow = [[u, result.value, "", ""]], 0
        if check:
            cell = tailprob.tail_cell(family, FunctionalSpec.sup(), u, 0.0, grid, reps,
                                      rng.substream(0))
            value, stderr = cell["p_hat"], cell["stderr"]
            deviation = abs(value - result.value) / result.value
            ok = deviation <= tol + 3 * stderr / result.value
            summary.update(mcEstimate=value, mcStderr=stderr, relativeDeviation=deviation,
                           status="pass" if ok else "fail")
            rows, overflow = [[u, result.value, value, stderr]], cell["overflow_count"]
        return summary, [
            ("formula.csv", ["u", "formula", "mcEstimate", "mcStderr"], rows,
             "formula vs MC", 1, 2)
        ], overflow
    return run


def run_ruin_demo(cfg: dict):
    family = family_from_config(cfg["family"])
    grid = grid_from_config(cfg["grid"])
    grid.origin_index()
    u_schedule = _numbers(cfg, "uSchedule", gt=0)
    reps = _reps(cfg)

    def run(rng):
        def _one(ui):
            return tailprob.tail_cell(family, FunctionalSpec.sup(), u_schedule[ui], 0.0,
                                      grid, reps, rng.substream(ui))

        cells = cell_map(_one, range(len(u_schedule)))
        summary = {"ratios": [c["ratio"] for c in cells], "status": "pass",
                   "note": "qualitative"}
        return summary, [
            ("ruin.csv", *_cell_csv(cells, "g"), "level-crossing tail ratios", 1, 6)
        ], max(c["overflow_count"] for c in cells)
    return run


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


def _load_config(args) -> ConfigView:
    """A view of the run's config: the named preset, or the object in --config."""
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
    cfg = ConfigView(cfg)
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
        with _config_boundary():  # the read phase: every key read, or exit 2
            cfg = _load_config(args)
            if args.seed is None or "seed" in cfg:  # checked under --seed too
                seed = count(cfg["seed"], "seed", ge=0)
            seed = seed if args.seed is None else count(args.seed, "seed", ge=0)
            run = _RUNNERS[args.command](cfg)  # reads every other key
            cfg.close()
        if args.workers != 1:  # bench/workloads.py's audit workload still passes 1
            raise ModelError("--workers is retired: runs choose their own threads")
        budget = _budget()
        _make_out(args.out, made)
        with one_blas_thread():  # the run's bytes do not depend on BLAS threads
            summary, files, overflow = run(RngStream(seed))
    except ModelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"model rejected: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if files is None:  # the run failed, whatever the reason
            _remove_dirs(made)
    if overflow:  # the one overflow rule: any overflowed sample fails the run
        summary.update(status="fail", overflowCount=overflow)
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
    print(f"{args.command}: {summary['status']}")
    return EXIT_PASS if summary["status"] == "pass" else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
