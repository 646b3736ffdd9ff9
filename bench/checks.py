"""Output checks and time-to-accuracy inputs for each preset of the workloads.

``reference(preset, cfg)`` computes a preset's independent reference once
per benchmark invocation (bench/refs.py, no gexr).  ``check(preset, cfg,
ref, out)`` compares one run's output files with it and returns the failed
checks, together with the outputs' accuracy weight.  A Monte Carlo value
passes when it lies within z * stderr of its reference, z sized so that the
chance of a false alarm over all k values a preset reports is FALSE_ALARM
(Bonferroni); binomial cells use exact binomial tails at the same level.
Where a preset reports several values from independent streams, their mean
deviation must also pass, which finds a bias too small to show in any one
value.  ``accuracy_weight(preset, out)`` turns the estimates that count
towards ``tts_s`` into the factor that multiplies the call's wall time.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import special, stats

import refs

FALSE_ALARM = 1e-6

# Extra relative allowance for grid bias left after the step extrapolation,
# where a pickands level is compared with its continuous-time value.
PICKANDS_GRID_BIAS = 0.025


def z_for(k: int) -> float:
    return float(-special.ndtri(FALSE_ALARM / (2 * k)))


def read_rows(out: str, name: str) -> list[dict]:
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(out: str) -> dict:
    with open(os.path.join(out, "results.json")) as fh:
        return json.load(fh)["summary"]


def _within(label, value, ref, stderr, z, allowance=0.0) -> list[str]:
    tol = z * stderr + allowance * abs(ref)
    if math.isfinite(value) and abs(value - ref) <= tol:
        return []
    return [f"{label}: {value:.6g} vs reference {ref:.6g} (tolerance {tol:.3g})"]


def _pooled(label, zs) -> list[str]:
    """Stouffer test of independent standardised deviations."""
    pooled = sum(zs) / math.sqrt(len(zs))
    if abs(pooled) <= z_for(1):
        return []
    return [f"{label}: mean deviation {pooled:.2f} sd over {len(zs)} values"]


def _grid(doc: dict) -> np.ndarray:
    (lo, hi, n), = doc["perAxis"]
    return np.linspace(float(lo), float(hi), int(n))


def _markov_step(points: np.ndarray, u: float, alpha: float) -> float:
    """Step correlation of r = exp(-|d|^alpha / u^2) on an even grid (alpha = 1)."""
    if alpha != 1.0:
        raise ValueError("the exact reference needs the Markov case alpha = 1")
    step = float(points[1] - points[0])
    return math.exp(-step / u**2)


def _local_threshold(family: dict, u: float, tau: float) -> float:
    return u * (1.0 + float(family.get("tauSpread", 0.0)) * tau / u**2)


def _box_points(cfg: dict, s2: float, sep: float):
    ppa = max(2, int(round(int(cfg.get("pointsPerUnit", 4)) * s2)) + 1)
    return np.linspace(0.0, s2, ppa), np.linspace(s2 + sep, 2 * s2 + sep, ppa)


def _doublesum_cells(cfg: dict):
    """Cells in CSV order: box scale, then level, then separation."""
    return [(float(s2), float(u), float(sep))
            for s2 in cfg["boxScales"] for u in cfg["uLevels"] for sep in cfg["separations"]]


def _binomial_failures(label, hits, n, lo, hi, k) -> list[str]:
    """Fail when the hit count is implausibly low for p = lo or high for p = hi."""
    level = FALSE_ALARM / (2 * k)
    if stats.binom.cdf(hits, n, lo) < level or stats.binom.sf(hits - 1, n, hi) < level:
        return [f"{label}: {hits}/{n} hits outside [{lo:.4g}, {hi:.4g}]"]
    return []


# ---------------------------------------------------------------------------
# references


def _ref_pickands(cfg):
    if cfg["eta"] != {"fbm": 1.0}:
        raise ValueError("the random-walk reference needs the fbm(1) field")
    sizes = [float(S) for S in cfg["schedule"]["domainSizes"]]
    step = min(cfg["schedule"]["gridSteps"])
    # the estimator extrapolates steps h and 2h linearly in step^(alpha/2)
    factor = 1.0 / (math.sqrt(2.0) - 1.0)
    levels = {}
    for S in sizes:
        fine = refs.random_walk_sup_exp(int(round(S / step)), step)
        coarse = refs.random_walk_sup_exp(int(round(S / (2 * step))), 2 * step)
        levels[S] = fine + (fine - coarse) * factor
    return {"levels": levels,
            "quotient": (levels[sizes[-1]] - levels[sizes[-2]]) / (sizes[-1] - sizes[-2]),
            "continuous": {S: refs.reflection_sup_exp(S) for S in sizes}}


def _ref_piterbarg(cfg):
    drift = cfg["drift"]
    if cfg["eta"] != {"fbm": 2.0} or drift["kind"] != "power" or drift["exponent"] != 2.0:
        raise ValueError("the envelope reference needs fbm(2) with a quadratic drift")
    if cfg.get("domain") != "symmetric":
        raise ValueError("the envelope reference is written for the symmetric domain")
    step = min(cfg["schedule"]["gridSteps"])
    out = {}
    for S in cfg["schedule"]["domainSizes"]:
        n = int(round(S / step))
        out[float(S)] = refs.quadratic_field_grid_constant(
            np.linspace(-S, S, 2 * n + 1), float(drift["coeff"]))
    return out


def _ref_audit(cfg):
    family = cfg["family"]
    if family["kind"] != "local":
        raise ValueError("the Markov reference needs the local family")
    pts = _grid(cfg["grid"])
    window = cfg["constant"]["windowConstant"]
    if window["eta"] != {"fbm": 1.0}:
        raise ValueError("the random-walk reference needs the fbm(1) field")
    constant = refs.random_walk_sup_exp(len(pts) - 1, float(pts[1] - pts[0]))
    count = int(family.get("tauCount", 1))
    taus = np.linspace(0.0, 1.0, count) if count > 1 else np.zeros(1)
    out = []
    for u in cfg["uSchedule"]:
        rho = _markov_step(pts, float(u), float(family.get("alpha", 1.0)))
        for tau in taus:
            g = _local_threshold(family, float(u), float(tau))
            out.append((float(u), refs.markov_exceedance_extrapolated(
                np.full(len(pts) - 1, rho), np.full(len(pts), g))))
    return {"cells": out, "constant": constant}


def _ref_tail(cfg):
    family = cfg["family"]
    if family["kind"] != "local" or cfg.get("functional", "sup") != "sup":
        raise ValueError("the Markov reference needs the local family and sup")
    pts = _grid(cfg["grid"])
    u = float(cfg["u"])
    rho = _markov_step(pts, u, float(family.get("alpha", 1.0)))
    g = _local_threshold(family, u, float(cfg.get("tau", 0.0)))
    return refs.markov_exceedance_extrapolated(np.full(len(pts) - 1, rho), np.full(len(pts), g))


def _ref_formula(cfg):
    mc = cfg["mcCheck"]
    family = mc["family"]
    if family["kind"] != "scaled-threshold" or "coarseGrid" in mc:
        raise ValueError("the Markov reference needs the scaled-threshold family, one grid")
    pts = _grid(mc["grid"])
    u = float(cfg["u"])
    rho = _markov_step(pts, u, float(family.get("alpha", 1.0)))
    drift = np.abs(pts) ** float(family.get("exponent", 2.0)) / u ** float(family.get("gExponent", 4.0))
    # {Z / (1 + h) > u} = {Z > u (1 + h)}: a moving barrier
    return refs.markov_exceedance_extrapolated(np.full(len(pts) - 1, rho), u * (1.0 + drift), 3.0)


def _ref_doublesum(cfg):
    model = cfg["model"]
    out = {}
    for s2, u, sep in _doublesum_cells(cfg):
        a, b = _box_points(cfg, s2, sep)
        if model["kind"] == "flat":
            p = refs.flat_double_maxima(float(model.get("rho", 0.9)), u, a, b)
            out[(s2, u, sep)] = (p, p)
        elif model["kind"] == "gaussian":
            out[(s2, u, sep)] = refs.gaussian_double_maxima_bounds(u, a, b)
        else:
            raise ValueError(f"no reference for doublesum model {model['kind']!r}")
    return out


# ---------------------------------------------------------------------------
# checks


def _check_pickands(cfg, ref, out):
    rows = read_rows(out, "levels.csv")
    summary = read_summary(out)
    z = z_for(len(rows) + 1)
    # exact grid values: the estimator is unbiased for them
    fails = _within("difference quotient", summary["estimate"], ref["quotient"],
                    summary["stderr"], z)
    # the per-unit constant of the linear-variance field is exactly 1
    fails += _within("H1", summary["estimate"], 1.0, summary["stderr"], z, 0.02)
    for row in rows:
        S, value, se = float(row["level"]), float(row["value"]), float(row["stderr"])
        fails += _within(f"level S={S:g}", value, ref["levels"][S], se, z)
        fails += _within(f"level S={S:g} (continuous)", value, ref["continuous"][S], se, z,
                         PICKANDS_GRID_BIAS)
    return fails


def _check_levels(cfg, ref, out):
    rows = read_rows(out, "levels.csv")
    z = z_for(len(rows))
    fails, zs = [], []
    for row in rows:
        S, value, se = float(row["level"]), float(row["value"]), float(row["stderr"])
        fails += _within(f"level S={S:g}", value, ref[S], se, z)
        zs.append((value - ref[S]) / se)
    return fails + _pooled("levels", zs)


def _check_tail(cfg, ref, out):
    row, = read_rows(out, "tail.csv")
    return _within("pHat", float(row["pHat"]), ref, float(row["stderr"]), z_for(1))


def _check_audit(cfg, ref, out):
    rows = read_rows(out, "ratios.csv")
    cells = ref["cells"]
    if len(rows) != len(cells):
        return [f"{len(rows)} audit cells, expected {len(cells)}"]
    z = z_for(len(rows) + 1)
    summary = read_summary(out)
    fails = _within("window constant", summary["constant"], ref["constant"],
                    summary["constantStderr"], z)
    zs = []
    for i, (row, (u, p)) in enumerate(zip(rows, cells)):
        if float(row["u"]) != u:
            return [f"cell {i}: u={row['u']}, expected {u}"]
        value, se = float(row["pHat"]), float(row["stderr"])
        fails += _within(f"cell {i} (u={u:g})", value, p, se, z)
        zs.append((value - p) / se)
    return fails + _pooled("audit cells", zs)


def _check_doublesum(cfg, ref, out):
    rows = read_rows(out, "doublesum.csv")
    reps = int(cfg["reps"])
    fails, zs = [], []
    for row in rows:
        key = (float(row["S2"]), float(row["u"]), float(row["sep"]))
        hits = int(round(float(row["dHat"]) * reps))
        lo, hi = ref[key]
        fails += _binomial_failures(f"cell S2={key[0]:g} u={key[1]:g} sep={key[2]:g}",
                                    hits, reps, lo, hi, len(ref))
        zs.append((hits - reps * lo) / math.sqrt(reps * lo * (1 - lo)))
    if len(rows) != len(ref):
        fails.append(f"{len(rows)} doublesum cells, expected {len(ref)}")
    if cfg["model"]["kind"] == "flat":  # exact references
        fails += _pooled("cells", zs)
        if not read_summary(out)["growingWithSeparation"]:
            fails.append("flat correlation: the growth flag is not set")
    return fails


def _check_formula(cfg, ref, out):
    row, = read_rows(out, "formula.csv")
    return _within("mcEstimate", float(row["mcEstimate"]), ref, float(row["mcStderr"]), z_for(1))


def reference(preset: str, cfg: dict):
    return _PRESETS[preset][0](cfg)


def check(preset: str, cfg: dict, ref, out: str) -> tuple[list[str], float | None]:
    """The failed checks of one call's outputs and their accuracy weight.

    Outputs that cannot be read, or whose estimates have no relative error,
    give one failed check and no weight.
    """
    try:
        return _PRESETS[preset][1](cfg, ref, out), accuracy_weight(preset, out)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"], None


# ---------------------------------------------------------------------------
# time-to-accuracy inputs


def _rse(value, stderr) -> float:
    return float(stderr) / abs(float(value))


def _levels_estimates(out):
    rows = read_rows(out, "levels.csv")
    return [(1.0 / len(rows), _rse(r["value"], r["stderr"])) for r in rows]


def _doublesum_estimates(counted):
    """Binomial cells with a few hits swing with any change of draw order,
    so only the listed cells (hundreds of hits) count."""
    def pick(out):
        rows = read_rows(out, "doublesum.csv")
        return [(1.0 / len(rows), _rse(r["dHat"], r["stderr"])) for r in rows
                if counted(float(r["S2"]), float(r["u"]), float(r["sep"]))]
    return pick


def _audit_estimates(out):
    rows = read_rows(out, "ratios.csv")
    summary = read_summary(out)
    share = 1.0 / (len(rows) + 1)  # the cells and the window constant
    return [(share, _rse(r["pHat"], r["stderr"])) for r in rows] + [
        (share, _rse(summary["constant"], summary["constantStderr"]))]


def _single(fname, value, stderr):
    def pick(out):
        row, = read_rows(out, fname)
        return [(1.0, _rse(row[value], row[stderr]))]
    return pick


def _pickands_estimates(out):
    summary = read_summary(out)
    return [(1.0, _rse(summary["estimate"], summary["stderr"]))]


def accuracy_weight(preset: str, out: str) -> float:
    """Sum of share * (rse / 1%)^2: multiplied by the call's wall time it is
    the time the call would need for 1% relative stderr on what it counts."""
    return sum(share * (rse / 0.01) ** 2 for share, rse in _PRESETS[preset][2](out))


# preset -> (reference, check, estimates counted in tts_s)
_PRESETS = {
    "pickands-alpha-1": (_ref_pickands, _check_pickands, _pickands_estimates),
    "piterbarg-gamma": (_ref_piterbarg, _check_levels, _levels_estimates),
    "short-interval-tail": (_ref_tail, _check_tail, _single("tail.csv", "pHat", "stderr")),
    "uniform-audit-stationary": (_ref_audit, _check_audit, _audit_estimates),
    "doublesum-gaussian": (_ref_doublesum, _check_doublesum,
                           _doublesum_estimates(lambda s2, u, sep: u == 2.5 and sep == 0.0)),
    "doublesum-flat": (_ref_doublesum, _check_doublesum,
                       _doublesum_estimates(lambda s2, u, sep: True)),
    "formula-product-1d": (_ref_formula, _check_formula,
                           _single("formula.csv", "mcEstimate", "mcStderr")),
}
