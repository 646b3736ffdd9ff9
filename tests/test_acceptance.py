"""End-to-end acceptance gate.

Each test covers one headline claim of the package at its stated tolerance
and prints a single PASS/FAIL line (bypassing capture) so the whole gate is
auditable from the test log.  Oracles are independent of the estimator code
paths: reflection-principle and normal-quadrature closed forms, exact
multivariate-normal grid probabilities, and analytic covariances.
"""

import math
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from gexr.configio import doublesum_correlation_from_config, family_from_config
from gexr.constants import (
    estimate_generalized_constant,
    estimate_generalized_piterbarg,
    estimate_pickands,
    window_sup_levels,
)
from gexr.covmodels import (
    DriftFunction,
    LimitFieldSpec,
    VarianceFunction,
)
from gexr.doublesum import DoubleMaximaConfig, estimate_double_maxima, fit_bound_constant
from gexr.functionals import FunctionalSpec, apply_functional
from gexr.mc import Estimate, ExtrapolationSchedule, combine_stderr
from gexr.rng import RngStream
from gexr.simkit import (
    FbmSampler,
    GridSpec,
    LimitFieldSampler,
    ResidualSampler,
    StatIncrSampler,
)
from gexr.tailprob import (
    ConditionalSampler,
    conditional_tail,
    crude_mc_tail,
    survival_psi,
    uniform_ratio_audit,
)
from gexr import cli
from gexr.presets import preset_config

SUP = FunctionalSpec.sup()


def report(capsys, num: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{label}]: {verdict}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert ok, line


# --- closed-form oracles ----------------------------------------------------


def brownian_interval_constant(S: float) -> float:
    """Continuum E[sup_{[0,S]} exp(sqrt2 B(t) - t)] by the reflection principle."""
    c, T = 0.5, 2.0 * S

    def tail(x):
        rt = math.sqrt(T)
        return norm.sf((x + c * T) / rt) + math.exp(-2 * c * x) * norm.sf(
            (x - c * T) / rt
        )

    val, _ = integrate.quad(lambda x: math.exp(x) * tail(x), 0, 200, limit=400)
    return 1.0 + val


def quadratic_grid_constant(t_grid: np.ndarray) -> float:
    """Exact E[max_grid exp(sqrt2 t Z - t^2)] for the quadratic-variance field."""
    t = np.asarray(t_grid, dtype=float)

    def integrand(z):
        return math.exp(np.max(math.sqrt(2.0) * t * z - t**2)) * norm.pdf(z)

    lo = integrate.quad(integrand, -12, 0, limit=400, full_output=1)[0]
    hi = integrate.quad(integrand, 0, 12, limit=800, full_output=1)[0]
    return lo + hi


PICKANDS_SCHEDULE = ExtrapolationSchedule(
    domain_sizes=(2.0, 4.0, 8.0, 16.0), grid_steps=(1 / 32, 1 / 64), stop_rule=0.02
)


# --- 1, 2: long-domain per-unit constants -----------------------------------


def test_criterion_1_per_unit_constant_linear_variance(capsys):
    trace = estimate_pickands(
        LimitFieldSpec.fbm(1.0), PICKANDS_SCHEDULE, 100_000, RngStream(20260801)
    )
    oracle = (brownian_interval_constant(16.0) - brownian_interval_constant(8.0)) / 8.0
    ok = (
        abs(trace.value - 1.0) <= 0.05
        and trace.status == "plateau"
        and abs(trace.value - oracle) <= 0.03 * oracle + 3 * trace.estimate.stderr
    )
    report(
        capsys,
        1,
        "per-unit sup constant, linear variance",
        ok,
        f"value={trace.value:.4f} target=1.0000 oracle={oracle:.4f} "
        f"status={trace.status}",
    )


def test_criterion_2_per_unit_constant_quadratic_variance(capsys):
    trace = estimate_pickands(
        LimitFieldSpec.fbm(2.0), PICKANDS_SCHEDULE, 40_000, RngStream(20260802)
    )
    target = 1.0 / math.sqrt(math.pi)
    level_ok = all(
        abs(e.value - (1.0 + e.meta["domain"] / math.sqrt(math.pi)))
        <= 0.03 * (1.0 + e.meta["domain"] / math.sqrt(math.pi))
        for e in trace.levels
    )
    ok = abs(trace.value - target) <= 0.05 * target and level_ok
    report(
        capsys,
        2,
        "per-unit sup constant, quadratic variance",
        ok,
        f"value={trace.value:.4f} target={target:.4f} levels_ok={level_ok}",
    )


# --- 3: short-interval tail ratio vs the matched-grid constant ---------------


@pytest.mark.parametrize("alpha,n_reps", [(1.0, 100_000), (2.0, 200_000)])
def test_criterion_3_short_interval_asymptotics(alpha, n_reps, capsys):
    u, T, n_pts = 5.0, 2.0, 65
    fam = family_from_config({"kind": "stationary", "alpha": alpha})
    hi = T * u ** (-2.0 / alpha)
    grid = GridSpec.line(0.0, hi, n_pts)
    cond = conditional_tail(
        ConditionalSampler(fam, u, 0.0, grid),
        SUP,
        n_reps,
        RngStream(20260812, (int(alpha),)),
    )
    psi = survival_psi(u)
    ratio = Estimate(cond.value / psi, cond.stderr / psi, n_reps)
    # same local increments: u^2 (1 - r) ~ (matched step)^alpha on [0, T]
    step = T / (n_pts - 1)
    h_samples = window_sup_levels(
        LimitFieldSpec.fbm(alpha), [T], step, 100_000, RngStream(20260813, (int(alpha),))
    )[0][0][0]
    h_est = Estimate.from_samples(h_samples)
    comb = combine_stderr(ratio, h_est)
    ok = abs(ratio.value - h_est.value) <= 3 * comb
    report(
        capsys,
        3,
        f"short-interval tail ratio, exponent {alpha:g}",
        ok,
        f"ratio={ratio.value:.4f} constant={h_est.value:.4f} "
        f"|diff|={abs(ratio.value - h_est.value):.4f} 3se={3 * comb:.4f}",
    )


# --- 4: uniform-ratio audit over a 21-index family ---------------------------


def test_criterion_4_uniform_ratio_audit(capsys):
    fam = family_from_config(
        {"kind": "local", "alpha": 1.0, "tauSpread": 1.0, "tauCount": 21}
    )
    rng = RngStream(20260805)
    h_est = Estimate.from_samples(
        window_sup_levels(
            LimitFieldSpec.fbm(1.0), [2.0], 1 / 32, 20_000, rng.substream(0)
        )[0][0][0]
    )
    audit = uniform_ratio_audit(
        fam,
        SUP,
        h_est,
        [3.0, 4.0, 5.0],
        GridSpec.line(0.0, 2.0, 65),
        20_000,
        rng.substream(1),
        tolerance=0.1,
    )
    devs = [r["max_deviation"] for r in audit.per_u]
    report(
        capsys,
        4,
        "uniform tail-ratio audit, 21 indices",
        audit.passed,
        "max deviations " + " -> ".join(f"{d:.3f}" for d in devs),
    )


# --- 5: sup-inf constant plateau in the horizon ------------------------------


def test_criterion_5_sup_inf_constant_plateau(capsys):
    schedule = ExtrapolationSchedule(
        domain_sizes=(1.0, 2.0, 4.0, 8.0), grid_steps=(1 / 8,), stop_rule=0.02
    )
    trace = estimate_generalized_piterbarg(
        VarianceFunction.fbm(0.8), 1.0, 2.0, schedule, 60_000, RngStream(20260804)
    )
    vals = [e.value for e in trace.levels]
    tol_pairs = [
        2 * combine_stderr(a, b) for a, b in zip(trace.levels, trace.levels[1:])
    ]
    nondecreasing = all(
        b >= a - tol for a, b, tol in zip(vals, vals[1:], tol_pairs)
    )
    last_gap = abs(vals[-1] - vals[-2])
    settle = last_gap < max(0.02 * abs(vals[-1]), 2 * tol_pairs[-1] / 2)
    ok = nondecreasing and settle
    report(
        capsys,
        5,
        "sup-inf constant, horizon plateau",
        ok,
        "levels " + " -> ".join(f"{v:.4f}" for v in vals),
    )


# --- 6: double-maxima bound fit ----------------------------------------------


def _doublesum_run(preset_name: str):
    cfg = preset_config(preset_name)
    corr = doublesum_correlation_from_config(cfg["model"])
    configs = []
    for s2 in cfg["boxScales"]:
        for u in cfg["uLevels"]:
            for sep in cfg["separations"]:
                configs.append(
                    (
                        DoubleMaximaConfig(
                            correlation=corr,
                            cell1=((0.0, float(s2)),),
                            cell2=((0.0, float(s2)),),
                            offset1=(0.0,),
                            offset2=(float(s2) + float(sep),),
                            m1_fn=lambda v: v,
                            m2_fn=lambda v: v,
                            c1=float(cfg["c1"]),
                            beta=float(cfg["beta"]),
                            s2=float(s2),
                        ),
                        float(u),
                    )
                )
    rng = RngStream(cfg["seed"])
    estimates = [
        estimate_double_maxima(
            c, [u], int(round(cfg["pointsPerUnit"] * c.cell1[0][1])) + 1,
            cfg["reps"], rng.substream(i),
        )[0]
        for i, (c, u) in enumerate(configs)
    ]
    return fit_bound_constant(configs, estimates)


def test_criterion_6_double_maxima_bound(capsys):
    fit = _doublesum_run("doublesum-gaussian")
    finite = math.isfinite(fit.fitted_c) and fit.passed
    slack_ok = all(row["slack"] >= -1e-15 for row in fit.table)
    # the bound must open real slack once the boxes separate: at every
    # (box scale, level) pair the slack at separation 1 exceeds the one at
    # separation 0.  (Beyond separation ~1 the joint probability saturates
    # at the independent product, so slack levels off rather than growing.)
    groups: dict = {}
    for row in fit.table:
        groups.setdefault((row["s2"], row["u"]), {})[row["separation"]] = row["slack"]
    opening = all(g[1.0] > g[0.0] for g in groups.values())
    flat = _doublesum_run("doublesum-flat")
    flagged = flat.growing_with_separation and not flat.passed
    ok = finite and slack_ok and opening and flagged
    report(
        capsys,
        6,
        "double-maxima bound fit + counterexample",
        ok,
        f"fittedC={fit.fitted_c:.3f} slack>=0={slack_ok} "
        f"slack opens 0->1 in all groups={opening} flat flagged={flagged}",
    )


# --- 7: estimator cross-validation -------------------------------------------


def test_criterion_7_crude_vs_conditional(capsys):
    gen = RngStream(20260814).generator()
    worst = 0.0
    ok = True
    for k in range(10):
        alpha = float(gen.uniform(0.6, 2.0))
        u = float(gen.uniform(1.8, 2.5))
        hi = float(gen.uniform(0.5, 1.5))
        n_pts = int(gen.choice([9, 17, 33]))
        fam = family_from_config({"kind": "stationary", "alpha": alpha})
        grid = GridSpec.line(0.0, hi, n_pts)
        crude = crude_mc_tail(
            fam, u, 0.0, SUP, grid, 150_000, RngStream(20260815, (k, 0))
        )
        cond = conditional_tail(
            ConditionalSampler(fam, u, 0.0, grid),
            SUP,
            40_000,
            RngStream(20260815, (k, 1)),
        )
        comb = combine_stderr(crude, cond)
        z = abs(crude.value - cond.value) / comb if comb > 0 else 0.0
        worst = max(worst, z)
        ok = ok and z <= 3.0
    report(
        capsys,
        7,
        "crude vs conditional tail, 10 random instances",
        ok,
        f"worst |z| = {worst:.2f} (limit 3)",
    )


# --- 8: generator covariances ------------------------------------------------


def test_criterion_8_generator_covariances(capsys):
    n = 10_000
    band = 6.0 / math.sqrt(n)
    failures = []

    def check(name, paths, exact):
        emp = paths.T @ paths / len(paths)
        dev = float(np.max(np.abs(emp - exact)))
        if dev > band * max(1.0, float(np.max(np.abs(exact)))):
            failures.append(f"{name} dev={dev:.4f}")
        return dev

    def incr_cov(vf, t):
        return 0.5 * (
            vf(np.abs(t))[:, None]
            + vf(np.abs(t))[None, :]
            - vf(np.abs(t[:, None] - t[None, :]))
        )

    # two-sided fBm sampler (white increments at alpha = 1)
    fbm = FbmSampler(1.0, 0.25, n_right=8, n_left=4)
    t = fbm.grid_values()
    check("fbm", fbm.sample(RngStream(20260816, (0,)).generator(), n),
          incr_cov(VarianceFunction.fbm(1.0), t))
    # Cholesky sampler on non-uniform lags
    vf = VarianceFunction.sum_of_fbm([1.0, 0.5], [0.7, 1.6])
    t2 = np.array([0.0, 0.13, 0.5, 0.9, 1.7, 2.2])
    check("statincr", StatIncrSampler(vf, t2).sample(
        RngStream(20260816, (1,)).generator(), n), incr_cov(vf, t2))
    # additive limit field
    eta = LimitFieldSpec.fbm(1.4)
    grid = GridSpec.line(0.0, 2.0, 9)
    check("limitfield",
          LimitFieldSampler(eta, grid).sample(RngStream(20260816, (2,)).generator(), n),
          incr_cov(VarianceFunction.fbm(1.4), grid.axis_values(0)))
    # conditional residual of a stationary family
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    rgrid = GridSpec.line(0.0, 1.0, 9)
    s = rgrid.axis_values(0)
    r = np.exp(-np.abs(s[:, None] - s[None, :]))
    r0 = np.exp(-np.abs(s))
    check("residual",
          ResidualSampler(fam, 1.0, 0.0, rgrid)
          .sample(RngStream(20260816, (3,)).generator(), n).reshape(n, -1),
          r - np.outer(r0, r0))
    # increment independence of the linear-variance path
    incr = np.diff(FbmSampler(1.0, 1.0, n_right=20)
                   .sample(RngStream(20260816, (4,)).generator(), n), axis=1)
    corr = np.corrcoef(incr.T)
    off = np.abs(corr - np.eye(20))
    if float(off.max()) > 3.0 / math.sqrt(n) + 0.02:
        failures.append(f"increment correlation {float(off.max()):.4f}")
    ok = not failures
    report(
        capsys,
        8,
        "generator covariances, max-entry band 6/sqrt(N)",
        ok,
        "; ".join(failures) if failures else f"all four generators within {band:.3f}",
    )


# --- 9: exact identities -----------------------------------------------------


def test_criterion_9_exact_identities(capsys):
    eps = np.finfo(float).eps
    gen = RngStream(20260817).generator()
    paths = gen.standard_normal((1000, 12)) * 10
    specs = [
        SUP,
        FunctionalSpec.inf(),
        FunctionalSpec.mix(0.25),
        FunctionalSpec.mix(1.0),
        FunctionalSpec.composed(FunctionalSpec.inf(), s_axes=(0,)),
    ]
    a = gen.uniform(0.5, 2.0, size=1000)
    b = gen.uniform(-3.0, 3.0, size=1000)
    affine_ok = True
    worst = 0.0
    for spec in specs:
        for i in range(1000):
            base = apply_functional(spec, paths[i].reshape(3, 4), grid_ndim=2)
            lhs = apply_functional(spec, a[i] * paths[i].reshape(3, 4) + b[i], grid_ndim=2)
            scale = abs(a[i]) * float(np.max(np.abs(paths[i]))) + abs(b[i])
            err = abs(lhs - (a[i] * base + b[i]))
            worst = max(worst, err / max(scale, 1.0))
            affine_ok = affine_ok and err <= 8 * eps * max(scale, 1.0)
    origin = estimate_generalized_constant(
        LimitFieldSpec.fbm(1.0), DriftFunction.zero(), SUP,
        GridSpec(((0.0, 0.0, 1),)), 100, RngStream(1),
    )
    origin_ok = origin.value == 1.0 and origin.stderr == 0.0
    h = DriftFunction(fn=lambda t: np.atleast_2d(t)[:, 0] ** 2)
    degen0 = estimate_generalized_constant(
        LimitFieldSpec.degenerate_field(1), h, SUP,
        GridSpec.line(-1.0, 1.0, 9), 100, RngStream(1),
    )
    degen1 = estimate_generalized_constant(
        LimitFieldSpec.degenerate_field(1), h, SUP,
        GridSpec.line(1.0, 2.0, 5), 100, RngStream(1),
    )
    degen_ok = degen0.value == 1.0 and abs(degen1.value - math.exp(-1.0)) < 1e-14
    ok = affine_ok and origin_ok and degen_ok
    report(
        capsys,
        9,
        "exact identities: affine law, one-point and degenerate constants",
        ok,
        f"worst affine err {worst:.2e} (limit {8 * eps:.2e}); "
        f"origin={origin_ok} degenerate={degen_ok}",
    )


# --- 10: product formula vs Monte Carlo --------------------------------------


def test_criterion_10_formula_vs_mc(monkeypatch, capsys):
    monkeypatch.delenv("GEXR_BUDGET", raising=False)
    # estimate the per-unit constant in-pipeline rather than assuming 1.0
    trace = estimate_pickands(
        LimitFieldSpec.fbm(1.0),
        ExtrapolationSchedule(
            domain_sizes=(2.0, 4.0, 8.0, 16.0), grid_steps=(1 / 32, 1 / 64),
            stop_rule=0.02,
        ),
        20_000,
        RngStream(20260818),
    )
    cfg = preset_config("formula-product-1d")
    cfg["constants"]["perUnit"] = [trace.value]
    summary, _, overflow = cli.run_formula(cfg)(RngStream(cfg["seed"]))
    # require the central deviation inside the band, not merely
    # "not rejected given the Monte Carlo noise"; an overflowed sample fails
    ok = (summary["status"] == "pass" and overflow == 0
          and summary["relativeDeviation"] <= 0.15)
    report(
        capsys,
        10,
        "product asymptotics vs conditional MC at m=4",
        ok,
        f"perUnit={trace.value:.4f} formula={summary['value']:.3e} "
        f"mc={summary['mcEstimate']:.3e} relDev={summary['relativeDeviation']:.3f}",
    )
