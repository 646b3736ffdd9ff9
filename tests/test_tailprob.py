"""Tail estimators, the conditioning identity, audits, closed-form evaluators.

The strongest oracle here is the multivariate-normal orthant probability on
small grids, which gives the exact finite-threshold tail to compare both
estimators against: scipy's qmc-based CDF in general, and an exact 1-D
transfer recursion where the cell is a Markov chain.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal, norm

from gexr.covmodels import ModelError, ThresholdedFamilySpec
from gexr.configio import family_from_config
from gexr import tailprob
from gexr.functionals import FunctionalSpec
from gexr.mc import Estimate
from gexr.rng import RngStream
from gexr.simkit import GridSpec, SimulationError
from gexr.tailprob import (
    AsymptoticSetup,
    ConditionalSampler,
    conditional_tail,
    crude_mc_tail,
    eval_mainm_formula,
    survival_psi,
    uniform_ratio_audit,
)

SUP = FunctionalSpec.sup()


def exact_sup_tail(corr: np.ndarray, level: float) -> float:
    """1 - P(all coordinates <= level) via the multivariate normal CDF."""
    n = corr.shape[0]
    mvn = multivariate_normal(mean=np.zeros(n), cov=corr, allow_singular=True, seed=0)
    return 1.0 - float(mvn.cdf(np.full(n, level)))


# ---------------------------------------------------------------------------
# survival function


def test_psi_oracles():
    assert survival_psi(0.0) == pytest.approx(0.5, abs=1e-15)
    assert survival_psi(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    assert survival_psi(np.array([0.0, 1.0]))[1] == pytest.approx(0.1586552539)


def test_psi_mills_ratio_sandwich():
    for x in range(1, 11):
        phi = norm.pdf(x)
        assert phi / x * (1 - 1 / x**2) <= survival_psi(x) <= phi / x
    # far tail stays within 1% of the Mill's bracket
    x = 10.0
    assert survival_psi(x) == pytest.approx(norm.pdf(x) / x, rel=0.011)


def test_tail_row_rejects_an_underflowed_psi():
    row = tailprob.tail_row(5.0, 0.5, Estimate(1e-6, 1e-8, 100, {"g": 5.0}))
    assert row["ratio"] == 1e-6 / row["psi"]
    # Psi(40) is below the smallest double: no ratio to report
    with pytest.raises(SimulationError, match=r"u = 40, tau = 0.5 \(g = 40\)"):
        tailprob.tail_row(40.0, 0.5, Estimate(0.0, 0.0, 100, {"g": 40.0}))


# ---------------------------------------------------------------------------
# conditioning identity: exact reductions


@pytest.mark.parametrize("g", [3.0, 5.0, 8.0])
def test_single_point_domain_equals_psi(g):
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    sampler = ConditionalSampler(fam, g, 0.0, GridSpec(((0.0, 0.0, 1),)))
    est = conditional_tail(sampler, SUP, 500, RngStream(1))
    assert est.value == pytest.approx(survival_psi(g), rel=1e-12)
    assert est.stderr <= 1e-15  # the one point is pinned: only rounding remains


def test_fully_correlated_family_equals_psi():
    fam = ThresholdedFamilySpec(
        correlation=lambda u, tau, s, t: np.ones((len(np.atleast_2d(s)), len(np.atleast_2d(t)))),
        threshold=lambda u, tau: u,
    )
    sampler = ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 1.0, 5))
    est = conditional_tail(sampler, SUP, 500, RngStream(1))
    assert est.value == pytest.approx(survival_psi(4.0), rel=1e-10)


def test_threshold_must_be_positive():
    fam = ThresholdedFamilySpec(
        correlation=lambda u, tau, s, t: np.exp(
            -np.abs(np.atleast_2d(s)[:, None, 0] - np.atleast_2d(t)[None, :, 0])
        ),
        threshold=lambda u, tau: -10.0,
    )
    with pytest.raises(ModelError):
        ConditionalSampler(fam, 1.0, 0.0, GridSpec.line(0.0, 1.0, 3))


def test_grid_must_contain_origin():
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    with pytest.raises(ModelError):
        ConditionalSampler(fam, 3.0, 0.0, GridSpec.line(1.0, 2.0, 5))


# ---------------------------------------------------------------------------
# estimators vs the exact orthant oracle


def test_conditional_matches_orthant_oracle():
    fam = family_from_config({"kind": "stationary", "alpha": 2.0})
    u = 3.0
    grid = GridSpec.line(0.0, 2.0 / u, 9)
    exact = exact_sup_tail(fam.corr_matrix(u, 0.0, grid.points()), u)
    sampler = ConditionalSampler(fam, u, 0.0, grid)
    est = conditional_tail(sampler, SUP, 100_000, RngStream(61))
    assert abs(est.value - exact) < 3 * est.stderr + 1e-5


def test_crude_matches_orthant_oracle():
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    u = 2.0
    grid = GridSpec.line(0.0, 0.5, 7)
    exact = exact_sup_tail(fam.corr_matrix(u, 0.0, grid.points()), u)
    est = crude_mc_tail(fam, u, 0.0, SUP, grid, 200_000, RngStream(62))
    lo, hi = est.meta["ci_exact"]
    assert lo - 1e-4 <= exact <= hi + 1e-4


def test_crude_vs_conditional_cross_validation():
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    u = 2.0
    grid = GridSpec.line(0.0, 0.5, 9)
    crude = crude_mc_tail(fam, u, 0.0, SUP, grid, 200_000, RngStream(63))
    cond = conditional_tail(
        ConditionalSampler(fam, u, 0.0, grid), SUP, 50_000, RngStream(64)
    )
    comb = math.sqrt(crude.stderr**2 + cond.stderr**2)
    assert abs(crude.value - cond.value) < 3 * comb


def test_crude_low_confidence_flag():
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    est = crude_mc_tail(
        fam, 20.0, 0.0, SUP, GridSpec.line(0.0, 0.5, 5), 2000, RngStream(1)
    )
    assert est.meta["hits"] == 0
    assert est.meta["low_confidence"]


def markov_orthant_below(rho: float, n: int, level: float) -> float:
    """P(X_i <= -level for i < n) for a unit-variance AR(1) chain, corr rho.

    The transfer recursion f_i(y) = int_{x <= -level} f_{i-1}(x)
    phi((y - rho x)/s)/s dx, s = sqrt(1 - rho^2), on composite
    Gauss-Legendre nodes over [-level - 8, -level]: 40 panels of 8 nodes
    agree with 320 panels of 20 to 3e-16 relative at rho = 0.993.
    """
    x, v = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-level - 8.0, -level, 41)
    half = np.diff(edges)[:, None] / 2
    nodes = (edges[:-1, None] + half * (x + 1)).ravel()
    weights = (half * v).ravel()
    s = math.sqrt(1.0 - rho * rho)
    kernel = norm.pdf((nodes[:, None] - rho * nodes[None, :]) / s) / s
    f = norm.pdf(nodes)
    for _ in range(n - 1):
        f = kernel @ (weights * f)
    return float(weights @ f)


def test_conditional_matches_inf_orthant_oracle():
    # P(inf Z > u) = P(Z <= -u on every point), by symmetry
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    u = 3.0
    grid = GridSpec.line(0.0, 0.5, 9)
    corr = fam.corr_matrix(u, 0.0, grid.points())
    # exponential correlation on an even grid: the cell is an AR(1) chain
    rho = corr[0, 1]
    lags = np.abs(np.subtract.outer(np.arange(9), np.arange(9)))
    np.testing.assert_allclose(corr, rho**lags, rtol=1e-14, atol=0.0)
    exact = markov_orthant_below(rho, 9, u)
    # scipy's randomized MVN CDF at abseps=1e-12 reads 6.178574e-4 (seed 0)
    # and 6.178580e-4 (seed 1)
    assert exact == pytest.approx(6.17857e-4, rel=2e-6)
    sampler = ConditionalSampler(fam, u, 0.0, grid)
    est = conditional_tail(sampler, FunctionalSpec.inf(), 100_000, RngStream(69))
    assert abs(est.value - exact) < 3 * est.stderr


def _two_sided_sampler(u=3.0):
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    return ConditionalSampler(fam, u, 0.0, GridSpec.line(-1.0, 1.0, 17))


@pytest.mark.parametrize("inner", [SUP, FunctionalSpec.inf()], ids=["sup", "inf"])
def test_bisection_matches_closed_forms(inner, monkeypatch):
    sampler = _two_sided_sampler()
    calls = []
    bisect = tailprob._bisect_crossing

    def spy(*args):
        calls.append(1)
        return bisect(*args)

    closed = conditional_tail(sampler, inner, 4000, RngStream(70))
    monkeypatch.setattr(tailprob, "_bisect_crossing", spy)
    bisected = conditional_tail(
        sampler, FunctionalSpec.composed(inner, ()), 4000, RngStream(70)
    )
    assert len(calls) == 4  # one call a batch of 1000 paths
    assert bisected.value == pytest.approx(closed.value, rel=1e-12)
    assert bisected.stderr == pytest.approx(closed.stderr, rel=1e-9)


def test_estimates_keep_functional_order():
    sampler = _two_sided_sampler()
    inf, mix, sup = (
        conditional_tail(sampler, gamma, 4000, RngStream(74))
        for gamma in (FunctionalSpec.inf(), FunctionalSpec.mix(0.9), SUP)
    )
    assert inf.value <= mix.value <= sup.value
    assert inf.value < sup.value


def test_mix_matches_crude():
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    u = 2.5
    grid = GridSpec.line(-0.5, 0.5, 9)
    mix = FunctionalSpec.mix(0.5)
    crude = crude_mc_tail(fam, u, 0.0, mix, grid, 2_000_000, RngStream(75))
    cond = conditional_tail(
        ConditionalSampler(fam, u, 0.0, grid), mix, 40_000, RngStream(76)
    )
    comb = math.hypot(crude.stderr, cond.stderr)
    assert abs(crude.value - cond.value) < 3 * comb


@pytest.mark.parametrize(
    "gamma, exact",
    [
        (SUP, lambda p: 1 - (1 - p) ** 3),
        (FunctionalSpec.inf(), lambda p: p**3),
        (FunctionalSpec.composed(SUP, ()), lambda p: 1 - (1 - p) ** 3),
    ],
    ids=["sup", "inf", "composed-sup"],
)
def test_uncorrelated_points_give_independent_tail(gamma, exact):
    # exp(-1000) underflows, so B = 1 away from the origin
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    u = 1.0
    sampler = ConditionalSampler(fam, u, 0.0, GridSpec.line(0.0, 2000.0, 3))
    assert np.array_equal(sampler.b_part, [0.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = conditional_tail(sampler, gamma, 20_000, RngStream(77))
    assert abs(est.value - exact(survival_psi(u))) < 3 * est.stderr


def test_negative_correlation_to_origin_rejected():
    def corr(u, tau, s, t):
        d = np.atleast_2d(s)[:, None, 0] - np.atleast_2d(t)[None, :, 0]
        return np.exp(-(d**2)) * np.cos(2.0 * d)  # PSD, negative at |d| = 1

    fam = ThresholdedFamilySpec(correlation=corr, threshold=lambda u, tau: u)
    with pytest.raises(ModelError, match="negative correlation"):
        ConditionalSampler(fam, 3.0, 0.0, GridSpec.line(0.0, 1.0, 3))


def test_both_estimators_reject_a_drift_below_minus_one():
    # h(t) = -2|t| makes 1 + h negative past t = 1/2, where both estimators
    # would divide by it
    fam = ThresholdedFamilySpec(
        correlation=family_from_config({"kind": "stationary", "alpha": 1.0}).correlation,
        threshold=lambda u, tau: u,
        drift=lambda u, tau, pts: -2.0 * np.abs(pts[:, 0]),
    )
    grid = GridSpec.line(0.0, 1.0, 5)
    with pytest.raises(ModelError, match="1 \\+ h below zero"):
        ConditionalSampler(fam, 3.0, 0.0, grid)
    with pytest.raises(ModelError, match="1 \\+ h below zero"):
        crude_mc_tail(fam, 3.0, 0.0, SUP, grid, 1000, RngStream(95))


def _audit_cell_sampler():
    """A local-family cell at u = 4 on the audit preset's 65-point grid."""
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    return ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 2.0, 65))


def test_bisected_rows_are_antithetic_pairs(monkeypatch):
    sampler = _audit_cell_sampler()
    seen = []
    bisect = tailprob._bisect_crossing

    def spy(sampler, gamma, a, lo, hi):
        seen.append((a.copy(), lo, hi))
        return bisect(sampler, gamma, a, lo, hi)

    monkeypatch.setattr(tailprob, "_bisect_crossing", spy)
    composed = FunctionalSpec.composed(SUP, ())
    tailprob._crossing_point(sampler, composed, RngStream(81).generator(), 1000)
    [(a, lo, hi)] = seen
    assert a.shape == (1000, 65)
    assert np.all(lo <= hi)
    scale = np.abs(a).max()
    pair_mean = (a[0::2] + a[1::2]) / 2
    np.testing.assert_allclose(
        pair_mean, np.broadcast_to(sampler.mean_part, pair_mean.shape),
        rtol=0.0, atol=1e-14 * scale,
    )
    # one residual path per pair: half the draws of the field paths
    r = sampler._residual.sample(RngStream(81).generator(), 500).reshape(500, -1)
    noise = sampler.noise_scale * r
    np.testing.assert_allclose(a[0::2], sampler.mean_part + noise, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(a[1::2], sampler.mean_part - noise, rtol=1e-13, atol=1e-13)


def test_antithetic_pairs_do_not_add_variance():
    sampler = _audit_cell_sampler()
    g = sampler.g
    w = tailprob._crossing_point(sampler, SUP, RngStream(82).generator(), 20_000)
    per_path = survival_psi(g - w / g)
    pairs = per_path.reshape(-1, 2).mean(axis=1)
    # Var(pair mean) = (Var + Cov) / 2 <= Var / 2 exactly when Cov <= 0
    assert pairs.var(ddof=1) <= 0.5 * per_path.var(ddof=1)


def test_negative_residual_covariance_draws_independent_paths():
    # alpha = 2 across the origin: some residual covariances are negative
    fam = family_from_config({"kind": "local", "alpha": 2.0})
    u = 3.0
    grid = GridSpec.line(-2.0, 2.0, 33)
    sampler = ConditionalSampler(fam, u, 0.0, grid)
    assert not sampler.paired
    cond = conditional_tail(sampler, SUP, 20_001, RngStream(91))
    assert cond.n_reps == 20_001
    crude = crude_mc_tail(fam, u, 0.0, SUP, grid, 200_000, RngStream(92))
    assert abs(cond.value - crude.value) < 3 * math.hypot(cond.stderr, crude.stderr)


def test_bisection_on_unpaired_sampler_matches_crude():
    # mix bisects from rows of A that are independent paths here
    fam = family_from_config({"kind": "local", "alpha": 2.0})
    u = 3.0
    grid = GridSpec.line(-2.0, 2.0, 33)
    sampler = ConditionalSampler(fam, u, 0.0, grid)
    assert not sampler.paired
    mix = FunctionalSpec.mix(0.5)
    cond = conditional_tail(sampler, mix, 20_000, RngStream(93))
    crude = crude_mc_tail(fam, u, 0.0, mix, grid, 400_000, RngStream(94))
    assert abs(cond.value - crude.value) < 3 * math.hypot(cond.stderr, crude.stderr)


def _formula_check_sampler():
    """The formula-product-1d MC check: 513 points across the origin."""
    fam = family_from_config(
        {"kind": "scaled-threshold", "alpha": 1.0, "exponent": 2.0, "gExponent": 4.0}
    )
    return ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(-4.0, 4.0, 513))


def _flat_sampler():
    # exp(-1000) underflows, so B = 1 at both points away from the origin
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    return ConditionalSampler(fam, 1.0, 0.0, GridSpec.line(0.0, 2000.0, 3))


def _ruin_demo_sampler(u=16.0):
    fam = family_from_config({"kind": "ruin", "alpha": 1.0, "c": 1.0})
    return ConditionalSampler(fam, u, 0.0, GridSpec.line(-0.5, 0.5, 129))


@pytest.mark.parametrize(
    "make_sampler", [_audit_cell_sampler, _ruin_demo_sampler, _formula_check_sampler],
    ids=["audit", "ruin-demo", "formula-product-1d"],
)
def test_preset_cells_stay_paired(make_sampler):
    # their residual covariances are 0 up to rounding (down to -4.4e-16)
    assert make_sampler().paired


@pytest.mark.parametrize(
    "make_sampler, upper",
    [
        (_audit_cell_sampler, True),
        (_ruin_demo_sampler, False),
        (_flat_sampler, True),
        (_flat_sampler, False),
    ],
    ids=["sup", "inf-chain", "flat-sup", "flat-inf"],
)
def test_crossing_point_matches_ratio_arithmetic(make_sampler, upper):
    # the reduction before m and c were precomputed: (mean +- ns R) / slope,
    # over 1000 paths, since a paired batch is always even
    sampler = make_sampler()
    assert sampler.paired
    gamma = SUP if upper else FunctionalSpec.inf()
    w = tailprob._crossing_point(sampler, gamma, RngStream(84).generator(), 1000)
    r = sampler._residual.sample(RngStream(84).generator(), 500).reshape(500, -1)
    noise = sampler.noise_scale * r
    a = np.empty((1000, r.shape[1]))
    a[0::2], a[1::2] = sampler.mean_part + noise, sampler.mean_part - noise
    flat = sampler.slope == 0.0
    ratio = a / np.where(flat, 1.0, sampler.slope)
    ratio[:, flat] = np.where(a[:, flat] > 0.0, np.inf, -np.inf)
    old = ratio.max(axis=1) if upper else ratio.min(axis=1)
    assert w.shape == (1000,)
    np.testing.assert_allclose(w, old, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "gamma", [SUP, FunctionalSpec.inf(), FunctionalSpec.mix(0.5)],
    ids=["sup", "inf", "mix"],
)
@pytest.mark.parametrize("n_reps, n_paths", [(1, 2), (301, 302), (1000, 1000)])
def test_conditional_tail_counts_whole_pairs(gamma, n_reps, n_paths):
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    sampler = ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 1.0, 9))
    est = conditional_tail(sampler, gamma, n_reps, RngStream(83))
    assert est.n_reps == n_paths
    assert math.isfinite(est.value) and est.value >= 0.0
    assert "overflow_count" not in est.meta
    if n_reps > 1:
        assert math.isfinite(est.stderr)


# ---------------------------------------------------------------------------
# uniform-ratio audit


def _audit_family():
    return family_from_config(
        {"kind": "local", "alpha": 1.0, "tauSpread": 1.0, "tauCount": 5}
    )


def test_audit_single_index_reduces_to_single_ratio():
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    grid = GridSpec.line(0.0, 1.0, 17)
    h_ref = Estimate(2.1, 0.01, 1000)
    report = uniform_ratio_audit(
        fam, SUP, h_ref, [3.0, 4.0], grid, 4000, RngStream(71)
    )
    assert len(report.rows) == 2
    assert all(len([r for r in report.rows if r["u"] == u]) == 1 for u in (3.0, 4.0))


def test_audit_doubled_constant_fails():
    fam = _audit_family()
    grid = GridSpec.line(0.0, 2.0, 33)
    schedule = [3.0, 4.0, 5.0]
    probe = uniform_ratio_audit(
        fam, SUP, Estimate(1.0, 0.0, 1), schedule, grid, 4000, RngStream(72)
    )
    ratios = [r["ratio"] for r in probe.rows if r["u"] == schedule[-1]]
    h = sum(ratios) / len(ratios)
    good = Estimate(h, 0.01, 1000)
    bad = Estimate(2 * h, 0.01, 1000)
    # identical seed -> identical per-cell ratios, only the reference differs
    report = uniform_ratio_audit(fam, SUP, bad, schedule, grid, 4000, RngStream(72))
    ok = uniform_ratio_audit(fam, SUP, good, schedule, grid, 4000, RngStream(72))
    assert not report.passed
    assert report.per_u[-1]["max_deviation"] > 0.5 * h
    assert ok.per_u[-1]["max_deviation"] < report.per_u[-1]["max_deviation"]


def test_audit_worker_count_does_not_change_results(monkeypatch):
    # the cells split over two threads give the serial loop's rows
    fam = _audit_family()
    grid = GridSpec.line(0.0, 2.0, 17)
    h_ref = Estimate(3.3, 0.01, 1000)
    pooled = uniform_ratio_audit(fam, SUP, h_ref, [3.0, 4.0], grid, 1000, RngStream(73))
    monkeypatch.setattr(tailprob, "cell_map", lambda fn, items: [fn(x) for x in items])
    serial = uniform_ratio_audit(fam, SUP, h_ref, [3.0, 4.0], grid, 1000, RngStream(73))
    assert pooled.rows == serial.rows


# ---------------------------------------------------------------------------
# closed-form evaluators


def _setup(**kw):
    base = dict(
        d=0, n=0, d1=0, d2=0, betas=(), gammas=(), g_fns=(), m_fn=lambda u: u,
    )
    base.update(kw)
    return AsymptoticSetup(**base)


def test_mainm_empty_products():
    result = eval_mainm_formula(_setup(), 4.0, {})
    assert result.value == pytest.approx(survival_psi(4.0), rel=1e-14)


def test_mainm_gaussian_integral_factor():
    setup = _setup(
        d=1, d1=1, d2=1,
        betas=(2.0,), gammas=(0.0,), g_fns=(lambda u: u**2,),
        y_ranges=((-math.inf, math.inf),),
    )
    result = eval_mainm_formula(setup, 4.0, {"per_unit": [1.0]})
    assert result.factors["integrals"][0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("beta", [0.7, 1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "lo, hi",
    [(-1.0, 1.0), (0.3, 2.5), (-3.0, -0.5), (-math.inf, 0.4), (1.2, math.inf),
     (-math.inf, -2.0), (-math.inf, math.inf)],
)
def test_exp_power_integral_matches_quadrature(lo, hi, beta):
    want, _ = integrate.quad(lambda s: math.exp(-abs(s) ** beta), lo, hi, epsabs=0.0,
                             epsrel=1e-12, limit=200)
    got = tailprob._exp_power_integral(lo, hi, beta)
    assert got == pytest.approx(want, rel=1e-9)


def test_mainm_multiplicative_in_constants():
    setup = _setup(
        d=1, d1=1, d2=1,
        betas=(2.0,), gammas=(0.0,), g_fns=(lambda u: u**4,),
        y_ranges=((-1.0, 1.0),),
    )
    one = eval_mainm_formula(setup, 4.0, {"per_unit": [1.0], "field": 1.0})
    two = eval_mainm_formula(setup, 4.0, {"per_unit": [2.0], "field": 1.0})
    dbl = eval_mainm_formula(setup, 4.0, {"per_unit": [1.0], "field": 2.0})
    assert two.value == pytest.approx(2 * one.value, rel=1e-14)
    assert dbl.value == pytest.approx(2 * one.value, rel=1e-14)


def test_mainm_accepts_estimates():
    setup = _setup(
        d=1, d1=1, d2=1,
        betas=(2.0,), gammas=(0.0,), g_fns=(lambda u: u**4,),
        y_ranges=((-1.0, 1.0),),
    )
    a = eval_mainm_formula(setup, 4.0, {"per_unit": [Estimate(1.5, 0.1, 10)]})
    b = eval_mainm_formula(setup, 4.0, {"per_unit": [1.5]})
    assert a.value == b.value


def test_mainm_missing_constants():
    setup = _setup(
        d=1, d1=1, d2=1,
        betas=(2.0,), gammas=(0.0,), g_fns=(lambda u: u**4,),
        y_ranges=((-1.0, 1.0),),
    )
    with pytest.raises(ModelError):
        eval_mainm_formula(setup, 4.0, {})


def test_setup_regime_validation():
    with pytest.raises(ModelError):
        _setup(d=1, d1=1, d2=0)  # d1 > d2
    with pytest.raises(ModelError):  # wide axis needs gamma = 0
        _setup(d=1, d1=1, d2=1, betas=(2.0,), gammas=(1.0,),
               g_fns=(lambda u: u,), y_ranges=((-1.0, 1.0),))
    with pytest.raises(ModelError):  # middle regime needs finite positive gamma
        _setup(d=1, d1=0, d2=1, betas=(2.0,), gammas=(math.inf,),
               g_fns=(lambda u: u,))
    with pytest.raises(ModelError):  # narrow regime needs infinite gamma
        _setup(d=1, d1=0, d2=0, betas=(2.0,), gammas=(1.0,), g_fns=(lambda u: u,))
    with pytest.raises(ModelError):  # field axes exclude infinite gamma
        _setup(n=1, betas=(2.0,), gammas=(math.inf,), g_fns=(lambda u: u,))
    with pytest.raises(ModelError):  # y_ranges must cover wide axes
        _setup(d=1, d1=1, d2=1, betas=(2.0,), gammas=(0.0,), g_fns=(lambda u: u,))
    # finite gamma on a field axis is allowed
    _setup(n=1, betas=(2.0,), gammas=(1.0,), g_fns=(lambda u: u,))
