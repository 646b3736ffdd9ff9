"""Tail estimators, the conditioning identity, audits, closed-form evaluators.

The strongest oracle here is the multivariate-normal orthant probability on
small grids (scipy's qmc-based CDF), which gives the exact finite-threshold
tail to compare both estimators against.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest, multivariate_normal, norm

from gexr.covmodels import ModelError, ThresholdedFamilySpec
from gexr.configio import family_from_config
from gexr import tailprob
from gexr.functionals import FunctionalSpec
from gexr.mc import Estimate
from gexr.rng import RngStream
from gexr.simkit import GridSpec
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


# ---------------------------------------------------------------------------
# conditioning identity: exact reductions


@pytest.mark.parametrize("g", [3.0, 5.0, 8.0])
def test_single_point_domain_equals_psi(g):
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    sampler = ConditionalSampler(fam, g, 0.0, GridSpec(((0.0, 0.0, 1),)))
    est = conditional_tail(sampler, SUP, 500, RngStream(1))
    assert est.value == pytest.approx(survival_psi(g), rel=1e-12)
    assert est.stderr <= 1e-15  # only PSD-jitter noise remains


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


def test_conditional_methods_agree():
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    grid = GridSpec.line(0.0, 2.0, 33)
    sampler = ConditionalSampler(fam, 4.0, 0.0, grid)
    crossing = conditional_tail(sampler, SUP, 30_000, RngStream(65), method="crossing")
    quad = conditional_tail(sampler, SUP, 30_000, RngStream(66), method="quadrature")
    sampled = conditional_tail(sampler, SUP, 60_000, RngStream(67), method="sampled")
    assert crossing.meta["truncation_bound"] == 0.0
    for other in (quad, sampled):
        comb = math.sqrt(crossing.stderr**2 + other.stderr**2)
        assert abs(crossing.value - other.value) < 4 * comb + other.meta["truncation_bound"]
    assert quad.meta["truncation_bound"] < 1e-12


def test_sampled_method_draws_the_truncated_tilted_density(monkeypatch):
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    grid = GridSpec.line(0.0, 1.0, 9)
    sampler = ConditionalSampler(fam, 2.0, 0.0, grid)
    g = sampler.g
    M = max(10.0, g * (g + 8.0))
    # with A = 0 the field is w B, so w is read off the largest B; every
    # functional value is made a hit, so each sample is the weight itself
    monkeypatch.setattr(sampler, "sample_a", lambda gen, size: np.zeros((size, 9)))
    seen = []

    def record(gamma, vals, grid_ndim):
        seen.append(vals.reshape(len(vals), -1).copy())
        return np.full(len(vals), np.inf)

    monkeypatch.setattr(tailprob, "apply_functional", record)
    est = conditional_tail(sampler, SUP, 20_000, RngStream(84), method="sampled")
    j = int(np.argmax(sampler.b_part))
    w = np.concatenate(seen)[:, j] / sampler.b_part[j]
    assert len(w) == 20_000
    assert -M <= w.min() and w.max() <= M
    # e^{w - w^2/(2g^2)} is proportional to the N(g^2, g^2) density
    assert kstest(w, "norm", args=(g**2, g)).pvalue > 1e-3
    pref = math.exp(-(g**2) / 2.0) / (math.sqrt(2 * math.pi) * g)
    mass, _ = integrate.quad(
        lambda x: math.exp(x - x**2 / (2 * g**2)), -M, M, points=[g**2], limit=200
    )
    assert est.value == pytest.approx(pref * mass, rel=1e-9)


def _audit_cell_sampler():
    """A local-family cell at u = 4 on the audit preset's 65-point grid."""
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    return ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 2.0, 65))


def test_sample_a_rows_are_antithetic_pairs():
    sampler = _audit_cell_sampler()
    a = sampler.sample_a(RngStream(81).generator(), 1000)
    assert a.shape == (1000, 65)
    scale = np.abs(a).max()
    pair_mean = (a[0::2] + a[1::2]) / 2
    np.testing.assert_allclose(
        pair_mean, np.broadcast_to(sampler.mean_part, pair_mean.shape),
        rtol=0.0, atol=1e-14 * scale,
    )
    # one residual path per pair: half the draws of the field paths
    r = sampler._residual.sample(RngStream(81).generator(), 500).reshape(500, -1)
    np.testing.assert_allclose(
        a[0::2], sampler.mean_part + sampler.noise_scale * r, rtol=1e-13, atol=1e-13
    )
    odd = sampler.sample_a(RngStream(81).generator(), 7)
    assert odd.shape == (7, 65)
    np.testing.assert_allclose(odd, a[:7], rtol=1e-12, atol=1e-12)


def test_antithetic_pairs_do_not_add_variance():
    sampler = _audit_cell_sampler()
    g = sampler.g
    a = sampler.sample_a(RngStream(82).generator(), 20_000)
    per_path = survival_psi(g - (a / (1.0 - sampler.b_part)).max(axis=1) / g)
    pairs = per_path.reshape(-1, 2).mean(axis=1)
    # Var(pair mean) = (Var + Cov) / 2 <= Var / 2 exactly when Cov <= 0
    assert pairs.var(ddof=1) <= 0.5 * per_path.var(ddof=1)


@pytest.mark.parametrize("method", ["crossing", "quadrature", "sampled"])
@pytest.mark.parametrize("n_reps, n_paths", [(1, 2), (301, 302), (1000, 1000)])
def test_conditional_tail_counts_whole_pairs(method, n_reps, n_paths):
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    sampler = ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 1.0, 9))
    est = conditional_tail(sampler, SUP, n_reps, RngStream(83), method=method)
    assert est.n_reps == n_paths
    assert math.isfinite(est.value) and est.value >= 0.0
    assert "overflow_count" not in est.meta
    if n_reps > 1:
        assert math.isfinite(est.stderr)


def test_conditional_unknown_method():
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    sampler = ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 1.0, 5))
    with pytest.raises(ModelError):
        conditional_tail(sampler, SUP, 100, RngStream(1), method="magic")


def test_crossing_requires_sup():
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    sampler = ConditionalSampler(fam, 4.0, 0.0, GridSpec.line(0.0, 1.0, 5))
    with pytest.raises(ModelError):
        conditional_tail(
            sampler, FunctionalSpec.inf(), 100, RngStream(1), method="crossing"
        )


def test_non_sup_functional_uses_quadrature():
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    grid = GridSpec.line(-1.0, 1.0, 17)
    sampler = ConditionalSampler(fam, 3.0, 0.0, grid)
    est = conditional_tail(sampler, FunctionalSpec.mix(0.9), 5000, RngStream(68))
    assert est.meta["method"] == "quadrature"
    # mix(0.9) <= sup pointwise, so its exceedance probability is smaller
    sup_est = conditional_tail(sampler, SUP, 5000, RngStream(68))
    assert est.value <= sup_est.value + 3 * (est.stderr + sup_est.stderr)


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


def test_audit_worker_count_does_not_change_results():
    fam = _audit_family()
    grid = GridSpec.line(0.0, 2.0, 17)
    h_ref = Estimate(3.3, 0.01, 1000)
    one = uniform_ratio_audit(fam, SUP, h_ref, [3.0, 4.0], grid, 1000, RngStream(73))
    many = uniform_ratio_audit(
        fam, SUP, h_ref, [3.0, 4.0], grid, 1000, RngStream(73), workers=4
    )
    assert one.rows == many.rows


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
               g_fns=(lambda u: u,), ab_limits=((0.0, 1.0),))
    with pytest.raises(ModelError):  # narrow regime needs infinite gamma
        _setup(d=1, d1=0, d2=0, betas=(2.0,), gammas=(1.0,), g_fns=(lambda u: u,))
    with pytest.raises(ModelError):  # field axes exclude infinite gamma
        _setup(n=1, betas=(2.0,), gammas=(math.inf,), g_fns=(lambda u: u,))
    with pytest.raises(ModelError):  # y_ranges must cover wide axes
        _setup(d=1, d1=1, d2=1, betas=(2.0,), gammas=(0.0,), g_fns=(lambda u: u,))
    # finite gamma on a field axis is allowed
    _setup(n=1, betas=(2.0,), gammas=(1.0,), g_fns=(lambda u: u,))
