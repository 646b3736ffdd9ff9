"""Tests of the benchmark's references, each against a second method.

    python3 -m pytest bench/test_refs.py
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402


def _chain_mc(rhos, barriers, n_paths, seed):
    """Crude Monte Carlo of the Gauss-Markov chain exceedance."""
    gen = np.random.default_rng(seed)
    z = gen.standard_normal(n_paths)
    hit = z > barriers[0]
    for rho, b in zip(rhos, barriers[1:]):
        z = rho * z + math.sqrt(1 - rho**2) * gen.standard_normal(n_paths)
        hit |= z > b
    return hit.mean(), math.sqrt(hit.mean() * (1 - hit.mean()) / n_paths)


def test_reflection_closed_form_matches_quadrature():
    for S in (0.5, 2.0, 16.0):
        r = math.sqrt(2 * S)

        def tail(m):
            return math.exp(m + special.log_ndtr(-(m + S) / r)) + special.ndtr((S - m) / r)

        val, _ = integrate.quad(tail, 0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert refs.reflection_sup_exp(S) == pytest.approx(1 + val, rel=1e-9)
    # the boundary term cancels in the difference quotient: slope -> 1
    slope = (refs.reflection_sup_exp(64.0) - refs.reflection_sup_exp(32.0)) / 32.0
    assert slope == pytest.approx(1.0, abs=1e-3)


def test_markov_exceedance_is_exact_for_independent_points():
    g, n = 2.5, 20
    p = refs.markov_exceedance(np.zeros(n - 1), np.full(n, g), cells_per_sd=20)
    assert p == pytest.approx(1 - special.ndtr(g) ** n, rel=1e-12)


def test_markov_exceedance_converges_as_the_cells_halve():
    rho = math.exp(-(1 / 32) / 9)
    args = (np.full(64, rho), np.full(65, 3.0))
    p = [refs.markov_exceedance(*args, cells_per_sd=c) for c in (4, 8, 16, 32)]
    errs = np.abs(np.diff(p))
    assert np.all(errs[1:] < errs[:-1] / 3.5)  # second order in the cell width
    extrapolated = refs.markov_exceedance_extrapolated(*args)
    assert extrapolated == pytest.approx(p[-1] + (p[-1] - p[-2]) / 3, rel=1e-4)
    deeper = refs.markov_exceedance(*args, cells_per_sd=8, depth=12.0)
    assert deeper == pytest.approx(p[1], rel=1e-9)


def test_markov_exceedance_deep_tail():
    """Brownian first passage over u (1 + t) near t = 1: far-tail probabilities
    need the default depth below the barrier."""
    t = 1 + np.linspace(-0.5, 0.5, 129)
    u = 16.0
    args = (np.sqrt(t[:-1] / t[1:]), math.sqrt(u) * (1 + t) / np.sqrt(t))
    p = refs.markov_exceedance(*args, cells_per_sd=4)
    assert p == pytest.approx(refs.markov_exceedance(*args, cells_per_sd=4, depth=16.0), rel=1e-6)
    assert refs.markov_exceedance_extrapolated(*args) == pytest.approx(8.04e-15, rel=2e-3)


def test_markov_exceedance_matches_monte_carlo():
    rho = math.exp(-(1 / 16) / 4)
    s = np.linspace(-1, 1, 33)
    barriers = 2.2 * (1 + s**2 / 4)  # a moving barrier, as in the formula preset
    rhos = np.full(32, rho)
    p = refs.markov_exceedance_extrapolated(rhos, barriers)
    mc, se = _chain_mc(rhos, barriers, 400_000, 5)
    assert abs(p - mc) < 4 * se


def test_quadratic_field_constant_matches_quadrature():
    t = np.linspace(-1, 1, 33)
    c = 3.0

    def integrand(n):
        return stats.norm.pdf(n) * math.exp(np.max(math.sqrt(2) * t * n - (1 + c) * t**2))

    brk = (1 + c) * (t[:-1] + t[1:]) / math.sqrt(2)
    val, _ = integrate.quad(integrand, -12, 12, points=brk[np.abs(brk) < 12], limit=400)
    assert refs.quadratic_field_grid_constant(t, c) == pytest.approx(val, rel=1e-7)
    # the grid constant approaches sqrt((1 + c) / c) as the grid fills the line
    fine = refs.quadratic_field_grid_constant(np.linspace(-4, 4, 4001), c)
    assert fine == pytest.approx(math.sqrt((1 + c) / c), rel=1e-5)


def test_flat_double_maxima():
    a, b = np.linspace(0, 2, 9), np.linspace(3, 5, 9)
    m = 2.5
    # independent points: the two boxes exceed independently
    indep = (1 - special.ndtr(m) ** 9) ** 2
    assert refs.flat_double_maxima(1e-12, m, a, b) == pytest.approx(indep, rel=1e-6)
    # shared point, Monte Carlo of the one-factor model
    b0 = np.linspace(2, 4, 9)
    gen = np.random.default_rng(3)
    n = 400_000
    v = gen.standard_normal((n, 1))
    e = gen.standard_normal((n, 17))
    z = math.sqrt(0.9) * v + math.sqrt(0.1) * e
    hit = (z[:, :9].max(1) > m) & (z[:, 8:].max(1) > m)  # point 2.0 is column 8
    p, se = hit.mean(), hit.std() / math.sqrt(n)
    assert abs(refs.flat_double_maxima(0.9, m, a, b0) - p) < 4 * se


def test_pair_exceedance_and_bounds():
    r = np.array([0.0, 0.3, 0.9, 0.999])
    m = 2.0
    for ri, pi in zip(r, refs.pair_exceedance(m, r)):
        cov = [[1, ri], [ri, 1]]
        assert pi == pytest.approx(stats.multivariate_normal(cov=cov).cdf([-m, -m]), rel=1e-5)
    assert refs.pair_exceedance(m, np.array([1.0]))[0] == pytest.approx(special.ndtr(-m))
    lo, hi = refs.gaussian_double_maxima_bounds(2.5, np.linspace(0, 2, 9), np.linspace(3, 5, 9))
    assert 0 < lo < hi
