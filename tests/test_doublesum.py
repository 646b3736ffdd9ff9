"""Double-maxima estimator, cross-term bound and constant fitting.

Exact multivariate-normal rectangle probabilities on small joint grids, the
one-factor integral of the flat model and the pair bounds of the Gaussian
kernel (``bench/refs.py``) serve as oracles for the pivoted estimator.
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gexr import doublesum
from gexr.configio import doublesum_correlation_from_config
from gexr.covmodels import ModelError
from gexr.doublesum import (
    DoubleMaximaConfig,
    estimate_double_maxima,
    eval_double_bound,
    fit_bound_constant,
    separation,
)
from gexr.mc import Estimate
from gexr.rng import RngStream
from gexr.tailprob import survival_psi

BENCH = Path(__file__).resolve().parents[1] / "bench"


def gauss_corr(scale=1.0):
    def corr(u, s, t):
        s = np.atleast_2d(np.asarray(s, dtype=float))
        t = np.atleast_2d(np.asarray(t, dtype=float))
        d2 = ((s[:, None, :] - t[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-d2 / scale**2)

    return corr


def make_config(offset2, m1=1.2, m2=1.2, corr=None, c1=1.0, beta=2.0, s2=2.0, dim=1):
    cell = tuple((0.0, 1.0) for _ in range(dim))
    return DoubleMaximaConfig(
        correlation=corr or gauss_corr(2.0),
        cell1=cell,
        cell2=cell,
        offset1=(0.0,) * dim,
        offset2=offset2,
        m1_fn=lambda u: m1,
        m2_fn=lambda u: m2,
        c1=c1,
        beta=beta,
        s2=s2,
    )


# ---------------------------------------------------------------------------
# separation


def test_separation_oracles():
    assert separation([(0.0, 2.0)], [(1.0, 3.0)]) == 0.0  # overlap
    assert separation([(0.0, 1.0)], [(3.0, 4.0)]) == 2.0
    # per-axis gaps 1 and 3
    assert separation(
        [(0.0, 1.0), (0.0, 1.0)], [(2.0, 3.0), (4.0, 5.0)]
    ) == pytest.approx(math.sqrt(10.0))
    # symmetric
    assert separation([(3.0, 4.0)], [(0.0, 1.0)]) == 2.0


def test_separation_rejects_bad_boxes():
    with pytest.raises(ModelError):
        separation([(1.0, 0.0)], [(0.0, 1.0)])
    with pytest.raises(ModelError):
        separation([(0.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ModelError):
        separation([], [])


# ---------------------------------------------------------------------------
# joint-exceedance MC vs exact rectangle probabilities


def _exact_joint(cfg, u, points_per_axis):
    """1 - P(A <= m1) - P(B <= m2) + P(A <= m1, B <= m2), exact."""
    box_a, box_b = cfg.boxes()

    def grid(box):
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    pts_a, pts_b = grid(box_a), grid(box_b)
    pts = np.concatenate([pts_a, pts_b])
    cov = cfg.correlation(u, pts, pts)
    m1, m2 = cfg.m1_fn(u), cfg.m2_fn(u)
    lim = np.concatenate([np.full(len(pts_a), m1), np.full(len(pts_b), m2)])

    def cdf(c, upper):
        mvn = multivariate_normal(
            mean=np.zeros(c.shape[0]), cov=c, allow_singular=True, seed=1
        )
        return float(mvn.cdf(upper))

    n_a = len(pts_a)
    p_a = cdf(cov[:n_a, :n_a], lim[:n_a])
    p_b = cdf(cov[n_a:, n_a:], lim[n_a:])
    p_ab = cdf(cov, lim)
    return 1.0 - p_a - p_b + p_ab


@pytest.fixture(scope="module")
def exact_sep_one():
    """The exact joint probability of ``make_config((2.0,))`` on 3 points a box."""
    return _exact_joint(make_config((2.0,)), 0.0, 3)


def test_double_maxima_matches_exact_oracle(exact_sep_one):
    cfg = make_config((2.0,))
    est = estimate_double_maxima(cfg, 0.0, 3, 200_000, RngStream(81))
    assert abs(est.value - exact_sep_one) < 4 * est.stderr + 5e-4
    assert est.meta["separation"] == 1.0


def test_pivot_offset_keeps_short_batches_unbiased(exact_sep_one, monkeypatch):
    # 5 pairs a batch on 3 pivots: a fixed offset would give the point of A
    # farthest from B two rows in five and bias the estimate low by ~20 sd
    monkeypatch.setattr(doublesum, "BATCH_SIZE", 10)
    est = estimate_double_maxima(make_config((2.0,)), 0.0, 3, 20_000, RngStream(85))
    assert abs(est.value - exact_sep_one) < 3 * est.stderr


def test_double_maxima_never_binding_second_box():
    # m2 = -1e9 never binds: joint tail reduces to the single-box tail of A
    cfg = make_config((5.0,), m2=-1e9)
    box_a, _ = cfg.boxes()
    pts = np.linspace(0.0, 1.0, 3)[:, None]
    cov = cfg.correlation(0.0, pts, pts)
    mvn = multivariate_normal(mean=np.zeros(3), cov=cov, allow_singular=True, seed=1)
    exact = 1.0 - float(mvn.cdf(np.full(3, 1.2)))
    est = estimate_double_maxima(cfg, 0.0, 3, 200_000, RngStream(82))
    assert abs(est.value - exact) < 4 * est.stderr + 5e-4


def test_odd_reps_round_up_to_whole_pairs():
    cfg = make_config((2.0,))
    odd = estimate_double_maxima(cfg, 0.0, 3, 1001, RngStream(86))
    even = estimate_double_maxima(cfg, 0.0, 3, 1002, RngStream(86))
    assert odd.n_reps == even.n_reps == 1002
    assert (odd.value, odd.stderr) == (even.value, even.stderr)


def test_identical_boxes_give_the_single_box_tail():
    # B = A keeps every point once; with m2 = m1 the joint tail is P(max_A > m1)
    cfg = make_config((0.0,))
    pts = np.linspace(0.0, 1.0, 3)[:, None]
    cov = cfg.correlation(0.0, pts, pts)
    mvn = multivariate_normal(mean=np.zeros(3), cov=cov, allow_singular=True, seed=1)
    exact = 1.0 - float(mvn.cdf(np.full(3, 1.2)))
    est = estimate_double_maxima(cfg, 0.0, 3, 20_000, RngStream(87))
    assert abs(est.value - exact) < 3 * est.stderr


def _preset_config(model, sep, m, s2=2.0):
    # the doublesum runner's layout: two boxes of length s2 and a gap sep
    return DoubleMaximaConfig(
        correlation=doublesum_correlation_from_config(model),
        cell1=((0.0, s2),),
        cell2=((0.0, s2),),
        offset1=(0.0,),
        offset2=(s2 + sep,),
        m1_fn=lambda u: m,
        m2_fn=lambda u: m,
        c1=0.5,
        beta=2.0,
    )


def _bench_refs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    return importlib.import_module("refs")


@pytest.mark.parametrize("sep", [0.0, 2.0])
@pytest.mark.parametrize("m", [3.0, 5.0])
def test_flat_model_matches_one_factor_oracle(m, sep, monkeypatch):
    refs = _bench_refs(monkeypatch)
    cfg = _preset_config({"kind": "flat", "rho": 0.9}, sep, m)
    box_a, box_b = cfg.boxes()
    exact = refs.flat_double_maxima(
        0.9, m, np.linspace(*box_a[0], 9), np.linspace(*box_b[0], 9)
    )
    est = estimate_double_maxima(cfg, 0.0, 9, 20_000, RngStream(88, (int(m), int(sep))))
    assert abs(est.value - exact) < 3 * est.stderr
    assert est.stderr < 0.02 * exact


@pytest.mark.parametrize("sep", [0.0, 1.0, 2.0])
def test_gaussian_model_inside_pair_bounds(sep, monkeypatch):
    refs = _bench_refs(monkeypatch)
    cfg = _preset_config({"kind": "gaussian"}, sep, 2.5)
    box_a, box_b = cfg.boxes()
    lo, hi = refs.gaussian_double_maxima_bounds(
        2.5, np.linspace(*box_a[0], 9), np.linspace(*box_b[0], 9)
    )
    est = estimate_double_maxima(cfg, 0.0, 9, 20_000, RngStream(89, (int(sep),)))
    assert lo - 3 * est.stderr < est.value < hi + 3 * est.stderr


@pytest.mark.parametrize("model", [{"kind": "flat", "rho": 0.9}, {"kind": "gaussian"}])
def test_separation_zero_factor_needs_no_jitter(model, monkeypatch):
    # the point both boxes share enters the covariance once, so the factor
    # exists without the jitter that a repeated point would need
    monkeypatch.setattr(doublesum, "_chol_psd", np.linalg.cholesky)
    for s2, ppa in ((2.0, 9), (4.0, 17)):
        cfg = _preset_config(model, 0.0, 2.5, s2)
        est = estimate_double_maxima(cfg, 0.0, ppa, 200, RngStream(90))
        assert math.isfinite(est.value)


def test_nan_correlation_diagonal_is_rejected():
    nan_corr = lambda u, s, t: np.full((len(s), len(t)), np.nan)  # noqa: E731
    with pytest.raises(ModelError, match="unit-variance"):
        estimate_double_maxima(make_config((3.0,), corr=nan_corr), 0.0, 5, 100, RngStream(1))


def test_double_maxima_point_cap():
    cfg = make_config((0.0, 0.0), dim=2)
    with pytest.raises(ModelError):
        estimate_double_maxima(cfg, 0.0, 64, 100, RngStream(1))


def test_config_validation():
    with pytest.raises(ModelError):
        make_config((2.0,), s2=1.0)
    with pytest.raises(ModelError):
        make_config((2.0,), c1=-1.0)


# ---------------------------------------------------------------------------
# bound evaluation


def test_bound_at_zero_separation():
    cfg = make_config((0.5,))  # overlapping boxes, F = 0
    val = eval_double_bound(cfg, 0.0, c=3.0)
    assert val == pytest.approx(3.0 * 2.0**2 * survival_psi(1.2), rel=1e-14)


def test_bound_s2_scaling():
    a = eval_double_bound(make_config((4.0,), s2=2.0), 0.0, c=1.0)
    b = eval_double_bound(make_config((4.0,), s2=4.0), 0.0, c=1.0)
    assert b == pytest.approx(4.0 * a, rel=1e-14)  # s2^(2d), d = 1


def test_bound_exponential_factor():
    # F = ln 16, beta = 1, c1 = 8: exp(-8 * ln16 / 8) = 1/16
    f = math.log(16.0)
    cfg = make_config((1.0 + f,), c1=8.0, beta=1.0)
    near = make_config((0.5,), c1=8.0, beta=1.0)
    assert eval_double_bound(cfg, 0.0) == pytest.approx(
        eval_double_bound(near, 0.0) / 16.0, rel=1e-12
    )


# ---------------------------------------------------------------------------
# constant fitting


def test_fit_single_config_is_tight():
    cfg = make_config((3.0,))
    est = Estimate(1e-3, 1e-4, 1000)
    report = fit_bound_constant([(cfg, 0.0)], [est])
    unit = eval_double_bound(cfg, 0.0, c=1.0)
    assert report.fitted_c == pytest.approx(1.196e-3 / unit, rel=1e-12)  # ci95 upper end
    assert report.table[0]["slack"] == pytest.approx(0.0, abs=1e-15)
    assert report.passed


def test_fit_requires_matching_lengths():
    cfg = make_config((3.0,))
    with pytest.raises(ModelError):
        fit_bound_constant([(cfg, 0.0)], [])


def test_fit_gaussian_family_passes():
    # correlation exp(-d^2/4) decays at least like the bound's exp(-F^2/8)
    configs = [
        (make_config((1.0 + f,), m1=1.8, m2=1.8, c1=1.0, beta=2.0), 0.0)
        for f in (0.0, 1.0, 2.0)
    ]
    estimates = [
        estimate_double_maxima(cfg, u, 4, 60_000, RngStream(83, (i,)))
        for i, (cfg, u) in enumerate(configs)
    ]
    report = fit_bound_constant(configs, estimates)
    assert report.passed and not report.growing_with_separation
    assert math.isfinite(report.fitted_c)
    assert all(row["slack"] >= -1e-15 for row in report.table)


def test_fit_flags_non_decaying_correlation():
    # near-equicorrelated field: joint probability will not decay with
    # separation, so the required constant explodes along the schedule
    def flat(u, s, t):
        s = np.atleast_2d(np.asarray(s, dtype=float))
        t = np.atleast_2d(np.asarray(t, dtype=float))
        d2 = ((s[:, None, :] - t[None, :, :]) ** 2).sum(axis=-1)
        return 0.9 + 0.1 * np.exp(-400.0 * d2)

    configs = [
        (make_config((1.0 + f,), m1=1.5, m2=1.5, corr=flat, c1=8.0, beta=2.0), 0.0)
        for f in (0.0, 2.0, 4.0)
    ]
    estimates = [
        estimate_double_maxima(cfg, u, 3, 40_000, RngStream(84, (i,)))
        for i, (cfg, u) in enumerate(configs)
    ]
    report = fit_bound_constant(configs, estimates)
    assert report.growing_with_separation
    assert not report.passed
