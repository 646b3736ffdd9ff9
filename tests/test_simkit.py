"""Distributional and mechanical tests of the path/field generators.

Covariance oracles follow the 6/sqrt(N) max-entry rule: on a small grid with
variances around 1, each empirical covariance entry fluctuates with stderr
about sqrt(2)/sqrt(N), so 6/sqrt(N) is a 3-sigma-plus-margin band, checked
at a fixed seed.
"""

import math

import numpy as np
import pytest
from scipy import stats

from gexr.covmodels import (
    LimitFieldComponent,
    LimitFieldSpec,
    ModelError,
    VarianceFunction,
)
from gexr.configio import family_from_config
from gexr import simkit
from gexr.rng import RngStream
from gexr.simkit import (
    CHOLESKY_POINT_BUDGET,
    GRID_POINT_BUDGET,
    PSD_TOL,
    ROW_BLOCK,
    FbmSampler,
    GridSpec,
    LimitFieldSampler,
    ResidualSampler,
    SimulationError,
    StatIncrSampler,
    _chol_psd,
)

N_COV = 10_000


def _fbm_cov(t):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return lambda alpha: 0.5 * (
        a[:, None] ** alpha + a[None, :] ** alpha - np.abs(t[:, None] - t[None, :]) ** alpha
    )


# ---------------------------------------------------------------------------
# grids


def test_grid_basics():
    g = GridSpec.line(-1.0, 1.0, 9)
    assert g.dim == 1 and g.shape == (9,) and g.size == 9
    assert g.steps == (0.25,)
    assert g.origin_index() == (4,)
    assert g.axis_values(0)[4] == 0.0  # snapped exactly


def test_grid_origin_snapping_inexact_span():
    # point 1 is the origin up to rounding (1.4e-17): it must be exact
    g = GridSpec.line(-0.1, 0.2, 4)
    vals = g.axis_values(0)
    assert 0.0 in vals and g.origin_index() == (1,)


def test_off_lattice_origin_keeps_the_axis_points():
    # the point nearest 0 lies a real distance off it: it stays, and the
    # grid has no origin
    g = GridSpec(((-0.3, 1.0, 3),))
    assert g.axis_values(0).tolist() == pytest.approx([-0.3, 0.35, 1.0], abs=1e-15)
    with pytest.raises(ModelError, match="origin"):
        g.origin_index()


def test_grid_without_origin():
    g = GridSpec.line(1.0, 2.0, 5)
    with pytest.raises(ModelError):
        g.origin_index()


def test_grid_single_point_axis():
    g = GridSpec(((0.0, 0.0, 1),))
    assert g.steps == (0.0,)
    assert g.axis_values(0).tolist() == [0.0]
    assert g.origin_index() == (0,)
    with pytest.raises(ModelError):
        GridSpec(((0.0, 1.0, 1),))


def test_grid_validation():
    with pytest.raises(ModelError):
        GridSpec(((1.0, 0.0, 5),))
    with pytest.raises(ModelError):
        GridSpec(((0.0, 1.0, 0),))


def test_grid_point_budget():
    side = math.isqrt(GRID_POINT_BUDGET)
    assert GridSpec(((0.0, 1.0, side), (0.0, 1.0, side))).size == GRID_POINT_BUDGET
    with pytest.raises(ModelError, match=f"exceeding budget {GRID_POINT_BUDGET}"):
        GridSpec(((0.0, 1.0, side + 1), (0.0, 1.0, side)))


def test_points_layout():
    g = GridSpec(((0.0, 1.0, 2), (0.0, 2.0, 3)))
    pts = g.points()
    assert pts.shape == (6, 2)
    assert pts[0].tolist() == [0.0, 0.0]
    assert pts[-1].tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# reproducibility


def test_stream_reproducibility():
    s = RngStream(123, (4, 5))
    a = s.generator().standard_normal(10)
    b = s.generator().standard_normal(10)
    assert np.array_equal(a, b)
    c = RngStream(123, (4, 6)).generator().standard_normal(10)
    assert not np.array_equal(a, c)


def test_sampler_reproducibility():
    sampler = FbmSampler(1.3, 0.25, n_right=6, n_left=2)
    x = sampler.sample(RngStream(9).generator(), 5)
    y = sampler.sample(RngStream(9).generator(), 5)
    assert np.array_equal(x, y)


def _reference_fbm_sample(sampler, rng, size):
    """Complex-arithmetic spectrum and concatenated path: the bit-identity oracle."""
    m = sampler.m
    half = m // 2
    z_re = rng.standard_normal((size, half + 1))
    z_im = rng.standard_normal((size, half - 1))
    spec = np.empty((size, half + 1), dtype=complex)
    spec[:, 0] = z_re[:, 0] * sampler._sqrt_lam[0] * math.sqrt(m)
    spec[:, half] = z_re[:, half] * sampler._sqrt_lam[half] * math.sqrt(m)
    mid = sampler._sqrt_lam[1:half] * math.sqrt(m / 2.0)
    spec[:, 1:half] = (z_re[:, 1:half] + 1j * z_im) * mid
    incr = (np.fft.irfft(spec, n=m, axis=1) * math.sqrt(m))[:, : sampler.n_points - 1]
    path = np.concatenate([np.zeros((size, 1)), np.cumsum(incr, axis=1)], axis=1)
    return path - path[:, sampler.n_left : sampler.n_left + 1]


GRID_SHAPES = [(1, 0), (0, 1), (4, 3), (63, 0), (512, 512)]


# alpha = 1 and 2 are drawn without the embedding; 1 + 1e-6 and 1.99 lie next
# to them and must still embed, since the draw is picked from the covariance
@pytest.mark.parametrize("alpha", [0.5, 1.0 + 1e-6, 1.5, 1.99])
@pytest.mark.parametrize("n_right,n_left", GRID_SHAPES)
def test_fbm_sampler_bit_identical_to_complex_spectrum(alpha, n_right, n_left):
    sampler = FbmSampler(alpha, 1 / 64, n_right, n_left)
    for size in (1, 7, 300):
        stream = RngStream(17, (size,))
        got = sampler.sample(stream.generator(), size)
        ref = _reference_fbm_sample(sampler, stream.generator(), size)
        assert np.array_equal(got, ref)


# the batch's increments are never held whole: white rows are drawn, and the
# embedding's spectrum inverted, one block of rows at a time
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_fbm_increments_come_in_row_blocks(alpha):
    blocks = FbmSampler(alpha, 1 / 64, n_right=63, n_left=64)._increment_blocks
    sizes = [len(b) for b in blocks(RngStream(3).generator(), 2 * ROW_BLOCK + 44)]
    assert sizes == [ROW_BLOCK, ROW_BLOCK, 44]
    assert [len(b) for b in blocks(RngStream(3).generator(), 0)] == []


@pytest.mark.parametrize("n_right,n_left", GRID_SHAPES)
def test_fbm_alpha1_is_cumsum_of_white_noise(n_right, n_left):
    step = 1 / 64
    sampler = FbmSampler(1.0, step, n_right, n_left)
    for size in (1, 7, 300):
        stream = RngStream(17, (size,))
        got = sampler.sample(stream.generator(), size)
        z = stream.generator().standard_normal((size, n_right + n_left))
        path = np.zeros((size, n_right + n_left + 1))
        path[:, 1:] = np.cumsum(math.sqrt(step) * z, axis=1)
        assert np.array_equal(got, path - path[:, n_left : n_left + 1])


@pytest.mark.parametrize("n_right,n_left", GRID_SHAPES)
def test_fbm_alpha2_is_t_times_one_normal(n_right, n_left):
    sampler = FbmSampler(2.0, 1 / 64, n_right, n_left)
    t = sampler.grid_values()
    for size in (1, 7, 300):
        stream = RngStream(17, (size,))
        got = sampler.sample(stream.generator(), size)
        z = stream.generator().standard_normal((size, 1))
        assert np.allclose(got, z * t, rtol=1e-12, atol=0.0)


# 25 paths of 49 increments: white noise takes 49 normals a path, t * Z one
@pytest.mark.parametrize("alpha,normals", [(1.0, 25 * 49), (2.0, 25)])
def test_fbm_direct_draws_use_their_normals_only(alpha, normals):
    # the generator's next draw shows how many normals the batch consumed
    gen = RngStream(4).generator()
    FbmSampler(alpha, 0.1, n_right=40, n_left=9).sample(gen, 25)
    ref = RngStream(4).generator()
    ref.standard_normal(normals)
    assert gen.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("dim", [1, 2])
def test_limit_field_sampler_bit_identical_to_sum_over_zeros(dim):
    comps = tuple(
        LimitFieldComponent(axis, 0.7, 0.0, VarianceFunction.fbm(1.0 + 0.5 * axis))
        for axis in range(dim)
    )
    grid = GridSpec(((-1.0, 1.0, 17),) * dim)
    sampler = LimitFieldSampler(LimitFieldSpec(dim=dim, components=comps), grid)
    got = sampler.sample(RngStream(5).generator(), 40)
    rng = RngStream(5).generator()
    ref = np.zeros((40, *grid.shape))
    for comp, comp_sampler in sampler._samplers:
        w = comp_sampler.sample(rng, 40) * math.sqrt(comp.scale)
        shape = [40] + [1] * dim
        shape[1 + comp.axis] = grid.shape[comp.axis]
        ref += w.reshape(shape)
    assert np.array_equal(got, ref)


_LINE_FIELDS = {
    "white": (LimitFieldComponent(0, 0.7, 0.0, VarianceFunction.fbm(1.0)),),
    "circulant": (LimitFieldComponent(0, 1.0, 0.0, VarianceFunction.fbm(1.5)),),
    "rank-one": (LimitFieldComponent(0, 1.0, 0.0, VarianceFunction.fbm(2.0)),),
    "path-then-cholesky": (
        LimitFieldComponent(0, 0.5, 0.0, VarianceFunction.fbm(1.0)),
        LimitFieldComponent(0, 0.5, 2.0, VarianceFunction.fbm(1.4)),
    ),
    "cholesky-first": (LimitFieldComponent(0, 1.0, 2.0, VarianceFunction.fbm(1.4)),),
    "degenerate": (),
}


@pytest.mark.parametrize("field", sorted(_LINE_FIELDS))
def test_line_field_drawn_into_out_is_the_fresh_draw(field):
    # out= is filled in place and returned; its old contents never leak in
    comps = _LINE_FIELDS[field]
    sampler = LimitFieldSampler(LimitFieldSpec(dim=1, components=comps), GridSpec.line(-1.0, 2.0, 49))
    for size in (1, 7, 300):
        stream = RngStream(23, (size,))
        out = np.full((size, 49), np.nan)
        got = sampler.sample(stream.generator(), size, out=out)
        assert got is out
        assert np.array_equal(out, sampler.sample(stream.generator(), size))


# ---------------------------------------------------------------------------
# covariance oracles (fixed seed, 6/sqrt(N) max-entry band)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_fbm_sampler_covariance(alpha):
    step, n_right, n_left = 0.25, 4, 3
    sampler = FbmSampler(alpha, step, n_right, n_left)
    t = sampler.grid_values()
    x = sampler.sample(RngStream(2026, (1,)).generator(), N_COV)
    emp = x.T @ x / N_COV
    target = _fbm_cov(t)(alpha)
    assert np.max(np.abs(emp - target)) < 6.0 / math.sqrt(N_COV)


def test_fbm_alpha2_is_linear():
    sampler = FbmSampler(2.0, 0.5, n_right=6, n_left=3)
    t = sampler.grid_values()
    x = sampler.sample(RngStream(3).generator(), 50)
    z = x[:, -1] / t[-1]
    assert np.max(np.abs(x - z[:, None] * t[None, :])) < 1e-9


def test_statincr_sampler_covariance_nonuniform():
    vf = VarianceFunction.sum_of_fbm([1.0, 0.5], [0.7, 1.6])
    t = np.array([0.0, 0.3, 0.45, 1.0, 1.7, 2.0])
    sampler = StatIncrSampler(vf, t)
    x = sampler.sample(RngStream(2026, (2,)).generator(), N_COV)
    var = vf(t)
    target = 0.5 * (
        var[:, None] + var[None, :] - vf(np.abs(t[:, None] - t[None, :]))
    )
    emp = x.T @ x / N_COV
    assert np.max(np.abs(emp - target)) < 6.0 / math.sqrt(N_COV) * var.max()
    assert np.all(x[:, 0] == 0.0)  # origin pinned exactly


def test_statincr_brownian_cov_matrix():
    vf = VarianceFunction.fbm(1.0)
    t = np.array([0.0, 1.0, 2.0])
    var = vf(t)
    cov = 0.5 * (var[:, None] + var[None, :] - vf(np.abs(t[:, None] - t[None, :])))
    assert np.allclose(cov, [[0, 0, 0], [0, 1, 1], [0, 1, 2]])


def test_statincr_lags_over_the_cholesky_cap_are_a_model_error():
    def vf(lags):
        assert np.ndim(lags) == 1, "the n x n lag matrix was formed"
        return np.abs(lags)

    with pytest.raises(ModelError, match="exceeding the Cholesky cap"):
        StatIncrSampler(vf, np.arange(CHOLESKY_POINT_BUDGET + 1) / 64)


def test_limit_field_sampler_covariance_2d():
    spec = LimitFieldSpec(
        dim=2,
        components=(
            LimitFieldComponent(0, 1.0, 0.0, VarianceFunction.fbm(1.0)),
            LimitFieldComponent(1, 1.0, 0.0, VarianceFunction.fbm(1.0)),
        ),
    )
    grid = GridSpec(((0.0, 1.0, 3), (0.0, 1.0, 3)))
    sampler = LimitFieldSampler(spec, grid)
    x = sampler.sample(RngStream(2026, (3,)).generator(), N_COV).reshape(N_COV, -1)
    emp_var = (x**2).mean(axis=0)
    target = sampler.variance().reshape(-1)
    # spec example tolerance: sample variance within 5% (plus absolute floor at 0)
    assert np.max(np.abs(emp_var - target)) < max(0.05 * target.max(), 6.0 / math.sqrt(N_COV))


def test_limit_field_finite_mode_matches_fbm_law():
    comp = LimitFieldComponent(0, 1.0, 2.0, VarianceFunction.fbm(1.4))
    spec = LimitFieldSpec(dim=1, components=(comp,))
    grid = GridSpec.line(0.0, 2.0, 5)
    sampler = LimitFieldSampler(spec, grid)
    x = sampler.sample(RngStream(2026, (4,)).generator(), N_COV)
    t = grid.axis_values(0)
    emp = x.T @ x / N_COV
    target = _fbm_cov(t)(1.4)
    assert np.max(np.abs(emp - target)) < 6.0 / math.sqrt(N_COV) * max(1.0, target.max())


def test_degenerate_field_is_zero():
    sampler = LimitFieldSampler(
        LimitFieldSpec.degenerate_field(1), GridSpec.line(0.0, 1.0, 5)
    )
    x = sampler.sample(RngStream(1).generator(), 1)
    assert x.shape == (1, 5)
    assert np.all(x == 0.0)


def test_residual_sampler_covariance():
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    grid = GridSpec.line(0.0, 2.0, 3)  # grid {0, 1, 2}
    sampler = ResidualSampler(fam, 3.0, 0.0, grid)
    x = sampler.sample(RngStream(2026, (5,)).generator(), N_COV)
    # Var R(1) = 1 - e^-2, Cov(R(1), R(2)) = e^-1 - e^-1 e^-2
    assert np.all(x[:, 0] == 0.0)
    var1 = (x[:, 1] ** 2).mean()
    cov12 = (x[:, 1] * x[:, 2]).mean()
    assert var1 == pytest.approx(1 - math.exp(-2), abs=6.0 / math.sqrt(N_COV))
    assert cov12 == pytest.approx(
        math.exp(-1) - math.exp(-3), abs=6.0 / math.sqrt(N_COV)
    )


@pytest.mark.parametrize("lo, hi, n", [(0.0, 2.0, 65), (-1.0, 1.0, 9), (-2.0, 0.0, 5)])
def test_residual_sampler_matches_scatter_formulation(lo, hi, n):
    # the old formulation: zeros, then the free columns assigned from z @ L.T
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    grid = GridSpec.line(lo, hi, n)
    sampler = ResidualSampler(fam, 4.0, 0.0, grid)
    cov = fam.corr_matrix(4.0, 0.0, grid.points()) - np.outer(sampler.r0, sampler.r0)
    free = np.diag(cov) > 1e-14
    assert not free[grid.origin_index()]
    x = sampler.sample(RngStream(2026, (7,)).generator(), 500)
    z = RngStream(2026, (7,)).generator().standard_normal((500, int(free.sum())))
    old = np.zeros((500, grid.size))
    old[:, free] = z @ sampler._L.T
    assert x.shape == (500, n)
    assert np.all(x[:, ~free] == 0.0)
    np.testing.assert_allclose(x, old, rtol=1e-12, atol=0.0)


def _residual(doc, u, axis):
    return ResidualSampler(family_from_config(doc), u, 0.0, GridSpec.line(*axis))


RUIN_DEMO = ({"kind": "ruin", "alpha": 1.0, "c": 1.0}, 16.0, (-0.5, 0.5, 129))
# StatIncrSampler lags on both sides of the pinned origin: 192 free points
LAGS = np.arange(-64, 129) / 32

CHAIN_SAMPLERS = {
    # formula-product-1d: the cross-origin a_i is about 1e-25
    "two-sided-513": lambda: _residual(
        {"kind": "scaled-threshold", "alpha": 1.0, "exponent": 2.0, "gExponent": 4.0},
        4.0, (-4.0, 4.0, 513),
    ),
    "ruin-demo-129": lambda: _residual(*RUIN_DEMO),
    "one-sided-513": lambda: _residual({"kind": "local", "alpha": 1.0}, 4.0, (0.0, 2.0, 513)),
    # the running product of a_i falls below 2^-500 on each side
    "long-800": lambda: _residual({"kind": "local", "alpha": 1.0}, 1.0, (-400.0, 400.0, 513)),
    # Brownian motion on each side of the origin: independent sides, a_i = 0
    "statincr-fbm-1": lambda: StatIncrSampler(VarianceFunction.fbm(1.0), LAGS),
}


def _draws(sampler, size, seed):
    """The sampler's draws, flattened per path, and the product of its normals."""
    x = sampler.sample(RngStream(2026, (seed,)).generator(), size).reshape(size, -1)
    z = RngStream(2026, (seed,)).generator().standard_normal(
        (size, sampler._factor.shape[1])
    )
    return x, z @ sampler._factor.T


@pytest.mark.parametrize("name", list(CHAIN_SAMPLERS))
def test_chain_draws_match_the_product(name):
    sampler = CHAIN_SAMPLERS[name]()
    x, product = _draws(sampler, 500, 10)
    assert sampler._chain is not None
    segments, _, _, a = sampler._chain
    if name == "two-sided-513":
        assert np.abs(a[1:]).min() < 1e-20
    if name == "long-800":
        # a segment that starts right after the previous one: a restart
        ends = [col + e - k for k, e, col in segments]
        assert any(col == end for (_, _, col), end in zip(segments[1:], ends))
    assert x.shape == product.shape
    assert np.all(x[:, ~product.any(axis=0)] == 0.0)
    scale = np.abs(product).max(axis=1, keepdims=True)
    assert np.all(np.abs(x - product) <= 1e-10 * scale)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _residual({"kind": "local", "alpha": 1.5}, 4.0, (-1.0, 1.0, 129)),
        lambda: _residual({"kind": "stationary", "alpha": 2.0}, 3.0, (0.0, 2.0 / 3.0, 129)),
        lambda: StatIncrSampler(VarianceFunction.fbm(0.8), LAGS),
    ],
    ids=["local-1.5", "stationary-2", "statincr-fbm-0.8"],
)
def test_non_first_order_factor_keeps_the_product(make):
    sampler = make()
    x, product = _draws(sampler, 200, 11)
    assert sampler._chain is None
    assert np.array_equal(x, product)


def test_chain_covariance_is_the_residual_covariance():
    doc, u, axis = RUIN_DEMO
    fam = family_from_config(doc)
    grid = GridSpec.line(*axis)
    sampler = ResidualSampler(fam, u, 0.0, grid)
    assert sampler._chain is not None
    x = sampler.sample(RngStream(2026, (12,)).generator(), N_COV)
    target = fam.corr_matrix(u, 0.0, grid.points()) - np.outer(sampler.r0, sampler.r0)
    emp = x.T @ x / N_COV
    assert np.max(np.abs(emp - target)) < 6.0 / math.sqrt(N_COV) * max(1.0, target.max())


# ---------------------------------------------------------------------------
# the PSD rule: Cholesky when it succeeds, else the clipped eigen root


def _gaussian_kernel(n):
    """exp(-d^2) on n points of [0, 2]: singular to rounding from n ~ 20 on."""
    t = np.linspace(0.0, 2.0, n)
    return np.exp(-((t[:, None] - t[None, :]) ** 2))


def test_chol_psd_is_numpy_cholesky_on_a_pd_matrix():
    t = np.arange(1, 41) / 8
    cov = 0.5 * (t[:, None] + t[None, :] - np.abs(t[:, None] - t[None, :]))
    assert np.array_equal(_chol_psd(cov), np.linalg.cholesky(cov))


def test_singular_kernel_draws_from_the_eigen_root():
    cov = _gaussian_kernel(33)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    root = _chol_psd(cov)
    assert root.shape == cov.shape
    np.testing.assert_allclose(root @ root.T, cov, rtol=0, atol=1e-12)
    x = RngStream(2026, (13,)).generator().standard_normal((N_COV, 33)) @ root.T
    assert np.max(np.abs(x.T @ x / N_COV - cov)) < 6.0 / math.sqrt(N_COV)


def test_eigenvalue_below_the_tolerance_is_a_simulation_error():
    q = np.linalg.qr(RngStream(2026, (14,)).generator().standard_normal((6, 6)))[0]
    cov = (q * [2.0, 1.0, 0.5, 0.25, 0.1, 0.0]) @ q.T
    scale = np.max(np.diag(cov))
    inside = cov - 0.1 * PSD_TOL * scale * np.outer(q[:, -1], q[:, -1])
    root = _chol_psd(inside)
    np.testing.assert_allclose(root @ root.T, cov, rtol=0, atol=1e-12)
    with pytest.raises(SimulationError, match="not nonnegative definite"):
        _chol_psd(cov - 1e-6 * scale * np.outer(q[:, -1], q[:, -1]))


def test_circulant_and_cholesky_read_one_tolerance(monkeypatch):
    # every eigenvalue must now reach the largest variance, which only
    # uncorrelated points meet: both generators refuse
    monkeypatch.setattr(simkit, "PSD_TOL", -1.0)
    with pytest.raises(SimulationError, match="circulant"):
        FbmSampler(1.5, 0.25, n_right=16)
    with pytest.raises(SimulationError, match="covariance"):
        _chol_psd(_gaussian_kernel(33))


def test_residual_fully_degenerate():
    fam = family_from_config({"kind": "stationary", "alpha": 1.0, "lengthScale": 1e12})
    grid = GridSpec.line(0.0, 1.0, 5)
    x = ResidualSampler(fam, 3.0, 0.0, grid).sample(RngStream(1).generator(), 100)
    assert np.max(np.abs(x)) < 1e-5


# ---------------------------------------------------------------------------
# fGn structure and cross-validation


def test_fgn_brownian_increment_independence():
    n = 10_000
    path = FbmSampler(1.0, 1.0, n_right=n).sample(RngStream(2026, (6,)).generator(), 1)[0]
    incr = np.diff(path)
    for lag in range(1, 6):
        rho = np.corrcoef(incr[:-lag], incr[lag:])[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(n)


def test_fgn_vs_statincr_cross_validation():
    """Two-sample KS on the endpoint marginal; independent generator paths."""
    alpha, n, step, reps = 1.5, 16, 0.25, 10_000
    fbm = FbmSampler(alpha, step, n_right=n)
    a = fbm.sample(RngStream(2026, (7,)).generator(), reps)[:, -1]
    grid = GridSpec.line(0.0, n * step, n + 1)
    chol = StatIncrSampler(VarianceFunction.fbm(alpha), grid.axis_values(0))
    b = chol.sample(RngStream(2026, (8,)).generator(), reps)[:, -1]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_fbm_endpoint_variance():
    sampler = FbmSampler(1.5, 1.0, n_right=64)
    x = sampler.sample(RngStream(2026, (9,)).generator(), N_COV)
    ratio = (x[:, -1] ** 2).mean() / 64**1.5
    assert 0.9 < ratio < 1.1
