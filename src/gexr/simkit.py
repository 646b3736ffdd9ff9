"""Exact-in-distribution Gaussian path and field simulation on grids.

One sampler class per generator: it does the one-off precomputation
(circulant spectrum or Cholesky factor) and then draws batches of paths from
a numpy generator; a batch is an array with the batch axis leading.

:class:`FbmSampler` draws fractional-Brownian-type paths on uniform grids
from the increment autocovariance: white increments (alpha = 1) and equal
increments (alpha = 2, the path t * Z) directly, every other alpha through
circulant embedding (O(n log n)); all three are exact in law.
:class:`StatIncrSampler` (general stationary-increment variance functions)
and :class:`ResidualSampler` (conditional residual fields) share one
Cholesky factor and one draw: a first-order factor (a Gauss-Markov process)
is drawn by its recursion, O(n) a path, once it has ``CHAIN_MIN_POINTS``
free points; the rest by a product.  Both generators keep one PSD rule,
:func:`_clip_spectrum`, and never perturb a covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covmodels import (
    LimitFieldComponent,
    LimitFieldSpec,
    ModelError,
    ThresholdedFamilySpec,
    fgn_autocovariance,
)

__all__ = [
    "GridSpec",
    "FbmSampler",
    "StatIncrSampler",
    "LimitFieldSampler",
    "ResidualSampler",
]

# no grid has more points than this
GRID_POINT_BUDGET = 1 << 20

# rows per block of the increment draws: one block's arrays stay in cache
ROW_BLOCK = 128

# a covariance eigenvalue below -this times the largest variance is a hard
# error; a smaller negative one is rounding and gets clipped
PSD_TOL = 1e-10

# beyond this many points a Cholesky generator's n x n arrays take gigabytes
CHOLESKY_POINT_BUDGET = 1 << 12

# A residual factor is drawn as a first-order chain when its rows match the
# recursion to this relative defect (Markov factors read at most 2e-12 at
# 513 points; the alpha = 1.5 and alpha = 2 factors read above 0.3) ...
CHAIN_TOL = 1e-9
# ... and it has at least this many free points: below, the product is
# faster (one BLAS thread, 500 paths: 0.25 against 0.27 ms at 96 points,
# 0.43 against 0.38 ms at 128)
CHAIN_MIN_POINTS = 128
# a chain segment restarts before its running product leaves 2^(+-this),
# so the scaled normals z L[i, i] / q and their sums stay finite
CHAIN_SPAN_LOG2 = 500
# residual covariances above -this are nonnegative up to rounding; they are
# formed from correlations, which are at most 1 (measured: -4.4e-16)
COV_ROUNDING_TOL = 1e-12


class SimulationError(RuntimeError):
    """Numerical breakdown in a generator (non-PSD model, bad embedding)."""


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid, one (lo, hi, n_points) triple per axis."""

    per_axis: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        for lo, hi, n in self.per_axis:
            if n < 1:
                raise ModelError("each axis needs at least 1 point")
            if n == 1:
                if hi != lo:
                    raise ModelError("a single-point axis needs hi == lo")
            elif hi <= lo:
                raise ModelError("axis upper bound must exceed lower bound")
        if self.size > GRID_POINT_BUDGET:
            raise ModelError(f"grid has {self.size} points, exceeding budget {GRID_POINT_BUDGET}")

    @staticmethod
    def line(lo: float, hi: float, n_points: int) -> "GridSpec":
        return GridSpec(((lo, hi, n_points),))

    @property
    def dim(self) -> int:
        return len(self.per_axis)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.per_axis)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) if n > 1 else 0.0 for lo, hi, n in self.per_axis
        )

    def axis_values(self, i: int) -> np.ndarray:
        lo, hi, n = self.per_axis[i]
        if n == 1:
            return np.array([lo if lo != 0.0 else 0.0])
        vals = lo + (hi - lo) * np.arange(n) / (n - 1)
        # snap a rounding-size offset of the origin onto it, never a real point
        j = int(np.argmin(np.abs(vals)))
        if abs(vals[j]) <= 1e-9 * (hi - lo) / (n - 1):
            vals[j] = 0.0
        return vals

    def axes(self) -> list[np.ndarray]:
        return [self.axis_values(i) for i in range(self.dim)]

    def points(self) -> np.ndarray:
        """(size, dim) array of grid points, C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def origin_index(self) -> tuple[int, ...]:
        """Multi-index of the origin; error if the origin is off-grid."""
        idx = []
        for i in range(self.dim):
            vals = self.axis_values(i)
            j = int(np.argmin(np.abs(vals)))
            if vals[j] != 0.0:
                raise ModelError("grid does not contain the origin")
            idx.append(j)
        return tuple(idx)


# ---------------------------------------------------------------------------
# low-level factorizations


def _check_cholesky_points(n: int, what: str = "grid") -> None:
    """ModelError when ``n`` points exceed ``CHOLESKY_POINT_BUDGET``."""
    if n > CHOLESKY_POINT_BUDGET:
        raise ModelError(f"{what} has {n} points, exceeding the Cholesky cap {CHOLESKY_POINT_BUDGET}")


def _clip_spectrum(w: np.ndarray, scale: float, what: str) -> np.ndarray:
    """Eigenvalues ``w`` of ``what`` clipped at 0; SimulationError (NaN too)
    when one is below ``-PSD_TOL * scale``, ``scale`` its largest variance."""
    if not np.all(w >= -PSD_TOL * scale):
        raise SimulationError(f"{what} is not nonnegative definite: eigenvalue "
                              f"{np.min(w):.3g} below -{PSD_TOL:g} x {scale:.3g}")
    return np.clip(w, 0.0, None)


def _chol_psd(cov: np.ndarray) -> np.ndarray:
    """An n x n root L of ``cov``, L @ L.T == cov: numpy's Cholesky factor
    whenever it succeeds, else (a singular covariance, such as an alpha = 2
    kernel) V sqrt(w) from ``eigh``, w clipped by :func:`_clip_spectrum`."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(_clip_spectrum(w, float(np.max(np.diag(cov))), "covariance"))


class FbmSampler:
    """Paths with Var X(t) = |t|**alpha on a uniform grid containing 0.

    The grid runs from -n_left*step to n_right*step; X(0) = 0 exactly.
    The increments over the whole span are drawn, summed and the path
    recentered at the origin (increment stationarity makes this exact in
    law); they are written into the paths ``ROW_BLOCK`` rows at a time, so
    no batch-sized array of increments is held besides the paths.  The
    draw is picked from the fGn autocovariance gamma itself.
    White increments (gamma[1:] == 0, alpha = 1) are sqrt(gamma[0]) times
    independent normals.  Equal increments (gamma[k] == gamma[0], alpha = 2)
    have a rank-one covariance: ``rank_one`` is set and the path is t * Z,
    one normal per path.  Every other gamma goes through circulant embedding
    on a ring of m points, whose spectrum :func:`_clip_spectrum` checks.
    """

    def __init__(self, alpha: float, step: float, n_right: int, n_left: int = 0):
        if n_right < 0 or n_left < 0 or n_right + n_left < 1:
            raise ModelError("need at least one increment")
        self.alpha = alpha
        self.step = step
        self.n_left = n_left
        self.n_right = n_right
        self.n_points = n_left + n_right + 1
        m = 1 << max(1, int(math.ceil(math.log2(2 * (n_left + n_right)))))
        gamma = np.array([fgn_autocovariance(alpha, step, k) for k in range(m // 2 + 1)])
        self.m = m
        self.white = not np.any(gamma[1:])
        self.rank_one = bool(np.all(gamma == gamma[0]))
        self._sd = math.sqrt(gamma[0])
        if self.white or self.rank_one:
            return
        ring = np.concatenate([gamma, gamma[-2:0:-1]])
        lam = _clip_spectrum(np.fft.rfft(ring).real, gamma[0], "circulant increment embedding")
        # spectral weights for the Hermitian-symmetric normal draw
        self._sqrt_lam = np.sqrt(lam / m)

    def sample(
        self, rng: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(size, n_points) paths, written into ``out`` when it is given.

        The increments are written into columns 1: of the paths, then one
        ``cumsum`` scans the whole batch in place (numpy runs it without the
        GIL over more than 500 rows) and one subtraction recenters it.  Each
        row adds its increments in grid order, as a scan of the row alone.
        """
        path = np.empty((size, self.n_points)) if out is None else out
        if self.rank_one:
            return np.multiply(rng.standard_normal((size, 1)), self.grid_values(), out=path)
        path[:, 0] = 0.0
        incr = path[:, 1:]
        self._write_increments(rng, incr)
        np.cumsum(incr, axis=1, out=incr)
        # recenter so that the value at the origin (index n_left) is 0
        path -= path[:, self.n_left : self.n_left + 1].copy()
        return path

    def _write_increments(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Stationary increments into ``out`` (size, n_points - 1), by ROW_BLOCK rows.

        White rows are drawn one after another, so each block draws its own
        normals.  The embedding takes every row's real parts before any
        imaginary part, so its spectrum is built for the whole batch and only
        the inverse transform, a row at a time either way, goes by blocks.
        Either way the temporary block holds at most ROW_BLOCK rows.
        """
        size, n_incr = out.shape
        if self.white:
            for lo in range(0, size, ROW_BLOCK):
                noise = rng.standard_normal((min(ROW_BLOCK, size - lo), n_incr))
                np.multiply(noise, self._sd, out=out[lo : lo + ROW_BLOCK])
            return
        m = self.m
        half = m // 2
        root_m = math.sqrt(m)
        spec = np.empty((size, half + 1), dtype=complex)
        # (real, imag) float pairs of the spectrum, written in place
        parts = spec.view(np.float64).reshape(size, half + 1, 2)
        mid = self._sqrt_lam[1:half] * math.sqrt(m / 2.0)
        z = rng.standard_normal((size, half + 1))
        parts[:, 0, 0] = z[:, 0] * self._sqrt_lam[0] * root_m
        parts[:, half, 0] = z[:, half] * self._sqrt_lam[half] * root_m
        np.multiply(z[:, 1:half], mid, out=parts[:, 1:half, 0])
        del z  # free each draw before the next full-batch allocation
        np.multiply(rng.standard_normal((size, half - 1)), mid, out=parts[:, 1:half, 1])
        parts[:, 0, 1] = 0.0
        parts[:, half, 1] = 0.0
        for lo in range(0, size, ROW_BLOCK):
            noise = np.fft.irfft(spec[lo : lo + ROW_BLOCK], n=m, axis=1)
            np.multiply(noise[:, :n_incr], root_m, out=out[lo : lo + ROW_BLOCK])

    def grid_values(self) -> np.ndarray:
        return np.arange(-self.n_left, self.n_right + 1) * self.step


class StatIncrSampler:
    """Cholesky sampler for a stationary-increment process on arbitrary lags.

    Cov(X(s), X(t)) = (sigma2(|s|) + sigma2(|t|) - sigma2(|t-s|)) / 2, with
    ``vf`` any callable sigma2 of nonnegative lags (a ``VarianceFunction``
    is one).  Points with zero variance (the origin) are pinned to 0 exactly
    by :func:`_pinned_factor`, the factor :class:`ResidualSampler` uses too.
    """

    def __init__(self, vf: Callable[[np.ndarray], np.ndarray], t_values: np.ndarray):
        t = np.asarray(t_values, dtype=float)
        _check_cholesky_points(len(t), "lag grid")
        var = vf(np.abs(t))
        dist = np.abs(t[:, None] - t[None, :])
        cov = 0.5 * (var[:, None] + var[None, :] - vf(dist))
        self._L, self._factor, self._chain = _pinned_factor(cov)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _pinned_draw(rng, size, self._factor, self._chain)


def _component_sampler(comp: LimitFieldComponent, axis_values: np.ndarray):
    """Sampler for the unit process W of one limit-field component.

    An fBm component on a uniform axis through 0 goes by circulant
    embedding; every other one by Cholesky of its own ``unit_variance``.
    """
    t = np.asarray(axis_values, dtype=float)
    uniform = len(t) >= 2 and np.allclose(np.diff(t), t[1] - t[0], rtol=0, atol=1e-12)
    if comp.power is not None and uniform and np.any(t == 0.0):
        step = float(t[1] - t[0])
        n_left = int(np.argmin(np.abs(t)))
        return FbmSampler(comp.power, step, len(t) - 1 - n_left, n_left)
    return StatIncrSampler(comp.unit_variance, t)


class LimitFieldSampler:
    """Additive limit field over a d-dimensional grid.

    Field value at t equals sum_i sqrt(c_i) W_i(t_{axis_i}) with independent
    one-dimensional components; the batch shape is (size, *grid.shape).
    """

    def __init__(self, eta: LimitFieldSpec, grid: GridSpec):
        if grid.dim != eta.dim:
            raise ModelError("grid dimension does not match field dimension")
        self.eta = eta
        self.grid = grid
        self._samplers = [
            (c, _component_sampler(c, grid.axis_values(c.axis)))
            for c in eta.components
            if c.scale > 0
        ]

    @property
    def rank_one(self) -> bool:
        """True for a line field whose every component is a path t * Z.

        The field is then c t Z, so -eta is eta reflected about the origin,
        path by path.
        """
        return self.grid.dim == 1 and bool(self._samplers) and all(
            isinstance(s, FbmSampler) and s.rank_one for _, s in self._samplers
        )

    def sample(
        self, rng: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(size, *grid.shape) draws, written into ``out`` when it is given.

        On a line, a first component drawn by :class:`FbmSampler` is drawn
        straight into ``out``; otherwise the sum is copied into it.
        """
        full = (size, *self.grid.shape)
        total = None
        for comp, sampler in self._samplers:
            if total is None and self.grid.dim == 1 and isinstance(sampler, FbmSampler):
                w = sampler.sample(rng, size, out=out)
            else:
                w = sampler.sample(rng, size)
            if comp.scale != 1.0:  # w * 1.0 == w: skip a pass over the batch
                w *= math.sqrt(comp.scale)
            shape = [size] + [1] * self.grid.dim
            shape[1 + comp.axis] = self.grid.shape[comp.axis]
            w = w.reshape(shape)
            if total is None:
                # the first component is assigned rather than added to zeros
                total = w if w.shape == full else np.broadcast_to(w, full).copy()
            else:
                total += w
        if total is None:
            total = np.zeros(full)
        if out is None:
            return total
        if not np.may_share_memory(total, out):
            out[...] = total
        return out

    def variance(self) -> np.ndarray:
        """Analytic Var eta on the grid, shaped grid.shape."""
        return self.eta.variance(self.grid.points()).reshape(self.grid.shape)


def _chain_plan(L: np.ndarray, free: np.ndarray):
    """Segments of the first-order recursion that ``L`` factors, or None.

    ``L`` is first order when each row's strictly lower part is a_i times
    the row above, a_i = L[i, i-1] / L[i-1, i-1], to ``CHAIN_TOL`` of the
    row's largest entry; then x_i = a_i x_{i-1} + L[i, i] z_i.  Within a
    segment [k, e) the recursion is x = q * cumsum(z * L[i, i] / q), q the
    running product of a_i since k (q[k] = 1), and x_k takes the carry
    a_k x_{k-1}.  A segment ends where q would leave [2^-CHAIN_SPAN_LOG2,
    2^CHAIN_SPAN_LOG2] (or reach 0) and where the free points stop being
    contiguous on the grid, so each segment is one slice of the output.
    Returns (segments, weights, q, a), a segment being (k, e, first column).
    """
    n = L.shape[0]
    diag = np.diag(L)
    # an eigen root of _chol_psd is not triangular, so never a recursion
    if np.any(diag <= 0.0) or np.any(np.triu(L, 1)):
        return None
    a = np.zeros(n)
    a[1:] = np.diag(L, -1) / diag[:-1]
    defect = L[1:] - a[1:, None] * L[:-1]
    defect[np.arange(n - 1), np.arange(1, n)] = 0.0  # the diagonal L[i, i]
    if np.any(np.abs(defect).max(axis=1) > CHAIN_TOL * np.abs(L[1:]).max(axis=1)):
        return None
    cols = np.flatnonzero(free)
    q = np.ones(n)
    starts = [0]
    for i in range(1, n):
        step = q[i - 1] * a[i]
        if (
            cols[i] != cols[i - 1] + 1
            or step == 0.0
            or abs(math.log2(abs(step))) > CHAIN_SPAN_LOG2
        ):
            starts.append(i)
        else:
            q[i] = step
    ends = starts[1:] + [n]
    segments = [(k, e, int(cols[k])) for k, e in zip(starts, ends)]
    return segments, diag / q, q, a


def _pinned_factor(cov: np.ndarray):
    """(L, factor, chain) of a covariance; points of variance <= 1e-14 are pinned at 0.

    ``L`` factors the free points (None when there are none) and ``factor``
    is ``L`` spread over every point, with zero rows at the pinned ones.
    ``chain`` is the :func:`_chain_plan` of a first-order factor (a
    Gauss-Markov process, as every alpha = 1 model gives) with at least
    ``CHAIN_MIN_POINTS`` free points, else None.
    """
    free = np.diag(cov) > 1e-14
    L = _chol_psd(cov[np.ix_(free, free)]) if np.any(free) else None
    factor = np.zeros((len(cov), int(free.sum())))
    if L is None:
        return None, factor, None
    factor[free] = L
    return L, factor, _chain_plan(L, free) if len(L) >= CHAIN_MIN_POINTS else None


def _pinned_draw(rng: np.random.Generator, size: int, factor: np.ndarray, chain):
    """(size, n) draws of a :func:`_pinned_factor` ``factor`` and ``chain``.

    A chain is drawn by its recursion, O(n) a path, any other factor by one
    product with ``factor``, O(n^2) a path; both read the same normals.
    """
    z = rng.standard_normal((size, factor.shape[1]))
    if chain is None:
        return z @ factor.T
    segments, weights, q, a = chain
    z *= weights
    out = np.zeros((size, factor.shape[0]))
    for k, e, col in segments:
        if k > 0:  # carry a_k x_{k-1}; q[k] = 1, so z[:, k] is on its scale
            z[:, k] += a[k] * seg[:, -1]
        seg = out[:, col : col + e - k]
        np.cumsum(z[:, k:e], axis=1, out=seg)
        seg *= q[k:e]
    return out


class ResidualSampler:
    """Conditional residual R(t) = Z(t) - r(t,0) Z(0) of a family member.

    R(0) = 0 exactly and Cov(R(s), R(t)) = r(s,t) - r(s,0) r(t,0); Z(0) is
    never sampled, the residual covariance goes to :func:`_pinned_factor`.
    ``associated`` is True when every residual covariance is nonnegative up
    to ``COV_ROUNDING_TOL``: R is then associated (Pitt 1982), so an
    antithetic pair R, -R never has more variance than two independent paths.
    """

    def __init__(
        self, family: ThresholdedFamilySpec, u: float, tau: float, grid: GridSpec
    ):
        _check_cholesky_points(grid.size)
        grid.origin_index()  # the conditioning identity pivots on t = 0
        pts = grid.points()
        r = family.corr_matrix(u, tau, pts)
        origin = np.zeros((1, grid.dim))
        r0 = np.asarray(family.correlation(u, tau, pts, origin)).reshape(-1)
        cov = r - np.outer(r0, r0)
        self.grid = grid
        self.r0 = r0
        self.associated = bool(cov.min() >= -COV_ROUNDING_TOL)
        self._L, self._factor, self._chain = _pinned_factor(cov)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _pinned_draw(rng, size, self._factor, self._chain).reshape(size, *self.grid.shape)
