"""Double-maxima probabilities and the exponential cross-term bound.

The double-sum method controls P(sup over box A > m_A, sup over box B > m_B)
by a bound of the form C * S2^(2d) * Psi(min(m_A, m_B)) * exp(-C1 F^beta / 8)
with F the Euclidean separation of the boxes.  The probability itself is
estimated by pivoting on box A's exceedance count (Adler, Blanchet & Liu,
Ann. Appl. Probab. 2012): each sample conditions the field on one uniform
point of A exceeding m_A, is bounded by n_A Psi(m_A), and so keeps a
relative error that a hit count loses as the probability falls.  The
constant C is existential in the theory; here it becomes a fitted quantity:
over a family of configurations we compute the smallest C covering every
estimate's upper confidence end, and flag families where the required C
keeps growing with separation (which is what a violated correlation-decay
assumption looks like numerically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .covmodels import ModelError
from .mc import Estimate, PathPairs, batch_map
from .rng import RngStream
from .simkit import _check_cholesky_points, _chol_psd
from .tailprob import survival_psi

__all__ = [
    "separation",
    "DoubleMaximaConfig",
    "estimate_double_maxima",
    "eval_double_bound",
    "fit_bound_constant",
    "BoundFitReport",
]

# replications per batch; batch b draws from substream b, so this fixes the draws
BATCH_SIZE = 4000
# fit_bound_constant flags growth when the far configurations need more
# than this multiple of the constant that the nearest ones need
GROWTH_FACTOR = 2.0

Box = Sequence[tuple[float, float]]


def separation(box_a: Box, box_b: Box) -> float:
    """Euclidean distance between two axis-aligned boxes (0 if they meet)."""
    if len(box_a) != len(box_b) or not box_a:
        raise ModelError("boxes must be nonempty and share a dimension")
    gaps = []
    for (a_lo, a_hi), (b_lo, b_hi) in zip(box_a, box_b):
        if a_hi < a_lo or b_hi < b_lo:
            raise ModelError("box intervals must have lo <= hi")
        gaps.append(max(0.0, b_lo - a_hi, a_lo - b_hi))
    return math.sqrt(sum(g * g for g in gaps))


def _shift(box: Box, offset: Sequence[float]) -> tuple[tuple[float, float], ...]:
    return tuple((lo + o, hi + o) for (lo, hi), o in zip(box, offset))


def _box_grid(box: Box, points_per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@dataclass(frozen=True)
class DoubleMaximaConfig:
    """Two translated boxes, their thresholds, and the bound parameters.

    ``correlation(u, s, t)`` returns the (N, M) correlation matrix of the
    unit-variance field between point arrays s and t.  The effective boxes
    are offset_i + cell_i; ``m1_fn``/``m2_fn`` give their thresholds at
    level u.  ``c1``/``beta`` are the correlation-decay parameters of the
    bound and ``s2`` the box-size scale it quotes.
    """

    correlation: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    cell1: Box
    cell2: Box
    offset1: tuple[float, ...]
    offset2: tuple[float, ...]
    m1_fn: Callable[[float], float]
    m2_fn: Callable[[float], float]
    c1: float
    beta: float
    s2: float = 2.0

    def __post_init__(self):
        if len(self.cell1) != len(self.cell2):
            raise ModelError("cells must share a dimension")
        if not self.s2 > 1.0:  # NaN fails too
            raise ModelError("box-size scale S2 must exceed 1")
        if not (self.c1 > 0 and self.beta > 0):
            raise ModelError("bound parameters c1 and beta must be positive")

    @property
    def dim(self) -> int:
        return len(self.cell1)

    def boxes(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        return _shift(self.cell1, self.offset1), _shift(self.cell2, self.offset2)


def _joint_points(box_a: Box, box_b: Box, points_per_axis: int):
    """The distinct points of both box grids, with the box sizes n_A, n_B.

    A point the two grids share is stored once, after A's own points and
    before B's own ones, so box A is rows [0, n_A) and box B the last n_B
    rows.  Stacking it twice would make the covariance singular.  The cap
    counts both grids in full.
    """
    pts_a = _box_grid(box_a, points_per_axis)
    pts_b = _box_grid(box_b, points_per_axis)
    _check_cholesky_points(len(pts_a) + len(pts_b), "joint grid")
    same = (pts_a[:, None, :] == pts_b[None, :, :]).all(axis=-1)
    in_b, in_a = same.any(axis=1), same.any(axis=0)
    pts = np.concatenate([pts_a[~in_b], pts_a[in_b], pts_b[~in_a]])
    return pts, len(pts_a), len(pts_b)


def estimate_double_maxima(
    cfg: DoubleMaximaConfig,
    u: float,
    points_per_axis: int,
    n_reps: int,
    rng: RngStream,
) -> Estimate:
    """P(max_A Z > m1, max_B Z > m2) by a pivot on box A's exceedance count.

    With N_A, N_B the boxes' exceedance counts, the exact identity
    1{N_A >= 1, N_B >= 1} = sum_{i in A} 1{Z_i > m1} 1{N_B >= 1} / N_A
    gives P = n_A Psi(m1) E[1{max_B Z > m2} / N_A] with the pivot i uniform
    on A and the field conditioned on Z_i > m1: Z_i = x = -ndtri(U Psi(m1))
    and Z = x C[:, i] + R, with R = Z' - C[:, i] Z'_i the residual of an
    unconditioned path Z'.  Every sample lies in [0, n_A Psi(m1)].

    Paths come in antithetic pairs x C[:, i] +- R that share the pivot, x
    and one draw of R, counted and averaged by :class:`~gexr.mc.PathPairs`:
    ``n_reps`` counts paths and an odd count rounds up to whole pairs.
    Within a batch the pivots cycle over A from an offset drawn from the
    batch's generator, so each pivot is uniform and the batch visits every
    point of A equally often, to within one.  One Cholesky factor of the
    distinct points of both grids serves every pivot; joint grids are
    capped at ``simkit.CHOLESKY_POINT_BUDGET`` points.
    """
    from scipy import special

    box_a, box_b = cfg.boxes()
    pts, n_a, n_b = _joint_points(box_a, box_b, points_per_axis)
    n = len(pts)
    cov = np.asarray(cfg.correlation(u, pts, pts), dtype=float)
    if not np.all(np.abs(np.diag(cov) - 1.0) <= 1e-8):  # NaN fails too
        raise ModelError("correlation family is not unit-variance on the grid")
    L = _chol_psd(cov)
    m1, m2 = float(cfg.m1_fn(u)), float(cfg.m2_fn(u))
    psi1 = survival_psi(m1)
    pairs = PathPairs(n_reps)
    samples = np.empty(pairs.n_reps)
    # one workspace per batch_map slot, sized for the largest batch's pairs:
    # pivot levels, the residual draw z, the path (first holding the normals)
    # and its exceedances on A
    rows = -(-(min(BATCH_SIZE, pairs.n_reps) // 2) // n_a) * n_a
    slots = [
        (np.empty(rows), np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n_a), bool))
        for _ in range(2)
    ]

    def body(gen, lo, hi, slot):
        half = (hi - lo) // 2
        cycles = -(-half // n_a)
        x, z, path, exc = (a[: cycles * n_a] for a in slots[slot])
        pivots = (int(gen.integers(n_a)) + np.arange(n_a)) % n_a
        # rows past `half` pad the last cycle, stay finite and are dropped
        x[:half] = -special.ndtri((1.0 - gen.random(half)) * psi1)
        x[half:] = m1
        gen.standard_normal(out=path[:half])
        np.matmul(path[:half], L.T, out=z[:half])
        z[half:] = 0.0
        x, z = x.reshape(cycles, n_a, 1), z.reshape(cycles, n_a, n)
        path, exc = path.reshape(cycles, n_a, n), exc.reshape(cycles, n_a, n_a)
        z_i = z[:, np.arange(n_a), pivots][..., None]
        c = cov[pivots]  # row j is the pivot column of the rows j mod n_A
        # rows 2k and 2k+1 are the pair x c + R and x c - R, R = z - z_i c
        for first, to_x, to_z in ((lo, np.subtract, np.add), (lo + 1, np.add, np.subtract)):
            np.multiply(to_x(x, z_i), c, out=path)
            to_z(path, z, out=path)
            # the pivot itself exceeds m1, which rounding can hide when x ~ m1
            n_exc = np.maximum(np.greater(path[..., :n_a], m1, out=exc).sum(axis=-1), 1)
            hit_b = path[..., n - n_b :].max(axis=-1) > m2
            samples[first:hi:2] = (n_a * psi1 * hit_b / n_exc).reshape(-1)[:half]

    batch_map(body, rng, pairs.n_reps, BATCH_SIZE)
    meta = {"separation": separation(box_a, box_b), "thresholds": (m1, m2)}
    return pairs.estimate(samples, meta=meta)


def eval_double_bound(cfg: DoubleMaximaConfig, u: float, c: float = 1.0) -> float:
    """C * S2^(2d) * Psi(min thresholds) * exp(-C1 F^beta / 8)."""
    box_a, box_b = cfg.boxes()
    f = separation(box_a, box_b)
    m_min = min(float(cfg.m1_fn(u)), float(cfg.m2_fn(u)))
    return (
        c
        * cfg.s2 ** (2 * cfg.dim)
        * survival_psi(m_min)
        * math.exp(-cfg.c1 * f**cfg.beta / 8.0)
    )


@dataclass(frozen=True)
class BoundFitReport:
    """Fitted constant, per-configuration slack table, and the verdict."""

    fitted_c: float
    table: tuple[dict, ...]  # separation, s2, u, d_hat, ci_upper, bound, slack, required_c
    passed: bool
    growing_with_separation: bool


def fit_bound_constant(
    configs: Sequence[tuple[DoubleMaximaConfig, float]],
    estimates: Sequence[Estimate],
) -> BoundFitReport:
    """Smallest C with every CI-upper end below the bound, plus a growth flag.

    ``configs`` pairs each configuration with its threshold level u.  The
    required C of one configuration is ci_upper / (bound at C=1); the fit is
    their maximum.  ci_upper is the upper end of the normal 95% interval
    ``ci95`` of the pair means of :func:`estimate_double_maxima`.  If the
    required C at large separations exceeds the one at separation ~ 0 by
    more than ``GROWTH_FACTOR``, the exponential factor is failing to absorb
    the cross term and the family is flagged — a finite C "fit" over
    finitely many configurations would be vacuous otherwise.
    """
    if len(configs) < 1 or len(configs) != len(estimates):
        raise ModelError("need one estimate per configuration")
    table = []
    for (cfg, u), est in zip(configs, estimates):
        unit_bound = eval_double_bound(cfg, u, c=1.0)
        ci_upper = est.ci95[1]
        required = ci_upper / unit_bound if unit_bound > 0 else math.inf
        box_a, box_b = cfg.boxes()
        table.append(
            {
                "separation": separation(box_a, box_b),
                "s2": cfg.s2,
                "u": u,
                "d_hat": est.value,
                "ci_upper": ci_upper,
                "unit_bound": unit_bound,
                "required_c": required,
            }
        )
    fitted = max(row["required_c"] for row in table)
    for row in table:
        row["bound"] = fitted * row["unit_bound"]
        row["slack"] = row["bound"] - row["ci_upper"]
    by_sep = sorted(table, key=lambda row: row["separation"])
    base = max(
        [r["required_c"] for r in by_sep if r["separation"] <= by_sep[0]["separation"]]
    )
    far = max(r["required_c"] for r in by_sep[-max(1, len(by_sep) // 3) :])
    growing = math.isinf(fitted) or (base > 0 and far > GROWTH_FACTOR * base)
    return BoundFitReport(
        fitted_c=fitted,
        table=tuple(table),
        passed=math.isfinite(fitted) and not growing,
        growing_with_separation=growing,
    )
