"""Double-maxima probabilities and the exponential cross-term bound.

The double-sum method controls P(sup over box A > m_A, sup over box B > m_B)
by a bound of the form C * S2^(2d) * Psi(min(m_A, m_B)) * exp(-C1 F^beta / 8)
with F the Euclidean separation of the boxes.  The constant C is existential
in the theory; here it becomes a fitted quantity: over a family of
configurations we compute the smallest C covering every estimate's upper
confidence end, and flag families where the required C keeps growing with
separation (which is what a violated correlation-decay assumption looks
like numerically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .covmodels import ModelError
from .mc import Estimate, batches
from .rng import RngStream
from .simkit import _chol_psd
from .tailprob import survival_psi

__all__ = [
    "separation",
    "DoubleMaximaConfig",
    "estimate_double_maxima",
    "eval_double_bound",
    "fit_bound_constant",
    "BoundFitReport",
]

JOINT_POINT_BUDGET = 1 << 12
# replications per batch; batch b draws from substream b, so this fixes the draws
BATCH_SIZE = 4000

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
        if self.s2 <= 1.0:
            raise ModelError("box-size scale S2 must exceed 1")
        if self.c1 <= 0 or self.beta <= 0:
            raise ModelError("bound parameters c1 and beta must be positive")

    @property
    def dim(self) -> int:
        return len(self.cell1)

    def boxes(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        return _shift(self.cell1, self.offset1), _shift(self.cell2, self.offset2)


def estimate_double_maxima(
    cfg: DoubleMaximaConfig,
    u: float,
    points_per_axis: int,
    n_reps: int,
    rng: RngStream,
) -> Estimate:
    """Binomial MC of the joint exceedance over both boxes.

    One Cholesky factorization of the stacked covariance; joint grids are
    capped at 2^12 points.
    """
    box_a, box_b = cfg.boxes()
    pts_a = _box_grid(box_a, points_per_axis)
    pts_b = _box_grid(box_b, points_per_axis)
    n_a = len(pts_a)
    pts = np.concatenate([pts_a, pts_b])
    if len(pts) > JOINT_POINT_BUDGET:
        raise ModelError(
            f"joint grid has {len(pts)} points, exceeding cap {JOINT_POINT_BUDGET}"
        )
    cov = np.asarray(cfg.correlation(u, pts, pts), dtype=float)
    if np.any(np.abs(np.diag(cov) - 1.0) > 1e-8):
        raise ModelError("correlation family is not unit-variance on the grid")
    L = _chol_psd(cov)
    m1, m2 = float(cfg.m1_fn(u)), float(cfg.m2_fn(u))
    hits = 0
    for gen, lo, hi in batches(rng, n_reps, BATCH_SIZE):
        z = gen.standard_normal((hi - lo, len(pts))) @ L.T
        joint = (z[:, :n_a].max(axis=1) > m1) & (z[:, n_a:].max(axis=1) > m2)
        hits += int(np.count_nonzero(joint))
    meta = {"separation": separation(box_a, box_b), "thresholds": (m1, m2)}
    return Estimate.binomial(hits, n_reps, meta)


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
    detail: dict = field(default_factory=dict)


def fit_bound_constant(
    configs: Sequence[tuple[DoubleMaximaConfig, float]],
    estimates: Sequence[Estimate],
    growth_factor: float = 2.0,
) -> BoundFitReport:
    """Smallest C with every CI-upper end below the bound, plus a growth flag.

    ``configs`` pairs each configuration with its threshold level u.  The
    required C of one configuration is ci_upper / (bound at C=1); the fit is
    their maximum.  If the required C at large separations materially
    exceeds the one at separation ~ 0 (factor ``growth_factor``), the
    exponential factor is failing to absorb the cross term and the family is
    flagged — a finite C "fit" over finitely many configurations would be
    vacuous otherwise.
    """
    if len(configs) < 1 or len(configs) != len(estimates):
        raise ModelError("need one estimate per configuration")
    table = []
    for (cfg, u), est in zip(configs, estimates):
        unit_bound = eval_double_bound(cfg, u, c=1.0)
        ci_upper = est.meta.get("ci_exact", est.ci95)[1]
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
    growing = math.isinf(fitted) or (base > 0 and far > growth_factor * base)
    return BoundFitReport(
        fitted_c=fitted,
        table=tuple(table),
        passed=math.isfinite(fitted) and not growing,
        growing_with_separation=growing,
        detail={"near_required_c": base, "far_required_c": far},
    )
