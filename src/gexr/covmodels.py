"""Variance and correlation models of the simulated fields.

The central object is :class:`VarianceFunction`: a variance function
``sigma2(t)`` of a centered process with stationary increments, together
with its regular-variation indices at 0 and at infinity.  Limit fields are
additive combinations of independent one-dimensional components
(:class:`LimitFieldSpec`), and threshold-dependent families of unit-variance
fields are described by :class:`ThresholdedFamilySpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "VarianceFunction",
    "DriftFunction",
    "LimitFieldComponent",
    "LimitFieldSpec",
    "ThresholdedFamilySpec",
    "fgn_autocovariance",
]


class ModelError(ValueError):
    """Invalid or out-of-range model specification."""


# ---------------------------------------------------------------------------
# variance functions


@dataclass(frozen=True)
class VarianceFunction:
    """Variance function sigma2(t) of a stationary-increment process.

    ``alpha0`` / ``alpha_inf`` are the regular-variation indices of sigma2
    at 0 and at infinity; both lie in (0, 2].  ``t_range`` bounds the
    evaluable lags for tabulated models; queries outside it are errors,
    not extrapolations.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    alpha0: float
    alpha_inf: float
    kind: str = "custom"
    t_range: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        for name, a in (("alpha0", self.alpha0), ("alpha_inf", self.alpha_inf)):
            if not 0.0 < a <= 2.0:
                raise ModelError(f"{name} must lie in (0, 2], got {a}")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12):
            raise ModelError("variance function evaluated at negative lag")
        t = np.abs(t)
        lo, hi = self.t_range
        pos = t > 0
        if np.any(pos & ((t < lo - 1e-300) | (t > hi))):
            raise ModelError(
                f"lag outside evaluable range {self.t_range} of {self.kind} model"
            )
        out = np.zeros_like(t)
        if np.any(pos):
            out[pos] = self.fn(t[pos])
        if np.any(out < 0):
            raise ModelError("variance function returned a negative value")
        return out

    @staticmethod
    def fbm(alpha: float) -> "VarianceFunction":
        """sigma2(t) = t**alpha, alpha in (0, 2]."""
        return VarianceFunction(
            fn=lambda t: t**alpha, alpha0=alpha, alpha_inf=alpha, kind=f"fbm({alpha})"
        )

    @staticmethod
    def sum_of_fbm(weights: Sequence[float], alphas: Sequence[float]) -> "VarianceFunction":
        """sigma2(t) = sum_i w_i t**alpha_i with w_i > 0."""
        w = np.asarray(weights, dtype=float)
        a = np.asarray(alphas, dtype=float)
        if len(w) != len(a) or len(w) == 0 or not np.all(w > 0):
            raise ModelError("sum_of_fbm needs matching positive weights and exponents")
        # near 0 the smallest exponent dominates, near infinity the largest;
        # checking those two checks every exponent
        return VarianceFunction(
            fn=lambda t: (w * t[..., None] ** a).sum(axis=-1),
            alpha0=float(a.min()),
            alpha_inf=float(a.max()),
            kind="sumOfFbm",
        )

    @staticmethod
    def from_table(
        table: Sequence[tuple[float, float]], alpha0: float, alpha_inf: float
    ) -> "VarianceFunction":
        """Tabulated sigma2, interpolated log-log linearly between knots."""
        pts = np.asarray(table, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ModelError("table must be a list of [t, var] pairs, at least two")
        t, v = pts[:, 0], pts[:, 1]
        if not (np.all(t > 0) and np.all(v > 0)):
            raise ModelError("table knots must have positive lag and variance")
        order = np.argsort(t)
        lt, lv = np.log(t[order]), np.log(v[order])

        def interp(x):
            return np.exp(np.interp(np.log(x), lt, lv))

        return VarianceFunction(
            fn=interp,
            alpha0=alpha0,
            alpha_inf=alpha_inf,
            kind="table",
            t_range=(float(t.min()), float(t.max())),
        )


def fgn_autocovariance(alpha: float, step: float, lag: int) -> float:
    """Autocovariance at integer ``lag`` of stationary-increment noise.

    For increments of a process with Var X(t) = t**alpha on a grid of
    spacing ``step``:  gamma(k) = step**alpha/2 * (|k+1|**a + |k-1|**a - 2|k|**a).
    """
    if not 0.0 < alpha <= 2.0:
        raise ModelError(f"alpha must lie in (0, 2], got {alpha}")
    if step <= 0:
        raise ModelError("step must be positive")
    if lag < 0:
        raise ModelError("lag must be nonnegative")
    k = float(lag)
    return 0.5 * step**alpha * (
        abs(k + 1) ** alpha + abs(k - 1) ** alpha - 2 * abs(k) ** alpha
    )


# ---------------------------------------------------------------------------
# drift functions and limit fields


@dataclass(frozen=True)
class DriftFunction:
    """The limit drift h(t) on the index set, h(0) = 0, of the constants."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    @staticmethod
    def zero() -> "DriftFunction":
        return DriftFunction(fn=lambda t: np.zeros(np.shape(t)[:1] or ()))


@dataclass(frozen=True)
class LimitFieldComponent:
    """One axis-aligned component of an additive limit field.

    ``mode`` is the scaling limit of the axis: 0 and inf select the local /
    global power-law regimes of ``base``; a finite positive mode freezes the
    base process at that scale.
    """

    axis: int
    scale: float
    mode: float
    base: VarianceFunction

    def __post_init__(self):
        if not self.scale >= 0:  # NaN fails too
            raise ModelError("component scale must be nonnegative")
        if not self.mode >= 0:
            raise ModelError("component mode must be nonnegative (possibly inf)")

    @property
    def power(self) -> float | None:
        """Exponent of W when W is an fBm (alpha0 at mode 0, alpha_inf at mode
        inf); None at a finite mode."""
        if self.mode == 0.0:
            return self.base.alpha0
        if math.isinf(self.mode):
            return self.base.alpha_inf
        return None

    @property
    def local_power(self) -> float:
        """Index of ``unit_variance`` at 0: the grid-bias rate exponent."""
        return self.base.alpha0 if self.power is None else self.power

    def unit_variance(self, t) -> np.ndarray:
        """Variance of the component's unit process W at coordinate t."""
        t = np.abs(np.asarray(t, dtype=float))
        if self.power is not None:
            return t**self.power
        return self.base(self.mode * t) / self.base(self.mode)

    def variance(self, t) -> np.ndarray:
        return self.scale * self.unit_variance(t)


@dataclass(frozen=True)
class LimitFieldSpec:
    """Additive limit field: eta(t) = sum_i sqrt(c_i) W_i(t_{axis_i}).

    Components are independent.  The empty component list is the degenerate
    field eta == 0, legal everywhere downstream.
    """

    dim: int
    components: tuple[LimitFieldComponent, ...] = ()

    def __post_init__(self):
        for c in self.components:
            if not 0 <= c.axis < self.dim:
                raise ModelError(f"component axis {c.axis} outside field dimension")
        if self.components and sum(c.scale for c in self.components) <= 0:
            raise ModelError("at least one component must have positive scale")

    @property
    def degenerate(self) -> bool:
        return not self.components or all(c.scale == 0 for c in self.components)

    def variance(self, points: np.ndarray) -> np.ndarray:
        """Analytic Var eta at an (N, dim) array of points (or (N,) if dim=1)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.dim:
            raise ModelError("points do not match field dimension")
        out = np.zeros(pts.shape[0])
        for c in self.components:
            out += c.variance(pts[:, c.axis])
        return out

    @staticmethod
    def fbm(alpha: float, scale: float = 1.0) -> "LimitFieldSpec":
        """One-dimensional field sqrt(scale) * B_alpha."""
        comp = LimitFieldComponent(0, scale, 0.0, VarianceFunction.fbm(alpha))
        return LimitFieldSpec(dim=1, components=(comp,))

    @staticmethod
    def degenerate_field(dim: int = 1) -> "LimitFieldSpec":
        return LimitFieldSpec(dim=dim, components=())


# ---------------------------------------------------------------------------
# threshold-dependent families


@dataclass(frozen=True)
class ThresholdedFamilySpec:
    """A family of unit-variance centered Gaussian fields with thresholds.

    ``correlation(u, tau, s, t)`` evaluates the correlation between field
    values at point arrays s (N, d) and t (M, d), returning an (N, M) matrix.
    ``threshold(u, tau)`` is the exceedance level; ``index_grid(u)`` the
    finite set of tau values active at u.  ``drift(u, tau, points)``
    (optional) is the denominator perturbation h_{u,tau}; absent means h == 0.
    """

    correlation: Callable[[float, float, np.ndarray, np.ndarray], np.ndarray]
    threshold: Callable[[float, float], float]
    index_grid: Callable[[float], Sequence[float]] = field(default=lambda u: (0.0,))
    drift: Callable[[float, float, np.ndarray], np.ndarray] | None = None

    def corr_matrix(self, u: float, tau: float, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        r = np.asarray(self.correlation(u, tau, pts, pts), dtype=float)
        d = np.diag(r)
        if not np.all(np.abs(d - 1.0) <= 1e-8):  # NaN fails too
            raise ModelError("family correlation is not unit-variance on the grid")
        return r

    def drift_values(self, u: float, tau: float, points: np.ndarray) -> np.ndarray:
        if self.drift is None:
            return np.zeros(len(points))
        return np.asarray(self.drift(u, tau, np.asarray(points, dtype=float)))
