"""Tail probabilities of functionals of threshold-dependent Gaussian fields.

Two estimators of P(Gamma(Z/(1+h)) > g):

* ``crude_mc_tail`` — binomial Monte Carlo of the exceedance indicator, with
  an exact Clopper-Pearson interval.  Useless at large thresholds but an
  indispensable cross-check at small ones.
* ``conditional_tail`` — variance-reduced estimator built on the exact
  conditioning identity

      P = e^{-g^2/2} / (sqrt(2 pi) g) *
          int e^{w - w^2/(2 g^2)} P(Gamma(chi_w) > w) dw,

  where chi_w is the field conditioned on its origin value g - w/g,
  recentred and rescaled so that chi_w(0) = 0.  chi_w is affine in w,
  chi_w(t) = A(t) + w B(t), with A containing all the randomness.  Every
  functional here is affine-equivariant and monotone, so
  Gamma(A + w B) - w = Gamma(A - w (1 - B)) is nonincreasing in w where
  B <= 1: each path's hit set is a half-line (-inf, w*), and the w-integral
  collapses to the closed form Psi(g - w*/g) — no w-sampling, no truncation
  error.  w* = max_t A/(1-B) for sup and min_t A/(1-B) for inf; mixtures
  and compositions lie between the two and find w* by bisection.  B > 1,
  a grid point negatively correlated with the origin, is rejected.

  Where every residual covariance is nonnegative, as for every preset's
  family (alpha = 1, Markov), replications come in antithetic pairs
  (``mc.PathPairs``): the field paths built from a residual path R and
  from -R share one draw.  R and -R have one law, so the estimator stays
  unbiased.  Each per-path sample is nondecreasing in R, and R is
  associated (Pitt 1982), so a pair never has more variance than two
  independent paths.  With alpha > 1 on a grid that straddles the origin
  some covariances are negative, a pair can lose to two paths, and every
  path gets its own R.  A/(1 - B) = m + c R with m and c precomputed per
  cell, so every functional reads one block: a batch forms m + c R and
  m - c R from the residual rows and reduces them to their max for sup,
  their min for inf, or both, the bisection bracket, for any other.

The module also houses the uniform-ratio audit (does P/Psi approach the
generalized constant uniformly over the family index?) and the closed-form
asymptotic evaluators, including the d1/d2/d product formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .covmodels import ModelError, ThresholdedFamilySpec
from .functionals import FunctionalSpec, apply_functional
from .mc import Estimate, PathPairs, batch_map, cell_map
from .rng import RngStream
from .simkit import (
    GridSpec,
    ResidualSampler,
    SimulationError,
    _check_cholesky_points,
    _chol_psd,
)

__all__ = [
    "survival_psi",
    "crude_mc_tail",
    "ConditionalSampler",
    "conditional_tail",
    "tail_cell",
    "tail_row",
    "uniform_ratio_audit",
    "AuditReport",
    "AsymptoticSetup",
    "FormulaResult",
    "eval_mainm_formula",
]

# replications per batch; batch b draws from substream b, so these fix the draws
CONDITIONAL_BATCH = 1000  # field paths: 500 antithetic pairs
CRUDE_BATCH = 4000
# halvings of a bisected crossing point: they shrink a bracket of at most
# 47 g (the clip window of _bisect_crossing) below 3e-18 g, a relative error
# below 1e-16 in Psi(g - w*/g) wherever that is not exactly 0 or 1
BISECTION_HALVINGS = 64


def survival_psi(x):
    """Upper tail of the standard normal law, accurate into the far tail.

    ``scipy.special`` is imported here and in the other three functions that
    call it, not at module level: importing gexr then loads numpy only, and
    the ``constants`` and ``list-presets`` commands, which never reach a
    normal-tail, inverse-normal, Clopper-Pearson or incomplete-gamma call,
    never pay for its import.  After the first call the statement is a
    dictionary lookup.
    """
    from scipy import special

    out = special.ndtr(-np.asarray(x, dtype=float))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _drift(family, u, tau, pts) -> np.ndarray:
    """The drift h on ``pts``, flattened; both estimators divide by 1 + h."""
    h = family.drift_values(u, tau, pts).reshape(-1)
    if np.any(1.0 + h <= 0):
        raise ModelError("drift pushes 1 + h below zero on the grid")
    return h


def crude_mc_tail(
    family: ThresholdedFamilySpec,
    u: float,
    tau: float,
    gamma: FunctionalSpec,
    grid: GridSpec,
    n_reps: int,
    rng: RngStream,
) -> Estimate:
    """Binomial estimate of P(Gamma(Z/(1+h)) > g) by direct field simulation.

    meta carries the hit count, the exact 95% Clopper-Pearson interval and a
    ``low_confidence`` flag when there are no hits at all.
    """
    _check_cholesky_points(grid.size)
    g = float(family.threshold(u, tau))
    pts = grid.points()
    h = _drift(family, u, tau, pts).reshape(grid.shape)
    r = family.corr_matrix(u, tau, pts)
    L = _chol_psd(r)
    hit = np.empty(n_reps, dtype=bool)

    def body(gen, lo, hi, slot):
        size = hi - lo
        z = (gen.standard_normal((size, len(pts))) @ L.T).reshape(size, *grid.shape)
        vals = apply_functional(gamma, z / (1.0 + h), grid_ndim=grid.dim)
        hit[lo:hi] = vals > g

    batch_map(body, rng, n_reps, CRUDE_BATCH)
    hits = int(np.count_nonzero(hit))
    meta = {"g": g, "low_confidence": True} if hits == 0 else {"g": g}
    return Estimate.binomial(hits, n_reps, meta)


@dataclass
class ConditionalSampler:
    """Precomputed pieces of the conditional field chi_w = A + w B.

    With r0(t) = Corr(Z(t), Z(0)) and drift h:
        (1+h) A(t) = g R(t) - g^2 (1 - r0) - g^2 h,
        (1+h) B(t) = 1 - r0 + h,
    R the residual of Z given Z(0).  chi_w(0) = 0 exactly.  B > 1, which
    only a point with r0 < 0 gives, is rejected; ``slope`` is 1 - B.

    ``paired`` is True when the residual is associated (every residual
    covariance nonnegative): field paths then come in antithetic pairs
    built from R and -R, otherwise every path has its own R.  Every
    functional's crossing reads A/(1 - B) = m + c R with m = mean_part / slope
    and c = noise_scale / slope, precomputed per cell (0 at the flat points,
    B = 1, whose A/(1 - B) is read from the sign of A).
    """

    family: ThresholdedFamilySpec
    u: float
    tau: float
    grid: GridSpec

    def __post_init__(self):
        self.g = float(self.family.threshold(self.u, self.tau))
        if self.g <= 0:
            raise ModelError("conditioning identity requires a positive threshold")
        pts = self.grid.points()
        self._residual = ResidualSampler(self.family, self.u, self.tau, self.grid)
        self.paired = self._residual.associated
        r0 = self._residual.r0
        h = _drift(self.family, self.u, self.tau, pts)
        denom = 1.0 + h
        g = self.g
        self.mean_part = (-(g**2) * (1.0 - r0) - g**2 * h) / denom
        self.b_part = (1.0 - r0 + h) / denom
        if np.any(self.b_part > 1.0):
            raise ModelError("a grid point has negative correlation to the origin")
        self.slope = 1.0 - self.b_part
        self.noise_scale = g / denom
        self.flat = self.slope == 0.0
        divisor = np.where(self.flat, 1.0, self.slope)
        self._ratio_mean = np.where(self.flat, 0.0, self.mean_part / divisor)
        self._ratio_scale = np.where(self.flat, 0.0, self.noise_scale / divisor)


def _bisect_crossing(sampler, gamma, a, lo, hi) -> np.ndarray:
    """Per path, the w where Gamma(A - w (1 - B)) falls to 0, within [lo, hi].

    Brackets are clipped to [g^2 - 38 g, g^2 + 9 g], outside which
    Psi(g - w/g) is exactly 0 or 1 in float64, so an infinite bound (B = 1)
    changes no sample.  Halving stops after ``BISECTION_HALVINGS`` or once
    every bracket is two adjacent floats.
    """
    g = sampler.g
    lo = np.clip(lo, g * g - 38.0 * g, g * g + 9.0 * g)
    hi = np.clip(hi, g * g - 38.0 * g, g * g + 9.0 * g)
    shape = (len(a), *sampler.grid.shape)
    field = np.empty_like(a)
    for _ in range(BISECTION_HALVINGS):
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        np.multiply(mid[:, None], sampler.slope, out=field)
        np.subtract(a, field, out=field)
        hit = apply_functional(
            gamma, field.reshape(shape), grid_ndim=sampler.grid.dim
        ) > 0.0
        lo = np.where(hit, mid, lo)
        hi = np.where(hit, hi, mid)
    return 0.5 * (lo + hi)


def _crossing_point(sampler, gamma, gen, size) -> np.ndarray:
    """Per path, the end w* of the hit set {w : Gamma(A + w B) > w}.

    A/(1 - B) = m + c R from one residual draw per path, or per pair when
    ``paired`` (``size`` is then even), whose second path is m - c R.  A
    flat point (B = 1) hits for every w when A > 0 and for none otherwise,
    so it reads +inf or -inf.  w* is the max over t for sup (and ``mix`` at
    weight 1) and the min for inf (weight 0); any other functional is
    bisected between the two, on its rows of A.
    """
    weight = {"sup": 1.0, "inf": 0.0, "mix": gamma.weight}.get(gamma.kind)
    reducers = {1.0: (np.max,), 0.0: (np.min,)}.get(weight, (np.min, np.max))
    ops = (np.add, np.subtract) if sampler.paired else (np.add,)
    rows = size // len(ops)
    r = sampler._residual.sample(gen, rows).reshape(rows, -1)
    flat = sampler.flat
    if flat.any():
        base, noise = sampler.mean_part[flat], sampler.noise_scale[flat] * r[:, flat]
    if len(reducers) == 2:  # A = mean_part +- noise_scale R, a pair's rows adjacent
        noise_r = sampler.noise_scale * r
        a = np.stack([op(sampler.mean_part, noise_r) for op in ops], axis=1)
    r *= sampler._ratio_scale
    field = np.empty_like(r)
    ends = np.empty((len(reducers), rows, len(ops)))
    for j, op in enumerate(ops):
        op(sampler._ratio_mean, r, out=field)
        if flat.any():
            field[:, flat] = np.where(op(base, noise) > 0.0, np.inf, -np.inf)
        for i, reduce in enumerate(reducers):
            reduce(field, axis=1, out=ends[i, :, j])
    if len(reducers) == 1:
        return ends.reshape(size)
    # inf <= Gamma <= sup, so their crossing points bracket gamma's
    return _bisect_crossing(sampler, gamma, a.reshape(size, -1), *ends.reshape(2, size))


def conditional_tail(
    sampler: ConditionalSampler,
    gamma: FunctionalSpec,
    n_reps: int,
    rng: RngStream,
) -> Estimate:
    """Estimate P(Gamma(Z/(1+h)) > g) through the conditioning identity.

    Each path's w-integral is exact: its hit set is (-inf, w*), and the
    sample is Psi(g - w*/g), w* = max_t A/(1-B) for sup, min_t A/(1-B) for
    inf, and bisected between the two for every other functional.

    Paths come in antithetic pairs when ``sampler.paired`` (the residual
    covariances are nonnegative, so a pair cannot add variance) and are
    independent otherwise; :class:`~gexr.mc.PathPairs` counts and averages
    them.  ``n_reps`` counts field paths; with pairs an odd count rounds up.
    """
    pairs = PathPairs(n_reps, paired=sampler.paired)
    g = sampler.g
    samples = np.empty(pairs.n_reps)

    def body(gen, lo, hi, slot):
        w_star = _crossing_point(sampler, gamma, gen, hi - lo)
        samples[lo:hi] = survival_psi(g - w_star / g)

    batch_map(body, rng, pairs.n_reps, CONDITIONAL_BATCH)
    return pairs.estimate(samples, meta={"g": g})


def tail_cell(
    family: ThresholdedFamilySpec,
    gamma: FunctionalSpec,
    u: float,
    tau: float,
    grid: GridSpec,
    n_reps: int,
    rng: RngStream,
) -> dict:
    """The conditioned tail at (u, tau) on ``grid``, as a :func:`tail_row`."""
    sampler = ConditionalSampler(family, u, tau, grid)
    return tail_row(u, tau, conditional_tail(sampler, gamma, n_reps, rng))


def tail_row(u: float, tau: float, est: Estimate) -> dict:
    """u, tau, g, p_hat, stderr, psi = Psi(g), ratio = p_hat / psi and
    overflow_count of a tail estimate at threshold g.  A Psi(g) that
    underflows to 0 (g beyond about 38) raises SimulationError."""
    g = est.meta["g"]
    psi = survival_psi(g)
    if psi == 0.0:
        raise SimulationError(
            f"Psi(g) underflows to 0 at u = {u:g}, tau = {tau:g} (g = {g:g}): "
            "the tail ratio is not defined"
        )
    overflow = est.meta.get("overflow_count", 0)
    return dict(u=u, tau=tau, g=g, p_hat=est.value, stderr=est.stderr, psi=psi,
                ratio=est.value / psi, overflow_count=overflow)


# ---------------------------------------------------------------------------
# uniform-ratio audit


@dataclass(frozen=True)
class AuditReport:
    """Per-(u, tau) ratios and the per-u worst-case deviation trace."""

    rows: tuple[dict, ...]  # tail_row of each cell
    per_u: tuple[dict, ...]  # u, max_deviation, stderr, passed
    passed: bool


def uniform_ratio_audit(
    family: ThresholdedFamilySpec,
    gamma: FunctionalSpec,
    constant_estimate: Estimate,
    u_schedule: Sequence[float],
    grid: GridSpec,
    n_reps: int,
    rng: RngStream,
    tolerance: float = 0.1,
) -> AuditReport:
    """Check sup over the index grid of |P/Psi(g) - H_hat| shrinking in u.

    Passes iff the per-u worst deviation is nonincreasing along the schedule
    and the final value is below tolerance + 3 * combined stderr (ratio
    stderr at the worst index plus the constant's own stderr).  Each (u, tau)
    cell draws from its own stream, so ``cell_map``'s split changes nothing.
    """
    h_hat = constant_estimate.value
    cells = [
        (ui, u, ti, tau)
        for ui, u in enumerate(u_schedule)
        for ti, tau in enumerate(family.index_grid(u))
    ]

    def _cell(cell):
        ui, u, ti, tau = cell
        return tail_cell(family, gamma, u, tau, grid, n_reps, rng.substream(ui, ti))

    rows = cell_map(_cell, cells)
    per_u: list[dict] = []
    for u in u_schedule:
        u_rows = [r for r in rows if r["u"] == u]
        worst = max(u_rows, key=lambda r: abs(r["ratio"] - h_hat))
        per_u.append({"u": u, "max_deviation": abs(worst["ratio"] - h_hat),
                      "stderr": worst["stderr"] / worst["psi"]})
    # monotone decrease up to twice the combined noise of adjacent levels
    shrinking = all(
        b["max_deviation"]
        <= a["max_deviation"]
        + 2.0 * math.sqrt(a["stderr"] ** 2 + b["stderr"] ** 2)
        for a, b in zip(per_u, per_u[1:])
    )
    combined = math.sqrt(per_u[-1]["stderr"] ** 2 + constant_estimate.stderr**2)
    final_ok = per_u[-1]["max_deviation"] < tolerance * abs(h_hat) + 3.0 * combined
    for row, ok in zip(per_u, [True] * (len(per_u) - 1) + [final_ok]):
        row["passed"] = ok
    return AuditReport(tuple(rows), tuple(per_u), shrinking and final_ok)


# ---------------------------------------------------------------------------
# closed-form asymptotic evaluators


@dataclass(frozen=True)
class AsymptoticSetup:
    """Regime data of the product asymptotics over d spatial + n field axes.

    Axis regimes are driven by gamma_i = lim m^2/g_i: zero for i <= d1
    (wide axes: per-unit constant x Gaussian-weight integral x cell count),
    finite for d1 < i <= d2 (drifted constants over [a_i, b_i]), infinite
    for d2 < i <= d (asymptotically negligible axes), finite for the n
    field axes (absorbed into the drifted field constant).
    """

    d: int
    n: int
    d1: int
    d2: int
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    g_fns: tuple[Callable[[float], float], ...]
    m_fn: Callable[[float], float]
    y_ranges: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        d, n, d1, d2 = self.d, self.n, self.d1, self.d2
        if not (0 <= d1 <= d2 <= d) or n < 0:
            raise ModelError("need 0 <= d1 <= d2 <= d and n >= 0")
        if len(self.betas) != d + n or len(self.gammas) != d + n:
            raise ModelError("betas and gammas must have length d + n")
        if len(self.g_fns) != d + n:
            raise ModelError("g_fns must have length d + n")
        if not all(b > 0 for b in self.betas):  # NaN fails too
            raise ModelError("betas must be positive")
        for i, gam in enumerate(self.gammas):
            if i < d1 and gam != 0.0:
                raise ModelError(f"axis {i}: gamma must be 0 in the wide regime")
            if d1 <= i < d2 and not 0.0 < gam < math.inf:
                raise ModelError(f"axis {i}: gamma must be finite positive")
            if d2 <= i < d and not math.isinf(gam):
                raise ModelError(f"axis {i}: gamma must be infinite")
            if i >= d and math.isinf(gam):
                raise ModelError(
                    f"field axis {i}: infinite gamma is outside the covered regimes"
                )
        if len(self.y_ranges) != d1:
            raise ModelError("y_ranges must have one (lo, hi) pair per wide axis")
        for lo, hi in self.y_ranges:
            if not lo < hi:
                raise ModelError("y range must have lo < hi")

    def check_constants(self, per_unit: Sequence, drifted: Sequence) -> None:
        """One per-unit constant per wide axis, one drifted per finite-gamma axis."""
        if len(per_unit) != self.d1:
            raise ModelError("need one per-unit constant per wide axis")
        if len(drifted) != self.d2 - self.d1:
            raise ModelError("need one drifted constant per finite-gamma axis")


def _exp_power_integral(lo: float, hi: float, beta: float) -> float:
    """int_lo^hi exp(-|s|**beta) ds = Gamma(1 + 1/beta) (F(hi) - F(lo)),
    F(x) = sign(x) P(1/beta, |x|**beta), P the regularized lower gamma."""

    from scipy import special

    def F(x):
        return math.copysign(special.gammainc(1.0 / beta, abs(x) ** beta), x)

    return math.gamma(1.0 + 1.0 / beta) * (F(hi) - F(lo))


@dataclass(frozen=True)
class FormulaResult:
    value: float
    factors: dict


def eval_mainm_formula(
    setup: AsymptoticSetup,
    u: float,
    constants: dict,
) -> FormulaResult:
    """Product asymptotics of P(Gamma(X_u) > m(u)).

    ``constants`` supplies the estimated/closed-form constants:
    "per_unit": sequence of per-unit-length sup constants, one per wide
    axis (i <= d1); "drifted": sequence of drifted sup constants over
    [a_i, b_i], one per finite-gamma axis; "field": the generalized
    constant of the drifted limit field on E (defaults to 1).
    Entries may be floats or Estimates.  A product that underflows to 0
    (Psi(m(u)) does beyond m(u) of about 38) raises SimulationError.
    """

    def _val(x):
        return x.value if isinstance(x, Estimate) else float(x)

    per_unit = [_val(x) for x in constants.get("per_unit", ())]
    drifted = [_val(x) for x in constants.get("drifted", ())]
    field_const = _val(constants.get("field", 1.0))
    setup.check_constants(per_unit, drifted)
    m = float(setup.m_fn(u))
    if m <= 0:
        raise ModelError("m(u) must be positive")
    integrals = [
        _exp_power_integral(lo, hi, setup.betas[i])
        for i, (lo, hi) in enumerate(setup.y_ranges)
    ]
    cells = [
        (float(setup.g_fns[i](u)) / m**2) ** (1.0 / setup.betas[i])
        for i in range(setup.d1)
    ]
    psi = survival_psi(m)
    value = (
        math.prod(per_unit)
        * math.prod(drifted)
        * field_const
        * math.prod(integrals)
        * math.prod(cells)
        * psi
    )
    if value == 0.0:
        raise SimulationError(
            f"the product formula underflows to 0 at m(u) = {m:g} (Psi(m(u)) = {psi:g})"
        )
    return FormulaResult(
        value=value,
        factors={
            "per_unit": per_unit,
            "drifted": drifted,
            "field": field_const,
            "integrals": integrals,
            "cell_counts": cells,
            "psi": psi,
            "m": m,
        },
    )
