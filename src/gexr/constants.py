"""Monte Carlo estimation of tail constants of Gaussian extremes.

Four estimators live here:

* ``estimate_generalized_constant`` — E[exp(Gamma(sqrt2 eta - Var eta - h))]
  on a fixed compact grid, by direct Monte Carlo.  The variance of eta is
  always computed analytically from the field spec.
* ``estimate_pickands`` — the long-domain limit of the sup constant per unit
  length.  Direct Monte Carlo of exp(sup) is useless here: the integrand has
  a near-critical exponential tail and the estimator is both noisy and
  heavily skewed at useful domain sizes.  Instead we use an exact tilting
  identity (see ``window_sup_levels``): for a stationary-increment field
  the constant over [0, S] equals a sum over grid points of bounded
  max/sum ratios of the exponentiated field over sliding windows of [-S, S].
  The identity is exact for the grid constant and has tiny variance; all
  domain sizes and grid steps share one exp and four outward scans a path.
  Paths come in antithetic pairs built from eta and -eta, one draw for
  two paths, except for a rank-one field (the path t * Z), whose pair
  would repeat one sample; ``n_reps`` counts paths either way.  The
  batches are drawn and reduced on two pool threads; the results never
  depend on it.  numpy runs a scan along the last axis without the GIL
  only over more than 500 rows, so the reduction stacks both paths of a
  pair and both halves of each path into blocks of more than 500 scan
  rows, and the two threads reduce at once.  Two batches of paths are
  held, one per thread, plus the working arrays of each thread's draw and
  of its reduction.
* ``estimate_piterbarg`` — the growing-domain limit with an unbounded drift,
  by direct Monte Carlo per level plus plateau detection.
* ``estimate_generalized_piterbarg`` — the sup-inf constant of a
  stationary-increment process, extrapolated in the horizon.

Domain-size bias is removed by a difference quotient across the last two
domain levels (the additive boundary term cancels); grid bias by a two-level
Richardson extrapolation in step**(a/2), a the local variance exponent.
Both the plain per-level values and the corrected ones are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .covmodels import DriftFunction, LimitFieldSpec, ModelError, VarianceFunction
from .functionals import FunctionalSpec, apply_functional
from .mc import Estimate, ExtrapolationSchedule, PathPairs, batch_map, plateau_status
from .rng import RngStream
from .simkit import GridSpec, LimitFieldSampler, StatIncrSampler

__all__ = [
    "estimate_generalized_constant",
    "estimate_joint_constant",
    "estimate_pickands",
    "estimate_piterbarg",
    "estimate_generalized_piterbarg",
    "LevelTrace",
]

# replications per batch; batch b draws from substream b, so this fixes the draws
BATCH_SIZE = 2000


@dataclass(frozen=True)
class LevelTrace:
    """Per-level estimates of a limit plus the headline value and status."""

    levels: tuple[Estimate, ...]
    estimate: Estimate
    status: str  # "plateau" | "no-plateau" | "diverging"

    @property
    def value(self) -> float:
        return self.estimate.value


def _grid_count(length: float, step: float) -> int:
    """The number of grid steps in ``length``; ModelError unless step divides it."""
    n = round(length / step)
    if not math.isclose(n * step, length, rel_tol=1e-9, abs_tol=1e-12):
        raise ModelError(f"grid step {step:g} does not divide length {length:g}")
    return n


def local_step_exponent(eta: LimitFieldSpec) -> float:
    """Rate exponent for grid-bias extrapolation: step**(min local power / 2)."""
    exps = [c.local_power for c in eta.components if c.scale > 0]
    return (min(exps) if exps else 2.0) / 2.0


def estimate_generalized_constant(
    eta: LimitFieldSpec,
    h: DriftFunction,
    gamma: FunctionalSpec,
    grid: GridSpec,
    n_reps: int,
    rng: RngStream,
) -> Estimate:
    """E[exp(Gamma(sqrt2 eta - Var eta - h))] on the given grid.

    The one-functional case of :func:`estimate_joint_constant`.  Non-finite
    exponential samples enter the mean as 0 and stay in its denominator
    (samples [1, inf, 2, nan, 3] give 1.2); their number is reported in
    ``meta["overflow_count"]`` (they signal a functional without the sup
    bound, or a grid far too coarse).
    """
    return estimate_joint_constant(eta, h, [gamma], grid, n_reps, rng)


def estimate_joint_constant(
    eta: LimitFieldSpec,
    h: DriftFunction,
    gammas: Sequence[FunctionalSpec],
    grid: GridSpec,
    n_reps: int,
    rng: RngStream,
) -> Estimate:
    """Joint-functional constant: E[exp(min_i Gamma_i(sqrt2 eta - Var eta - h))].

    The min arises from integrating e^w against the all-functionals-exceed
    indicator: int e^w 1{min_i Gamma_i > w} dw = exp(min_i Gamma_i).  For
    one functional this is the generalized constant.  Non-finite samples
    are counted as in :func:`estimate_generalized_constant`.
    """
    pts = grid.points()
    drift = np.asarray(h(pts), dtype=float).reshape(grid.shape)
    sampler = LimitFieldSampler(eta, grid)
    var = sampler.variance()
    samples = np.empty(n_reps)

    def body(gen, lo, hi, slot):
        w = sampler.sample(gen, hi - lo)
        w *= math.sqrt(2.0)
        w -= var
        w -= drift
        vals = np.stack([apply_functional(g, w, grid_ndim=grid.dim) for g in gammas])
        samples[lo:hi] = np.exp(vals.min(axis=0))

    batch_map(body, rng, n_reps, BATCH_SIZE)
    return Estimate.from_samples(
        samples, meta={"grid_steps": grid.steps, "domain": grid.per_axis}
    )


# ---------------------------------------------------------------------------
# the tilted sliding-window identity


# numpy runs a scan (ufunc.accumulate: cumsum, fmax.accumulate) along the
# last axis without the GIL only over more than this many rows
GIL_FREE_SCAN_ROWS = 500


def _scan_blocks(batch: int, n_signs: int) -> list[int]:
    """Bounds of the row blocks of the window pass over ``batch`` rows.

    They are the most near-equal blocks whose scans, over 2 * n_signs rows
    a row, cover more than ``GIL_FREE_SCAN_ROWS`` rows; a smaller batch is
    one block.
    """
    n = max(1, batch // (GIL_FREE_SCAN_ROWS // (2 * n_signs) + 1))
    return [batch * b // n for b in range(n + 1)]


# an underflowed window divides 0 by 0: the estimator counts the NaN as an
# overflow, so numpy's warning would only repeat it
@np.errstate(invalid="ignore")
def _window_ratio_levels(
    w: np.ndarray,
    var: np.ndarray,
    counts: Sequence[int],
    refine: int,
    signs: Sequence[float] = (1.0,),
) -> np.ndarray:
    """The window ratio sums of W = sign * w - var, (levels, refine, batch * signs).

    ``w`` is (batch, 2N+1), N = max(counts), and ``var`` is Var eta on its
    grid; level n at stride s reads W[:, N-n : N+n+1 : s].  ``signs`` is
    (1.0,) or (1.0, -1.0), and path i * len(signs) + k is row i under
    ``signs[k]``.

    A block of rows is one array (2, signs, rows, N+1): the left and the
    right half of each row, both read outward from the center, which each
    half holds.  So every scan covers 2 * signs * rows rows, and the blocks
    are the most near-equal ones that make that more than
    ``GIL_FREE_SCAN_ROWS``.  Each path's values, and the order in which its
    sums add them, are those of a pass over the row in grid order, so the
    results do not depend on the blocks or the signs.
    """
    batch, n_max, n_signs = w.shape[0], max(counts), len(signs)
    bounds = _scan_blocks(batch, n_signs)
    rows = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    # the scratch buffer holds both scans of a coarser stride or the finest sums
    width = n_max + 1 if refine == 1 else 2 * (n_max // 2 + 1)
    # a largest level reduces last, in place in the scans; every other one in win_buf
    order = sorted(range(len(counts)), key=counts.__getitem__)
    second = counts[order[-2]] if len(counts) > 1 else 0
    e_buf, scratch, win_buf = (
        np.empty(2 * n_signs * rows * c) for c in (n_max + 1, width, second + 1)
    )
    var_halves = (var[n_max::-1], var[n_max:])
    out = np.empty((len(counts), refine, batch, n_signs))
    for lo, hi in zip(bounds, bounds[1:]):
        k = hi - lo
        e = e_buf[: 2 * n_signs * k * (n_max + 1)].reshape(2, n_signs, k, n_max + 1)
        w_halves = (w[lo:hi, n_max::-1], w[lo:hi, n_max:])
        for e_half, w_half, var_half in zip(e, w_halves, var_halves):
            for e_sign, sign in zip(e_half, signs):
                np.multiply(w_half, sign, out=e_sign)
            e_half -= var_half
        e -= np.maximum(*e.max(axis=3))[:, :, None]
        np.exp(e, out=e)
        for lv in reversed(range(refine)):
            s = 2**lv
            top = n_max // s
            if lv:
                scans = scratch[: 4 * n_signs * k * (top + 1)]
                scan_max, scan_sum = scans.reshape(2, 2, n_signs, k, top + 1)
                scan_max[...] = e[..., ::s]
                scan_sum[...] = scan_max
            else:  # the exp is read for the last time: its maxima scan in place
                scan_max, scan_sum = e, scratch[: e.size].reshape(e.shape)
                scan_sum[...] = e
            # the left sums leave out the center: 0 + a == a
            scan_sum[0, ..., 0] = 0.0
            np.add.accumulate(scan_sum, axis=3, out=scan_sum)
            # fmax (faster than maximum) may skip a NaN, but any window holding
            # one has a NaN sum, and the scans of other windows never see it
            np.fmax.accumulate(scan_max, axis=3, out=scan_max)
            for li in order:
                m = counts[li] // s
                if li == order[-1]:
                    num, den = scan_max[1], scan_sum[1]
                else:
                    num, den = win_buf[: 2 * n_signs * k * (m + 1)].reshape(2, n_signs, k, m + 1)
                # window j of level m: the left scans at distance m - j, the right at j
                np.maximum(scan_max[0, ..., m::-1], scan_max[1, ..., : m + 1], out=num)
                np.add(scan_sum[0, ..., m::-1], scan_sum[1, ..., : m + 1], out=den)
                np.divide(num, den, out=num)
                out[li, lv, lo:hi] = num.sum(axis=2).T
    return out.reshape(len(counts), refine, batch * n_signs)


def window_sup_levels(
    eta: LimitFieldSpec,
    s_levels: Sequence[float],
    step: float,
    n_reps: int,
    rng: RngStream,
    refine: int = 1,
) -> tuple[list[list[np.ndarray]], PathPairs]:
    """Unbiased samples of the grid sup-constant of eta over [0, S], per S.

    Identity: with W(s) = sqrt2 eta(s) - Var eta(s) on the grid of [-S, S],
    E[max_{[0,S]} e^W] = sum_j E[max e^W / sum e^W over the window
    [-j step, S - j step]].  Exponential tilting at each grid point plus
    stationarity of increments turns the heavy-tailed exp-sup expectation
    into a sum of bounded ratios; the identity is exact for the grid
    constant, so the only systematic error left is grid discretization.

    All requested domain sizes are evaluated on central sub-grids of one
    simulation over [-max S, max S], so per-sample differences across levels
    are low-variance (common random numbers).  ``refine`` > 1 additionally
    evaluates the identity on 2x, 4x, ... coarsened subgrids of the same
    paths (step extrapolation, same CRN rationale).  Returns, per domain
    size, one per-path array per refinement level, finest first, and the
    :class:`~gexr.mc.PathPairs` that averages them.

    Paths come in antithetic pairs: paths 2k and 2k+1 are W = sqrt2 eta -
    Var eta and W = -sqrt2 eta - Var eta of one draw of eta, exact in law
    since -eta has the law of eta, and reduced in one call.  On long
    domains a pair's samples are negatively correlated (difference
    quotients about -0.1 at alpha = 1 and 1.5), on short ones positively
    (+0.2 at alpha = 1, S = 2).  ``n_reps`` counts paths and an odd count
    rounds up to whole pairs; ``BATCH_SIZE`` paths make a batch.  A
    rank-one field (the path t * Z, read off the covariance by the sampler)
    keeps independent paths: there -eta is eta reflected, every window sum
    is invariant under the reflection, and a pair would repeat one sample.

    The batches are drawn and reduced on two pool threads
    (:func:`~gexr.mc.batch_map`); batch b still draws from substream b, so
    the results equal the serial loop bit for bit.  Each thread draws into
    its own buffer, allocated once, so two batches of paths are held, plus
    each draw's working arrays: for an fBm path, one block of increments at
    alpha = 1, none at alpha = 2, and at every other alpha its batch's
    circulant spectrum, inverted one block of rows at a time.

    A scan along the last axis (``cumsum``, ``fmax.accumulate``) runs
    without the GIL only over more than ``GIL_FREE_SCAN_ROWS`` (500) rows;
    under it, the other thread waits.  So one call reduces both paths of a
    pair, and each path's two halves outward from the center, as one
    array, in the smallest near-equal blocks with more than 500 scan rows:
    142 or 143 pairs of a 2000-path batch, 285 or 286 unpaired rows.
    Besides the paths, each thread holds one block's exp, one scratch
    buffer of that size for the scans, and two window arrays (maxima and
    sums) for every level but the largest, which reduces in place in its
    scans: at the second largest level's width, half a block at the
    ``pickands`` presets.

    Every window contains the center, so one exp per path (of w minus the
    row's maximum over the full grid) and, per stride, four running scans
    outward from the center serve all levels: window j of level m has
    maximum max(Lmax[m-j], Rmax[j]) and sum Lsum[m-j] + Rsum[j] (Lsum
    without the center), with no cancellation from differenced sums.  A row
    whose maximum exceeds the center by more than about 745 underflows the
    center's exp to 0; a window whose entries all underflow gives 0/0 = NaN
    for its level, never a finite value, and ``Estimate.from_samples``
    counts it in ``overflow_count``.
    """
    if eta.dim != 1:
        raise ModelError("window identity needs a one-dimensional field")
    if eta.degenerate:
        ones = [[np.ones(n_reps) for _ in range(refine)] for _ in s_levels]
        return ones, PathPairs(n_reps, paired=False)
    # the coarsened subgrids stay nested when the coarsest step divides every S
    nest = 2 ** (refine - 1)
    counts = [nest * _grid_count(S, nest * step) for S in s_levels]
    n_max = max(counts)
    grid = GridSpec.line(-n_max * step, n_max * step, 2 * n_max + 1)
    sampler = LimitFieldSampler(eta, grid)
    var = eta.variance(grid.axis_values(0))
    pairs = PathPairs(n_reps, paired=not sampler.rank_one)
    signs = (1.0, -1.0) if pairs.paired else (1.0,)
    out = np.empty((len(counts), refine, pairs.n_reps))
    rows = min(BATCH_SIZE, pairs.n_reps) // len(signs)
    slots = (np.empty((rows, grid.size)), np.empty((rows, grid.size)))

    def body(gen, lo, hi, slot):
        x = slots[slot][: (hi - lo) // len(signs)]
        sampler.sample(gen, len(x), out=x)
        x *= math.sqrt(2.0)
        out[:, :, lo:hi] = _window_ratio_levels(x, var, counts, refine, signs)

    batch_map(body, rng, pairs.n_reps, BATCH_SIZE)
    return [list(level) for level in out], pairs


def _richardson(fine: np.ndarray, coarse: np.ndarray, step: float, exponent: float):
    """Two-level linear extrapolation in step**exponent (coarse step = 2x)."""
    x_f = step**exponent
    x_c = (2 * step) ** exponent
    return fine + (fine - coarse) * x_f / (x_c - x_f)


def estimate_pickands(
    eta: LimitFieldSpec,
    schedule: ExtrapolationSchedule,
    n_reps: int,
    rng: RngStream,
) -> LevelTrace:
    """Long-run sup constant per unit length of a 1-D limit field.

    Per domain size S the grid constant over [0, S] is estimated by the
    tilted window identity at the finest schedule step h and, when the
    schedule has two steps, Richardson-extrapolated from h and 2h (nested
    paths).  The headline estimate is the difference quotient between the
    last two domain sizes, which cancels the O(1) boundary term of the
    finite-domain constant; the per-unit ratios are kept in the level
    trace.  The zero field reads 1 at every S, so its quotient is 0 +- 0.
    """
    if not schedule.domain_sizes[0] > 0:  # the constant is per unit length
        raise ModelError("Pickands domain sizes must be positive")
    exponent = local_step_exponent(eta)
    step = schedule.finest_step
    refine = len(schedule.grid_steps)
    levels, pairs = window_sup_levels(
        eta, schedule.domain_sizes, step, n_reps, rng, refine
    )
    per_domain: list[Estimate] = []
    extrapolated: list[np.ndarray] = []
    for S, sams in zip(schedule.domain_sizes, levels):
        extr = _richardson(sams[0], sams[1], step, exponent) if refine == 2 else sams[0]
        extrapolated.append(extr)
        est = pairs.estimate(
            extr,
            meta={
                "domain": S,
                "step": step,
                "ratio": float(extr.mean()) / S,
                "finest_raw": float(sams[0].mean()),
            },
        )
        per_domain.append(est)
    # per-sample difference quotients: the shared paths make the stderr of
    # the quotient far smaller than the per-domain stderrs would suggest
    dq: list[Estimate] = []
    for a, b, Sa, Sb in zip(
        extrapolated, extrapolated[1:], schedule.domain_sizes, schedule.domain_sizes[1:]
    ):
        dq.append(pairs.estimate((b - a) / (Sb - Sa), meta={"domains": (Sa, Sb)}))
    status = plateau_status(dq, schedule.stop_rule)
    return LevelTrace(tuple(per_domain), dq[-1], status)


def estimate_piterbarg(
    eta: LimitFieldSpec,
    h: DriftFunction,
    schedule: ExtrapolationSchedule,
    n_reps: int,
    rng: RngStream,
    domain: str = "right",
) -> LevelTrace:
    """Growing-domain sup constant with drift h, without length normalization.

    ``domain`` is "right" ([0, S]) or "symmetric" ([-S, S]).  If h does not
    grow along the domain the limit may be infinite; the trace then ends in
    "diverging" rather than a number.  The schedule takes one grid step h
    (only the Pickands constant takes (2h, h)), and every domain size must
    be a whole number of steps; each level reports its step in
    ``meta["step"]``.
    """
    if domain not in ("right", "symmetric"):
        raise ModelError("domain must be 'right' or 'symmetric'")
    step = schedule.step
    counts = [_grid_count(S, step) for S in schedule.domain_sizes]
    levels: list[Estimate] = []
    gamma = FunctionalSpec.sup()
    for li, (S, n) in enumerate(zip(schedule.domain_sizes, counts)):
        grid = (
            GridSpec.line(0.0, S, n + 1)
            if domain == "right"
            else GridSpec.line(-S, S, 2 * n + 1)
        )
        est = estimate_generalized_constant(
            eta, h, gamma, grid, n_reps, rng.substream(li)
        )
        levels.append(replace(est, meta={**est.meta, "domain": S, "step": step}))
    status = plateau_status(levels, schedule.stop_rule)
    ends = [schedule.domain_sizes[-1]]
    if domain == "symmetric":
        ends.append(-schedule.domain_sizes[-1])
    drift_far = min(float(np.asarray(h(np.array([[e]]))).reshape(-1)[0]) for e in ends)
    meta = dict(levels[-1].meta)
    if drift_far <= 0:
        meta["drift_warning"] = "drift does not grow along the domain; limit may be infinite"
    return LevelTrace(tuple(levels), Estimate(levels[-1].value, levels[-1].stderr, n_reps, meta), status)


def estimate_generalized_piterbarg(
    vf: VarianceFunction,
    b: float,
    S: float,
    t_schedule: ExtrapolationSchedule,
    n_reps: int,
    rng: RngStream,
) -> LevelTrace:
    """Sup-inf constant of a stationary-increment process, horizon-extrapolated.

    Per level T: E[sup_{t in [0,T]} inf_{s in [0,S]} exp(sqrt2 X(t-s)
    - (1+b) sigma2(|t-s|))].  All horizons share the same simulated paths on
    [-S, T_max], so the level trace is nondecreasing sample by sample (sup
    over nested domains); the status reports the plateau of the last two
    levels.  The grid step is the one step of ``t_schedule``, in a config
    ``tSchedule.gridSteps`` (only the Pickands constant takes (2h, h)); the
    window S and every horizon must be a whole number of steps.
    """
    if b <= 0 or S < 0:
        raise ModelError("need b > 0 and S >= 0")
    step = t_schedule.step
    n_s = _grid_count(S, step)
    t_indices = [_grid_count(T, step) for T in t_schedule.domain_sizes]
    n_t = t_indices[-1]
    x_vals = np.arange(-n_s, n_t + 1) * step
    sampler = StatIncrSampler(vf, x_vals)
    penalty = (1.0 + b) * vf(np.abs(x_vals))
    per_level = [np.empty(n_reps) for _ in t_indices]

    def body(gen, lo, hi, slot):
        x = sampler.sample(gen, hi - lo)
        y = math.sqrt(2.0) * x - penalty
        # inf over s in [0, S] of y(t - s) at t = i * step: y's columns i..i+n_s
        infs = y[:, : n_t + 1].copy()
        for k in range(1, n_s + 1):
            np.minimum(infs, y[:, k : k + n_t + 1], out=infs)
        run = np.maximum.accumulate(infs, axis=1)
        for k, ti in enumerate(t_indices):
            per_level[k][lo:hi] = np.exp(run[:, ti])

    batch_map(body, rng, n_reps, BATCH_SIZE)
    levels = [
        Estimate.from_samples(sam, meta={"horizon": T, "step": step})
        for sam, T in zip(per_level, t_schedule.domain_sizes)
    ]
    status = plateau_status(levels, t_schedule.stop_rule)
    if status == "diverging":
        status = "not-converged"
    return LevelTrace(tuple(levels), levels[-1], status)
