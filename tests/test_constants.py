"""Constant estimators against closed-form and quadrature oracles.

Oracles used here, all independent of the estimator code paths:

* alpha = 2: the field is t*Z, so E[exp(sup_grid(sqrt2 t Z - t^2))] is a
  one-dimensional normal integral, evaluated by adaptive quadrature; the
  interval constant also has the closed form 1 + S/sqrt(pi) in the continuum.
* alpha = 1: sqrt2 B(t) - t is a time-changed drifted Brownian motion, whose
  running-maximum law is explicit by the reflection principle; E[exp(max)]
  over [0, S] follows by one quadrature.
"""

import importlib
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.ndimage import maximum_filter1d
from scipy.stats import norm

from gexr import constants as constmod
from gexr.covmodels import (
    DriftFunction,
    LimitFieldSpec,
    ModelError,
    VarianceFunction,
)
from gexr.constants import (
    BATCH_SIZE,
    GIL_FREE_SCAN_ROWS,
    _scan_blocks,
    _window_ratio_levels,
    estimate_generalized_constant,
    estimate_generalized_piterbarg,
    estimate_joint_constant,
    estimate_pickands,
    estimate_piterbarg,
    local_step_exponent,
    window_sup_levels,
)
from gexr.functionals import FunctionalSpec, apply_functional
from gexr.mc import Estimate, ExtrapolationSchedule, batches
from gexr.rng import RngStream
from gexr.simkit import GridSpec, LimitFieldSampler, SimulationError, StatIncrSampler

SUP = FunctionalSpec.sup()
BENCH = Path(__file__).resolve().parents[1] / "bench"


def quadratic_grid_constant(t_grid: np.ndarray) -> float:
    """Exact E[max_grid exp(sqrt2 t Z - t^2)] for the alpha=2 field by quadrature."""
    t = np.asarray(t_grid, dtype=float)

    def integrand(z):
        return math.exp(np.max(math.sqrt(2.0) * t * z - t**2)) * norm.pdf(z)

    # the integrand has a kink per grid point; full_output silences the
    # (harmless, ~1e-8) roundoff warning quad emits near them
    lo = integrate.quad(integrand, -12, 0, limit=400, full_output=1)[0]
    hi = integrate.quad(integrand, 0, 12, limit=800, full_output=1)[0]
    return lo + hi


def brownian_interval_constant(S: float) -> float:
    """Exact continuum E[sup_{[0,S]} exp(sqrt2 B(t) - t)], reflection principle.

    sqrt2 B(t) - t equals W(2t) - (1/2)(2t) in law; for M = sup of W(s) - cs
    over [0, T]: P(M > x) = Psi((x + cT)/sqrt T) + e^{-2cx} Psi((x - cT)/sqrt T).
    """
    c, T = 0.5, 2.0 * S

    def tail(x):
        rt = math.sqrt(T)
        return norm.sf((x + c * T) / rt) + math.exp(-2 * c * x) * norm.sf(
            (x - c * T) / rt
        )

    val, _ = integrate.quad(lambda x: math.exp(x) * tail(x), 0, 200, limit=400)
    return 1.0 + val


# ---------------------------------------------------------------------------
# generalized constant on a fixed grid


def test_single_point_domain_is_exactly_one():
    est = estimate_generalized_constant(
        LimitFieldSpec.fbm(1.0),
        DriftFunction.zero(),
        SUP,
        GridSpec(((0.0, 0.0, 1),)),
        200,
        RngStream(1),
    )
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_degenerate_field_closed_form():
    h = DriftFunction(fn=lambda t: np.atleast_2d(t)[:, 0] ** 2)
    est = estimate_generalized_constant(
        LimitFieldSpec.degenerate_field(1),
        h,
        SUP,
        GridSpec.line(-1.0, 1.0, 9),
        100,
        RngStream(1),
    )
    # exp(sup(-t^2)) = 1, attained at the origin
    assert est.value == 1.0 and est.stderr == 0.0
    est = estimate_generalized_constant(
        LimitFieldSpec.degenerate_field(1),
        h,
        SUP,
        GridSpec.line(1.0, 2.0, 5),
        100,
        RngStream(1),
    )
    assert est.value == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_generalized_constant_quadrature_oracle_alpha2():
    grid = GridSpec.line(0.0, 2.0, 65)
    est = estimate_generalized_constant(
        LimitFieldSpec.fbm(2.0), DriftFunction.zero(), SUP, grid, 40_000, RngStream(11)
    )
    exact = quadratic_grid_constant(grid.axis_values(0))
    assert abs(est.value - exact) < 3 * est.stderr + 1e-3


def test_window_identity_matches_direct_mc():
    eta = LimitFieldSpec.fbm(1.0)
    sams = window_sup_levels(eta, [1.0], 1 / 8, 40_000, RngStream(12))[0][0][0]
    win = Estimate.from_samples(sams)
    direct = estimate_generalized_constant(
        eta, DriftFunction.zero(), SUP, GridSpec.line(0.0, 1.0, 9), 40_000, RngStream(13)
    )
    comb = math.sqrt(win.stderr**2 + direct.stderr**2)
    assert abs(win.value - direct.value) < 3 * comb


def test_window_identity_exact_alpha2():
    grid = GridSpec.line(0.0, 2.0, 65)
    sams = window_sup_levels(
        LimitFieldSpec.fbm(2.0), [2.0], 1 / 32, 60_000, RngStream(8)
    )[0][0][0]
    est = Estimate.from_samples(sams)
    exact = quadratic_grid_constant(grid.axis_values(0))
    assert abs(est.value - exact) < 3 * est.stderr


def test_window_validation():
    with pytest.raises(ModelError):
        window_sup_levels(LimitFieldSpec.fbm(1.0), [1.0], 0.3, 10, RngStream(1))[0][0]
    with pytest.raises(ModelError):
        # refinement needs step-halving divisibility
        window_sup_levels(
            LimitFieldSpec.fbm(1.0), [1.5], 0.5, 10, RngStream(1), refine=3
        )


def _window_paths(eta, n_max, step, gen, size, sign):
    """The window sums of sign * sqrt2 eta - Var eta for one batch of draws."""
    grid = GridSpec.line(-n_max * step, n_max * step, 2 * n_max + 1)
    x = LimitFieldSampler(eta, grid).sample(gen, size) * math.sqrt(2.0)
    return _window_ratio_levels(sign * x, eta.variance(grid.axis_values(0)), [n_max], 1)


def test_paired_window_levels_match_the_random_walk_oracle(monkeypatch):
    # alpha = 1: the grid values of sqrt2 B - t form a random walk whose
    # exp-max expectation is exact (Spitzer); the identity is unbiased for it
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    refs = importlib.import_module("refs")
    step, sizes = 1 / 16, [1.0, 2.0, 4.0]
    levels, pairs = window_sup_levels(
        LimitFieldSpec.fbm(1.0), sizes, step, 20_001, RngStream(14), refine=2
    )
    assert pairs.paired and pairs.n_reps == 20_002  # odd counts round up
    for S, sams in zip(sizes, levels):
        for lv, sam in enumerate(sams):
            assert len(sam) == 20_002
            est = pairs.estimate(sam)
            exact = refs.random_walk_sup_exp(int(round(S / step)) >> lv, step * 2**lv)
            assert est.n_reps == 20_002
            assert abs(est.value - exact) < 3 * est.stderr


def test_window_pairs_reduce_eta_and_minus_eta_of_one_draw():
    eta, n = LimitFieldSpec.fbm(1.5), 16
    levels, pairs = window_sup_levels(eta, [n / 8], 1 / 8, 10, RngStream(15))
    got = levels[0][0]
    for sign, paths in ((1.0, got[0::2]), (-1.0, got[1::2])):
        gen = RngStream(15).substream(0).generator()
        want = _window_paths(eta, n, 1 / 8, gen, 5, sign)[0, 0]
        assert np.array_equal(paths, want)
    assert not np.array_equal(got[0::2], got[1::2])


def test_paired_window_identity_matches_direct_mc_alpha_1_5():
    # the circulant generator: antithetic pairs against independent paths
    eta = LimitFieldSpec.fbm(1.5)
    levels, pairs = window_sup_levels(eta, [1.0], 1 / 8, 40_000, RngStream(16))
    win = pairs.estimate(levels[0][0])
    direct = estimate_generalized_constant(
        eta, DriftFunction.zero(), SUP, GridSpec.line(0.0, 1.0, 9), 40_000, RngStream(17)
    )
    assert abs(win.value - direct.value) < 3 * math.sqrt(win.stderr**2 + direct.stderr**2)


def test_rank_one_window_paths_stay_independent():
    # alpha = 2: -eta is eta reflected and a pair would repeat one sample, so
    # every path keeps its own draw, batch by batch as before the pairs
    eta, n, n_reps = LimitFieldSpec.fbm(2.0), 64, 2 * BATCH_SIZE + 11
    levels, pairs = window_sup_levels(eta, [n / 32], 1 / 32, n_reps, RngStream(18))
    got = levels[0][0]
    assert not pairs.paired and pairs.n_reps == n_reps == len(got)
    assert len(np.unique(got)) == n_reps
    want = np.concatenate([
        _window_paths(eta, n, 1 / 32, gen, hi - lo, 1.0)[0, 0]
        for gen, lo, hi in batches(RngStream(18), n_reps, BATCH_SIZE)
    ])
    assert np.array_equal(got, want)
    assert pairs.estimate(got) == Estimate.from_samples(got)


def _serial_window_levels(eta, s_levels, step, n_reps, rng, refine):
    """The window identity as one serial loop: draw, scale, reduce, batch by batch."""
    counts = [int(round(S / step)) for S in s_levels]
    n_max = max(counts)
    grid = GridSpec.line(-n_max * step, n_max * step, 2 * n_max + 1)
    sampler = LimitFieldSampler(eta, grid)
    var = eta.variance(grid.axis_values(0))
    zero = np.zeros_like(var)
    stride = 1 if sampler.rank_one else 2
    n_paths = n_reps + n_reps % stride
    out = np.empty((len(counts), refine, n_paths))
    for b, lo in enumerate(range(0, n_paths, BATCH_SIZE)):
        hi = min(lo + BATCH_SIZE, n_paths)
        gen = rng.substream(b).generator()
        x = sampler.sample(gen, (hi - lo) // stride) * math.sqrt(2.0)
        out[:, :, lo:hi:stride] = _window_ratio_levels(x - var, zero, counts, refine)
        if stride == 2:
            out[:, :, lo + 1 : hi : 2] = _window_ratio_levels(-x - var, zero, counts, refine)
    return out


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("n_reps", [600, 3 * BATCH_SIZE, 2 * BATCH_SIZE + 13])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_window_levels_drawn_ahead_equal_the_serial_loop(alpha, n_reps, refine):
    # white noise, circulant embedding and the rank-one path t * Z (unpaired);
    # one batch (inline), three batches (on two pool threads, so a slot is
    # reused) and a ragged last batch
    eta, sizes, step = LimitFieldSpec.fbm(alpha), [1.0, 2.0, 4.0], 1 / 8
    levels, pairs = window_sup_levels(eta, sizes, step, n_reps, RngStream(19), refine)
    want = _serial_window_levels(eta, sizes, step, n_reps, RngStream(19), refine)
    assert pairs.n_reps == want.shape[2]
    for got_level, want_level in zip(levels, want):
        assert len(got_level) == refine
        for got, wanted in zip(got_level, want_level):
            assert np.array_equal(got, wanted)


class _ScriptedSampler:
    """Stands in for LimitFieldSampler: zero paths, and ``fail(out)`` in batch ``at``.

    The batch is read off the generator's substream, not off a count of
    draws, because two threads draw.  ``drawn`` lists the batches whose
    draw returned.
    """

    rank_one = True  # unpaired: one reduction per batch

    def __init__(self, at, fail):
        self.at, self.fail, self.drawn = at, fail, []

    def __call__(self, eta, grid):
        return self

    def sample(self, gen, size, out):
        out[...] = 0.0
        batch = gen.bit_generator.seed_seq.spawn_key[-1]
        if batch == self.at:
            self.fail(out)
        self.drawn.append(batch)
        return out


def test_failed_draw_raises_at_its_batch_with_its_own_type(monkeypatch):
    # batch 3's draw raises, and the caller sees that very exception after
    # every earlier batch has run, so the CLI still exits 3 for it
    exc = SimulationError("draw failed")

    def fail(out):
        raise exc

    sampler = _ScriptedSampler(3, fail)
    monkeypatch.setattr(constmod, "LimitFieldSampler", sampler)
    before = threading.active_count()
    with pytest.raises(SimulationError) as info:
        window_sup_levels(LimitFieldSpec.fbm(1.0), [1.0], 1 / 8, 6 * BATCH_SIZE, RngStream(20))
    assert info.value is exc
    assert {0, 1, 2} <= set(sampler.drawn)
    assert threading.active_count() == before


def test_drawn_ahead_batch_keeps_the_callers_numpy_error_state(monkeypatch):
    # batch 2 runs on a pool thread: its overflow raises under the caller's state
    def overflow(out):
        out[0, 0] = 1e308
        out *= 10.0

    sampler = _ScriptedSampler(2, overflow)
    monkeypatch.setattr(constmod, "LimitFieldSampler", sampler)
    eta = LimitFieldSpec.fbm(1.0)
    before = threading.active_count()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            window_sup_levels(eta, [1.0], 1 / 8, 4 * BATCH_SIZE, RngStream(21))
    assert threading.active_count() == before


def test_no_helper_thread_outlives_the_window_identity(monkeypatch):
    before = threading.active_count()
    window_sup_levels(LimitFieldSpec.fbm(1.0), [1.0], 1 / 8, 3 * BATCH_SIZE, RngStream(22))
    assert threading.active_count() == before

    def failing(w, var, counts, refine, signs):
        raise ZeroDivisionError("reduction failed")

    # both pool threads raise; batch 0's exception reaches the caller
    monkeypatch.setattr(constmod, "_window_ratio_levels", failing)
    with pytest.raises(ZeroDivisionError):
        window_sup_levels(LimitFieldSpec.fbm(1.0), [1.0], 1 / 8, 3 * BATCH_SIZE, RngStream(22))
    assert threading.active_count() == before


def _oracle_window_ratio_sums(w, n, stride):
    """Row by row: exact window maxima and math.fsum window sums of level n."""
    n_max = (w.shape[1] - 1) // 2
    sub = w[:, n_max - n : n_max + n + 1 : stride]
    m = n // stride
    out = []
    for row in sub:
        e = np.exp(row - row.max()).tolist()
        wins = [e[j : j + m + 1] for j in range(m + 1)]
        out.append(math.fsum(max(win) / math.fsum(win) for win in wins))
    return np.array(out)


def _sliding_window_ratio_sums(w, n, stride):
    """Sliding-filter form of level n, one window at a time: the bit-identity oracle.

    Maxima come from a sliding maximum filter.  Each window's sum is formed on
    its own, in the order the reduction adds: outward from the center, the
    left part (without the center) plus the right part.
    """
    n_max = (w.shape[1] - 1) // 2
    e = np.exp(w - w.max(axis=1, keepdims=True))
    sub = e[:, n_max - n : n_max + n + 1 : stride]
    m = n // stride
    h1 = (m + 1) // 2
    maxes = maximum_filter1d(sub, size=m + 1, axis=1, mode="nearest")[:, h1 : h1 + m + 1]
    sums = np.empty_like(maxes)
    for j in range(m + 1):
        left = np.cumsum(sub[:, j:m][:, ::-1], axis=1)[:, -1] if j < m else 0.0
        sums[:, j] = left + np.cumsum(sub[:, m : m + j + 1], axis=1)[:, -1]
    return (maxes / sums).sum(axis=1)


def _tilted_walk(batch, n, step, seed):
    """sqrt2 B(t) - |t| on the grid of [-n step, n step], B(0) = 0."""
    rng = np.random.default_rng(seed)
    b = np.cumsum(rng.standard_normal((batch, 2 * n)) * math.sqrt(step), axis=1)
    b = np.concatenate([np.zeros((batch, 1)), b], axis=1)
    b -= b[:, n : n + 1].copy()
    t = np.arange(-n, n + 1) * step
    return math.sqrt(2.0) * b - np.abs(t)


def _assert_levels_match_oracles(w, counts, refine):
    got = _window_ratio_levels(w, np.zeros(w.shape[1]), counts, refine)
    assert got.shape == (len(counts), refine, w.shape[0])
    for li, n in enumerate(counts):
        for lv in range(refine):
            assert np.array_equal(got[li, lv], _sliding_window_ratio_sums(w, n, 2**lv))
            want = _oracle_window_ratio_sums(w, n, 2**lv)
            np.testing.assert_allclose(got[li, lv], want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 129])
@pytest.mark.parametrize("batch", [1, 127, 128, 129, 300])
def test_window_ratio_sums_bit_identical_to_sliding_filter(n, batch):
    # three nested levels share one call; the largest sets the grid
    w = _tilted_walk(batch, n, 1 / 16, seed=1000 * n + batch)
    _assert_levels_match_oracles(w, [n // 4, n // 2, n], refine=1)


@pytest.mark.parametrize("n", [2, 32, 130])
def test_window_ratio_sums_bit_identical_on_strided_subgrids(n):
    # refinement levels read every other point of the same nested sub-grids
    w = _tilted_walk(200, 2 * n, 1 / 64, seed=n)
    _assert_levels_match_oracles(w, [2, n, 2 * n], refine=2)


@np.errstate(invalid="ignore")
def _row_block_window_levels(w, var, counts, refine):
    """The window pass in blocks of 128 rows, one sign a call: a frozen reference.

    Each block forms W = w - var over the full row and scans the left half
    (stored in grid order) and the right half separately.
    """
    batch, n_max = w.shape[0], max(counts)
    rows = min(batch, 128)
    e = np.empty((rows, 2 * n_max + 1))
    lmax, rmax, lsum, rsum, num, den = np.empty((6, rows, n_max + 1))
    out = np.empty((len(counts), refine, batch))
    for lo in range(0, batch, 128):
        wb = w[lo : lo + 128]
        k = wb.shape[0]
        eb = e[:k]
        np.subtract(wb, var, out=eb)
        eb -= eb.max(axis=1, keepdims=True)
        np.exp(eb, out=eb)
        for lv in range(refine):
            s = 2**lv
            top = n_max // s
            lm, rm, ls, rs = (a[:k, : top + 1] for a in (lmax, rmax, lsum, rsum))
            left, right = eb[:, n_max::-s], eb[:, n_max::s]
            np.fmax.accumulate(left, axis=1, out=lm[:, ::-1])
            np.fmax.accumulate(right, axis=1, out=rm)
            ls[:, top] = 0.0
            np.cumsum(left[:, 1:], axis=1, out=ls[:, :top][:, ::-1])
            np.cumsum(right, axis=1, out=rs)
            for li, n in enumerate(counts):
                m = n // s
                nb, db = num[:k, : m + 1], den[:k, : m + 1]
                np.maximum(lm[:, top - m :], rm[:, : m + 1], out=nb)
                np.add(ls[:, top - m :], rs[:, : m + 1], out=db)
                np.divide(nb, db, out=nb)
                out[li, lv, lo : lo + k] = nb.sum(axis=1)
    return out


@pytest.mark.parametrize("signs", [(1.0,), (1.0, -1.0)])
@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("batch", [1, 125, 126, 999, 1000])
def test_window_pass_bit_identical_to_the_row_block_pass(batch, refine, signs):
    # path 2i + 1 of a pair is row i negated; row 0 holds a point 1000 above
    # its center, so under sign +1 its levels read NaN, which must match too
    n_max = 32
    w = _tilted_walk(batch, n_max, 1 / 16, seed=batch)
    w[0, n_max + 24] = 1000.0
    var = np.abs(np.arange(-n_max, n_max + 1)) / 32
    counts = [16, 8, 32, 16]  # unsorted, one repeated
    got = _window_ratio_levels(w, var, counts, refine, signs)
    want = np.empty_like(got)
    for k, sign in enumerate(signs):
        want[:, :, k :: len(signs)] = _row_block_window_levels(
            np.negative(w) if sign < 0 else w, var, counts, refine
        )
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.isnan(got[:, :, 0]).all()


@pytest.mark.parametrize("n_signs,min_rows", [(2, 126), (1, 251)])
def test_every_window_block_scans_more_than_500_rows(n_signs, min_rows):
    assert GIL_FREE_SCAN_ROWS == 500
    for batch in [*range(1, 4 * min_rows), BATCH_SIZE // n_signs]:
        bounds = _scan_blocks(batch, n_signs)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == batch
        assert sizes.max() - sizes.min() <= 1
        if batch < min_rows:
            assert len(sizes) == 1
            continue
        assert 2 * n_signs * sizes.min() > 500
        # one block more would leave a block at or under 500 scan rows
        assert 2 * n_signs * (batch // (len(sizes) + 1)) <= 500


def test_far_spike_empties_windows_into_nan_and_counts_as_overflow(monkeypatch):
    # a spike 1000 above the center, outside the inner levels' sub-grids,
    # underflows every other exp of its row: windows without it give 0/0
    n_max, spike = 32, 1000.0
    w = _tilted_walk(3, n_max, 1 / 16, seed=5)
    w[0, n_max + 24] = spike
    with np.errstate(invalid="ignore"):
        got = _window_ratio_levels(w, np.zeros(w.shape[1]), [8, 16, 32], refine=2)
    assert np.isnan(got[:, :, 0]).all()
    assert np.isfinite(got[:, :, 1:]).all()

    class SpikedSampler:
        rank_one = False

        def __init__(self, eta, grid):
            self.size = grid.size

        def sample(self, gen, size, out):
            out[...] = 0.0
            out[0, -1] = spike  # the first row of every batch
            return out

    monkeypatch.setattr(constmod, "LimitFieldSampler", SpikedSampler)
    schedule = ExtrapolationSchedule(
        domain_sizes=(1.0, 2.0, 4.0), grid_steps=(1 / 4, 1 / 8)
    )
    n_reps = 2 * BATCH_SIZE + 10
    with np.errstate(invalid="ignore"):
        trace = estimate_pickands(LimitFieldSpec.fbm(1.0), schedule, n_reps, RngStream(3))
    for est in (*trace.levels, trace.estimate):
        assert est.meta["overflow_count"] == 3  # one row in each of three batches
        assert math.isfinite(est.value)


# ---------------------------------------------------------------------------
# CRN monotonicity (exact per sample)


def test_domain_drift_and_grid_monotonicity_per_sample():
    eta = LimitFieldSpec.fbm(1.0)
    grid = GridSpec.line(0.0, 2.0, 33)
    sampler = LimitFieldSampler(eta, grid)
    field = sampler.sample(RngStream(21).generator(), 500)
    w = math.sqrt(2.0) * field - sampler.variance()
    full = apply_functional(SUP, w, grid_ndim=1)
    # domain: sup over the left half never exceeds the full sup
    assert np.all(apply_functional(SUP, w[:, :17], grid_ndim=1) <= full)
    # grid: sup over every second point never exceeds the fine-grid sup
    assert np.all(apply_functional(SUP, w[:, ::2], grid_ndim=1) <= full)
    # drift: larger h gives a smaller functional, sample by sample
    t = grid.axis_values(0)
    assert np.all(
        apply_functional(SUP, w - 2 * t, grid_ndim=1)
        <= apply_functional(SUP, w - t, grid_ndim=1)
    )


def test_joint_constant_reduces_to_generalized_for_one_functional():
    eta = LimitFieldSpec.fbm(1.0)
    grid = GridSpec.line(0.0, 1.0, 9)
    a = estimate_joint_constant(
        eta, DriftFunction.zero(), [SUP], grid, 2000, RngStream(31)
    )
    b = estimate_generalized_constant(
        eta, DriftFunction.zero(), SUP, grid, 2000, RngStream(31)
    )
    assert a.value == b.value and a.stderr == b.stderr


def test_joint_constant_bounded_by_each_marginal():
    eta = LimitFieldSpec.fbm(1.0)
    grid = GridSpec.line(-1.0, 1.0, 17)
    gammas = [SUP, FunctionalSpec.mix(0.8)]
    joint = estimate_joint_constant(
        eta, DriftFunction.zero(), gammas, grid, 4000, RngStream(32)
    )
    for g in gammas:
        single = estimate_generalized_constant(
            eta, DriftFunction.zero(), g, grid, 4000, RngStream(32)
        )
        # same substream keys -> same paths -> exact per-sample domination
        assert joint.value <= single.value + 1e-12


# ---------------------------------------------------------------------------
# long-domain limits


def test_pickands_alpha2_quick():
    schedule = ExtrapolationSchedule(
        domain_sizes=(2.0, 4.0, 8.0), grid_steps=(1 / 8, 1 / 16), stop_rule=0.02
    )
    trace = estimate_pickands(LimitFieldSpec.fbm(2.0), schedule, 4000, RngStream(41))
    target = 1.0 / math.sqrt(math.pi)
    assert abs(trace.value - target) < 0.05 * target
    # per-domain interval constants track the closed form 1 + S/sqrt(pi)
    for est in trace.levels:
        S = est.meta["domain"]
        assert est.value == pytest.approx(1.0 + S / math.sqrt(math.pi), rel=0.03)


def test_pickands_alpha1_against_reflection_oracle():
    schedule = ExtrapolationSchedule(
        domain_sizes=(2.0, 4.0, 8.0), grid_steps=(1 / 16, 1 / 32), stop_rule=0.05
    )
    trace = estimate_pickands(LimitFieldSpec.fbm(1.0), schedule, 6000, RngStream(42))
    oracle_dq = (brownian_interval_constant(8.0) - brownian_interval_constant(4.0)) / 4.0
    assert abs(trace.value - oracle_dq) < 0.03 * oracle_dq + 3 * trace.estimate.stderr


@pytest.mark.parametrize(
    "eta", [LimitFieldSpec.fbm(1.0), LimitFieldSpec.degenerate_field(1)], ids=["fbm", "zero"]
)
def test_pickands_rejects_a_zero_domain_size(eta):
    # the constant is per unit length: S = 0 is a ModelError, not a division by 0
    schedule = ExtrapolationSchedule(domain_sizes=(0.0, 2.0, 4.0), grid_steps=(1 / 4, 1 / 8))
    with pytest.raises(ModelError, match="domain sizes must be positive"):
        estimate_pickands(eta, schedule, 100, RngStream(1))


def test_pickands_degenerate():
    schedule = ExtrapolationSchedule(domain_sizes=(2.0, 4.0, 8.0))
    trace = estimate_pickands(
        LimitFieldSpec.degenerate_field(1), schedule, 100, RngStream(1)
    )
    # the zero field's constant over [0, S] is 1, its per-unit ratio 1/S
    assert trace.status == "plateau"
    assert trace.value == 0.0 and trace.estimate.stderr == 0.0
    assert [e.value for e in trace.levels] == [1.0, 1.0, 1.0]
    assert [e.meta["ratio"] for e in trace.levels] == [0.5, 0.25, 0.125]


def test_piterbarg_degenerate_drift_exact():
    h = DriftFunction(fn=lambda t: np.atleast_2d(t)[:, 0] ** 2)
    schedule = ExtrapolationSchedule(
        domain_sizes=(1.0, 2.0, 4.0), grid_steps=(1 / 8,)
    )
    trace = estimate_piterbarg(
        LimitFieldSpec.degenerate_field(1), h, schedule, 100, RngStream(1)
    )
    assert trace.status == "plateau"
    assert all(e.value == 1.0 for e in trace.levels)


def test_piterbarg_quadratic_drift_oracle():
    # eta = fBm(2), h = 3 t^2 on [-S, S]: exact limit sqrt((1+3)/3)
    gamma_coef = 3.0
    h = DriftFunction(
        fn=lambda t: gamma_coef * np.abs(np.atleast_2d(t)[:, 0]) ** 2
    )
    schedule = ExtrapolationSchedule(
        domain_sizes=(1.0, 2.0, 4.0), grid_steps=(1 / 16,), stop_rule=0.02
    )
    trace = estimate_piterbarg(
        LimitFieldSpec.fbm(2.0), h, schedule, 20_000, RngStream(43), domain="symmetric"
    )
    target = math.sqrt((1 + gamma_coef) / gamma_coef)
    assert abs(trace.value - target) < 0.02 * target + 3 * trace.estimate.stderr
    # right domain [0, S]: 1/2 + (1/2) sqrt((1+gamma)/gamma)
    trace_r = estimate_piterbarg(
        LimitFieldSpec.fbm(2.0), h, schedule, 20_000, RngStream(44), domain="right"
    )
    target_r = 0.5 + 0.5 * target
    assert abs(trace_r.value - target_r) < 0.02 * target_r + 3 * trace_r.estimate.stderr


def test_piterbarg_flat_drift_warns():
    schedule = ExtrapolationSchedule(domain_sizes=(1.0, 2.0, 4.0), grid_steps=(1 / 8,))
    trace = estimate_piterbarg(
        LimitFieldSpec.fbm(1.0), DriftFunction.zero(), schedule, 500, RngStream(1)
    )
    assert "drift_warning" in trace.estimate.meta


def test_piterbarg_domain_validation():
    with pytest.raises(ModelError):
        estimate_piterbarg(
            LimitFieldSpec.fbm(1.0),
            DriftFunction.zero(),
            ExtrapolationSchedule(),
            10,
            RngStream(1),
            domain="left",
        )
    h = DriftFunction(fn=lambda t: np.atleast_2d(t)[:, 0] ** 2)
    # only the Pickands constant takes (2h, h); 0.3 divides no domain size
    for steps in [(1 / 8, 1 / 16), (0.3,)]:
        schedule = ExtrapolationSchedule(domain_sizes=(1.0, 2.0, 4.0), grid_steps=steps)
        with pytest.raises(ModelError):
            estimate_piterbarg(LimitFieldSpec.fbm(2.0), h, schedule, 10, RngStream(1))


# ---------------------------------------------------------------------------
# sup-inf constant


def test_generalized_piterbarg_zero_window_zero_horizon():
    vf = VarianceFunction.fbm(0.8)
    schedule = ExtrapolationSchedule(
        domain_sizes=(0.0, 1.0, 2.0), grid_steps=(1 / 8,), stop_rule=0.05
    )
    trace = estimate_generalized_piterbarg(
        vf, 1.0, 0.0, schedule, 500, RngStream(51)
    )
    # horizon 0, window 0: the functional is exp(X(0)) = 1 exactly
    assert trace.levels[0].value == 1.0 and trace.levels[0].stderr == 0.0
    # sup over nested horizons: levels nondecrease
    vals = [e.value for e in trace.levels]
    assert vals == sorted(vals)


@pytest.mark.parametrize("S", [0.0, 0.75])
def test_generalized_piterbarg_matches_per_t_slice_minimum(S):
    vf, b, step, n_reps = VarianceFunction.fbm(0.8), 0.5, 1 / 8, BATCH_SIZE + 500
    schedule = ExtrapolationSchedule(domain_sizes=(0.5, 1.0, 2.0), grid_steps=(step,))
    trace = estimate_generalized_piterbarg(
        vf, b, S, schedule, n_reps, RngStream(52)
    )
    n_s, n_t = round(S / step), round(2.0 / step)
    x_vals = np.arange(-n_s, n_t + 1) * step
    sampler = StatIncrSampler(vf, x_vals)
    penalty = (1.0 + b) * vf(np.abs(x_vals))
    sup_inf = {T: np.empty(n_reps) for T in schedule.domain_sizes}
    for gen, lo, hi in batches(RngStream(52), n_reps, BATCH_SIZE):
        y = math.sqrt(2.0) * sampler.sample(gen, hi - lo) - penalty
        # t = i * step: the inf over s in [0, S] of y(t - s) is over x in [t - S, t]
        infs = np.stack([y[:, i : i + n_s + 1].min(axis=1) for i in range(n_t + 1)], 1)
        for T in schedule.domain_sizes:
            sup_inf[T][lo:hi] = np.exp(infs[:, : round(T / step) + 1].max(axis=1))
    for level, T in zip(trace.levels, schedule.domain_sizes):
        want = Estimate.from_samples(sup_inf[T])
        assert (level.value, level.stderr) == (want.value, want.stderr)


def test_generalized_piterbarg_validation():
    vf = VarianceFunction.fbm(0.8)
    schedule = ExtrapolationSchedule(domain_sizes=(1.0, 2.0, 4.0), grid_steps=(1 / 8,))
    with pytest.raises(ModelError):
        estimate_generalized_piterbarg(vf, 0.0, 1.0, schedule, 10, RngStream(1))
    with pytest.raises(ModelError):
        estimate_generalized_piterbarg(vf, 1.0, 0.3, schedule, 10, RngStream(1))
    two_steps = ExtrapolationSchedule(
        domain_sizes=(1.0, 2.0, 4.0), grid_steps=(1 / 4, 1 / 8)
    )
    with pytest.raises(ModelError):
        estimate_generalized_piterbarg(vf, 1.0, 1.0, two_steps, 10, RngStream(1))
    # 0.3 divides S = 0.6 and the last horizon 6, but not the horizons 1 and 2
    coarse = ExtrapolationSchedule(domain_sizes=(1.0, 2.0, 6.0), grid_steps=(0.3,))
    with pytest.raises(ModelError):
        estimate_generalized_piterbarg(vf, 1.0, 0.6, coarse, 10, RngStream(1))


def test_local_step_exponent():
    assert local_step_exponent(LimitFieldSpec.fbm(1.0)) == 0.5
    assert local_step_exponent(LimitFieldSpec.degenerate_field(1)) == 1.0
