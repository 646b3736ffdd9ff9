"""Estimate bookkeeping, batch-means errors, schedules, plateau logic."""

import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest

from scipy import stats

from gexr import constants, doublesum, tailprob
from gexr.configio import family_from_config
from gexr.covmodels import DriftFunction, LimitFieldSpec, ModelError, VarianceFunction
from gexr.functionals import FunctionalSpec
from gexr.mc import (
    Estimate,
    ExtrapolationSchedule,
    batch_map,
    batches,
    cell_map,
    combine_stderr,
    plateau_status,
)
from gexr.rng import RngStream
from gexr.simkit import GridSpec


def test_from_samples_mean_and_ci():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est = Estimate.from_samples(x)
    assert est.value == pytest.approx(2.5)
    lo, hi = est.ci95
    assert lo == pytest.approx(est.value - 1.96 * est.stderr)
    assert hi == pytest.approx(est.value + 1.96 * est.stderr)


def test_batch_means_stderr_close_to_iid():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(40_000)
    est = Estimate.from_samples(x)
    iid = x.std(ddof=1) / math.sqrt(len(x))
    assert est.stderr == pytest.approx(iid, rel=0.2)


def test_stderr_scaling_with_n():
    # doubling the replication count shrinks stderr by ~1/sqrt(2)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(80_000)
    ratio = Estimate.from_samples(x).stderr / Estimate.from_samples(x[:40_000]).stderr
    assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.15)


@pytest.mark.parametrize("n", [2, 29])
def test_fewer_samples_than_batches_give_the_iid_stderr(n):
    # n < 30 batches: one sample per batch, so the batch means are the samples
    x = np.random.default_rng(n).standard_normal(n)
    assert Estimate.from_samples(x).stderr == x.std(ddof=1) / math.sqrt(n)


def test_one_sample_has_no_stderr():
    est = Estimate.from_samples(np.array([0.5]))
    assert est.value == 0.5 and math.isnan(est.stderr)


def test_overflow_samples_excluded_and_counted():
    x = np.array([1.0, np.inf, 2.0, np.nan, 3.0])
    est = Estimate.from_samples(x)
    assert est.meta["overflow_count"] == 2
    assert est.value == pytest.approx(1.2)  # counted as 0, kept in the denominator


def test_batches_split_and_substreams():
    rng = RngStream(17)
    got = list(batches(rng, 4500, 2000))
    assert [(lo, hi) for _, lo, hi in got] == [(0, 2000), (2000, 4000), (4000, 4500)]
    for b, (gen, lo, hi) in enumerate(got):
        expected = rng.substream(b).generator().standard_normal(hi - lo)
        assert np.array_equal(gen.standard_normal(hi - lo), expected)
    assert list(batches(rng, 0, 2000)) == []


def _recording_body(log, meet=lambda slot: None):
    """A batch body that records (batch, lo, hi, slot, thread, draws) in ``log``.

    It calls ``meet(slot)`` before it draws.
    """

    def body(gen, lo, hi, slot):
        meet(slot)
        batch = gen.bit_generator.seed_seq.spawn_key[-1]
        draws = gen.standard_normal(hi - lo)
        log.append((batch, lo, hi, slot, threading.get_ident(), draws))

    return body


def _both_slots_meet():
    """``meet(slot)``: each slot's first call waits for the other slot's.

    Without it one pool thread may take every batch before the other starts.
    """
    barrier, met = threading.Barrier(2, timeout=30), set()

    def meet(slot):
        if slot not in met:
            met.add(slot)
            barrier.wait()

    return meet


@pytest.mark.parametrize("n_reps", [0, 1000, 2000, 3000, 9 * 1000 + 37])
def test_batch_map_equals_the_serial_loop(n_reps):
    # 0, 1, 2, 3 and a ragged 10 batches: under two batches all run in slot 0
    # on the calling thread; from two on, each slot is one pool thread
    log = []
    n = -(-n_reps // 1000)
    meet = _both_slots_meet() if n >= 2 else (lambda slot: None)
    batch_map(_recording_body(log, meet), RngStream(24), n_reps, 1000)
    got = sorted(log, key=lambda row: row[0])
    serial = list(batches(RngStream(24), n_reps, 1000))
    assert [row[:3] for row in got] == [(b, lo, hi) for b, (_, lo, hi) in enumerate(serial)]
    for row, (gen, lo, hi) in zip(got, serial):
        assert np.array_equal(row[5], gen.standard_normal(hi - lo))
    caller = threading.get_ident()
    if n < 2:
        assert all(row[3] == 0 and row[4] == caller for row in got)
        return
    threads = [{row[4] for row in got if row[3] == slot} for slot in (0, 1)]
    assert all(len(t) == 1 for t in threads) and threads[0] != threads[1]
    assert caller not in threads[0] | threads[1]


class _BatchFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [{1}, {3}, {4}, {1, 4}, {3, 4}, {0, 2}])
def test_batch_map_raises_the_first_failing_batch(failing):
    # five batches on two pool threads: the first failing one's exception
    excs = {b: _BatchFailure(f"batch {b}") for b in failing}

    def body(gen, lo, hi, slot):
        if lo // 100 in excs:
            raise excs[lo // 100]

    before = threading.active_count()
    with pytest.raises(_BatchFailure) as info:
        batch_map(body, RngStream(25), 500, 100)
    assert info.value is excs[min(failing)]
    assert threading.active_count() == before


def test_batch_map_helper_keeps_the_callers_numpy_error_state():
    # both batches run on pool threads under the caller's state: batch 1 overflows
    states = []

    def body(gen, lo, hi, slot):
        states.append((lo, np.geterr(), threading.get_ident()))
        if lo == 100:
            np.array([1e308]) * 10.0

    with np.errstate(over="raise", under="ignore"):
        caller = np.geterr()
        with pytest.raises(FloatingPointError):
            batch_map(body, RngStream(26), 200, 100)
    assert sorted(lo for lo, _, _ in states) == [0, 100]
    assert all(state == caller for _, state, _ in states)
    assert threading.get_ident() not in {thread for _, _, thread in states}


def test_batch_loops_inside_a_pooled_cell_start_no_helper(monkeypatch):
    # cell_map runs at most two threads: a cell of its pool runs its batches
    # inline, so only the pool itself may start
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    sampler = tailprob.ConditionalSampler(fam, 3.0, 0.0, GridSpec.line(0.0, 0.5, 9))
    sup = FunctionalSpec.sup()

    def cell(i):
        return tailprob.conditional_tail(sampler, sup, 3000, RngStream(27, (i,)))

    want = [cell(i) for i in range(3)]
    pools = []

    class OnePool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            if pools:
                raise AssertionError("a batch loop started a pool inside a pooled cell")
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", OnePool)
    assert cell_map(cell, range(3)) == want
    assert len(pools) == 1


def test_a_lone_cell_splits_its_batches(monkeypatch):
    # one item runs on the calling thread, so only its batch loop's pool starts
    sizes = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    def cell(i):
        out = np.zeros(4)

        def body(gen, lo, hi, slot):
            out[lo:hi] = gen.standard_normal(hi - lo)

        batch_map(body, RngStream(28, (i,)), 4, 2)
        return out.tolist()

    want = cell(0)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    assert cell_map(cell, [0]) == [want]
    assert sizes == [2]


# ---------------------------------------------------------------------------
# every estimator's batches on two threads equal one serial loop


def _serial_batch_map(body, rng, n_reps, batch_size):
    for gen, lo, hi in batches(rng, n_reps, batch_size):
        body(gen, lo, hi, 0)


def _two_threads_then_serial(monkeypatch, module, run):
    """``run()`` with the module's batch loop split over two threads, then serial.

    Both pool threads run, and the threaded run switches threads as often as
    the interpreter allows, so that a write one thread makes into the
    other's rows or buffer shows.
    """
    slots = []

    def split(body, rng, n_reps, batch_size):
        meet = _both_slots_meet()

        def tagged(gen, lo, hi, slot):
            meet(slot)
            slots.append(slot)
            body(gen, lo, hi, slot)

        batch_map(tagged, rng, n_reps, batch_size)

    monkeypatch.setattr(module, "batch_map", split)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run()
    finally:
        sys.setswitchinterval(interval)
    assert len(slots) >= 3 and 1 in slots  # both pool threads ran
    monkeypatch.setattr(module, "batch_map", _serial_batch_map)
    return threaded, run()


@pytest.mark.parametrize(
    "gamma", [FunctionalSpec.sup(), FunctionalSpec.inf(), FunctionalSpec.mix(0.5)]
)
def test_conditional_tail_equals_its_serial_loop(monkeypatch, gamma):
    # closed-form sup and inf crossings and the bisected mix, over 3 batches
    fam = family_from_config({"kind": "local", "alpha": 1.0})
    sampler = tailprob.ConditionalSampler(fam, 3.0, 0.0, GridSpec.line(-1.0, 1.0, 17))
    threaded, serial = _two_threads_then_serial(
        monkeypatch, tailprob,
        lambda: tailprob.conditional_tail(sampler, gamma, 2500, RngStream(28)),
    )
    assert threaded == serial


def test_crude_tail_hits_equal_its_serial_loop(monkeypatch):
    fam = family_from_config({"kind": "stationary", "alpha": 1.0})
    threaded, serial = _two_threads_then_serial(
        monkeypatch, tailprob,
        lambda: tailprob.crude_mc_tail(
            fam, 1.0, 0.0, FunctionalSpec.sup(), GridSpec.line(0.0, 0.5, 7),
            3 * tailprob.CRUDE_BATCH + 7, RngStream(29),
        ),
    )
    assert threaded.meta["hits"] == serial.meta["hits"] > 0
    assert threaded == serial


def test_double_maxima_equal_its_serial_loop(monkeypatch):
    def corr(u, s, t):
        s, t = np.atleast_2d(s), np.atleast_2d(t)
        return np.exp(-(((s[:, None, :] - t[None, :, :]) ** 2).sum(axis=-1)) / 4.0)

    cell = ((0.0, 1.0),)
    cfg = doublesum.DoubleMaximaConfig(
        correlation=corr, cell1=cell, cell2=cell, offset1=(0.0,), offset2=(2.0,),
        m1_fn=lambda u: 1.2, m2_fn=lambda u: 1.2, c1=1.0, beta=2.0, s2=2.0,
    )
    threaded, serial = _two_threads_then_serial(
        monkeypatch, doublesum,
        lambda: doublesum.estimate_double_maxima(
            cfg, 0.0, 3, 2 * doublesum.BATCH_SIZE + 101, RngStream(30)
        ),
    )
    assert threaded == serial


def test_joint_constant_equals_its_serial_loop(monkeypatch):
    gammas = [FunctionalSpec.sup(), FunctionalSpec.mix(0.8)]
    threaded, serial = _two_threads_then_serial(
        monkeypatch, constants,
        lambda: constants.estimate_joint_constant(
            LimitFieldSpec.fbm(1.0), DriftFunction.zero(), gammas,
            GridSpec.line(0.0, 1.0, 9), 2 * constants.BATCH_SIZE + 3, RngStream(31),
        ),
    )
    assert threaded == serial


def test_generalized_piterbarg_equals_its_serial_loop(monkeypatch):
    schedule = ExtrapolationSchedule(domain_sizes=(0.5, 1.0, 2.0), grid_steps=(1 / 8,))
    threaded, serial = _two_threads_then_serial(
        monkeypatch, constants,
        lambda: constants.estimate_generalized_piterbarg(
            VarianceFunction.fbm(0.8), 0.5, 0.75, schedule,
            2 * constants.BATCH_SIZE + 3, RngStream(32),
        ),
    )
    assert threaded == serial


def test_binomial_no_hits():
    est = Estimate.binomial(0, 400, {"g": 3.0})
    assert est.value == 0.0 and est.stderr == 0.0 and est.n_reps == 400
    lo, hi = est.meta["ci_exact"]
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 400))  # closed form at 0 hits
    assert est.meta["hits"] == 0 and est.meta["g"] == 3.0


def test_binomial_all_hits():
    est = Estimate.binomial(50, 50)
    assert est.value == 1.0 and est.stderr == 0.0
    lo, hi = est.meta["ci_exact"]
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 50))


@pytest.mark.parametrize(
    "hits, n",
    [(1, 2), (1, 60_000), (59_999, 60_000), (37, 1000), (5, 4000), (1234, 40_000)],
)
def test_binomial_middle_count_matches_beta_quantiles(hits, n):
    est = Estimate.binomial(hits, n)
    assert est.value == hits / n
    assert est.stderr == pytest.approx(math.sqrt(hits / n * (1 - hits / n) / n))
    lo, hi = est.meta["ci_exact"]
    assert lo == stats.beta.ppf(0.025, hits, n - hits + 1)
    assert hi == stats.beta.ppf(0.975, hits + 1, n - hits)
    assert lo < est.value < hi


def test_cell_map_order_independent_of_workers():
    rng = RngStream(23)

    def cell(i):
        return float(rng.substream(i).generator().standard_normal(50).sum())

    assert cell_map(cell, range(12)) == [cell(i) for i in range(12)]


def test_combine_stderr():
    a, b = Estimate(0, 3.0, 1), Estimate(0, 4.0, 1)
    assert combine_stderr(a, b) == pytest.approx(5.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ExtrapolationSchedule(domain_sizes=(1.0, 2.0))
    with pytest.raises(ValueError):
        ExtrapolationSchedule(domain_sizes=(4.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        ExtrapolationSchedule(grid_steps=(1 / 32, 1 / 16))
    with pytest.raises(ValueError):  # accepted once, then run at 1/32
        ExtrapolationSchedule(grid_steps=(1 / 16, 1 / 64))
    sched = ExtrapolationSchedule()
    assert sched.finest_step == 1 / 64


@pytest.mark.parametrize("sizes", [
    (1.0, 2.0, 4.0, 4.0), (1.0, 2.0, 2.0), (-1.0, 1.0, 2.0), (1.0, float("nan"), 4.0),
])
def test_schedule_domain_sizes_strictly_increase_from_zero(sizes):
    with pytest.raises(ModelError, match="domain sizes must be increasing"):
        ExtrapolationSchedule(domain_sizes=sizes)
    assert ExtrapolationSchedule(domain_sizes=(0.0, 1.0, 2.0)).domain_sizes[0] == 0.0


def test_schedule_rejects_a_nan_step():
    with pytest.raises(ModelError):
        ExtrapolationSchedule(grid_steps=(float("nan"),))


def test_schedule_step_is_the_one_step():
    assert ExtrapolationSchedule(grid_steps=(1 / 16,)).step == 1 / 16
    with pytest.raises(ModelError, match="Pickands"):
        ExtrapolationSchedule().step  # (2h, h) is for step extrapolation only
    for steps in [(0.0,), (-1 / 8,), (-1 / 4, -1 / 8)]:
        with pytest.raises(ModelError, match="positive"):
            ExtrapolationSchedule(grid_steps=steps)


def test_plateau_status():
    def lv(*vals, se=0.001):
        return [Estimate(v, se, 100) for v in vals]

    assert plateau_status(lv(1.0, 1.05, 1.051), 0.01) == "plateau"
    assert plateau_status(lv(1.0, 1.5, 2.5), 0.01) == "diverging"
    assert plateau_status(lv(1.0, 1.5, 1.2), 0.01) == "no-plateau"
    # wide stderr turns a gap into agreement
    assert plateau_status(lv(1.0, 1.1, se=0.2), 0.01) == "plateau"
    assert plateau_status(lv(1.0), 0.01) == "no-plateau"
