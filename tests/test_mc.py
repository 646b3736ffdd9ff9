"""Estimate bookkeeping, batch-means errors, schedules, plateau logic."""

import math

import numpy as np
import pytest

from scipy import stats

from gexr.covmodels import ModelError
from gexr.mc import (
    Estimate,
    ExtrapolationSchedule,
    batches,
    cell_map,
    combine_stderr,
    plateau_status,
)
from gexr.rng import RngStream


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

    serial = cell_map(cell, range(12), 1)
    assert serial == [cell(i) for i in range(12)]
    assert cell_map(cell, range(12), 3) == serial


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
