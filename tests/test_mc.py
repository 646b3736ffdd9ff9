"""Estimate bookkeeping, batch-means errors, schedules, plateau logic."""

import math

import numpy as np
import pytest

from gexr.mc import Estimate, ExtrapolationSchedule, combine_stderr, plateau_status


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


def test_scaled():
    est = Estimate(2.0, 0.5, 10, {"a": 1})
    out = est.scaled(-3.0, b=2)
    assert out.value == -6.0 and out.stderr == 1.5
    assert out.meta == {"a": 1, "b": 2}


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
    sched = ExtrapolationSchedule()
    assert sched.finest_step == 1 / 64


def test_plateau_status():
    def lv(*vals, se=0.001):
        return [Estimate(v, se, 100) for v in vals]

    assert plateau_status(lv(1.0, 1.05, 1.051), 0.01) == "plateau"
    assert plateau_status(lv(1.0, 1.5, 2.5), 0.01) == "diverging"
    assert plateau_status(lv(1.0, 1.5, 1.2), 0.01) == "no-plateau"
    # wide stderr turns a gap into agreement
    assert plateau_status(lv(1.0, 1.1, se=0.2), 0.01) == "plateau"
    assert plateau_status(lv(1.0), 0.01) == "no-plateau"
