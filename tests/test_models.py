"""Variance/correlation model laws."""

import math

import numpy as np
import pytest

from gexr.configio import family_from_config, variance_function_from_json
from gexr.covmodels import (
    LimitFieldComponent,
    LimitFieldSpec,
    ModelError,
    ThresholdedFamilySpec,
    VarianceFunction,
    fgn_autocovariance,
)


# ---------------------------------------------------------------------------
# fgn autocovariance


def test_fgn_autocov_brownian_lag0():
    assert fgn_autocovariance(1.0, 1.0, 0) == 1.0


def test_fgn_autocov_brownian_independent():
    for k in (1, 2, 3, 10):
        assert fgn_autocovariance(1.0, 1.0, k) == 0.0


def test_fgn_autocov_alpha2_constant():
    # gamma(k) = step**2 for every lag when the path is perfectly linear
    assert fgn_autocovariance(2.0, 0.5, 7) == pytest.approx(0.25, abs=1e-15)
    assert fgn_autocovariance(2.0, 0.5, 0) == pytest.approx(0.25, abs=1e-15)


def test_fgn_autocov_rejects_bad_args():
    with pytest.raises(ModelError):
        fgn_autocovariance(0.0, 1.0, 0)
    with pytest.raises(ModelError):
        fgn_autocovariance(1.0, -1.0, 0)
    with pytest.raises(ModelError):
        fgn_autocovariance(1.0, 1.0, -2)


# ---------------------------------------------------------------------------
# variance functions


def test_fbm_variance_powerlaw():
    vf = VarianceFunction.fbm(1.5)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    assert np.allclose(vf(t), t**1.5)
    assert vf.alpha0 == vf.alpha_inf == 1.5


def test_fbm_exponent_range():
    with pytest.raises(ModelError):
        VarianceFunction.fbm(0.0)
    with pytest.raises(ModelError):
        VarianceFunction.fbm(2.5)


def test_sum_of_fbm_indices():
    # near 0 the smallest exponent dominates, near infinity the largest
    vf = VarianceFunction.sum_of_fbm([1.0, 1.0], [0.5, 1.5])
    assert vf.alpha0 == 0.5
    assert vf.alpha_inf == 1.5
    assert vf(np.array([2.0]))[0] == pytest.approx(2**0.5 + 2**1.5)


def test_sum_of_fbm_validation():
    with pytest.raises(ModelError):
        VarianceFunction.sum_of_fbm([1.0], [0.5, 1.5])
    with pytest.raises(ModelError):
        VarianceFunction.sum_of_fbm([-1.0], [0.5])
    for alphas in ([0.0, 1.0], [1.0, 2.5], [1.0, math.nan]):
        with pytest.raises(ModelError):
            VarianceFunction.sum_of_fbm([1.0, 1.0], alphas)


def test_table_interpolation_exact_on_powerlaw():
    # log-log interpolation reproduces a power law exactly between knots
    knots = [(t, t**1.3) for t in (0.1, 0.5, 1.0, 4.0)]
    vf = VarianceFunction.from_table(knots, alpha0=1.3, alpha_inf=1.3)
    q = np.array([0.2, 0.7, 2.0])
    assert np.allclose(vf(q), q**1.3, rtol=1e-12)


def test_table_out_of_range_is_error():
    vf = VarianceFunction.from_table([(0.5, 1.0), (2.0, 3.0)], 1.0, 1.0)
    with pytest.raises(ModelError):
        vf(np.array([3.0]))
    with pytest.raises(ModelError):
        vf(np.array([0.1]))


def test_variance_negative_lag_rejected():
    vf = VarianceFunction.fbm(1.0)
    with pytest.raises(ModelError):
        vf(np.array([-0.5]))


def test_variance_function_from_json():
    assert variance_function_from_json({"kind": "fbm", "alpha": 1.2}).alpha0 == 1.2
    vf = variance_function_from_json(
        '{"kind": "sumOfFbm", "weights": [1, 2], "alphas": [0.5, 1.0]}'
    )
    assert vf.kind == "sumOfFbm"
    vf = variance_function_from_json(
        {"kind": "custom", "table": [[0.5, 1.0], [2.0, 3.0]], "alpha0": 1.0, "alphaInf": 1.0}
    )
    assert vf.t_range == (0.5, 2.0)
    with pytest.raises(ModelError):
        variance_function_from_json({"kind": "nope"})


# ---------------------------------------------------------------------------
# limit-field components


def test_component_modes():
    base = VarianceFunction.sum_of_fbm([1.0, 1.0], [0.5, 1.5])
    t = np.array([0.25, 1.0, 3.0])
    local = LimitFieldComponent(0, 1.0, 0.0, base)
    assert np.allclose(local.unit_variance(t), t**0.5)
    glob = LimitFieldComponent(0, 1.0, math.inf, base)
    assert np.allclose(glob.unit_variance(t), t**1.5)
    assert (local.power, local.local_power) == (0.5, 0.5)
    assert (glob.power, glob.local_power) == (1.5, 1.5)
    frozen = LimitFieldComponent(0, 1.0, 2.0, base)
    assert (frozen.power, frozen.local_power) == (None, 0.5)


def test_component_finite_mode_scaling():
    # freeze sigma2(t)=t^1.4 at scale 2: Var W(t) = (2t)^1.4 / 2^1.4 = t^1.4
    comp = LimitFieldComponent(0, 1.0, 2.0, VarianceFunction.fbm(1.4))
    t = np.array([0.5, 1.0, 2.0])
    assert np.allclose(comp.unit_variance(t), t**1.4, rtol=1e-12)


def test_limit_field_variance_additive():
    spec = LimitFieldSpec(
        dim=2,
        components=(
            LimitFieldComponent(0, 1.0, 0.0, VarianceFunction.fbm(1.0)),
            LimitFieldComponent(1, 3.0, 0.0, VarianceFunction.fbm(2.0)),
        ),
    )
    pts = np.array([[1.0, 2.0], [0.5, 0.0]])
    assert np.allclose(spec.variance(pts), [1.0 + 12.0, 0.5])


def test_limit_field_axis_validation():
    with pytest.raises(ModelError):
        LimitFieldSpec(
            dim=1,
            components=(LimitFieldComponent(1, 1.0, 0.0, VarianceFunction.fbm(1.0)),),
        )


def test_degenerate_field():
    spec = LimitFieldSpec.degenerate_field(2)
    assert spec.degenerate
    assert np.allclose(spec.variance(np.zeros((3, 2))), 0.0)


# ---------------------------------------------------------------------------
# threshold-dependent families


def test_nan_correlation_diagonal_is_rejected():
    fam = ThresholdedFamilySpec(
        correlation=lambda u, tau, s, t: np.full((len(s), len(t)), np.nan),
        threshold=lambda u, tau: u,
    )
    with pytest.raises(ModelError, match="unit-variance"):
        fam.corr_matrix(2.0, 0.0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("doc", [
    {"kind": "stationary", "lengthScale": -1.0},
    {"kind": "stationary", "lengthScale": 0.0},
    {"kind": "scaled-threshold", "alpha": 0.0},
    {"kind": "scaled-threshold", "alpha": 2.05},
    {"kind": "scaled-threshold", "alpha": 3.0},
], ids=lambda doc: "-".join(map(str, doc.values())))
def test_out_of_range_family_is_rejected(doc):
    with pytest.raises(ModelError):
        family_from_config(doc)
