"""Functional algebra: affine equivariance, sup domination, composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gexr.configio import functional_from_config
from gexr.covmodels import ModelError
from gexr.functionals import FunctionalSpec, apply_functional

EPS = np.finfo(float).eps


def test_sup_example():
    assert apply_functional(FunctionalSpec.sup(), np.array([-1.0, 0.0, 3.0])) == 3.0


def test_mix_example():
    spec = FunctionalSpec.mix(0.25)
    assert apply_functional(spec, np.array([-1.0, 0.0, 3.0])) == pytest.approx(0.0)


def test_composed_example():
    # rows = s; inner inf over t, then sup over s: max(min(1,2), min(0,5)) = 1
    spec = FunctionalSpec.composed(FunctionalSpec.inf(), s_axes=(0,))
    field = np.array([[1.0, 2.0], [0.0, 5.0]])
    assert apply_functional(spec, field, grid_ndim=2) == 1.0


def test_inf_affine_example():
    spec = FunctionalSpec.inf()
    f = np.array([2.0, 5.0])
    assert apply_functional(spec, 3 * f - 1) == 5.0 == 3 * apply_functional(spec, f) - 1


def test_batched_matches_loop():
    rng = np.random.default_rng(0)
    paths = rng.standard_normal((7, 11))
    spec = FunctionalSpec.mix(0.7)
    batched = apply_functional(spec, paths, grid_ndim=1)
    looped = np.array([apply_functional(spec, p) for p in paths])
    assert np.array_equal(batched, looped)


def test_bad_kind_and_missing_inner():
    with pytest.raises(ModelError):
        FunctionalSpec("median")
    with pytest.raises(ModelError):
        FunctionalSpec("composed")


@pytest.mark.parametrize("weight", [-0.1, 1.5, float("nan")])
def test_mix_weight_outside_unit_interval_rejected(weight):
    with pytest.raises(ModelError):
        FunctionalSpec.mix(weight)
    with pytest.raises(ModelError):
        functional_from_config({"mix": weight})
    FunctionalSpec.mix(0.0), FunctionalSpec.mix(1.0)  # the ends are allowed


def test_grid_ndim_range():
    with pytest.raises(ModelError):
        apply_functional(FunctionalSpec.sup(), np.zeros((3, 4)), grid_ndim=3)


# ---------------------------------------------------------------------------
# property: affine equivariance within 8 eps * scale for every shipped kind


def _shipped_specs():
    return [
        FunctionalSpec.sup(),
        FunctionalSpec.inf(),
        FunctionalSpec.mix(0.25),
        FunctionalSpec.mix(1.0),
        FunctionalSpec.composed(FunctionalSpec.inf(), s_axes=(0,)),
    ]


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        (4, 5),
        elements=st.floats(-100.0, 100.0, allow_nan=False),
    ),
    a=st.floats(1e-3, 1e3),
    b=st.floats(-100.0, 100.0),
)
def test_affine_equivariance_property(values, a, b):
    for spec in _shipped_specs():
        base = apply_functional(spec, values, grid_ndim=2)
        lhs = apply_functional(spec, a * values + b, grid_ndim=2)
        scale = abs(a) * np.max(np.abs(values)) + abs(b)
        assert abs(lhs - (a * base + b)) <= 8 * EPS * max(scale, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(
        np.float64, (3, 4), elements=st.floats(-50.0, 50.0, allow_nan=False)
    )
)
def test_sup_domination_property(values):
    sup = values.max()
    for spec in _shipped_specs():
        val = apply_functional(spec, values, grid_ndim=2)
        assert val <= sup + 1e-9


# ---------------------------------------------------------------------------
# config parsing


def test_functional_from_config():
    assert functional_from_config("sup").kind == "sup"
    assert functional_from_config("inf").kind == "inf"
    mix = functional_from_config({"mix": 0.3})
    assert mix.kind == "mix" and mix.weight == 0.3
    comp = functional_from_config({"composed": {"inner": "inf", "sAxes": [0]}})
    assert comp.kind == "composed" and comp.inner.kind == "inf"
    with pytest.raises(ModelError):
        functional_from_config({"what": 1})
