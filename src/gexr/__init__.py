"""Simulation and estimation toolkit for extremes of Gaussian fields.

Simulates Gaussian processes and fields with stationary increments, estimates
the constants appearing in the tail asymptotics of their suprema (per-unit,
drifted, sup-inf, and generalized-functional variants), and numerically
audits the uniform tail approximations and double-maxima bounds those
constants calibrate.
"""

from .covmodels import (
    DriftFunction,
    LimitFieldComponent,
    LimitFieldSpec,
    ModelError,
    ThresholdedFamilySpec,
    VarianceFunction,
)
from .constants import (
    LevelTrace,
    estimate_generalized_constant,
    estimate_generalized_piterbarg,
    estimate_joint_constant,
    estimate_pickands,
    estimate_piterbarg,
)
from .doublesum import (
    DoubleMaximaConfig,
    estimate_double_maxima,
    eval_double_bound,
    fit_bound_constant,
    separation,
)
from .functionals import FunctionalSpec, apply_functional
from .mc import Estimate, ExtrapolationSchedule
from .rng import RngStream
from .simkit import (
    FbmSampler,
    GridSpec,
    LimitFieldSampler,
    ResidualSampler,
    SimulationError,
    StatIncrSampler,
)
from .tailprob import (
    AsymptoticSetup,
    ConditionalSampler,
    conditional_tail,
    crude_mc_tail,
    eval_mainm_formula,
    survival_psi,
    uniform_ratio_audit,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
