"""Shipped experiment presets, expressed in the JSON config dialect.

Each preset is a complete runnable config for the command-line runner; the
acceptance experiments are all reachable from here.  Budgets are sized so
every preset finishes in minutes on a laptop; the GEXR_BUDGET environment
variable caps replications further for quick smoke runs.
"""

from __future__ import annotations

import copy

from .covmodels import ModelError

__all__ = ["PRESETS", "preset_config", "list_presets"]

# name -> (description, config)
PRESETS: dict[str, tuple[str, dict]] = {
    "pickands-alpha-1": (
        "per-unit sup constant of the linear-variance field; target 1.00 within 5%",
        {
            "kind": "constants",
            "estimator": "pickands",
            "eta": {"fbm": 1.0},
            "schedule": {
                "domainSizes": [2, 4, 8, 16],
                "gridSteps": [1 / 32, 1 / 64],
                "stopRule": 0.02,
            },
            "reps": 20000,
            "seed": 20260801,
            "tolerance": 0.05,
            "target": 1.0,
        },
    ),
    "pickands-alpha-2": (
        "per-unit sup constant of the quadratic-variance field; target 1/sqrt(pi)",
        {
            "kind": "constants",
            "estimator": "pickands",
            "eta": {"fbm": 2.0},
            "schedule": {
                "domainSizes": [2, 4, 8, 16],
                "gridSteps": [1 / 32, 1 / 64],
                "stopRule": 0.02,
            },
            "reps": 20000,
            "seed": 20260802,
            "tolerance": 0.05,
            "target": 0.5641895835477563,
        },
    ),
    "piterbarg-gamma": (
        "drifted sup constant, quadratic field and drift 3 t^2 on [-S, S]; "
        "target sqrt(4/3)",
        {
            "kind": "constants",
            "estimator": "piterbarg",
            "eta": {"fbm": 2.0},
            "drift": {"kind": "power", "coeff": 3.0, "exponent": 2.0},
            "domain": "symmetric",
            "schedule": {
                "domainSizes": [1, 2, 4],
                "gridSteps": [1 / 16],
                "stopRule": 0.02,
            },
            "reps": 40000,
            "seed": 20260803,
            "tolerance": 0.05,
            "target": 1.1547005383792515,
        },
    ),
    "generalized-piterbarg": (
        "sup-inf constant of a rough path (variance t^0.8, b=1, S=2), "
        "horizon-extrapolated",
        {
            "kind": "constants",
            "estimator": "generalized-piterbarg",
            "varianceFunction": {"kind": "fbm", "alpha": 0.8},
            "b": 1.0,
            "S": 2.0,
            "tSchedule": {
                "domainSizes": [1, 2, 4, 8],
                "gridSteps": [1 / 8],
                "stopRule": 0.02,
            },
            "reps": 60000,
            "seed": 20260804,
        },
    ),
    "uniform-audit-stationary": (
        "uniform tail-ratio audit of a 21-index threshold family against the "
        "sup constant on [0, 2]",
        {
            "kind": "audit",
            "family": {"kind": "local", "alpha": 1.0, "tauSpread": 1.0, "tauCount": 21},
            "functional": "sup",
            "uSchedule": [3, 4, 5],
            "grid": {"perAxis": [[0.0, 2.0, 65]]},
            "constant": {"windowConstant": {"eta": {"fbm": 1.0}, "reps": 20000}},
            "reps": 20000,
            "tolerance": 0.1,
            "seed": 20260805,
        },
    ),
    "short-interval-tail": (
        "conditional tail estimate in short-interval coordinates at u=5 "
        "(ratio to the normal tail approximates the sup constant on [0, 2])",
        {
            "kind": "tail",
            "family": {"kind": "local", "alpha": 1.0},
            "u": 5.0,
            "tau": 0.0,
            "functional": "sup",
            "grid": {"perAxis": [[0.0, 2.0, 65]]},
            "estimator": "conditional",
            "reps": 20000,
            "seed": 20260806,
        },
    ),
    "ruin-demo": (
        "qualitative: level-crossing probability of a drifted rough path; "
        "tail ratios should stabilize across u",
        {
            "kind": "ruin-demo",
            "family": {"kind": "ruin", "alpha": 1.0, "c": 1.0},
            "uSchedule": [4.0, 9.0, 16.0],
            "grid": {"perAxis": [[-0.5, 0.5, 129]]},
            "reps": 10000,
            "seed": 20260807,
        },
    ),
    "doublesum-gaussian": (
        "double-maxima bound fit across separations for the squared-exponential "
        "correlation; expects a single finite constant",
        {
            "kind": "doublesum",
            "model": {"kind": "gaussian"},
            "separations": [0, 1, 2, 4],
            "boxScales": [2, 4],
            "uLevels": [2.5, 3.0],
            "pointsPerUnit": 4,
            "c1": 0.5,
            "beta": 2.0,
            "reps": 60000,
            "seed": 20260808,
        },
    ),
    "doublesum-flat": (
        "counterexample: flat correlation 0.9; the required bound constant "
        "grows with separation and the fit is flagged",
        {
            "kind": "doublesum",
            "model": {"kind": "flat", "rho": 0.9},
            "separations": [0, 1, 2, 4],
            "boxScales": [2],
            "uLevels": [2.5],
            "pointsPerUnit": 4,
            "c1": 0.5,
            "beta": 2.0,
            "reps": 60000,
            "seed": 20260809,
        },
    ),
    "formula-product-1d": (
        "product asymptotics for one wide axis (quadratic threshold bump), "
        "cross-checked against the conditional MC estimate at m=4",
        {
            "kind": "formula",
            "setup": {
                "d": 1,
                "n": 0,
                "d1": 1,
                "d2": 1,
                "betas": [2.0],
                "gammas": [0.0],
                "gPowers": [4.0],
                "mPower": 1.0,
                "yRanges": [[-1.0, 1.0]],
            },
            "u": 4.0,
            "constants": {"perUnit": [1.0]},
            "mcCheck": {
                "family": {
                    "kind": "scaled-threshold",
                    "alpha": 1.0,
                    "exponent": 2.0,
                    "gExponent": 4.0,
                },
                "grid": {"perAxis": [[-4.0, 4.0, 513]]},
                "reps": 40000,
                "tolerance": 0.15,
            },
            "seed": 20260810,
        },
    ),
}


def list_presets() -> list[tuple[str, str]]:
    """Stable-ordered (name, description) pairs."""
    return [(name, desc) for name, (desc, _) in PRESETS.items()]


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ModelError(f"unknown preset {name!r}; see list-presets")
    return copy.deepcopy(PRESETS[name][1])
