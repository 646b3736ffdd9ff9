"""JSON configuration parsing for models, grids, schedules, and families.

It also holds the correlation models of the double-maxima runner.

Every builder takes a plain dict (already json-decoded) and returns the
corresponding model object, raising :class:`ModelError` on anything
malformed.  The shapes accepted here are the published config schema of the
command-line runner; presets are expressed in the same dialect.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .covmodels import (
    DriftFunction,
    LimitFieldComponent,
    LimitFieldSpec,
    ModelError,
    ThresholdedFamilySpec,
    variance_function_from_json,
)
from .mc import ExtrapolationSchedule
from .simkit import GridSpec

__all__ = [
    "grid_from_config",
    "schedule_from_config",
    "eta_from_config",
    "drift_from_config",
    "family_from_config",
    "doublesum_correlation_from_config",
]


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ModelError(f"{context}: missing required key {key!r}")
    return doc[key]


def grid_from_config(doc: dict) -> GridSpec:
    """{"perAxis": [[lo, hi, nPoints], ...], "pointBudget": n (optional)}"""
    per_axis = _require(doc, "perAxis", "grid")
    try:
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in per_axis)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"grid perAxis entries must be [lo, hi, n] triples: {exc}")
    if "pointBudget" in doc:
        return GridSpec(axes, point_budget=int(doc["pointBudget"]))
    return GridSpec(axes)


def schedule_from_config(doc: dict) -> ExtrapolationSchedule:
    """{"domainSizes": [...], "gridSteps": [...], "stopRule": 0.01}

    Only the Pickands constant takes "gridSteps" [2h, h]; the drifted
    constants take one step [h], and generalized-piterbarg reads its step
    from "tSchedule"'s "gridSteps".  Every domain size, window and horizon
    must be a whole number of steps.
    """
    kwargs = {}
    if "domainSizes" in doc:
        kwargs["domain_sizes"] = tuple(float(s) for s in doc["domainSizes"])
    if "gridSteps" in doc:
        kwargs["grid_steps"] = tuple(float(s) for s in doc["gridSteps"])
    if "stopRule" in doc:
        kwargs["stop_rule"] = float(doc["stopRule"])
    return ExtrapolationSchedule(**kwargs)


def _mode_value(raw) -> float:
    if raw in ("inf", "infinity"):
        return math.inf
    return float(raw)


def eta_from_config(doc: dict) -> LimitFieldSpec:
    """{"dim": d, "components": [{"axis", "scale", "mode", "base"}]} or {"fbm": a}.

    "mode" accepts a number or the string "inf"; "base" is a variance-model
    document ({"kind": "fbm", ...} etc.).  {"degenerate": d} gives the zero
    field in dimension d.
    """
    if "fbm" in doc:
        return LimitFieldSpec.fbm(float(doc["fbm"]), float(doc.get("scale", 1.0)))
    if "degenerate" in doc:
        return LimitFieldSpec.degenerate_field(int(doc["degenerate"]))
    dim = int(_require(doc, "dim", "limit field"))
    comps = []
    for c in doc.get("components", []):
        comps.append(
            LimitFieldComponent(
                axis=int(c.get("axis", 0)),
                scale=float(c.get("scale", 1.0)),
                mode=_mode_value(c.get("mode", 0.0)),
                base=variance_function_from_json(_require(c, "base", "field component")),
            )
        )
    return LimitFieldSpec(dim=dim, components=tuple(comps))


def drift_from_config(doc: dict | None) -> DriftFunction:
    """{"kind": "zero"} or {"kind": "power", "coeff": c, "exponent": p}.

    The power drift is c * sum_i |t_i|**p, the standard polynomial drift of
    the drifted constants.
    """
    if doc is None or doc.get("kind", "zero") == "zero":
        return DriftFunction.zero()
    if doc["kind"] == "power":
        coeff = float(_require(doc, "coeff", "drift"))
        exponent = float(_require(doc, "exponent", "drift"))
        if coeff < 0:
            raise ModelError("drift coefficient must be nonnegative")

        def fn(t):
            t = np.atleast_2d(np.asarray(t, dtype=float))
            return coeff * (np.abs(t) ** exponent).sum(axis=1)

        return DriftFunction(fn=fn)
    raise ModelError(f"unknown drift kind {doc.get('kind')!r}")


# ---------------------------------------------------------------------------
# threshold-dependent families


def _sq_dist(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(N, M) squared Euclidean distances between point arrays s and t."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    t = np.atleast_2d(np.asarray(t, dtype=float))
    return ((s[:, None, :] - t[None, :, :]) ** 2).sum(axis=-1)


def _pairwise_dist(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_dist(s, t))


def _stationary_family(doc: dict) -> ThresholdedFamilySpec:
    """Unit-variance stationary field, r = exp(-(|d|/l)^alpha), threshold u."""
    alpha = float(doc.get("alpha", 1.0))
    scale = float(doc.get("lengthScale", 1.0))
    if not 0 < alpha <= 2:
        raise ModelError("stationary family exponent must lie in (0, 2]")
    if not scale > 0:
        raise ModelError("stationary family lengthScale must be positive")

    def corr(u, tau, s, t):
        return np.exp(-((_pairwise_dist(s, t) / scale) ** alpha))

    return ThresholdedFamilySpec(correlation=corr, threshold=lambda u, tau: u)


def _local_family(doc: dict) -> ThresholdedFamilySpec:
    """Family in local coordinates: r_u = exp(-|d|^alpha / u^2), threshold u.

    The u^2 normalization makes u^2 (1 - r) -> |d|^alpha, so tail ratios
    converge to the constants of a fractional field with Var |t|^alpha on
    the *fixed* grid — the rescaled version of the short-interval regime.
    A "tauSpread" b > 0 turns it into a threshold family g_{u,tau} =
    u (1 + b tau / u^2) over tau in [0, 1] ("tauCount" indices), whose
    perturbation vanishes uniformly as u grows.
    """
    alpha = float(doc.get("alpha", 1.0))
    spread = float(doc.get("tauSpread", 0.0))
    count = int(doc.get("tauCount", 1))
    if not 0 < alpha <= 2:
        raise ModelError("local family exponent must lie in (0, 2]")
    if count < 1:
        raise ModelError("tauCount must be at least 1")

    def corr(u, tau, s, t):
        return np.exp(-(_pairwise_dist(s, t) ** alpha) / u**2)

    def threshold(u, tau):
        return u * (1.0 + spread * tau / u**2)

    def index_grid(u):
        if count == 1:
            return (0.0,)
        return tuple(np.linspace(0.0, 1.0, count))

    return ThresholdedFamilySpec(
        correlation=corr, threshold=threshold, index_grid=index_grid
    )


def _scaled_threshold_family(doc: dict) -> ThresholdedFamilySpec:
    """Variable-threshold family of the product-formula demo.

    The local family (r_u = exp(-|d|^alpha / u^2), so at alpha = 1 one cell
    per unit length) read at tau = 0, with threshold surface
    u (1 + |s|^p / g(u)) realized as drift h_{u}(s) = |s|^p / g(u),
    g(u) = u^gExponent.
    """
    exponent = float(doc.get("exponent", 2.0))
    g_power = float(doc.get("gExponent", 4.0))

    def h_family(u, tau, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        return (np.abs(t) ** exponent).sum(axis=1) / u**g_power

    return replace(_local_family(doc), drift=h_family)


def _ruin_family(doc: dict) -> ThresholdedFamilySpec:
    """Level-crossing family of a drifted stationary-increment path.

    X has Var X(t) = t^alpha; the event is sup_t X(u t) / (u (1 + c t)) > 1
    over a time window around the most probable crossing time
    t* = alpha / (c (2 - alpha)).  Grid coordinates are centered at t*
    (the conditioning identity pivots on the grid origin), so a grid point v
    means physical time t* + v and must satisfy t* + v > 0.  The threshold
    is g(u) = u (1 + c t*) / sigma(u t*) and the drift the normalized
    remainder of the threshold surface.
    """
    alpha = float(doc.get("alpha", 1.0))
    c = float(doc.get("c", 1.0))
    if not 0 < alpha < 2 or c <= 0:
        raise ModelError("ruin family needs alpha in (0, 2) and c > 0")
    t_star = alpha / (c * (2.0 - alpha))

    def sigma(x):
        return np.abs(x) ** (alpha / 2.0)

    def _times(v):
        t = np.atleast_2d(np.asarray(v, dtype=float))[:, 0] + t_star
        if np.any(t <= 0):
            raise ModelError("ruin family window extends to nonpositive times")
        return t

    def level(u, t):
        return u * (1.0 + c * t) / sigma(u * t)

    def threshold(u, tau):
        return float(level(u, np.array([t_star]))[0])

    def corr(u, tau, s, t):
        s = _times(s) * u
        t = _times(t) * u
        cov = 0.5 * (
            sigma(s[:, None]) ** 2
            + sigma(t[None, :]) ** 2
            - np.abs(s[:, None] - t[None, :]) ** alpha
        )
        return cov / (sigma(s)[:, None] * sigma(t)[None, :])

    def h_family(u, tau, v):
        return level(u, _times(v)) / threshold(u, tau) - 1.0

    return ThresholdedFamilySpec(
        correlation=corr, threshold=threshold, drift=h_family
    )


_FAMILY_BUILDERS = {
    "stationary": _stationary_family,
    "local": _local_family,
    "scaled-threshold": _scaled_threshold_family,
    "ruin": _ruin_family,
}


def family_from_config(doc: dict) -> ThresholdedFamilySpec:
    kind = _require(doc, "kind", "family")
    builder = _FAMILY_BUILDERS.get(kind)
    if builder is None:
        raise ModelError(f"unknown family kind {kind!r}")
    return builder(doc)


def doublesum_correlation_from_config(doc: dict):
    """{"kind": "gaussian"} or {"kind": "flat", "rho": 0.9}.

    Returns ``correlation(u, s, t)`` of a double-maxima configuration: the
    Gaussian kernel exp(-|s - t|^2), or the flat model, 1 at zero distance
    and rho elsewhere (a correlation that never decays with separation).
    """
    kind = doc.get("kind")
    if kind == "gaussian":
        return lambda u, s, t: np.exp(-_sq_dist(s, t))
    if kind == "flat":
        rho = float(doc.get("rho", 0.9))
        if not 0 <= rho < 1:
            raise ModelError("flat correlation level must lie in [0, 1)")
        return lambda u, s, t: np.where(_sq_dist(s, t) < 1e-24, 1.0, rho)
    raise ModelError(f"unknown doublesum model {kind!r}")
