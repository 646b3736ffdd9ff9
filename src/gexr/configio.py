"""JSON configuration parsing for models, functionals, grids, schedules, and
families.

It also holds the correlation models of the double-maxima runner, and
:class:`ConfigView`, through which the runner reads a whole config.

Every builder takes a plain dict (already json-decoded) and returns the
corresponding model object, raising :class:`ModelError` on anything
malformed.  The shapes accepted here are the published config schema of the
command-line runner; presets are expressed in the same dialect.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from .covmodels import (
    DriftFunction,
    LimitFieldComponent,
    LimitFieldSpec,
    ModelError,
    ThresholdedFamilySpec,
    VarianceFunction,
)
from .functionals import FunctionalSpec
from .mc import ExtrapolationSchedule
from .simkit import GridSpec

__all__ = [
    "ConfigView",
    "number",
    "count",
    "variance_function_from_json",
    "functional_from_config",
    "grid_from_config",
    "schedule_from_config",
    "eta_from_config",
    "drift_from_config",
    "family_from_config",
    "doublesum_correlation_from_config",
]


class ConfigView(dict):
    """A config dict that records the keys read from it with ``[]`` and
    ``.get``; a presence test with ``in`` is no read.  Its dicts, also those
    inside lists, are views that share its :meth:`close`."""

    def __init__(self, doc: dict, path: str = "", views: list | None = None):
        self._prefix, self._read, self._views = path, set(), [] if views is None else views
        self._views.append(self)
        super().__init__({key: _view(value, path + key, self._views) for key, value in doc.items()})

    def __getitem__(self, key):
        return super().__getitem__(self._mark(key))

    def get(self, key, default=None):
        return super().get(self._mark(key), default)

    def _mark(self, key):
        if self._read is None:  # read by a run step: a bug, not a config error
            raise RuntimeError(f"config key {self._prefix}{key} read after the read phase")
        self._read.add(key)
        return key

    def close(self) -> None:
        """End the read phase: no view is read again, and a key that was
        never read raises ModelError naming its path."""
        unread = [v._prefix + key for v in self._views for key in v if key not in v._read]
        for v in self._views:
            v._read = None
        if unread:
            raise ModelError(f"config key {unread[0]} is not used by this run")


def _view(value, path: str, views: list):
    if isinstance(value, dict):
        return ConfigView(value, path + ".", views)
    if isinstance(value, list):
        return [_view(v, f"{path}[{i}]", views) for i, v in enumerate(value)]
    return value


def number(value, name: str, *, gt=-math.inf, ge=-math.inf, lt=math.inf, le=math.inf,
           inf=False) -> float:
    """The config number ``value``: finite and within the bounds given;
    with ``inf``, also "inf"/"infinity", the dialect's spelling of infinity.
    Anything else, NaN, "nan" and booleans included, raises ModelError
    naming ``name``."""
    if inf and value in ("inf", "infinity"):
        return math.inf
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and gt < x < lt and ge <= x <= le):
        bounds = {">": gt, ">=": ge, "<": lt, "<=": le}
        want = "".join(f", {op} {b:g}" for op, b in bounds.items() if math.isfinite(b))
        raise ModelError(f"{name} must be a finite number{want}, got {value!r}")
    return x


def count(value, name: str, ge: int = 1) -> int:
    """The config count ``value``: a whole number at or above ``ge``."""
    x = value if type(value) is int else number(value, name)  # a bool is no count
    if x != int(x) or x < ge:
        raise ModelError(f"{name} must be a whole number >= {ge}, got {value!r}")
    return int(x)


def variance_function_from_json(doc: str | dict) -> VarianceFunction:
    """Load a model from a JSON document.

    Supported forms::

        {"kind": "fbm", "alpha": 1.5}
        {"kind": "sumOfFbm", "weights": [...], "alphas": [...]}
        {"kind": "custom", "table": [[t, var], ...], "alpha0": a, "alphaInf": b}
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    if kind == "fbm":
        return VarianceFunction.fbm(number(doc["alpha"], "alpha"))
    if kind == "sumOfFbm":
        return VarianceFunction.sum_of_fbm(
            [number(w, "weights") for w in doc["weights"]],
            [number(a, "alphas") for a in doc["alphas"]],
        )
    if kind == "custom":
        return VarianceFunction.from_table(
            [[number(x, "table") for x in knot] for knot in doc["table"]],
            number(doc["alpha0"], "alpha0"),
            number(doc["alphaInf"], "alphaInf"),
        )
    raise ModelError(f"unknown variance model kind: {kind!r}")


def functional_from_config(doc) -> FunctionalSpec:
    """Parse "sup" | "inf" | {"mix": a} | {"composed": {"inner":..., "sAxes": [...]}}."""
    if doc == "sup":
        return FunctionalSpec.sup()
    if doc == "inf":
        return FunctionalSpec.inf()
    if isinstance(doc, dict) and "mix" in doc:
        return FunctionalSpec.mix(number(doc["mix"], "mix"))
    if isinstance(doc, dict) and "composed" in doc:
        inner = functional_from_config(doc["composed"]["inner"])
        s_axes = [count(a, "sAxes", ge=0) for a in doc["composed"]["sAxes"]]
        return FunctionalSpec.composed(inner, s_axes)
    raise ModelError(f"unknown functional config: {doc!r}")


def grid_from_config(doc: dict) -> GridSpec:
    """{"perAxis": [[lo, hi, nPoints], ...]}, one axis or more."""
    axes = doc["perAxis"]
    if not isinstance(axes, list) or not axes:
        raise ModelError(f"perAxis must be a non-empty list of [lo, hi, nPoints], got {axes!r}")
    return GridSpec(tuple((number(lo, "perAxis"), number(hi, "perAxis"), count(n, "perAxis"))
                          for lo, hi, n in axes))


def schedule_from_config(doc: dict) -> ExtrapolationSchedule:
    """{"domainSizes": [...], "gridSteps": [...], "stopRule": 0.01}

    Only the Pickands constant takes "gridSteps" [2h, h]; the drifted
    constants take one step [h], and generalized-piterbarg reads its step
    from "tSchedule"'s "gridSteps".  Every domain size, window and horizon
    must be a whole number of steps.
    """
    kwargs = {}
    for key, arg in (("domainSizes", "domain_sizes"), ("gridSteps", "grid_steps")):
        if key in doc:
            kwargs[arg] = tuple(number(s, key) for s in doc[key])
    if "stopRule" in doc:
        kwargs["stop_rule"] = number(doc["stopRule"], "stopRule", ge=0)
    return ExtrapolationSchedule(**kwargs)


def eta_from_config(doc: dict) -> LimitFieldSpec:
    """{"dim": d, "components": [{"axis", "scale", "mode", "base"}]} or {"fbm": a}.

    "mode" accepts a number or the string "inf"/"infinity"; "base" is a variance-model
    document ({"kind": "fbm", ...} etc.).  {"degenerate": d} gives the zero
    field in dimension d.
    """
    if "fbm" in doc:
        return LimitFieldSpec.fbm(
            number(doc["fbm"], "fbm"), number(doc.get("scale", 1.0), "scale")
        )
    if "degenerate" in doc:
        dim = count(doc["degenerate"], "degenerate", ge=0)
        return LimitFieldSpec.degenerate_field(dim)
    comps = tuple(
        LimitFieldComponent(
            axis=count(c.get("axis", 0), "axis", ge=0),
            scale=number(c.get("scale", 1.0), "scale"),
            mode=number(c.get("mode", 0.0), "mode", inf=True),
            base=variance_function_from_json(c["base"]),
        )
        for c in doc.get("components", [])
    )
    return LimitFieldSpec(dim=count(doc["dim"], "dim"), components=comps)


def drift_from_config(doc: dict | None) -> DriftFunction:
    """{"kind": "zero"} or {"kind": "power", "coeff": c, "exponent": p}.

    The power drift is c * sum_i |t_i|**p, the standard polynomial drift of
    the drifted constants.
    """
    if doc is None or doc.get("kind", "zero") == "zero":
        return DriftFunction.zero()
    if doc["kind"] == "power":
        coeff = number(doc["coeff"], "drift coeff", ge=0)
        exponent = number(doc["exponent"], "drift exponent", gt=0)  # h(0) = 0

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
    alpha = number(doc.get("alpha", 1.0), "alpha", gt=0, le=2)
    scale = number(doc.get("lengthScale", 1.0), "lengthScale", gt=0)

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
    alpha = number(doc.get("alpha", 1.0), "alpha", gt=0, le=2)
    spread = number(doc.get("tauSpread", 0.0), "tauSpread")
    n_tau = count(doc.get("tauCount", 1), "tauCount")

    def corr(u, tau, s, t):
        return np.exp(-(_pairwise_dist(s, t) ** alpha) / u**2)

    def threshold(u, tau):
        return u * (1.0 + spread * tau / u**2)

    def index_grid(u):
        if n_tau == 1:
            return (0.0,)
        return tuple(np.linspace(0.0, 1.0, n_tau))

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
    exponent = number(doc.get("exponent", 2.0), "exponent", gt=0)  # h(0) = 0
    g_power = number(doc.get("gExponent", 4.0), "gExponent")

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
    alpha = number(doc.get("alpha", 1.0), "alpha", gt=0, lt=2)
    c = number(doc.get("c", 1.0), "c", gt=0)
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
    kind = doc["kind"]
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
        rho = number(doc.get("rho", 0.9), "rho", ge=0, lt=1)
        return lambda u, s, t: np.where(_sq_dist(s, t) < 1e-24, 1.0, rho)
    raise ModelError(f"unknown doublesum model {kind!r}")
