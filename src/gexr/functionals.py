"""Homogeneous path functionals: sup, inf, mixtures, and sup-compositions.

All functionals here are continuous, affine-equivariant
(``Gamma(a f + b) = a Gamma(f) + b`` for a > 0), monotone (``f <= f'``
pointwise gives ``Gamma(f) <= Gamma(f')``) and lie between the inf and the
sup (``inf f <= Gamma(f) <= sup f``).  Mixture weights are confined to
[0, 1], where these hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covmodels import ModelError

__all__ = ["FunctionalSpec", "apply_functional"]


@dataclass(frozen=True)
class FunctionalSpec:
    """A grid functional.

    kind: "sup" | "inf" | "mix" (weight*sup + (1-weight)*inf, weight in
    [0, 1]) | "composed" (sup over the s-axes of the inner functional of
    each slice).
    """

    kind: str
    weight: float = 0.5
    inner: "FunctionalSpec | None" = None
    s_axes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("sup", "inf", "mix", "composed"):
            raise ModelError(f"unknown functional kind {self.kind!r}")
        if self.kind == "composed" and self.inner is None:
            raise ModelError("composed functional needs an inner functional")
        if self.kind == "mix" and not 0.0 <= self.weight <= 1.0:
            raise ModelError("mix weight must lie in [0, 1]")

    @staticmethod
    def sup() -> "FunctionalSpec":
        return FunctionalSpec("sup")

    @staticmethod
    def inf() -> "FunctionalSpec":
        return FunctionalSpec("inf")

    @staticmethod
    def mix(weight: float) -> "FunctionalSpec":
        return FunctionalSpec("mix", weight=weight)

    @staticmethod
    def composed(inner: "FunctionalSpec", s_axes: Sequence[int]) -> "FunctionalSpec":
        return FunctionalSpec("composed", inner=inner, s_axes=tuple(s_axes))


def apply_functional(
    spec: FunctionalSpec, values: np.ndarray, grid_ndim: int | None = None
) -> np.ndarray:
    """Evaluate the functional over the trailing ``grid_ndim`` axes.

    Leading axes are treated as batch dimensions; with ``grid_ndim`` omitted
    the whole array is one path.  Returns a scalar for a single path, else
    an array of batch shape.
    """
    values = np.asarray(values, dtype=float)
    if grid_ndim is None:
        grid_ndim = values.ndim
    if grid_ndim < 1 or grid_ndim > values.ndim:
        raise ModelError("grid_ndim out of range for the given array")
    grid_axes = tuple(range(values.ndim - grid_ndim, values.ndim))

    if spec.kind == "sup":
        return values.max(axis=grid_axes)
    if spec.kind == "inf":
        return values.min(axis=grid_axes)
    if spec.kind == "mix":
        a = spec.weight
        return a * values.max(axis=grid_axes) + (1 - a) * values.min(axis=grid_axes)
    # composed: sup over the s-block of inner applied to each t-slice
    s_axes = spec.s_axes
    if any(ax < 0 or ax >= grid_ndim for ax in s_axes):
        raise ModelError("composed s_axes outside the grid axes")
    t_axes = tuple(ax for ax in range(grid_ndim) if ax not in s_axes)
    offset = values.ndim - grid_ndim
    perm = (
        tuple(range(offset))
        + tuple(offset + ax for ax in s_axes)
        + tuple(offset + ax for ax in t_axes)
    )
    moved = np.transpose(values, perm)
    inner_vals = apply_functional(spec.inner, moved, grid_ndim=len(t_axes))
    if len(s_axes) == 0:
        return inner_vals
    return inner_vals.max(axis=tuple(range(inner_vals.ndim - len(s_axes), inner_vals.ndim)))

