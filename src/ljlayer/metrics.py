"""Distance conventions shared across the package.

Two metrics are supported: plain Euclidean, and the minimum-image metric on
the unit torus (used for periodic 2D runs, where opposite edges of the unit
square are identified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Metric", "EUCLIDEAN", "PERIODIC_UNIT", "TIE_GUARD", "get_metric", "squared_norm",
           "as_cloud", "as_number"]

TIE_GUARD = 1e-9    # relative slack g of every certificate, absorbing tree/re-score rounding


def as_cloud(points, dims=(2, 3), what="cloud points"):
    """points as a float array of shape (n, d), d in dims, n >= 1, every coordinate
    finite; the one check of every input cloud, its messages naming `what`."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] not in dims or x.shape[0] < 1:
        raise ValueError(f"{what} must have shape (n, {' or '.join(map(str, dims))}) "
                         f"with n >= 1, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contain non-finite coordinates")
    return x


_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def as_number(value, name, lo=-math.inf, hi=math.inf, *, integer=False, above=False):
    """value as a float, or an int when integer; the one check of every scalar setting.

    It takes an int, a float or a numpy number, never a bool (an integer setting an
    int or a numpy integer only), whose float is finite and in [lo, hi], or in
    (lo, hi] when above.  The ValueError names the setting, the rule and the value.
    """
    if isinstance(value, _INTEGERS if integer else _NUMBERS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:   # an int beyond every float is not finite
            x = math.nan
        v = int(value) if integer else x    # an int compares with the bounds exactly
        if math.isfinite(x) and (lo < v if above else lo <= v) and v <= hi:
            return v
    bound = (f" in {'(' if above else '['}{lo}, {hi}]" if hi < math.inf else
             f" {'>' if above else '>='} {lo}" if lo > -math.inf else "")
    raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}{bound}, "
                     f"got {value!r}")


def squared_norm(d):
    """Squared length of each vector along the last axis (2 or 3 components).

    Summed component by component, left to right: the same sum as
    (d * d).sum(axis=-1), without numpy's slow short-axis reduction.
    """
    out = d[..., 0] * d[..., 0]
    for j in range(1, d.shape[-1]):
        out += d[..., j] * d[..., j]
    return out


@dataclass(frozen=True)
class Metric:
    periodic: bool = False

    def delta(self, diff):
        """Map raw coordinate differences to the representative displacement.

        For the periodic metric each component is reduced to (-0.5, 0.5] by
        subtracting the nearest integer; the Euclidean metric is the identity.
        """
        diff = np.asarray(diff, dtype=float)
        if self.periodic:
            return diff - np.round(diff)
        return diff

    def distance2(self, a, b):
        return squared_norm(self.delta(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))

    def distance(self, a, b):
        return np.sqrt(self.distance2(a, b))

    def wrap(self, points):
        """Fold coordinates into the fundamental domain [0, 1) when periodic."""
        points = np.asarray(points, dtype=float)
        if self.periodic:
            # np.mod rounds tiny negative coordinates up to exactly 1.0
            points = np.mod(points, 1.0)
            return np.where(points == 1.0, 0.0, points)
        return points


EUCLIDEAN = Metric(periodic=False)
PERIODIC_UNIT = Metric(periodic=True)

_BY_NAME = {"euclidean": EUCLIDEAN, "periodic": PERIODIC_UNIT}


def get_metric(metric) -> Metric:
    """Accept a Metric instance or one of the names 'euclidean' / 'periodic'."""
    if isinstance(metric, Metric):
        return metric
    try:
        return _BY_NAME[metric]
    except (KeyError, TypeError):   # TypeError: an unhashable name
        raise ValueError(f"unknown metric {metric!r}; expected "
                         f"{' or '.join(map(repr, _BY_NAME))}") from None
