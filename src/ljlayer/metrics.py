"""Distance conventions shared across the package.

Two metrics are supported: plain Euclidean, and the minimum-image metric on
the unit torus (used for periodic 2D runs, where opposite edges of the unit
square are identified).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Metric", "EUCLIDEAN", "PERIODIC_UNIT", "get_metric", "squared_norm"]


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
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; expected 'euclidean' or 'periodic'") from None
