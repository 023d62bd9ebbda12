"""Lennard-Jones pair dynamics on point clouds.

The pair potential is V(r) = 4*eps*((sigma/r)**12 - a*(sigma/r)**6) with
a = 1 when attraction is enabled and a = 0 otherwise.  One update step moves
every point along the line to each of its assigned neighbors by

    tanh(F(clamp(r))) * dt**2 / 2

where F = -dV/dr (positive = repulsive) and r is clamped to
[clamp_lo_factor*sigma, clamp_hi_factor*sigma] before the force is evaluated.
The tanh bounds the step, and because no velocity is carried between calls the
iteration is dissipative: an isolated pair drifts toward the equilibrium
separation 2**(1/6)*sigma where the force vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import EUCLIDEAN, Metric, squared_norm

__all__ = [
    "COINCIDENT_TOL",
    "LjParams",
    "Schedule",
    "lj_potential",
    "lj_force",
    "clamp_distance",
    "dt_exponential",
    "dt_adaptive",
    "lj_step",
]

# Below this separation a pair is treated as coincident and its push direction
# is drawn at random instead of dividing by a vanishing norm.
COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class LjParams:
    """Parameters of the pair potential and of one update step.

    epsilon sets the well depth, sigma the zero crossing of the potential.
    k is the number of nearest neighbors each point interacts with per step.
    """

    epsilon: float = 2.0
    sigma: float = 1.0
    clamp_lo_factor: float = 0.9
    clamp_hi_factor: float = 100.0
    k: int = 1
    attraction: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be a finite number > 0, got {self.epsilon}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a finite number > 0, got {self.sigma}")
        if not 0 < self.clamp_lo_factor < self.clamp_hi_factor:
            raise ValueError("need 0 < clamp_lo_factor < clamp_hi_factor, got "
                             f"{self.clamp_lo_factor}, {self.clamp_hi_factor}")
        if not (float(self.k).is_integer() and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))   # 2.0 would break slicing downstream


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule: alpha is the initial scale, beta the decay rate.

    alpha = 0 is allowed and disables movement entirely.
    """

    alpha: float
    beta: float
    kind: str = "exponential"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be a finite number >= 0, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be a finite number >= 0, got {self.beta}")
        if self.kind not in ("exponential", "adaptive"):
            raise ValueError(f"kind must be 'exponential' or 'adaptive', got {self.kind!r}")


def _as_positive_r(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("distance r must be positive")
    return r


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def lj_potential(r, params: LjParams):
    """Pair potential 4*eps*((sigma/r)**12 - a*(sigma/r)**6) at separation r > 0."""
    r = _as_positive_r(r)
    sr6 = (params.sigma / r) ** 6
    a = 1.0 if params.attraction else 0.0
    return _maybe_scalar(4.0 * params.epsilon * (sr6 * sr6 - a * sr6))


def lj_force(r, params: LjParams):
    """Radial force -dV/dr = (24*eps/r)*(2*(sigma/r)**12 - a*(sigma/r)**6).

    Positive values are repulsive, negative attractive.
    """
    r = _as_positive_r(r)
    sr6 = (params.sigma / r) ** 6
    a = 1.0 if params.attraction else 0.0
    return _maybe_scalar((24.0 * params.epsilon / r) * (2.0 * sr6 * sr6 - a * sr6))


def clamp_distance(r, params: LjParams):
    """Clamp separations to [clamp_lo_factor*sigma, clamp_hi_factor*sigma]."""
    r = np.asarray(r, dtype=float)
    return _maybe_scalar(np.clip(r, params.clamp_lo_factor * params.sigma,
                                 params.clamp_hi_factor * params.sigma))


def dt_exponential(i, schedule: Schedule):
    """Exponentially decaying step size alpha * exp(-beta * i) for i >= 0."""
    if schedule.kind != "exponential":
        raise ValueError(f"schedule kind must be 'exponential', got {schedule.kind!r}")
    return schedule.alpha * float(np.exp(-schedule.beta * i))


def dt_adaptive(i, max_disp, schedule: Schedule):
    """Movement-scaled step size (alpha/i) * max_disp * exp(-beta * i).

    i is the 1-based iteration index; max_disp is the largest per-point
    displacement between the two most recent refiner outputs.
    """
    if schedule.kind != "adaptive":
        raise ValueError(f"schedule kind must be 'adaptive', got {schedule.kind!r}")
    if int(i) != i or i < 1:
        raise ValueError(f"iteration index must be an integer >= 1, got {i}")
    if max_disp < 0:
        raise ValueError(f"max_disp must be >= 0, got {max_disp}")
    return (schedule.alpha / i) * max_disp * float(np.exp(-schedule.beta * i))


def _random_units(rng, count, dim):
    out = np.empty((count, dim))
    todo = np.arange(count)
    while todo.size:
        v = rng.standard_normal((todo.size, dim))
        n = np.sqrt((v * v).sum(axis=1))
        ok = n > 1e-12
        out[todo[ok]] = v[ok] / n[ok, None]
        todo = todo[~ok]
    return out


def lj_step(cloud, pairs, dt, params: LjParams, metric: Metric = EUCLIDEAN, rng=None):
    """Apply one damped update to every point of the cloud.

    Displacements for all points are computed from the input snapshot and
    applied simultaneously; for several partners per point (pairs with k > 1
    columns) the per-partner displacements are summed.  The direction is the
    unclamped separation vector under the metric; only the scalar distance fed
    to the force is clamped.  Coincident pairs repel along a random unit
    direction drawn from rng (a fixed default generator when rng is None).
    """
    x = np.asarray(cloud, dtype=float)
    if x.ndim != 2 or x.shape[1] not in (2, 3):
        raise ValueError(f"cloud must have shape (n, 2) or (n, 3), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("cloud contains non-finite coordinates")
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim == 1:
        pairs = pairs[:, None]
    if pairs.ndim != 2 or pairs.shape[0] != x.shape[0]:
        raise ValueError(f"pairs must assign partners to every point, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= x.shape[0]):
        raise ValueError("pairs contains out-of-range point indices")
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")

    diff = metric.delta(x[:, None, :] - x[pairs])          # (n, k, d)
    r_raw = np.sqrt(squared_norm(diff))                    # (n, k)
    unit = np.zeros_like(diff)
    ok = r_raw > COINCIDENT_TOL
    np.divide(diff, r_raw[..., None], out=unit, where=ok[..., None])
    n_coincident = int((~ok).sum())
    if n_coincident:
        if rng is None:
            rng = np.random.default_rng(0)
        unit[~ok] = _random_units(rng, n_coincident, x.shape[1])

    gain = np.tanh(lj_force(clamp_distance(r_raw, params), params))
    move = ((0.5 * dt * dt) * gain)[..., None] * unit
    return x + move.sum(axis=1)
