"""Lennard-Jones pair dynamics on point clouds.

The pair potential is V(r) = 4*eps*((sigma/r)**12 - (sigma/r)**6): repulsive
at short range, weakly attractive at long range.  One update step moves every
point along the line to each of its assigned neighbors by

    tanh(F(clamp(r))) * dt**2 / 2

where F = -dV/dr (positive = repulsive) and r is clamped to
[CLAMP_LO*sigma, CLAMP_HI*sigma] before the force is evaluated.
The tanh bounds the step, and because no velocity is carried between calls the
iteration is dissipative: an isolated pair drifts toward the equilibrium
separation 2**(1/6)*sigma where the force vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import EUCLIDEAN, Metric, as_cloud, as_number, squared_norm

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

CLAMP_LO = 0.9
CLAMP_HI = 100.0


@dataclass(frozen=True)
class LjParams:
    """Parameters of the pair potential and of one update step.

    epsilon sets the well depth, sigma the zero crossing of the potential.
    k is the number of nearest neighbors each point interacts with per step.
    """

    epsilon: float = 2.0
    sigma: float = 1.0
    k: int = 1

    def __post_init__(self):
        as_number(self.epsilon, "epsilon", 0, above=True)
        as_number(self.sigma, "sigma", 0, above=True)
        object.__setattr__(self, "k", as_number(self.k, "k", 1, integer=True))


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule: alpha is the initial scale, beta the decay rate.

    alpha = 0 is allowed and disables movement entirely.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        as_number(self.alpha, "alpha", 0)
        as_number(self.beta, "beta", 0)


def _as_positive_r(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("distance r must be positive")
    return r


def lj_potential(r, params: LjParams):
    """Pair potential 4*eps*((sigma/r)**12 - (sigma/r)**6) at separation r > 0."""
    r = _as_positive_r(r)
    sr6 = (params.sigma / r) ** 6
    return 4.0 * params.epsilon * (sr6 * sr6 - sr6)


def lj_force(r, params: LjParams):
    """Radial force -dV/dr = (24*eps/r)*(2*(sigma/r)**12 - (sigma/r)**6).

    Positive values are repulsive, negative attractive.
    """
    r = _as_positive_r(r)
    sr6 = (params.sigma / r) ** 6
    return (24.0 * params.epsilon / r) * (2.0 * sr6 * sr6 - sr6)


def clamp_distance(r, params: LjParams):
    """Clamp separations to [CLAMP_LO*sigma, CLAMP_HI*sigma]."""
    return np.clip(np.asarray(r, dtype=float), CLAMP_LO * params.sigma, CLAMP_HI * params.sigma)


def dt_exponential(i, schedule: Schedule):
    """Exponentially decaying step size alpha * exp(-beta * i) for i >= 0."""
    return schedule.alpha * float(np.exp(-schedule.beta * i))


def dt_adaptive(i, max_disp, schedule: Schedule):
    """Movement-scaled step size (alpha/i) * max_disp * exp(-beta * i).

    i is the 1-based iteration index; max_disp is the largest per-point
    displacement between the two most recent refiner outputs.
    """
    i = as_number(i, "i", 1, integer=True)
    max_disp = as_number(max_disp, "max_disp", 0)
    return (schedule.alpha / i) * max_disp * float(np.exp(-schedule.beta * i))


def _random_units(rng, count, dim):
    out = np.empty((count, dim))
    todo = np.arange(count)
    while todo.size:
        v = rng.standard_normal((todo.size, dim))
        n = np.sqrt(squared_norm(v))
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
    x = as_cloud(cloud)
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim == 1:
        pairs = pairs[:, None]
    if pairs.ndim != 2 or pairs.shape[0] != x.shape[0]:
        raise ValueError(f"pairs must assign partners to every point, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= x.shape[0]):
        raise ValueError("pairs contains out-of-range point indices")
    dt = as_number(dt, "dt", 0)

    diff = metric.delta(x[:, None, :] - x.take(pairs, axis=0))  # (n, k, d)
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
