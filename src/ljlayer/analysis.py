"""Evaluation tools: distance scores, spectral statistics, increment reports.

The spectral side works on periodograms sampled on the integer frequency
lattice [-F, F]^2 of the unit torus.  Radial profiles use annuli of width one
(rounded integer radius); the DC bin is kept in the grid but excluded from
every profile.  Anisotropy is reported in dB and floored at -100 so that
zero-variance annuli stay finite in serialized output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .metrics import EUCLIDEAN, as_cloud, as_number, get_metric
from .neighbors import build_index, nearest_all

__all__ = [
    "SpectralStats",
    "Scores",
    "ScoreReport",
    "distance_score",
    "periodogram",
    "radial_stats",
    "peak_radius",
    "band_mean",
    "increment_report",
    "write_profile_csv",
    "write_periodogram_pgm",
]

ANISOTROPY_FLOOR_DB = -100.0


def distance_score(cloud, metric=EUCLIDEAN) -> float:
    """Mean distance from each point to its nearest neighbor."""
    metric = get_metric(metric)
    x = as_cloud(cloud)
    nn = nearest_all(build_index(x, metric))
    return float(metric.distance(x, x.take(nn, axis=0)).mean())


_CHUNK = 8192      # N0: points per chunk; a cloud of at most N0 points is one exact product
_RESTART = 32      # powers of w between fresh np.exp rows in a multi-chunk cloud


def _fmax_limit() -> int:
    """The largest F whose (2F+1)^2 complex grid fits in physical memory, or, where
    the system does not tell its memory, the largest that numpy can index."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):   # no sysconf, or not these names
        size = -1
    return (math.isqrt((size if size > 0 else np.iinfo(np.intp).max) // 16) - 1) // 2


def periodogram(cloud, fmax: int = 128):
    """Periodogram |sum_j exp(-2 pi i f.x_j)|^2 / N on the integer lattice.

    Returns a (2*fmax+1, 2*fmax+1) grid; entry [i, j] belongs to frequency
    (fx, fy) = (i - fmax, j - fmax).  Coordinates are interpreted on the unit
    torus, so wrapping points changes nothing.  The DC bin (center) always
    equals N and is excluded from radial profiles downstream.

    The sum runs over chunks of at most _CHUNK (N0) points in two reused
    buffers, so memory does not grow with N (README, "CLI").  A cloud of at
    most N0 points is one chunk: the exact single product.  A larger cloud's
    rows are powers of exp(-2 pi i x), and its grid lies within 1e-14 N of
    the single product's.  fmax must lie in [1, F_max], where F_max is the
    largest F whose (2F+1)^2 complex grid fits in physical memory.
    """
    x = as_cloud(cloud, (2,))
    fmax = as_number(fmax, "fmax", 1, _fmax_limit(), integer=True)
    n, rows = x.shape[0], 2 * fmax + 1
    freqs = np.arange(-fmax, fmax + 1)
    build = _exp_rows if n <= _CHUNK else _power_rows
    # flat buffers, so every chunk's (rows, m) view is C-contiguous, the last one too
    bufs = [np.empty(rows * min(n, _CHUNK), dtype=complex) for _ in range(2)]
    for lo in range(0, n, _CHUNK):
        chunk = x[lo:lo + _CHUNK]
        ex, ey = (buf[:rows * len(chunk)].reshape(rows, len(chunk)) for buf in bufs)
        build(ex, freqs, chunk[:, 0])
        build(ey, freqs, chunk[:, 1])
        if lo:
            amp += ex @ ey.T
        else:
            amp = ex @ ey.T
    return (amp.real * amp.real + amp.imag * amp.imag) / n


def _exp_rows(z, freqs, col):
    """z = exp(-2j pi outer(freqs, col)), with the same ufuncs on the same values."""
    np.multiply(freqs[:, None], col[None, :], out=z)
    np.multiply(-2j * np.pi, z, out=z)
    np.exp(z, out=z)


def _power_rows(z, freqs, col):
    """The rows of _exp_rows for freqs = -F..F, as powers of w = exp(-2 pi i col)."""
    fmax = len(freqs) // 2
    z[fmax] = 1.0
    pos = z[fmax + 1:]
    _exp_rows(pos[::_RESTART], freqs[fmax + 1::_RESTART], col)
    for f in range(2, fmax + 1):
        if (f - 1) % _RESTART:
            np.multiply(pos[f - 2], pos[0], out=pos[f - 1])
    np.conjugate(pos, out=z[fmax - 1::-1])


@dataclass(frozen=True)
class SpectralStats:
    """Radially averaged spectral summary of one or more periodogram grids."""

    grid: np.ndarray           # mean periodogram over runs, (2F+1, 2F+1)
    radii: np.ndarray          # integer annulus radii 1..F
    radial_power: np.ndarray   # mean power per annulus
    anisotropy_db: np.ndarray  # 10*log10(var/mean^2) per annulus, floored
    runs: int


def radial_stats(grids) -> SpectralStats:
    """Average grids over runs, then reduce to per-annulus power and anisotropy."""
    grids = [np.asarray(g, dtype=float) for g in grids]
    if len(grids) == 0:
        raise ValueError("radial_stats needs at least one grid")
    shape = grids[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 3 or shape[0] % 2 == 0:
        raise ValueError(f"grids must be odd square 2D arrays, got shape {shape}")
    for g in grids[1:]:
        if g.shape != shape:
            raise ValueError("all grids must share one shape")
    fmax = (shape[0] - 1) // 2
    mean_grid = grids[0].copy()
    for g in grids[1:]:
        mean_grid += g
    mean_grid /= len(grids)

    f = np.arange(-fmax, fmax + 1)
    rad = np.rint(np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)).astype(np.intp)
    keep = (rad >= 1) & (rad <= fmax)
    r = rad[keep]
    p = mean_grid[keep]
    counts = np.bincount(r, minlength=fmax + 1)[1:]
    power = np.bincount(r, weights=p, minlength=fmax + 1)[1:] / counts
    mom2 = np.bincount(r, weights=p * p, minlength=fmax + 1)[1:] / counts
    var = np.maximum(mom2 - power * power, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        anis = np.where(power > 0, 10.0 * np.log10(var / (power * power)), -np.inf)
    anis = np.maximum(anis, ANISOTROPY_FLOOR_DB)

    for a in (mean_grid, power, anis):
        a.setflags(write=False)
    radii = np.arange(1, fmax + 1)
    radii.setflags(write=False)
    return SpectralStats(
        grid=mean_grid,
        radii=radii,
        radial_power=power,
        anisotropy_db=anis,
        runs=len(grids),
    )


def peak_radius(stats: SpectralStats) -> int:
    """Radius of the annulus with the largest mean power (lowest radius on ties)."""
    return int(stats.radii[np.argmax(stats.radial_power)])


def band_mean(stats: SpectralStats, lo: float, hi: float) -> float:
    """Mean radial power over annuli with lo <= radius <= hi (inclusive)."""
    sel = (stats.radii >= lo) & (stats.radii <= hi)
    if not sel.any():
        raise ValueError(f"no annulus has radius in [{lo}, {hi}]")
    return float(stats.radial_power[sel].mean())


@dataclass(frozen=True)
class Scores:
    """Final distance and noise scores of one run."""

    distance: float
    noise: float


@dataclass(frozen=True)
class ScoreReport:
    """Paired comparison of a baseline run against its LJL-embedded twin."""

    distance_score_base: float
    distance_score_ljl: float
    noise_score_base: float
    noise_score_ljl: float
    distance_increment: float
    noise_increment: float
    ratio: float | None  # noise_increment / distance_increment; None unless > 0 denominator


def increment_report(base: Scores, ljl: Scores) -> ScoreReport:
    """Relative increments (ljl - base)/base and their noise/distance ratio."""
    if base.distance == 0 or base.noise == 0:
        raise ValueError("baseline scores must be nonzero to form relative increments")
    d_inc = (ljl.distance - base.distance) / base.distance
    n_inc = (ljl.noise - base.noise) / base.noise
    ratio = n_inc / d_inc if d_inc > 0 else None
    return ScoreReport(
        distance_score_base=base.distance,
        distance_score_ljl=ljl.distance,
        noise_score_base=base.noise,
        noise_score_ljl=ljl.noise,
        distance_increment=d_inc,
        noise_increment=n_inc,
        ratio=ratio,
    )


def write_profile_csv(stats: SpectralStats, path):
    """One row per annulus under the header radius,radial_power,anisotropy_db."""
    np.savetxt(path, np.column_stack([stats.radii, stats.radial_power, stats.anisotropy_db]),
               fmt=("%d", "%.9g", "%.9g"), delimiter=",",
               header="radius,radial_power,anisotropy_db", comments="")


def write_periodogram_pgm(stats: SpectralStats, path):
    """8-bit ASCII PGM of the mean periodogram, log-scaled and max-normalized."""
    grid = stats.grid
    levels = np.log1p(np.maximum(grid, 0.0))
    top = levels.max()
    if top > 0:
        levels = levels / top
    np.savetxt(path, np.rint(255.0 * levels).astype(int), fmt="%d",
               header=f"P2\n{grid.shape[1]} {grid.shape[0]}\n255", comments="")
