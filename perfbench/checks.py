"""Correctness checks for the benchmark's outputs, computed apart from ljlayer.

Everything here is brute force over plain numpy arrays: nearest neighbours by
scanning every pair, closest points by scanning every face, periodogram bins
by direct sums.  No check compares against a stored copy of an earlier
output; each one tests a property the method must have or recomputes a
reported number from the output itself.  Each check raises CheckError.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """An output violates a property the method must have."""


class KnownFault(CheckError):
    """An output shows a fault the program is known to have."""


def hex_spacing(n: int) -> float:
    """Nearest-neighbour spacing of a hexagonal packing of n points in the unit square."""
    return math.sqrt(2.0 / (math.sqrt(3.0) * n))


def nn_distances(x, periodic: bool = False, chunk: int = 256):
    """Distance from each point to its nearest other point, by scanning all pairs."""
    x = np.asarray(x, dtype=float)
    out = np.empty(len(x))
    for lo in range(0, len(x), chunk):
        d = x[lo:lo + chunk, None, :] - x[None, :, :]
        if periodic:
            d -= np.round(d)                 # minimum image on the unit torus
        d2 = (d * d).sum(axis=-1)
        rows = np.arange(d2.shape[0])
        d2[rows, lo + rows] = np.inf
        out[lo:lo + chunk] = np.sqrt(d2.min(axis=1))
    return out


def _close(got, want, rtol, atol=0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def check_score(reported, cloud, periodic: bool = False, rtol: float = 1e-6) -> float:
    """A reported distance_score must equal the brute-force mean NN distance."""
    want = float(nn_distances(cloud, periodic).mean())
    if not _close(reported, want, rtol):
        raise CheckError(f"distance_score {reported!r} != brute-force mean {want!r}")
    return want


# --- bluenoise -------------------------------------------------------------

def check_unit_square(cloud):
    """Blue-noise output lies in [0, 1)^2.

    A coordinate of exactly 1.0 is the known periodic-wrap fault
    (np.mod(-tiny, 1.0) == 1.0) and raises KnownFault; anything else outside
    the square raises CheckError.
    """
    x = np.asarray(cloud, dtype=float)
    outside = ~((x >= 0.0) & (x < 1.0))
    if outside.any():
        if np.all(x[outside] == 1.0):
            raise KnownFault(f"{int(outside.sum())} coordinates equal 1.0")
        raise CheckError(f"coordinates outside [0, 1): {x[outside][:5]}")


def check_min_spacing(cloud):
    """Minimum periodic NN distance is at least half the hexagonal spacing."""
    x = np.asarray(cloud, dtype=float)
    dmin = float(nn_distances(x, periodic=True).min())
    half = 0.5 * hex_spacing(len(x))
    if not dmin >= half:
        raise CheckError(f"minimum spacing {dmin:.5f} below half the hex spacing {half:.5f}")


def read_profile(text: str):
    """Parse `analyze --csv` output into (radii, radial_power)."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    radii = np.array([int(r[0]) for r in rows])
    power = np.array([float(r[1]) for r in rows])
    if not np.array_equal(radii, np.arange(1, len(radii) + 1)):
        raise CheckError("profile radii are not 1..F")
    return radii, power


def band_means(radii, power):
    """(r_peak, low-band mean, plateau mean) with the bands of criterion 4."""
    r_peak = int(radii[np.argmax(power)])
    low = power[(radii >= 1) & (radii <= math.floor(0.5 * r_peak))]
    plateau = power[(radii >= 1.5 * r_peak) & (radii <= 2.5 * r_peak)]
    if low.size == 0 or plateau.size == 0:
        raise CheckError(f"peak radius {r_peak} leaves an empty band")
    return r_peak, float(low.mean()), float(plateau.mean())


def check_low_band(radii, power, summary=None):
    """Low-band radial power is at most a quarter of the plateau.

    With an `analyze` summary, its r_peak and band means must also match
    the ones recomputed from the profile.
    """
    r_peak, low, plateau = band_means(radii, power)
    if summary is not None:
        if summary["r_peak"] != r_peak:
            raise CheckError(f"summary r_peak {summary['r_peak']} != profile peak {r_peak}")
        for key, want in (("low_band_mean", low), ("plateau_mean", plateau)):
            if not _close(summary[key], want, 1e-6):
                raise CheckError(f"summary {key} {summary[key]!r} != profile {want!r}")
    if not low <= 0.25 * plateau:
        raise CheckError(f"low band {low:.4g} above a quarter of the plateau {plateau:.4g}")


def direct_radial_power(cloud, r: int) -> float:
    """Mean periodogram power over the lattice bins of annulus r, by direct sums."""
    x = np.asarray(cloud, dtype=float)
    f = np.arange(-r - 1, r + 2)
    fx, fy = np.meshgrid(f, f, indexing="ij")
    ring = np.rint(np.hypot(fx, fy)) == r
    phase = -2.0 * np.pi * (np.outer(fx[ring], x[:, 0]) + np.outer(fy[ring], x[:, 1]))
    amp = np.exp(1j * phase).sum(axis=1)
    return float((np.abs(amp) ** 2 / len(x)).mean())


def check_profile_bins(cloud, power, radii_to_check):
    """Profile entries for a few annuli match direct sums over their bins."""
    for r in radii_to_check:
        want = direct_radial_power(cloud, r)
        if not _close(power[r - 1], want, 1e-6, 1e-9):
            raise CheckError(f"radial power at r={r}: {power[r - 1]!r} != direct sum {want!r}")


# --- mesh --------------------------------------------------------------------

def read_obj(text: str):
    """Vertices and triangles of an OBJ file holding only `v x y z` and `f a b c`."""
    verts, faces = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            verts.append([float(v) for v in parts[1:4]])
        elif parts and parts[0] == "f":
            faces.append([int(i) - 1 for i in parts[1:4]])
    return np.array(verts), np.array(faces)


def normalize(vertices):
    """Center the bounding box and scale its longest half-extent to 1."""
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    return (vertices - (lo + hi) / 2.0) / ((hi - lo) / 2.0).max()


def _segment_closest(p, a, b):
    ab = b - a
    t = np.clip(((p - a) * ab).sum(-1) / (ab * ab).sum(-1), 0.0, 1.0)
    return a + t[..., None] * ab


def closest_on_mesh(points, vertices, faces, chunk: int = 32):
    """Closest surface point and distance for each point, scanning every face.

    The candidate set per face is the plane projection (when it falls inside
    the triangle) and the closest point on each edge; the nearest candidate
    over all faces wins.
    """
    p_all = np.asarray(points, dtype=float)
    a, b, c = (vertices[faces[:, i]][None] for i in range(3))
    nrm = np.cross(b - a, c - a)
    nn2 = (nrm * nrm).sum(-1)
    best_pt = np.empty_like(p_all)
    best_d = np.empty(len(p_all))
    for lo in range(0, len(p_all), chunk):
        p = p_all[lo:lo + chunk, None, :]
        q = p - (((p - a) * nrm).sum(-1) / nn2)[..., None] * nrm
        inside = np.ones(q.shape[:2], dtype=bool)
        for u, v in ((a, b), (b, c), (c, a)):
            inside &= (np.cross(v - u, q - u) * nrm).sum(-1) >= 0.0
        cands = [np.where(inside[..., None], q, np.inf)]
        cands += [_segment_closest(p, u, v) for u, v in ((a, b), (b, c), (c, a))]
        cands = np.stack(cands)                                  # (4, m, faces, 3)
        d2 = ((cands - p[None]) ** 2).sum(-1)
        flat = d2.transpose(1, 0, 2).reshape(len(p), -1)         # (m, 4 * faces)
        pick = flat.argmin(axis=1)
        kind, face = np.divmod(pick, d2.shape[2])
        rows = np.arange(len(p))
        best_pt[lo:lo + chunk] = cands[kind, rows, face]
        best_d[lo:lo + chunk] = np.sqrt(flat[rows, pick])
    return best_pt, best_d


def check_on_surface(cloud, vertices, faces, tol: float = 1e-8):
    """Every point lies on the mesh; returns the per-point distances."""
    _, dist = closest_on_mesh(cloud, vertices, faces)
    worst = int(np.argmax(dist))
    if not dist[worst] <= tol:
        raise CheckError(f"point {worst} lies {dist[worst]:.3g} off the surface")
    return dist


def check_noise_score(reported, dist, atol: float = 1e-11):
    """`score --mesh` noise_score equals the brute-force mean surface distance."""
    want = float(np.mean(dist))
    if not _close(reported, want, 1e-6, atol):
        raise CheckError(f"noise_score {reported!r} != brute-force mean {want!r}")


def check_mesh_spread(spread: float, minimum: float = 1.5):
    if not spread >= minimum:
        raise CheckError(f"spread gain {spread:.3f} below {minimum}")


# --- embed -------------------------------------------------------------------

SWEEP_COLUMNS = ["value", "seed", "distance_score", "noise_score",
                 "distance_increment", "noise_increment", "ratio"]


def read_sweep(text: str, values, seeds):
    """Parse a sweep CSV; it must hold one row per (value, seed), value-major.

    Every cell is finite except `ratio`, which is NaN exactly where the
    distance increment is not positive and noise/distance increment elsewhere.
    """
    lines = text.strip().splitlines()
    if lines[0].split(",") != SWEEP_COLUMNS:
        raise CheckError(f"sweep header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    want = np.array([(v, s) for v in values for s in seeds], dtype=float)
    if rows.shape != (len(want), len(SWEEP_COLUMNS)) or not np.array_equal(rows[:, :2], want):
        raise CheckError("sweep rows are not one per (value, seed)")
    if not np.isfinite(rows[:, :6]).all():
        raise CheckError("sweep has non-finite cells")
    d_inc, n_inc, ratio = rows[:, 4], rows[:, 5], rows[:, 6]
    pos = d_inc > 0
    if not (np.isnan(ratio) == ~pos).all():
        raise CheckError("ratio is NaN where it should be defined, or the reverse")
    if not np.allclose(ratio[pos], n_inc[pos] / d_inc[pos], rtol=1e-6, atol=0.0):
        raise CheckError("ratio differs from noise_increment / distance_increment")
    return rows


def check_gain_falls(rows):
    """The mean distance increment falls strictly as the start step rises."""
    values = np.unique(rows[:, 0])
    means = [float(rows[rows[:, 0] == v, 4].mean()) for v in values]
    for (v0, m0), (v1, m1) in zip(zip(values, means), zip(values[1:], means[1:])):
        if not m0 > m1:
            raise CheckError(f"distance gain at ss={v1:g} ({m1:.4g}) not below ss={v0:g} ({m0:.4g})")


def check_bit_equal(a, b, what: str):
    if not np.array_equal(np.asarray(a), np.asarray(b)):
        raise CheckError(f"{what}: clouds differ")
