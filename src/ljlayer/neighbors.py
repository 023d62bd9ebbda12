"""Nearest-neighbor queries over an immutable point-cloud snapshot.

A k-d tree accelerates the search, but results are guaranteed to match a
brute-force scan, including tie-breaking: among equidistant candidates the
lowest point index wins.  To that end tree candidates are re-scored with the
same arithmetic a brute-force scan would use, and the rare query whose
candidate list cannot be proven complete falls back to an exhaustive ball
query.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .metrics import EUCLIDEAN, Metric, get_metric

__all__ = [
    "SpatialIndex",
    "build_index",
    "nearest_all",
    "k_nearest_all",
]

_EXTRA = 8          # candidates fetched beyond k+1 before resorting to a ball query
_TIE_GUARD = 1e-9   # relative slack absorbing tree/re-score rounding differences


class SpatialIndex:
    """Frozen snapshot of a point cloud plus its acceleration structure."""

    def __init__(self, points, metric: Metric = EUCLIDEAN):
        pts = np.array(points, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError(f"cloud must have shape (n, 2) or (n, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("cannot index an empty cloud")
        if not np.isfinite(pts).all():
            raise ValueError("cloud contains non-finite coordinates")
        if metric.periodic and pts.shape[1] != 2:
            raise ValueError("periodic metric is defined for 2D clouds only")
        pts.setflags(write=False)
        self.points = pts
        self.metric = metric
        if metric.periodic:
            self._query_points = metric.wrap(pts)
            self._tree = cKDTree(self._query_points, boxsize=1.0)
        else:
            self._query_points = pts
            self._tree = cKDTree(pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def build_index(cloud, metric="euclidean") -> SpatialIndex:
    return SpatialIndex(cloud, get_metric(metric))


def _sort_candidates(index: SpatialIndex, rows, cand):
    """Exact squared distances for candidate ids, ordered by (distance, id)."""
    d2 = index.metric.distance2(index.points[rows][:, None, :], index.points[cand])
    order = np.argsort(cand, axis=1, kind="stable")
    cand = np.take_along_axis(cand, order, axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    order = np.argsort(d2, axis=1, kind="stable")       # stable: ties stay id-ascending
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(d2, order, axis=1)


def _ball_exact(index: SpatialIndex, i: int, k: int, radius: float):
    cand = np.asarray(index._tree.query_ball_point(index._query_points[i], radius),
                      dtype=np.intp)
    cand, _ = _sort_candidates(index, np.array([i]), cand[None, :])
    cand = cand[0]
    return cand[cand != i][:k]


def _k_nearest(index: SpatialIndex, k: int):
    n = index.n
    if int(k) != k or not 1 <= k <= n - 1:
        raise ValueError(f"k must be an integer in [1, {n - 1}], got {k}")
    rows = np.arange(n)
    m = min(n, k + 1 + _EXTRA)
    d_tree, cand = index._tree.query(index._query_points[rows], k=m)
    if cand.max() >= n:
        # scipy marks unreachable neighbors with index n; with finite inputs
        # that only happens when squared distances overflow
        raise ValueError("neighbor query failed; coordinates are too extreme")
    cand, d2 = _sort_candidates(index, rows, cand.astype(np.intp))

    keep = cand != rows[:, None]
    front = np.argsort(~keep, axis=1, kind="stable")    # kept columns first, order intact
    sel = np.take_along_axis(cand, front[:, :k], axis=1)
    dk = np.sqrt(np.take_along_axis(d2, front[:, :k], axis=1)[:, -1])

    if m < n:
        # The candidate list is provably complete only if the tree saw
        # strictly beyond the k-th exact distance; otherwise rescan that row.
        unsafe = ~(d_tree[:, -1] > dk * (1.0 + _TIE_GUARD))
        for r in np.nonzero(unsafe)[0]:
            sel[r] = _ball_exact(index, int(rows[r]), k, dk[r] * (1.0 + _TIE_GUARD))
    return sel


def nearest_all(index: SpatialIndex):
    """Nearest other point of every point; shape (n,).

    Distance ties go to the lowest index.
    """
    if index.n < 2:
        raise ValueError("nearest-neighbor query needs at least 2 points")
    return _k_nearest(index, 1)[:, 0]


def k_nearest_all(index: SpatialIndex, k: int):
    """The k nearest other points of every point, ascending by distance then index; shape (n, k)."""
    return _k_nearest(index, k)
