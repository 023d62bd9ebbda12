"""Nearest-neighbor queries over an immutable point-cloud snapshot.

A k-d tree accelerates the search, but results are guaranteed to match a
brute-force scan, including tie-breaking: among equidistant candidates the
lowest point index wins.  One routine, `_select`, re-scores candidate ids
with the metric's arithmetic, takes them in (distance, id) order, and
certifies a row when its k-th distance stays below the radius beyond which
every point outside its candidates lies.  The rare row a tree query cannot
certify is rescanned with an exhaustive ball query.

`NeighborList` keeps that table for a moving cloud by selecting from the
candidates of its last query, and rebuilds only when a row fails.  The index
keeps no query state.
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
    "NeighborList",
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


def _select(metric: Metric, x, rows, cand, rho, k: int):
    """The k nearest of each row's candidates and whether that is the exact answer.

    cand holds each row's candidate ids, ascending; rho bounds from below the
    distance of every point outside them.  Returns (table, dk, ok): the k
    candidates other than the row itself in (distance, id) order, the k-th
    distance, and ok where that distance is, with the tie guard, below rho.
    """
    # take() gathers rows several times faster than fancy indexing, same values
    d2 = metric.distance2(x.take(rows, axis=0)[:, None, :], x.take(cand, axis=0))
    d2[cand == rows[:, None]] = np.inf      # a point is not its own neighbor
    if k == 1:
        # columns ascend by id, so argmin's first minimum is the lowest id
        cols = np.argmin(d2, axis=1)[:, None]
    else:
        cols = np.argsort(d2, axis=1, kind="stable")[:, :k]
    dk = np.sqrt(np.take_along_axis(d2, cols[:, -1:], axis=1)[:, 0])
    ok = dk * (1.0 + _TIE_GUARD) < rho * (1.0 - _TIE_GUARD)
    return np.take_along_axis(cand, cols, axis=1), dk, ok


def _ball_exact(index: SpatialIndex, i: int, k: int, radius: float):
    ball = np.sort(np.asarray(index._tree.query_ball_point(index._query_points[i], radius),
                              dtype=np.intp))
    return _select(index.metric, index.points, np.array([i]), ball[None, :], np.inf, k)[0][0]


def _k_nearest(index: SpatialIndex, k):
    """Exact kNN table plus what certifies it; returns (table, cand, rho).

    cand holds each row's m = min(n, k+1+_EXTRA) tree candidates, ascending,
    and rho the tree distance of the m-th, or inf when every point is a
    candidate: no point outside a row's candidates lies nearer than rho.
    """
    n = index.n
    if not (float(k).is_integer() and 1 <= k <= n - 1):
        raise ValueError(f"k must be an integer in [1, {n - 1}], got {k}")
    k = int(k)
    m = min(n, k + 1 + _EXTRA)
    d_tree, cand = index._tree.query(index._query_points, k=m)
    if cand.max() >= n:
        # scipy marks unreachable neighbors with index n; with finite inputs
        # that only happens when squared distances overflow
        raise ValueError("neighbor query failed; coordinates are too extreme")
    cand = np.sort(cand, axis=1)
    rho = d_tree[:, -1] if m < n else np.full(n, np.inf)
    table, dk, ok = _select(index.metric, index.points, np.arange(n), cand, rho, k)
    # a row the tree candidates cannot certify is rescanned exhaustively
    for r in np.nonzero(~ok)[0]:
        table[r] = _ball_exact(index, int(r), k, dk[r] * (1.0 + _TIE_GUARD))
    return table, cand, rho


def nearest_all(index: SpatialIndex):
    """Nearest other point of every point; shape (n,).

    Distance ties go to the lowest index.
    """
    if index.n < 2:
        raise ValueError("nearest-neighbor query needs at least 2 points")
    return _k_nearest(index, 1)[0][:, 0]


def k_nearest_all(index: SpatialIndex, k: int):
    """The k nearest other points of every point, ascending by distance then index; shape (n, k)."""
    return _k_nearest(index, k)[0]


class NeighborList:
    """Exact k-nearest-neighbor table of a moving cloud (a Verlet neighbor list).

    `update(cloud, moved)` returns what `k_nearest_all(build_index(cloud,
    metric), k)` returns, bit for bit, given that no point moved farther than
    `moved` under the metric since the previous call.  A rebuild runs exactly
    that query and keeps the tree candidates of each row i and its certificate
    radius rho_i.  Later calls add `moved` to the drift D and run the query's
    own selection on the cached candidates alone.  A point outside row i's candidates started at least
    rho_i away, and both it and point i moved at most D since, so it is still
    at least rho_i - 2D away (on the torus too): that is the row's certificate
    radius now.  When any row fails it, the table is rebuilt from the current
    cloud.  No skin is tuned: each row's slack is its own gap between rho_i
    and its k-th distance.
    """

    def __init__(self, metric, k: int):
        self.metric = get_metric(metric)
        self.k = k
        self.rebuilds = 0
        self._cand = None

    def update(self, cloud, moved: float = 0.0):
        if self._cand is not None:
            self._drift += moved
            # rho_min <= 2D leaves that row no room even at distance 0
            if 2.0 * self._drift < self._rho_min:
                x = np.asarray(cloud, dtype=float)
                pairs, _, ok = _select(self.metric, x, np.arange(len(x)), self._cand,
                                       self._rho - 2.0 * self._drift, self.k)
                if ok.all():
                    return pairs
        pairs, self._cand, self._rho = _k_nearest(build_index(cloud, self.metric), self.k)
        self._rho_min = self._rho.min()
        self._drift = 0.0
        self.rebuilds += 1
        return pairs
