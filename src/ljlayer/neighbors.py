"""Nearest-neighbor queries over an immutable point-cloud snapshot.

A k-d tree accelerates the search, but results are guaranteed to match a
brute-force scan, including tie-breaking: among equidistant candidates the
lowest point index wins.  To that end tree candidates are re-scored with the
same arithmetic a brute-force scan would use, and the rare query whose
candidate list cannot be proven complete falls back to an exhaustive ball
query.

`NeighborList` keeps that exact table for a moving cloud without querying the
tree on every step: it re-scores the candidates of its last query and
rebuilds only when it can no longer prove the re-scored table exact.
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
        # (tree candidate ids, certificate radius) of the last kNN query; see NeighborList
        self._candidates = None

    @property
    def n(self) -> int:
        return self.points.shape[0]


def build_index(cloud, metric="euclidean") -> SpatialIndex:
    return SpatialIndex(cloud, get_metric(metric))


def _sort_candidates(index: SpatialIndex, rows, cand):
    """Exact squared distances for candidate ids, ordered by (distance, id)."""
    d2 = index.metric.distance2(index.points[rows][:, None, :], index.points[cand])
    order = np.lexsort((cand, d2), axis=1)              # ids in a row are unique
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
    cand = cand.astype(np.intp)
    index._candidates = (cand, d_tree[:, -1] if m < n else np.full(n, np.inf))
    cand, d2 = _sort_candidates(index, rows, cand)

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


class NeighborList:
    """Exact k-nearest-neighbor table of a moving cloud (a Verlet neighbor list).

    `update(cloud, moved)` returns what `k_nearest_all(build_index(cloud,
    metric), k)` returns, bit for bit, given that no point moved farther than
    `moved` under the metric since the previous call.  A rebuild runs exactly
    that query and keeps each row's m = min(n, k+1+_EXTRA) tree candidates,
    sorted by id, and its certificate radius rho_i: the tree distance of the
    m-th candidate, or inf when every point is a candidate.  Later calls add
    `moved` to the drift D and re-score only the cached candidates with the
    query's own arithmetic, in (distance, id) order.  A point outside row i's
    candidates started at least rho_i away, and both it and point i moved at
    most D since, so it is still at least rho_i - 2D away (on the torus too).
    A row whose k-th re-scored distance stays below that, with the tie guard,
    is therefore exact; when any row is not, the table is rebuilt from the
    current cloud.  No skin is tuned: each row's slack is its own gap between
    rho_i and its k-th distance.
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
                pairs = self._rescore(np.asarray(cloud, dtype=float))
                if pairs is not None:
                    return pairs
        return self._rebuild(cloud)

    def _rebuild(self, cloud):
        index = build_index(cloud, self.metric)
        pairs = k_nearest_all(index, self.k)
        cand, self._rho = index._candidates
        self._cand = np.sort(cand, axis=1)
        self._own = np.nonzero(self._cand == np.arange(len(cand))[:, None])
        self._rho_min = self._rho.min()
        self._drift = 0.0
        self.rebuilds += 1
        return pairs

    def _rescore(self, x):
        d2 = self.metric.distance2(x[:, None, :], x[self._cand])
        d2[self._own] = np.inf      # a point is not its own neighbor
        if self.k == 1:
            # columns ascend by id, so argmin's first minimum is the lowest id
            cols = np.argmin(d2, axis=1)[:, None]
        else:
            cols = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
        dk = np.sqrt(np.take_along_axis(d2, cols[:, -1:], axis=1)[:, 0])
        bound = (self._rho - 2.0 * self._drift) * (1.0 - _TIE_GUARD)
        if not (dk * (1.0 + _TIE_GUARD) < bound).all():
            return None
        return np.take_along_axis(self._cand, cols, axis=1)
