"""Exact nearest-neighbor queries over an immutable point-cloud snapshot.

Results match a brute-force scan bit for bit, ties included: among
equidistant candidates the lowest point index wins.  `NeighborList` keeps
the same table for a moving cloud.  The README's "Library overview" describes
the candidate selection, its certificate and the list's rebuild rule.
"""

from __future__ import annotations

import numpy as np

from . import THREADS_CAP, THREADS_ERROR
from .metrics import EUCLIDEAN, TIE_GUARD, Metric, as_cloud, as_number, get_metric

__all__ = [
    "SpatialIndex",
    "build_index",
    "nearest_all",
    "k_nearest_all",
    "NeighborList",
]

_ALL_PAIRS = 128    # clouds up to this size score every pair: below it a tree costs more
_EXTRA = 8          # candidates a wide query fetches beyond k+1
_FAR = np.sqrt(np.finfo(float).max)     # the shortest distance whose square overflows
_THREADED = 8192    # tree queries of this many rows or more run on two threads


class SpatialIndex:
    """Frozen snapshot of a point cloud plus its k-d tree, or none: clouds of at
    most _ALL_PAIRS points score every pair.  wrapped=True views a cloud already
    in the metric's domain, which must not change while the index is in use."""

    def __init__(self, points, metric: Metric = EUCLIDEAN, *, wrapped: bool = False):
        pts = as_cloud(points)
        if metric.periodic and pts.shape[1] != 2:
            raise ValueError("periodic metric is defined for 2D clouds only")
        pts = pts.view() if wrapped else metric.wrap(pts.copy())  # the tree and _select score these
        pts.setflags(write=False)
        self.points = pts
        self.metric = metric
        self._tree = None
        if len(pts) > _ALL_PAIRS:
            from scipy.spatial import cKDTree   # here, so clouds without a tree never load it
            # sliding-midpoint splits build in about half the time of median splits and
            # query as fast; the tree only proposes candidates, which _select re-scores
            self._tree = cKDTree(pts, balanced_tree=False, compact_nodes=False,
                                 boxsize=1.0 if metric.periodic else None)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def build_index(cloud, metric="euclidean") -> SpatialIndex:
    return SpatialIndex(cloud, get_metric(metric))


def _workers(rows: int) -> int:
    """Threads for a tree query of that many rows: 2 from _THREADED on, at most LJL_THREADS."""
    if THREADS_ERROR:
        raise ValueError(THREADS_ERROR)
    return min(2 if rows >= _THREADED else 1, THREADS_CAP or 2)


def _distance2(metric: Metric, x, rows, cand):
    """metric.distance2 on the gathered (rows, m, dim) stack, bit for bit, summed
    one coordinate at a time in squared_norm's order; an overflow reads inf."""
    with np.errstate(over="ignore"):
        d = [metric.delta(x[:, j].take(rows)[:, None] - x[:, j].take(cand))
             for j in range(x.shape[1])]
        d2 = d[0] * d[0]
        for dj in d[1:]:
            d2 += dj * dj
    return d2


def _select(metric: Metric, x, rows, cand, rho, k: int):
    """The k nearest of each row's candidates and whether that is the exact answer.

    cand holds each row's candidate ids, ascending, or is arange(n)[None, :],
    every point in one row that all n rows share; rho bounds from below the
    distance of every point outside them.  Returns (table, dk, ok): the k
    candidates other than the row itself in (distance, id) order, the k-th
    distance, and ok where that distance is, with the tie guard, below rho.
    An overflowed k-th distance reads inf and certifies nothing.
    """
    d2 = _distance2(metric, x, rows, cand)
    flat = d2.reshape(-1)
    starts = np.arange(0, flat.size, d2.shape[1])   # each row's offset in flat
    shared = len(cand) < len(rows)      # column j of the shared row is point j
    # a point is not its own neighbor
    if shared:
        flat[starts + rows] = np.inf
    else:
        d2[cand == rows[:, None]] = np.inf
    # k argmin passes, each masking its pick: columns ascend by id and argmin
    # takes the first minimum, so picks come in (distance, id) order
    cols = np.empty((len(rows), k), dtype=np.intp)
    for i in range(k):
        cols[:, i] = np.argmin(d2, axis=1)
        picks = starts + cols[:, i]
        d2k = flat.take(picks)
        flat[picks] = np.inf
    dk = np.sqrt(d2k)
    ok = dk * (1.0 + TIE_GUARD) < rho * (1.0 - TIE_GUARD)
    return (cols if shared else cand.take(starts[:, None] + cols)), dk, ok


def _k_nearest(index: SpatialIndex, k, extra: int = _EXTRA, rows=None):
    """Exact kNN of rows (default: all); returns (table, cand, rho, dk, rescans).

    cand holds each row's m = min(n, k+1+extra) tree candidates, ascending, and
    rho the tree distance of the m-th, or inf when m = n: no point outside a
    row's candidates lies nearer.  A row with fewer than m points nearer than
    _FAR, where squared distances overflow, holds those points, and rho is
    _FAR.  An index without a tree gives every row the shared candidate row
    arange(n)[None, :] and rho = inf.  Either way only an overflowing k-th
    distance raises.  dk is the k-th distance among them, and rescans counts
    the rows they leave uncertified.
    Rows with equal coordinates have equal distances, so each such group's
    lowest id's k+1 nearest, queried 2m wide, plus that id hold every
    member's k nearest.
    """
    n = index.n
    k = as_number(k, "k", 1, n - 1, integer=True)
    x = index.points
    rows = np.arange(n) if rows is None else rows
    if index._tree is None:
        cand, rho = np.arange(n)[None, :], np.full(len(rows), np.inf)
    else:
        m = min(n, k + 1 + extra)
        d_tree, cand = index._tree.query(x.take(rows, axis=0), k=m, workers=_workers(len(rows)))
        # scipy marks a neighbor at an overflowing squared distance with index n,
        # so such a row's real candidates are every point nearer than _FAR; its
        # own id fills the marked slots, and _select masks it
        far = cand[:, -1] >= n
        cand = np.sort(np.where(cand < n, cand, rows[:, None]), axis=1)
        rho = d_tree[:, -1] if m < n else np.full(len(rows), np.inf)
        rho[far] = _FAR
    table, dk, ok = _select(index.metric, x, rows, cand, rho, k)
    if not np.isfinite(dk).all():   # the scored distances overflowed
        raise ValueError("neighbor query failed; coordinates are too extreme")
    bad = np.flatnonzero(~ok)       # rho = inf certifies every finite dk
    if bad.size:    # ravel(): the inverse's shape differs across numpy 2.0.x releases
        _, first, group = np.unique(x.take(rows[bad], axis=0), axis=0,
                                    return_index=True, return_inverse=True)
        leads = rows[bad[first]]
        near = _k_nearest(index, min(k + 1, n - 1), 2 * m, leads)[0]
        held = np.sort(np.column_stack([near, leads])[group.ravel()], axis=1)
        table[bad] = _select(index.metric, x, rows[bad], held, np.inf, k)[0]
    return table, cand, rho, dk, bad.size


def nearest_all(index: SpatialIndex):
    """Nearest other point of every point; shape (n,).

    Distance ties go to the lowest index.
    """
    if index.n < 2:
        raise ValueError(f"nearest-neighbor query needs at least 2 points, got {index.n}")
    return _k_nearest(index, 1)[0][:, 0]


def k_nearest_all(index: SpatialIndex, k: int):
    """The k nearest other points of every point, ascending by distance then index; shape (n, k)."""
    return _k_nearest(index, k)[0]


class NeighborList:
    """Exact k-nearest-neighbor table of a moving cloud (a Verlet neighbor list).

    `update(cloud, moved)` returns what `k_nearest_all(build_index(cloud,
    metric), k)` returns, bit for bit, given that no point moved farther than
    `moved` under the metric since the previous call.  It selects from the
    candidates of the last rebuild, each row certified against its radius
    rho_i less twice the drift D summed from `moved`, and rebuilds the table
    when any row fails; the rebuild queries narrow when 2 * moved is at least
    the last wide table's median slack.  The width decides which rows
    certify, never the table.  `rebuilds` counts the rebuilds and `rescans`
    the rows their first query could not certify.  A periodic cloud must lie
    in [0, 1), as `Boundary.apply` leaves it, and every cloud must have the
    shape of the first.
    """

    def __init__(self, metric, k: int):
        self.k = as_number(k, "k", 1, integer=True)
        self.metric = get_metric(metric)
        self.rebuilds = 0
        self.rescans = 0
        self._cand = None

    def update(self, cloud, moved: float = 0.0):
        if moved < 0:       # NaN passes and forces a rebuild, whose index names it
            raise ValueError(f"moved must be >= 0, got {moved}")
        x = np.asarray(cloud, dtype=float)
        if self._cand is not None:
            if x.shape != self._shape:
                raise ValueError(f"cloud has shape {x.shape}, but the neighbor list "
                                 f"was built on shape {self._shape}")
            self._drift += moved
            # rho_min <= 2D leaves that row no room even at distance 0
            if 2.0 * self._drift < self._rho_min:
                pairs, _, ok = _select(self.metric, x, np.arange(len(x)), self._cand,
                                       self._rho - 2.0 * self._drift, self.k)
                if ok.all():
                    return pairs
        narrow = self._cand is not None and 2.0 * moved >= self._slack
        pairs, self._cand, self._rho, dk, rescans = _k_nearest(
            SpatialIndex(x, self.metric, wrapped=True), self.k, 1 if narrow else _EXTRA)
        self._shape = x.shape
        if not narrow:
            self._slack = np.median(self._rho - dk)
        self._rho_min = self._rho.min()
        self._drift = 0.0
        self.rebuilds += 1
        self.rescans += rescans
        return pairs
