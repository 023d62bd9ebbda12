"""Triangle meshes: file I/O, normalization, and closest-point projection.

Meshes are plain vertex/face arrays with flat (per-face) unit normals.
Closest-point queries return the globally nearest point on the surface; when
several faces are exactly equidistant the lowest face index wins.  The batched
projector prunes faces with a centroid tree, then runs the exact
per-triangle test on the nearest centroid's face and on the candidates whose
plane lies no farther than that face; by construction it picks the same
winner, bit for bit, as a scan over all faces.  `FaceCache` keeps each moving
point's candidate faces and re-queries only the rows whose answer it can no
longer certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .metrics import squared_norm

__all__ = [
    "TriangleMesh",
    "MeshProjector",
    "FaceCache",
    "load_obj",
    "save_obj",
    "read_xyz",
    "write_xyz",
    "normalize_mesh",
    "icosphere",
    "noise_score",
]

DEGENERATE_AREA = 1e-12


@dataclass(frozen=True)
class TriangleMesh:
    """Vertex positions (v, 3), triangle indices (f, 3), derived unit normals."""

    vertices: np.ndarray
    faces: np.ndarray
    face_normals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=np.intp)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must have shape (n, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] < 1:
            raise ValueError(f"faces must have shape (m, 3) with m >= 1, got {f.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertices contain non-finite coordinates")
        if f.min() < 0 or f.max() >= v.shape[0]:
            raise ValueError("face indices out of range")
        v.setflags(write=False)
        f.setflags(write=False)
        tri = v[f]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norms = np.sqrt(squared_norm(cross))
        if np.any(norms <= 2.0 * DEGENERATE_AREA):
            raise ValueError("mesh contains degenerate (zero-area) faces")
        normals = cross / norms[:, None]
        normals.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "face_normals", normals)

    @property
    def face_areas(self):
        tri = self.vertices[self.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.sqrt(squared_norm(cross))


def _numbers(convert, tokens, path, ln):
    try:
        return [convert(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{path}:{ln}: {exc}") from None


def load_obj(path) -> TriangleMesh:
    """Read the v/f subset of an OBJ file; larger polygons are fan-triangulated."""
    verts: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{ln}: vertex needs 3 coordinates")
                verts.append(_numbers(float, parts[1:4], path, ln))
            elif parts[0] == "f":
                idx = []
                for i in _numbers(int, [tok.split("/")[0] for tok in parts[1:]], path, ln):
                    if i == 0:
                        raise ValueError(f"{path}:{ln}: face index 0 is invalid")
                    idx.append(i - 1 if i > 0 else len(verts) + i)
                if len(idx) < 3:
                    raise ValueError(f"{path}:{ln}: face needs at least 3 vertices")
                for a in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[a], idx[a + 1]))
    if not verts or not faces:
        raise ValueError(f"{path}: no usable geometry (need v and f records)")
    return TriangleMesh(np.array(verts, dtype=float), np.array(faces, dtype=np.intp))


def save_obj(mesh: TriangleMesh, path):
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def read_xyz(path):
    """Read a whitespace-separated point file (2 or 3 columns, '#' comments)."""
    rows = []
    width = None
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            parts = s.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{ln}: expected 2 or 3 values, got {len(parts)}")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}:{ln}: inconsistent dimension ({len(parts)} vs {width})")
            rows.append(_numbers(float, parts, path, ln))
    if not rows:
        raise ValueError(f"{path}: no points found")
    return np.array(rows, dtype=float)


def write_xyz(points, path):
    points = np.asarray(points, dtype=float)
    with open(path, "w") as fh:
        for row in points:
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def normalize_mesh(mesh: TriangleMesh) -> TriangleMesh:
    """Center the bounding box at the origin and scale the longest axis to [-1, 1].

    Scaling is uniform, so aspect ratios are preserved.
    """
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    half = (hi - lo) / 2.0
    scale = half.max()
    if not scale > 0:
        raise ValueError("mesh has zero spatial extent")
    return TriangleMesh((mesh.vertices - (lo + hi) / 2.0) / scale, mesh.faces)


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=float)
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int = 2) -> TriangleMesh:
    """Unit sphere obtained by subdividing an icosahedron (20 * 4**s faces)."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = list(_ICO_FACES)
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.intp))


def _dot(a, b):
    # the +0.0 lead sums a row of -0.0 products to +0.0, as (a * b).sum(axis=-1) does
    return (0.0 + a[:, 0] * b[:, 0]) + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _closest_on_triangles(a, b, c, p):
    """Closest point to p on each triangle (a, b, c); all inputs (m, 3).

    Each row is classified once, into the first of Ericson's regions (Real-Time Collision
    Detection, 5.1.5) whose test it passes; only that region's formula runs on it."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = p - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = p - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    region = np.select([(d1 <= 0) & (d2 <= 0), (d3 >= 0) & (d4 <= d3), (d6 >= 0) & (d5 <= d6),
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0), (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)], range(6), 6)
    ia, ib, ic, iab, iac, ibc, iin = (np.flatnonzero(region == r) for r in range(7))
    out = np.empty_like(p)
    out[ia], out[ib], out[ic] = a.take(ia, axis=0), b.take(ib, axis=0), c.take(ic, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = d1[iab] / (d1[iab] - d3[iab])
        out[iab] = a.take(iab, axis=0) + v[:, None] * ab.take(iab, axis=0)
        w = d2[iac] / (d2[iac] - d6[iac])
        out[iac] = a.take(iac, axis=0) + w[:, None] * ac.take(iac, axis=0)
        u = (d4[ibc] - d3[ibc]) / ((d4[ibc] - d3[ibc]) + (d5[ibc] - d6[ibc]))
        out[ibc] = b.take(ibc, axis=0) + u[:, None] * (c.take(ibc, axis=0) - b.take(ibc, axis=0))
        denom = (va[iin] + vb[iin] + vc[iin])[:, None]
        out[iin] = (a.take(iin, axis=0) + vb[iin, None] / denom * ab.take(iin, axis=0)
                    + vc[iin, None] / denom * ac.take(iin, axis=0))
    return out


def _as_queries(points):
    q = np.asarray(points, dtype=float)
    if q.ndim != 2 or q.shape[1] != 3:
        raise ValueError(f"query points must have shape (n, 3), got {q.shape}")
    if q.shape[0] == 0:
        raise ValueError("cannot project an empty cloud")
    if not np.isfinite(q).all():
        raise ValueError("query points contain non-finite coordinates")
    return q


_WIDTH = 12         # candidate faces per query before a row is re-queried wider
_TIE_GUARD = 1e-9   # relative slack absorbing tree/re-score rounding differences
_TINY = 1e-12       # absolute slack for distances near zero


class MeshProjector:
    """Reusable batched closest-point queries against one mesh.

    The nearest face centroid lies on its face, so the winner is no farther
    than that, and only faces whose centroid lies within r = (nearest-centroid
    distance + the largest centroid-to-vertex reach) of the query can contain
    it; everything else is skipped.  Of the surviving faces, the one with
    the nearest centroid is scored exactly first, and then only those whose
    plane lies within its distance; the winner is chosen by (distance, face
    index), matching a full scan.  The projector keeps no query state;
    `FaceCache` reuses a query's candidates for points that move.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        tri = mesh.vertices[mesh.faces]
        self.n_faces = len(tri)
        self._a = np.ascontiguousarray(tri[:, 0])
        self._b = np.ascontiguousarray(tri[:, 1])
        self._c = np.ascontiguousarray(tri[:, 2])
        centroids = tri.mean(axis=1)
        self._reach = float(np.sqrt(squared_norm(tri - centroids[:, None, :])).max())
        self._centroid_tree = cKDTree(centroids)
        normals = mesh.face_normals
        offsets = _dot(normals, self._a)
        self._miss = float(max(np.abs(_dot(normals, v) - offsets).max()
                               for v in (self._b, self._c)))
        # one coordinate per row; pad face n_faces has an infinite centroid and
        # offset and a zero normal, so pad columns read infinite distance and bound
        self._centroids = np.vstack([centroids, np.full(3, np.inf)]).T.copy()
        self._normals = np.vstack([normals, np.zeros(3)]).T.copy()
        self._offsets = np.append(offsets, np.inf)

    def project(self, points):
        """Closest surface points for a batch; returns (points, faces, distances)."""
        q = _as_queries(points)
        return self._best_of(q, self._candidates(q)[0])[:3]

    def _candidates(self, q):
        """Every face that can hold each query's closest point; returns (groups, r).

        r is each row's radius; groups is a list of (rows, cand), where cand
        holds each row's faces with a centroid within r, ascending by id and
        padded with n_faces.  The first group covers every row, _WIDTH wide.
        Rows that come back full are queried again, twice as wide, in the
        next group; a row is complete in the last group that holds it.
        """
        nf = self.n_faces
        k = min(_WIDTH, nf)
        rows = np.arange(len(q))
        d, fid = self._centroid_tree.query(q, k=k)
        d, fid = d.reshape(len(q), k), fid.reshape(len(q), k)
        r = (d[:, 0] + self._reach) * (1.0 + _TIE_GUARD) + _TINY
        groups = []
        while True:
            if fid.max() >= nf:     # scipy's unreachable mark: squared distances overflowed
                raise ValueError("projection query failed; coordinates are too extreme")
            inside = d <= r.take(rows)[:, None]
            groups.append((rows, np.sort(np.where(inside, fid, nf), axis=1)))
            full = inside[:, -1] & (k < nf)
            if not full.any():
                return groups, r
            rows = rows[full]
            k = min(2 * k, nf)
            d, fid = self._centroid_tree.query(q.take(rows, axis=0), k=k)

    def _best(self, q, cand):
        """Closest point of each row's candidate faces: (points, faces, distances, tests).

        Each row's seed is the candidate with the nearest centroid; its exact
        distance u bounds the winner's from above.  A face's plane distance
        |n.q - o| bounds its own distance from below, up to _miss, the most a
        rounded plane misses its own face's vertices by (1e-16 on well-shaped
        faces, up to about 1e-10 on skinny ones).  A face whose plane lies
        beyond u, with that slack and the tie guards, can neither win nor tie,
        so only the seed and the faces it keeps get the exact test; tests
        counts them.  Rows ascend by face id with the pads last, so argmin's
        first minimum over the tested columns is the (distance, face id)
        winner of a scan over them all.
        """
        rows = np.arange(len(q))
        qj = [q[:, j, None] for j in range(3)]
        c2 = sum((c.take(cand) - x) ** 2 for c, x in zip(self._centroids, qj))
        seed_col = np.argmin(c2, axis=1)
        seed_cp, seed_d2 = self._exact(cand[rows, seed_col], q)
        bound = np.sqrt(seed_d2) * (1.0 + _TIE_GUARD) + _TINY + self._miss
        nx, ny, nz = (n.take(cand) for n in self._normals)
        plane = np.abs((0.0 + nx * qj[0]) + ny * qj[1] + nz * qj[2] - self._offsets.take(cand))
        keep = plane <= bound[:, None]
        keep[rows, seed_col] = False
        kr, kc = np.nonzero(keep)
        cp, kept_d2 = self._exact(cand[kr, kc], q.take(kr, axis=0))
        d2 = np.full(cand.shape, np.inf)
        d2[rows, seed_col], d2[kr, kc] = seed_d2, kept_d2
        pts = np.empty(cand.shape + (3,))
        pts[rows, seed_col], pts[kr, kc] = seed_cp, cp
        col = np.argmin(d2, axis=1)
        return pts[rows, col], cand[rows, col], np.sqrt(d2[rows, col]), len(q) + len(kr)

    def _exact(self, fid, p):
        """Closest points of faces fid to the rows of p, and their squared distances."""
        # take() gathers rows several times faster than fancy indexing, same values
        cp = _closest_on_triangles(self._a.take(fid, axis=0), self._b.take(fid, axis=0),
                                   self._c.take(fid, axis=0), p)
        return cp, squared_norm(p - cp)

    def _best_of(self, q, groups):
        pts, faces, dist, tests = self._best(q, groups[0][1])
        for rows, cand in groups[1:]:
            pts[rows], faces[rows], dist[rows], more = self._best(q.take(rows, axis=0), cand)
            tests += more
        return pts, faces, dist, tests


class FaceCache:
    """Exact projections of moving points from the candidates of their last query.

    `FaceCache(projector, points)` runs the projector's fresh query on points
    and keeps, per row, the query point q0, its candidate faces and radius r;
    `entry` is that projection.  `project(rows, q)` returns what
    `projector.project(q)` returns, bit for bit.  A face outside a row's
    candidates has its centroid farther than r from q0, so from q every
    point of it lies farther than r - reach - |q - q0|: the mesh does not
    move, only the query does.  A row whose best candidate lies, with the tie
    guard, below that bound is exact, ties included.  Other rows, and rows
    whose candidates did not fit _WIDTH columns (kept with r = -inf), are
    queried fresh and their entries replaced; `requeries` counts them, and
    `face_tests` the exact triangle tests of every `project` call.
    """

    def __init__(self, projector: MeshProjector, points):
        q = _as_queries(points)
        self.projector = projector
        self.requeries = 0
        self.face_tests = 0
        self._q0 = np.empty_like(q)
        self._cand = np.empty((len(q), min(_WIDTH, projector.n_faces)), dtype=np.intp)
        self._r = np.empty(len(q))
        self.entry = self._fresh(np.arange(len(q)), q)[:3]

    def _fresh(self, rows, q):
        groups, r = self.projector._candidates(q)
        if len(groups) > 1:
            r[groups[1][0]] = -np.inf       # these rows did not fit the table
        self._q0[rows] = q
        self._cand[rows] = groups[0][1]
        self._r[rows] = r
        return self.projector._best_of(q, groups)

    def project(self, rows, points):
        """Project `points`, the new positions of the cache rows `rows` (an
        integer array); returns (points, faces, distances)."""
        q = _as_queries(points)
        with np.errstate(over="ignore"):    # an overflow leaves no room: a fresh query names it
            moved = np.sqrt(squared_norm(q - self._q0.take(rows, axis=0)))
        # from q, every face outside a row's candidates lies farther than room
        room = self._r.take(rows) - self.projector._reach - moved
        live = np.flatnonzero(room > _TINY)     # no other row can be certified
        *best, tests = self.projector._best(q.take(live, axis=0),
                                            self._cand.take(rows[live], axis=0))
        self.face_tests += tests
        ok = np.zeros(len(q), dtype=bool)
        ok[live] = best[2] * (1.0 + _TIE_GUARD) + _TINY < room.take(live)
        out = np.empty_like(q), np.empty(len(q), dtype=np.intp), np.empty(len(q))
        for o, b in zip(out, best):
            o[ok] = b[ok[live]]
        bad = np.flatnonzero(~ok)
        if bad.size:
            self.requeries += bad.size
            *fresh, tests = self._fresh(rows[bad], q.take(bad, axis=0))
            self.face_tests += tests
            for o, b in zip(out, fresh):
                o[bad] = b
        return out


def noise_score(cloud, mesh: TriangleMesh) -> float:
    """Mean distance from each point to its closest point on the mesh."""
    q = np.asarray(cloud, dtype=float)
    if q.size == 0:
        raise ValueError("noise score of an empty cloud is undefined")
    return float(MeshProjector(mesh).project(q)[2].mean())
