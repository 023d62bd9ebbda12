"""Triangle meshes: file I/O, normalization, and closest-point projection.

Meshes are plain vertex/face arrays with flat (per-face) unit normals.
Closest-point queries return the globally nearest point on the surface; when
several faces are exactly equidistant the lowest face index wins.  Both
`MeshProjector` and `FaceCache` return, bit for bit, what a scan over all faces
would; README.md ("Mesh projection") explains the pruning that lets them skip
most faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import TIE_GUARD, as_cloud, as_number, squared_norm

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
    face_areas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = as_cloud(self.vertices, (3,), "vertices")
        f = np.asarray(self.faces, dtype=np.intp)
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] < 1:
            raise ValueError(f"faces must have shape (m, 3) with m >= 1, got {f.shape}")
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
        areas = 0.5 * norms
        normals.setflags(write=False)
        areas.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "face_normals", normals)
        object.__setattr__(self, "face_areas", areas)


def _numbers(convert, tokens, path, ln):
    try:
        values = [convert(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{path}:{ln}: {exc}") from None
    if convert is float:
        bad = [t for t, v in zip(tokens, values) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{path}:{ln}: non-finite value {bad[0]!r}")
    return values


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
                    if not 1 <= abs(i) <= len(verts):
                        raise ValueError(f"{path}:{ln}: face index {i} names none of the "
                                         f"{len(verts)} vertices before it")
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
        np.savetxt(fh, mesh.vertices, fmt="v %.9g %.9g %.9g")
        np.savetxt(fh, mesh.faces + 1, fmt="f %d %d %d")


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
    np.savetxt(path, np.asarray(points, dtype=float), fmt="%.9g")


def normalize_mesh(mesh: TriangleMesh) -> TriangleMesh:
    """Center the bounding box at the origin and scale the longest axis to [-1, 1].

    Scaling is uniform, so aspect ratios are preserved.
    """
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    scale = ((hi - lo) / 2.0).max()
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
    subdivisions = as_number(subdivisions, "subdivisions", 0, integer=True)
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


_WIDTH = 12         # faces of the first centroid query, the table FaceCache keeps
_TINY = 1e-12       # absolute slack for distances near zero


def _certified(u, room):
    """Where a winner no farther than u is exact, ties included, given that every
    face outside the row's table lies farther than room."""
    return u * (1.0 + TIE_GUARD) + _TINY < room


class MeshProjector:
    """Reusable batched closest-point queries against one mesh.

    The winner is the (distance, face index) minimum of a full scan, found in
    a table of nearest-centroid faces wide enough for the certificate of the
    README's "Mesh projection" section.  The projector keeps no query state.
    `closest` and `distance` are `project`'s points and distances: the surface
    of a SurfaceRefiner.
    """

    def __init__(self, mesh: TriangleMesh):
        from scipy.spatial import cKDTree   # here, so commands without a mesh never load it
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
        self._offsets = _dot(normals, self._a)
        self._miss = float(max(np.abs(_dot(normals, v) - self._offsets).max()
                               for v in (self._b, self._c)))
        self._centroids = centroids.T.copy()    # one coordinate per row
        self._normals = normals.T.copy()

    def project(self, points):
        """Closest surface points for a batch; returns (points, faces, distances)."""
        return self._fresh(as_cloud(points, (3,), "query points"))[:3]

    def closest(self, points):
        return self.project(points)[0]

    def distance(self, points):
        return self.project(points)[2]

    def _query(self, q, k):
        """Each row's k nearest-centroid faces, ascending by id; returns (cand, rho, near).

        Every face outside cand has its centroid at least rho = d_k(1 - g) from
        the row (inf when cand holds every face), so it lies farther than
        rho - reach.  near is the nearest centroid's distance, which bounds the
        winner's from above: that centroid lies on its face.
        """
        d, fid = self._centroid_tree.query(q, k=k)
        d, fid = d.reshape(len(q), k), fid.reshape(len(q), k)
        if fid.max() >= self.n_faces:   # scipy's unreachable mark: squared distances overflowed
            raise ValueError("projection query failed; coordinates are too extreme")
        rho = d[:, -1] * (1.0 - TIE_GUARD) if k < self.n_faces else np.full(len(q), np.inf)
        return np.sort(fid, axis=1), rho, d[:, 0].copy()    # a view would keep all of d

    def _fresh(self, q):
        """Exact projection of every row: (points, faces, distances, tests, cand, rho).

        A row is scored once, on the first table of the widening sequence (12
        faces, then twice as many each time) that its nearest centroid
        certifies; cand and rho are the first table's, which FaceCache keeps.
        """
        out = np.empty_like(q), np.empty(len(q), dtype=np.intp), np.empty(len(q))
        rows, k, tests, first = np.arange(len(q)), min(_WIDTH, self.n_faces), 0, None
        while rows.size:
            cand, rho, near = self._query(q.take(rows, axis=0), k)
            first = first or (cand, rho)
            ok = _certified(near, rho - self._reach)
            done, cand = rows[ok], cand[ok]     # drops an unfiltered wide table before _best
            *best, more = self._best(q.take(done, axis=0), cand)
            for o, b in zip(out, best):
                o[done] = b
            tests += more
            rows, k = rows[~ok], min(2 * k, self.n_faces)
        return (*out, tests, *first)

    def _best(self, q, cand):
        """Closest point of each row's candidate faces: (points, faces, distances, tests).

        Each row's seed is the candidate with the nearest centroid; its exact
        distance u bounds the winner's from above.  A face's plane distance
        |n.q - o| bounds its own distance from below, up to _miss, the most a
        rounded plane misses its own face's vertices by (1e-16 on well-shaped
        faces, up to about 1e-10 on skinny ones).  A face whose plane lies
        beyond u, with that slack and the tie guards, can neither win nor tie,
        so only the seed and the faces it keeps get the exact test; tests
        counts them.  Rows ascend by face id, so argmin's first minimum over
        the tested columns is the (distance, face id) winner of a scan over
        them all.
        """
        rows = np.arange(len(q))
        qj = [q[:, j, None] for j in range(3)]
        c2 = sum((c.take(cand) - x) ** 2 for c, x in zip(self._centroids, qj))
        seed_col = np.argmin(c2, axis=1)
        seed_cp, seed_d2 = self._exact(cand[rows, seed_col], q)
        bound = np.sqrt(seed_d2) * (1.0 + TIE_GUARD) + _TINY + self._miss
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


class FaceCache:
    """Exact projections of moving points from the faces of their last query.

    `FaceCache(projector, points)` projects points fresh and keeps, per row,
    the query point q0 and the first table `cand` and its `rho` from
    `MeshProjector._fresh`; `entry` is that projection.  `project(rows, q)`
    returns what `projector.project(q)` returns, bit for bit: every face
    outside cand lies farther than rho - reach - |q - q0|, so the projector's
    certificate holds for a row whose best face in cand lies below that, and
    other rows are queried fresh.  `requeries` counts those, and `face_tests`
    the exact triangle tests of every `project` call.
    """

    def __init__(self, projector: MeshProjector, points):
        q = as_cloud(points, (3,), "query points")
        self.projector = projector
        self.requeries = 0
        self.face_tests = 0
        *entry, _, self._cand, self._rho = projector._fresh(q)
        self.entry = tuple(entry)
        self._q0 = q.copy()

    def project(self, rows, points):
        """Project `points`, the new positions of the cache rows `rows` (a 1-D
        integer array of row ids, one per point); returns (points, faces, distances)."""
        q = as_cloud(points, (3,), "query points")
        rows = np.asarray(rows)
        if rows.shape != (len(q),) or rows.dtype.kind not in "iu":
            raise ValueError(f"rows must be a 1-D integer array with one id per point, got "
                             f"{rows.dtype} rows of shape {rows.shape} for {len(q)} points")
        if rows.min() < 0 or rows.max() >= len(self._q0):
            raise ValueError(f"rows must lie in [0, {len(self._q0)}), got ids from "
                             f"{rows.min()} to {rows.max()}")
        with np.errstate(over="ignore"):    # an overflow leaves no room: a fresh query names it
            moved = np.sqrt(squared_norm(q - self._q0.take(rows, axis=0)))
        # from q, every face outside a row's candidates lies farther than room
        room = self._rho.take(rows) - self.projector._reach - moved
        live = np.flatnonzero(room > _TINY)     # no other row can be certified
        *best, tests = self.projector._best(q.take(live, axis=0),
                                            self._cand.take(rows[live], axis=0))
        self.face_tests += tests
        ok = np.zeros(len(q), dtype=bool)
        ok[live] = _certified(best[2], room.take(live))
        out = np.empty_like(q), np.empty(len(q), dtype=np.intp), np.empty(len(q))
        for o, b in zip(out, best):
            o[ok] = b[ok[live]]
        bad = np.flatnonzero(~ok)
        if bad.size:
            self.requeries += bad.size
            fresh_q = q.take(bad, axis=0)
            *fresh, tests, cand, rho = self.projector._fresh(fresh_q)
            self._q0[rows[bad]], self._cand[rows[bad]], self._rho[rows[bad]] = fresh_q, cand, rho
            self.face_tests += tests
            for o, b in zip(out, fresh):
                o[bad] = b
        return out


def noise_score(cloud, mesh: TriangleMesh) -> float:
    """Mean distance from each point to its closest point on the mesh."""
    return float(MeshProjector(mesh).distance(cloud).mean())
