"""Triangle meshes: file I/O, normalization, and closest-point projection.

Meshes are plain vertex/face arrays with flat (per-face) unit normals.
Closest-point queries return the globally nearest point on the surface; when
several faces are exactly equidistant the lowest face index wins.  The batched
projector prunes faces with a centroid tree before running the exact
per-triangle test, which by construction picks the same winner, bit for bit,
as a scan over all faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "TriangleMesh",
    "MeshProjector",
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
        norms = np.sqrt((cross * cross).sum(axis=1))
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
        return 0.5 * np.sqrt((cross * cross).sum(axis=1))


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
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    i = int(tok.split("/")[0])
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
            rows.append([float(x) for x in parts])
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
    out = TriangleMesh((mesh.vertices - (lo + hi) / 2.0) / scale, mesh.faces)
    if np.any(out.face_areas <= DEGENERATE_AREA):
        raise ValueError("mesh contains degenerate faces after normalization")
    return out


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
    return (a * b).sum(axis=-1)


def _closest_on_triangles(a, b, c, p):
    """Closest point to p on each triangle (a, b, c); all inputs (m, 3)."""
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

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, value):
        mask = mask & ~done
        out[mask] = value[mask]
        done[:] |= mask

    with np.errstate(divide="ignore", invalid="ignore"):
        settle((d1 <= 0) & (d2 <= 0), a)                                    # vertex a
        settle((d3 >= 0) & (d4 <= d3), b)                                   # vertex b
        settle((d6 >= 0) & (d5 <= d6), c)                                   # vertex c
        v = (d1 / (d1 - d3))[:, None]
        settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v * ab)               # edge ab
        w = (d2 / (d2 - d6))[:, None]
        settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w * ac)               # edge ac
        u = ((d4 - d3) / ((d4 - d3) + (d5 - d6)))[:, None]
        settle((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + u * (c - b))  # edge bc
        denom = (va + vb + vc)[:, None]
        settle(~done, a + vb[:, None] / denom * ab + vc[:, None] / denom * ac)  # interior
    return out


class MeshProjector:
    """Reusable batched closest-point queries against one mesh.

    Only faces whose centroid lies within (nearest-vertex distance + the
    largest centroid-to-vertex reach) of the query can contain the winner, so
    everything else is skipped.  Surviving faces are scored exactly and the
    winner chosen by (distance, face index), matching a full scan.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        tri = mesh.vertices[mesh.faces]
        self._a = np.ascontiguousarray(tri[:, 0])
        self._b = np.ascontiguousarray(tri[:, 1])
        self._c = np.ascontiguousarray(tri[:, 2])
        centroids = tri.mean(axis=1)
        self._reach = float(np.sqrt(((tri - centroids[:, None, :]) ** 2).sum(axis=2)).max())
        self._centroid_tree = cKDTree(centroids)
        self._vertex_tree = cKDTree(mesh.vertices)

    def project(self, points):
        """Closest surface points for a batch; returns (points, faces, distances)."""
        q = np.asarray(points, dtype=float)
        if q.ndim != 2 or q.shape[1] != 3:
            raise ValueError(f"query points must have shape (n, 3), got {q.shape}")
        if q.shape[0] == 0:
            raise ValueError("cannot project an empty cloud")
        d_vert = self._vertex_tree.query(q)[0]
        radius = (d_vert + self._reach) * (1.0 + 1e-9) + 1e-12
        cand = self._centroid_tree.query_ball_point(q, radius)
        counts = np.fromiter((len(c) for c in cand), dtype=np.intp, count=len(cand))
        qid = np.repeat(np.arange(len(q)), counts)
        fid = np.concatenate([np.asarray(c, dtype=np.intp) for c in cand])

        cp = _closest_on_triangles(self._a[fid], self._b[fid], self._c[fid], q[qid])
        d2 = ((q[qid] - cp) ** 2).sum(axis=1)
        order = np.lexsort((fid, d2, qid))
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = qid[order][1:] != qid[order][:-1]
        win = order[first]
        return cp[win], fid[win], np.sqrt(d2[win])


def noise_score(cloud, mesh: TriangleMesh) -> float:
    """Mean distance from each point to its closest point on the mesh."""
    q = np.asarray(cloud, dtype=float)
    if q.size == 0:
        raise ValueError("noise score of an empty cloud is undefined")
    return float(MeshProjector(mesh).project(q)[2].mean())
