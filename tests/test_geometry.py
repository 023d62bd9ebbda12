"""Meshes, closest-point projection, and file round-trips."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ljlayer.geometry import (
    DEGENERATE_AREA,
    FaceCache,
    MeshProjector,
    TriangleMesh,
    _TINY,
    _certified,
    _closest_on_triangles,
    _dot,
    icosphere,
    load_obj,
    noise_score,
    normalize_mesh,
    read_xyz,
    save_obj,
    write_xyz,
)
from ljlayer.metrics import TIE_GUARD, squared_norm


def closest_on_triangle_reference(a, b, c, p):
    """Independent oracle: orthogonal plane projection, else best clamped edge."""
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n)
    foot = p - (p - a) @ n * n
    # barycentric test for the plane foot
    m = np.array([b - a, c - a]).T
    uv, *_ = np.linalg.lstsq(m, foot - a, rcond=None)
    if uv[0] >= 0 and uv[1] >= 0 and uv.sum() <= 1:
        return foot
    best, best_d = None, np.inf
    for s, e in ((a, b), (b, c), (c, a)):
        t = np.clip((p - s) @ (e - s) / ((e - s) @ (e - s)), 0.0, 1.0)
        q = s + t * (e - s)
        d = np.linalg.norm(p - q)
        if d < best_d:
            best, best_d = q, d
    return best


def brute_project(mesh, points):
    """Full scan with the same (distance, face index) tie rule as the projector."""
    tri = mesh.vertices[mesh.faces]
    pts = np.empty_like(points)
    fids = np.empty(len(points), dtype=np.intp)
    dists = np.empty(len(points))
    for i, p in enumerate(points):
        cand = np.array([closest_on_triangle_reference(t[0], t[1], t[2], p) for t in tri])
        d = np.linalg.norm(cand - p, axis=1)
        j = int(np.argmin(d))  # argmin returns the first (lowest) face on ties
        pts[i], fids[i], dists[i] = cand[j], j, d[j]
    return pts, fids, dists


# ------------------------------------------------------------- TriangleMesh

def test_mesh_normals_are_unit_and_consistent():
    m = icosphere(1)
    lengths = np.linalg.norm(m.face_normals, axis=1)
    np.testing.assert_allclose(lengths, 1.0, atol=1e-12)
    centroids = m.vertices[m.faces].mean(axis=1)
    assert ((centroids * m.face_normals).sum(axis=1) > 0).all()  # outward


def test_mesh_validation():
    v = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    with pytest.raises(ValueError):
        TriangleMesh(v, np.array([[0, 1, 3]]))  # index out of range
    with pytest.raises(ValueError):
        TriangleMesh(v, np.array([[0, 1, 1]]))  # degenerate face
    with pytest.raises(ValueError):
        TriangleMesh(np.array([[0.0, np.nan, 0], [1, 0, 0], [0, 1, 0]]),
                     np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        TriangleMesh(v[:, :2], np.array([[0, 1, 2]]))
    for faces in (np.array([[0, 1, 2, 0]]), np.array([0, 1, 2]), np.empty((0, 3), dtype=int)):
        with pytest.raises(ValueError, match=r"faces must have shape \(m, 3\) with m >= 1"):
            TriangleMesh(v, faces)


def test_mesh_arrays_are_frozen():
    m = icosphere(0)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.faces[0, 0] = 0
    with pytest.raises(ValueError):
        m.face_areas[0] = 1.0


def test_face_areas_of_unit_right_triangle():
    m = TriangleMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
                     np.array([[0, 1, 2]]))
    np.testing.assert_allclose(m.face_areas, [0.5])


# ---------------------------------------------------------------- icosphere

def test_icosphere_counts_and_radius():
    for s in (0, 1, 2, 3):
        m = icosphere(s)
        assert len(m.faces) == 20 * 4**s
        assert len(m.vertices) == 10 * 4**s + 2
        np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-12)


def test_icosphere_area_approaches_sphere():
    m = icosphere(3)
    assert m.face_areas.sum() == pytest.approx(4 * np.pi, rel=0.01)


def test_icosphere_rejects_negative_subdivisions():
    with pytest.raises(ValueError):
        icosphere(-1)


# --------------------------------------------------------------- projection

def test_plane_interior_projection():
    m = TriangleMesh(np.array([[-5.0, -5, 0], [5.0, -5, 0], [0.0, 5, 0]]),
                     np.array([[0, 1, 2]]))
    pts, fids, dists = MeshProjector(m).project([[0.3, -1.2, 2.5]])
    np.testing.assert_allclose(pts[0], [0.3, -1.2, 0.0], atol=1e-12)
    assert dists[0] == pytest.approx(2.5)
    assert fids[0] == 0


def test_vertex_and_edge_regions():
    tri = TriangleMesh(np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0]]),
                       np.array([[0, 1, 2]]))
    pts = MeshProjector(tri).project([[-1.0, -1.0, 1.0], [1.0, -3.0, 0.0], [3.0, 3.0, 0.0]])[0]
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 0.0], atol=1e-12)  # vertex a
    np.testing.assert_allclose(pts[1], [1.0, 0.0, 0.0], atol=1e-12)  # edge ab
    np.testing.assert_allclose(pts[2], [1.0, 1.0, 0.0], atol=1e-12)  # edge bc


def test_projection_matches_reference_scan():
    mesh = icosphere(2)
    rng = np.random.default_rng(4)
    q = np.vstack([
        rng.uniform(-2, 2, (40, 3)),        # around and inside the sphere
        rng.uniform(-0.2, 0.2, (10, 3)),    # deep inside
        rng.uniform(-9, 9, (10, 3)),        # far away
    ])
    pts, fids, dists = MeshProjector(mesh).project(q)
    ref_pts, ref_fids, ref_dists = brute_project(mesh, q)
    np.testing.assert_allclose(pts, ref_pts, atol=1e-9)
    np.testing.assert_allclose(dists, ref_dists, atol=1e-9)
    # face ids are only comparable where the optimum is not on a shared
    # edge or vertex; there the winner depends on rounding, not correctness
    interior = np.linalg.norm(pts - ref_pts, axis=1) < 1e-12
    clear = np.abs(dists - ref_dists) < 1e-12
    decisive = interior & clear & (fids == ref_fids)
    assert decisive.sum() >= len(q) * 0.7


def certified_at(proj, q, k):
    """Rows that the table of their k nearest centroids certifies, before any scoring."""
    _, rho, near = proj._query(q, k)
    return _certified(near, rho - proj._reach)


def test_pruned_projection_equals_full_scan_bitwise():
    # same arithmetic with pruning disabled must give identical output,
    # including ties resolved by face index.  Queries far out or deep inside
    # are not certified by the first table and are re-queried wider; the
    # center of icosphere(3) is certified only by the table of all 1280 faces.
    rng = np.random.default_rng(5)
    q2 = np.vstack([rng.uniform(-2, 2, (30, 3)), rng.uniform(-0.1, 0.1, (5, 3))])
    q2 = np.vstack([q2, rng.uniform(-3, 3, (20, 3))])
    for mesh, q in ((icosphere(2), q2), (icosphere(3), np.zeros((1, 3)))):
        proj = MeshProjector(mesh)
        assert not certified_at(proj, q, 12).all()       # the widening path ran
        pts, fids, dists = proj.project(q)
        tri = mesh.vertices[mesh.faces]
        nf = len(mesh.faces)
        for i, p in enumerate(q):
            cp = _closest_on_triangles(tri[:, 0], tri[:, 1], tri[:, 2],
                                       np.broadcast_to(p, (nf, 3)))
            d2 = ((p - cp) ** 2).sum(axis=1)
            order = np.lexsort((np.arange(nf), d2))
            j = order[0]
            assert fids[i] == j
            np.testing.assert_array_equal(pts[i], cp[j])
            assert dists[i] == np.sqrt(d2[j])
        # the independent oracle may break a tie (the center of the sphere has
        # many) for another face; its distance must agree all the same
        ref_pts, ref_fids, ref_dists = brute_project(mesh, q)
        np.testing.assert_allclose(dists, ref_dists, atol=1e-9)
        same = fids == ref_fids
        np.testing.assert_allclose(pts[same], ref_pts[same], atol=1e-9)
    assert not any(certified_at(proj, q, k)[0] for k in (12, 24, 48, 96, 192, 384, 768))
    assert certified_at(proj, q, nf)[0]


_COORDS = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from([0.0, -0.0, 5e-324])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[_COORDS] * 6), min_size=1, max_size=20))
@example(rows=[(-0.0, 1.0, 2.0, 1.0, -0.0, -0.0)])     # every product is -0.0
@example(rows=[(0.0, -0.0, 1.0, -3.0, 2.0, -0.0), (-0.0, -0.0, -0.0, -0.0, -0.0, -0.0)])
def test_dot_equals_the_axis_reduction(rows):
    # numpy's axis sum turns a row of -0.0 products into +0.0; a per-component
    # sum must do the same and add in the same order
    x = np.array(rows).reshape(-1, 2, 3)
    a, b = x[:, 0], x[:, 1]
    expected = (a * b).sum(axis=-1)
    got = _dot(a, b)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def ericson_closest(a, b, c, p):
    """Closest point on one triangle in plain Python floats, and its region.

    A row-by-row transcription of Ericson, Real-Time Collision Detection
    (2005), 5.1.5: the first region whose test holds, in the order vertex a,
    b, c, edge ab, ac, bc, else the interior.  The dots lead with +0.0, as the
    vectorised test's do, so both should agree to the bit.
    """
    def dot(u, v):
        return (0.0 + u[0] * v[0]) + u[1] * v[1] + u[2] * v[2]

    def sub(u, v):
        return [x - y for x, y in zip(u, v)]

    def along(s, t, e):
        return [x + t * y for x, y in zip(s, e)]

    ab, ac, ap, bp, cp = sub(b, a), sub(c, a), sub(p, a), sub(p, b), sub(p, c)
    d1, d2, d3 = dot(ab, ap), dot(ac, ap), dot(ab, bp)
    d4, d5, d6 = dot(ac, bp), dot(ab, cp), dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    if d1 <= 0 and d2 <= 0:
        return list(a), 0
    elif d3 >= 0 and d4 <= d3:
        return list(b), 1
    elif d6 >= 0 and d5 <= d6:
        return list(c), 2
    elif vc <= 0 and d1 >= 0 and d3 <= 0:
        return along(a, d1 / (d1 - d3), ab), 3
    elif vb <= 0 and d2 >= 0 and d6 <= 0:
        return along(a, d2 / (d2 - d6), ac), 4
    elif va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        return along(b, (d4 - d3) / ((d4 - d3) + (d5 - d6)), sub(c, b)), 5
    denom = va + vb + vc
    return [x + vb / denom * y + vc / denom * z for x, y, z in zip(a, ab, ac)], 6


def _signed_zeros(rng, x, share):
    """x with about `share` of its entries replaced by +0.0 or -0.0."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice([0.0, -0.0], hit.sum())
    return x


@settings(max_examples=150, deadline=None)
@given(planar=st.booleans(), share=st.sampled_from([0.0, 0.2, 0.5]),
       scale=st.integers(-6, 6), seed=st.integers(0, 2**32 - 1))
@example(planar=True, share=0.5, scale=0, seed=0)
def test_closest_on_triangles_equals_ericson_row_by_row(planar, share, scale, seed):
    # each triangle gets one point in every region: past each vertex along its
    # outer bisector, past the middle of each edge, and over the interior,
    # plus the vertices themselves.  "planar" puts the triangle in z = +-0.0,
    # so signed-zero products reach every dot
    rng = np.random.default_rng(seed)
    a, b, c, p = [], [], [], []
    for _ in range(4):
        t = _signed_zeros(rng, rng.standard_normal((3, 3)) * 10.0**scale, share)
        if planar:
            t[:, 2] = rng.choice([0.0, -0.0], 3)
        n = np.cross(t[1] - t[0], t[2] - t[0])
        if np.linalg.norm(n) <= 1e-3 * 100.0**scale:
            continue                                    # keep the triangles non-degenerate
        n /= np.linalg.norm(n)
        unit = [(t[(i + 1) % 3] - t[i]) / np.linalg.norm(t[(i + 1) % 3] - t[i]) for i in range(3)]
        out = [unit[i - 1] - unit[i] for i in range(3)]             # outer bisector at vertex i
        mids = [(t[i] + t[(i + 1) % 3]) / 2 for i in range(3)]
        edge_out = [np.cross(unit[i], n) for i in range(3)]          # away from the triangle
        size = 10.0**scale * rng.uniform(0.1, 2.0, 7)
        lift = 10.0**scale * rng.uniform(-1.0, 1.0, 7) * (not planar)
        u, v = rng.dirichlet([1, 1, 1], 1)[0][:2]
        pts = [t[i] + size[i] * out[i] for i in range(3)]
        pts += [mids[i] + size[3 + i] * edge_out[i] for i in range(3)]
        pts += [t[0] + u * (t[1] - t[0]) + v * (t[2] - t[0])]
        pts = [q + h * n for q, h in zip(pts, lift)] + list(t)
        if planar:
            for q in pts:
                q[2] = rng.choice([0.0, -0.0])
        pts = _signed_zeros(rng, np.array(pts), share / 4)
        a += [t[0]] * len(pts)
        b += [t[1]] * len(pts)
        c += [t[2]] * len(pts)
        p += list(pts)
    if not p:
        return
    a, b, c, p = (np.array(x) for x in (a, b, c, p))
    got = _closest_on_triangles(a, b, c, p)
    want, regions = zip(*(ericson_closest(*(x.tolist() for x in row)) for row in zip(a, b, c, p)))
    assert got.tobytes() == np.array(want).tobytes()
    if share == 0.0:
        assert set(regions) == set(range(7))             # every region was exercised


# a tent of two faces sharing the ridge x = 0, z = 1 (and two skirts);
# points with x = 0 are exactly equidistant from faces 0 and 1
TENT = TriangleMesh(np.array([[0.0, 0, 1], [0.0, 2, 1], [1.0, 0, 0], [1.0, 2, 0],
                              [-1.0, 0, 0], [-1.0, 2, 0]]),
                    np.array([[0, 1, 2], [0, 1, 4], [1, 2, 3], [1, 4, 5]]))


def test_projection_tie_takes_lowest_face():
    # points on the tent's symmetry plane are equidistant from both roof
    # faces, so face 0 must win
    pts, fids, _ = MeshProjector(TENT).project([[0.0, 1.0, 3.0]])
    assert fids[0] == 0
    np.testing.assert_allclose(pts[0], [0.0, 1.0, 1.0], atol=1e-12)


TRIANGLE = TriangleMesh(np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0]]), np.array([[0, 1, 2]]))
SPHERE = icosphere(2)


def _slab():
    """18 small triangles at z = 1.2 over one long, slightly tilted triangle.

    Near the bounding box's center the small faces, 0.85 above, hold the
    nearest centroids, but the long face passes 0.45 below while its
    centroid lies 3 away; its reach puts every face in the row, more than
    the first table holds.
    """
    g = np.linspace(-0.15, 0.15, 4)
    top = np.array([[x, y, 1.2] for y in g for x in g])
    quads = [(4 * j + i, 4 * j + i + 1, 4 * j + i + 5, 4 * j + i + 4)
             for j in range(3) for i in range(3)]
    faces = [f for a, b, c, d in quads for f in ((a, b, c), (a, c, d))]
    long_face = np.array([[-9.0, -1, -0.5], [-9.0, 1, -0.5], [9.0, 0, 0.3]])
    return TriangleMesh(np.vstack([top, long_face]), np.array(faces + [[16, 17, 18]]))


SLAB = _slab()


@settings(max_examples=100, deadline=None)
@given(mesh=st.sampled_from(["sphere", "tent", "triangle", "slab", "fan", "lean"]),
       kind=st.sampled_from(["surface", "around", "center", "ridge"]),
       n=st.integers(1, 40),
       scales=st.lists(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.02, 0.1, 0.2, 0.5, 3.0]),
                       min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(mesh="sphere", kind="surface", n=20, scales=[0.2], seed=0)
@example(mesh="sphere", kind="center", n=5, scales=[1e-3, 0.5], seed=0)
@example(mesh="slab", kind="center", n=6, scales=[0.0, 1e-6], seed=0)
@example(mesh="tent", kind="ridge", n=8, scales=[0.02, 0.1], seed=1)
@example(mesh="sphere", kind="surface", n=40, scales=[0.1], seed=11)
def test_face_cache_matches_a_fresh_projection_after_drifts(mesh, kind, n, scales, seed):
    # "around" reaches the vertex and edge regions of each triangle; "center"
    # starts deep inside the sphere or under the slab's small faces, where
    # rows outgrow the first table; "ridge" keeps x = 0, so the two roof faces
    # of the tent and of the lean roof tie exactly; the fan's faces are about
    # 1e6 times longer than wide; drifts near the size of a face leave the
    # certified region of some rows and not of others.  In the last example
    # one certified row's winner has its centroid farther from where the row
    # started than the nearest centroid plus reach, but within its 12-face table
    m = MESHES[mesh]
    proj = MeshProjector(m)
    rng = np.random.default_rng(seed)
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    if kind == "surface":
        q = proj.project(rng.uniform(lo - 0.5, hi + 0.5, (n, 3)))[0]
    elif kind == "center":
        q = (lo + hi) / 2 + rng.uniform(-0.05, 0.05, (n, 3))
    else:
        q = rng.uniform(lo - 1.0, hi + 1.0, (n, 3))
    ridge = kind == "ridge"
    if ridge:
        q[:, 0] = 0.0

    def check(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    cache = FaceCache(proj, q)
    check(cache.entry, proj.project(q))
    for scale in scales:
        rows = np.flatnonzero(rng.random(n) < 0.7)
        if rows.size == 0:
            rows = np.array([rng.integers(n)])
        step = scale * rng.standard_normal((rows.size, 3))
        if ridge:
            step[:, 0] = 0.0
        q[rows] += step
        check(cache.project(rows, q[rows]), proj.project(q[rows]))


def _fan():
    """Eight skinny triangles, about 1 long and 1e-6 wide, fanned around one
    vertex along a direction off the axes, and folded so that neighbors tilt
    against each other: their rounded planes miss their own far vertices by
    about 4e-11, far more than a well-shaped face's 1e-16."""
    d = np.array([0.48, -0.62, 0.37])
    d /= np.linalg.norm(d)
    e = np.array([0.2, 0.9, -0.3]) - np.dot([0.2, 0.9, -0.3], d) * d
    e /= np.linalg.norm(e)
    i = np.arange(9)[:, None]
    apex = np.array([0.31, -0.17, 0.05])
    rim = apex + np.where(i % 2, 0.55, 1.0) * (d + 1e-6 * i * e + 0.5e-6 * (i % 2) * np.cross(d, e))
    return TriangleMesh(np.vstack([apex, rim]), np.array([[0, j, j + 1] for j in range(1, 9)]))


FAN = _fan()
# two roof faces on the planes x + z = 1 and -x + z = 1, so points with x = 0
# are equidistant from both, as on TENT; but face 0 is the larger, with the
# farther centroid, so face 1 seeds the rows that face 0 wins on the tie
LEAN = TriangleMesh(np.array([[0.0, 0, 1], [0.0, 4, 1], [2.0, 0, -1], [-1.0, 0, 0]]),
                    np.array([[0, 1, 2], [0, 1, 3]]))
MESHES = {"sphere": SPHERE, "tent": TENT, "triangle": TRIANGLE, "slab": SLAB, "fan": FAN,
          "lean": LEAN}


def test_plane_slack_covers_skinny_faces():
    # the fan's faces are valid, about 1e6 times longer than they are wide,
    # and their rounded planes miss their own vertices by far more than _TINY
    tri = FAN.vertices[FAN.faces]
    longest = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2).max(axis=1)
    aspect = longest ** 2 / (2 * FAN.face_areas)       # longest edge over its height
    assert (FAN.face_areas > DEGENERATE_AREA).all()
    assert (aspect > 5e5).all() and (aspect < 2e6).all()
    assert MeshProjector(FAN)._miss > 1e-11 > 1e-15 > MeshProjector(SPHERE)._miss


def unpruned_best(proj, q, cand):
    """Every candidate column through the exact test; the (distance, id) winner."""
    out = np.empty_like(q), np.empty(len(q), dtype=np.intp), np.empty(len(q))
    for i, (p, ids) in enumerate(zip(q, cand)):
        cp = _closest_on_triangles(proj._a[ids], proj._b[ids], proj._c[ids],
                                   np.broadcast_to(p, (len(ids), 3)))
        d2 = squared_norm(p - cp)
        j = np.lexsort((ids, d2))[0]
        out[0][i], out[1][i], out[2][i] = cp[j], ids[j], np.sqrt(d2[j])
    return out


@settings(max_examples=150, deadline=None)
@given(mesh=st.sampled_from(sorted(MESHES)), kind=st.sampled_from(["surface", "inside", "far"]),
       scale=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1, 3.0]),
       ridge=st.booleans(), cached=st.booleans(), n=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
@example(mesh="fan", kind="surface", scale=0.0, ridge=False, cached=False, n=30, seed=1)
@example(mesh="fan", kind="surface", scale=1e-12, ridge=False, cached=True, n=30, seed=1)
@example(mesh="tent", kind="surface", scale=0.1, ridge=True, cached=True, n=20, seed=2)
@example(mesh="lean", kind="surface", scale=0.0, ridge=True, cached=False, n=5, seed=0)
@example(mesh="sphere", kind="far", scale=0.0, ridge=False, cached=False, n=10, seed=3)
def test_pruned_best_equals_an_unpruned_scan(mesh, kind, scale, ridge, cached, n, seed):
    # "surface" moves projected points by scale in a random direction and
    # "inside" starts near the bounding box's center, where rows outgrow the
    # first table; "far" lies 1e3 to 1e6 out.  Each row is scored against the
    # table of every width its query may reach, 12 faces up to all.  cached scores the
    # moved points against the candidates of where they started, as FaceCache
    # does, so the seed need not be near them; ridge puts x = 0, where the
    # tent's roof faces tie exactly, and so do the lean roof's.  On the fan,
    # a bound without the plane slack _miss prunes faces that win (the first
    # example); on the lean roof, one without the tie guards does
    m = MESHES[mesh]
    proj = MeshProjector(m)
    rng = np.random.default_rng(seed)
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    if kind == "surface":
        q0 = proj.project(rng.uniform(lo - 0.5, hi + 0.5, (n, 3)))[0]
        q = q0 + scale * direction
    elif kind == "inside":
        q0 = q = (lo + hi) / 2 + 0.05 * (hi - lo) * rng.uniform(-1, 1, (n, 3))
    else:
        q0 = q = direction * 10.0 ** rng.uniform(3, 6, (n, 1))
    if ridge:
        q[:, 0] = 0.0
    for k in sorted({min(12 * 2 ** i, proj.n_faces) for i in range(6)}):
        cand = proj._query(q0 if cached else q, k)[0]
        got = proj._best(q, cand)
        for g, w in zip(got, unpruned_best(proj, q, cand)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert n <= got[3] <= cand.size


def test_plane_bound_prunes_most_candidates():
    # points on icosphere(3) that moved by 1e-3 keep their last query's table,
    # as in FaceCache, and need fewer than 2 exact tests each of its 12 faces
    proj = MeshProjector(icosphere(3))
    rng = np.random.default_rng(12)
    q0 = proj.project(rng.uniform(-1, 1, (2000, 3)))[0]
    step = rng.standard_normal(q0.shape)
    q = q0 + 1e-3 * step / np.linalg.norm(step, axis=1)[:, None]
    cand = proj._query(q0, 12)[0]
    tests = proj._best(q, cand)[3]
    assert tests < 2 * len(q) and cand.shape == (len(q), 12)


def test_face_tests_count_one_per_scored_row_on_one_face():
    # one face: every scored row tests its seed and nothing else, so the count
    # is the rows scored; the table holds every face, so rho is infinite and
    # no move, however far, re-queries a row
    q = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 1.0], [1.0, 0.2, -0.5], [0.1, 0.1, 0.1]])
    cache = FaceCache(MeshProjector(TRIANGLE), q)
    assert cache.face_tests == 0        # the entry projection is not counted
    cache.project(np.array([0, 1, 2, 3]), q)        # nothing moved: all certified
    assert cache.requeries == 0 and cache.face_tests == 4
    cache.project(np.array([1, 3]), q[[1, 3]] + [0.0, 0.0, 5.0])
    assert cache.requeries == 0 and cache.face_tests == 6
    cache.project(np.array([0]), q[[0]] + [0.0, 0.0, 0.2])
    assert cache.requeries == 0 and cache.face_tests == 7


def test_face_tests_count_one_per_scored_row_at_face_centroids():
    # on icosphere(1) (80 faces) a point at a face's centroid, or 0.2 inside
    # it along the normal, lies nearer that face's plane than any other, so
    # every scored row tests its seed and nothing else; a row that fails its
    # certificate is tested twice.  rho - reach is about 0.3 at a centroid.
    mesh = icosphere(1)
    proj = MeshProjector(mesh)
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    q = centroids[:4]
    cache = FaceCache(proj, q)
    assert cache.face_tests == 0
    cache.project(np.array([0, 1, 2, 3]), q)        # nothing moved: all certified
    assert cache.requeries == 0 and cache.face_tests == 4
    far = [np.argmax(squared_norm(centroids - p)) for p in q[[1, 3]]]
    cache.project(np.array([1, 3]), centroids[far])     # moved 1.87 or more: beyond every room
    assert cache.requeries == 2 and cache.face_tests == 6
    inside = q[[0]] - 0.2 * mesh.face_normals[[0]]      # room 0.09 < 0.2: scored, then fresh
    cache.project(np.array([0]), inside)
    assert cache.requeries == 3 and cache.face_tests == 8


@pytest.mark.parametrize("mesh, size, one_test", [("sphere", 0.02, True), ("tent", 0.02, True),
                                                  ("fan", 0.02, False), ("fan", 2e-7, True)])
def test_face_cache_matches_a_fresh_projection_over_a_long_decaying_run(mesh, size, one_test):
    # steps shrink by 0.9 each time, as redistribute_on_mesh's do, so rows come
    # to be projected by their last winner's test alone, except on the fan with
    # steps far wider than its faces (1e6 times longer than wide): 2e-7 keeps
    # its points within a face's width.  The tent's points keep x = 0, where its
    # two roof faces tie exactly.  On the fan, a certificate that took a tested
    # face's distance for a bound on it would return a wrong face
    m = MESHES[mesh]
    proj = MeshProjector(m)
    rng = np.random.default_rng(5)
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    q = proj.project(rng.uniform(lo - 0.2, hi + 0.2, (60, 3)))[0]
    ridge = np.array([mesh != "tent", True, True])
    q *= ridge
    cache = FaceCache(proj, q)
    for t in range(40):
        rows = np.flatnonzero(rng.random(len(q)) < 0.7)
        q[rows] += size * 0.9 ** t * rng.standard_normal((rows.size, 3)) * ridge
        for g, w in zip(cache.project(rows, q[rows]), proj.project(q[rows])):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert np.isfinite(cache._lb).any() == one_test     # rows were certified one test each


def test_settled_rows_take_about_one_triangle_test_each():
    # on icosphere(3) (edges about 0.15 long), once points drift by 1e-4 a step
    # only rows within about that of an edge of their face need their table.
    # The points start spread over the faces: a point that starts on an edge, as
    # many projected from outside do, ties with the face across it for good
    proj = MeshProjector(icosphere(3))
    rng = np.random.default_rng(9)
    d = rng.standard_normal((1000, 3))
    q = proj.project(d / np.linalg.norm(d, axis=1)[:, None])[0]
    rows = np.arange(len(q))
    cache = FaceCache(proj, q)
    for t in range(15):
        tests = cache.face_tests
        q = cache.project(rows, q + 1e-4 * rng.standard_normal(q.shape) / np.sqrt(3))[0]
        if t >= 10:
            assert cache.face_tests - tests <= 1.1 * len(rows)


def test_a_row_queried_fresh_drops_its_winner_certificate():
    # its last winner alone must not answer for a row that its new table would
    # refuse, so face_requeries counts what the tables alone would: the row is
    # scored on its table at a centroid, queried fresh on the far side and
    # brought back, where its old bound still covers its old winner
    proj = MeshProjector(icosphere(3))
    a = proj.mesh.vertices[proj.mesh.faces[0]].mean(axis=0, keepdims=True)
    cache = FaceCache(proj, a)
    for p in (a, -a, a):
        cache.project(np.array([0]), p)
    assert cache.requeries == 2


@settings(max_examples=100, deadline=None)
@given(mesh=st.sampled_from(sorted(MESHES)), kind=st.sampled_from(["vertex", "edge", "far"]),
       seed=st.integers(0, 2**32 - 1))
def test_edge_bound_never_exceeds_the_distance(mesh, kind, seed):
    # _bound is what FaceCache's certificate assumes of every face but the
    # winner; it is checked against each face's exact test, near the vertices
    # and edges where its half-spaces meet, and 1e6 out, where rounding grows.
    # It may exceed the test by the few ulps that the certificate's guards absorb
    m = MESHES[mesh]
    proj = MeshProjector(m)
    rng = np.random.default_rng(seed)
    tri = m.vertices[m.faces]
    f = rng.integers(len(tri), size=40)
    k = rng.integers(3, size=40)
    if kind == "vertex":
        p = tri[f, k]
    elif kind == "edge":
        t = rng.random((40, 1))
        p = t * tri[f, k] + (1 - t) * tri[f, (k + 1) % 3]
    else:
        p = rng.standard_normal((40, 3)) * 1e6
    step = rng.standard_normal((40, 3))
    p = p + step / np.linalg.norm(step, axis=1)[:, None] * 10.0 ** rng.uniform(-12, 0, (40, 1))
    fid = np.tile(np.arange(len(tri)), len(p))
    p = np.repeat(p, len(tri), axis=0)
    plane = np.abs(_dot(m.face_normals[fid], p) - proj._offsets[fid])
    cp = _closest_on_triangles(proj._a[fid], proj._b[fid], proj._c[fid], p)
    d = np.sqrt(squared_norm(p - cp))
    assert (proj._bound(fid, p, plane) <= d * (1.0 + TIE_GUARD) + _TINY).all()


def test_rho_bounds_every_centroid_outside_the_table():
    # the 48 signed permutations of a triangle have centroids at exactly one
    # distance from the origin, while the tree rounds each distance its own
    # way: the 12th can come out above the exact value, so rho needs its
    # guard to stay below every centroid left out of the table (exact sums)
    rng = np.random.default_rng(3)
    for _ in range(5):
        base = rng.uniform(0.1, 1.0, (3, 3))
        tri = np.array([base[:, p] * s for p in itertools.permutations(range(3))
                        for s in itertools.product((1.0, -1.0), repeat=3)])
        mesh = TriangleMesh(tri.reshape(-1, 3), np.arange(3 * len(tri)).reshape(-1, 3))
        *_, cand, rho = MeshProjector(mesh)._fresh(np.zeros((1, 3)))    # what FaceCache keeps
        outside = np.setdiff1d(np.arange(len(tri)), cand[0])
        assert len(outside) == 36
        for c in tri.mean(axis=1)[outside]:
            assert Fraction(rho[0]) ** 2 <= sum(Fraction(x) ** 2 for x in c)


def test_wide_rows_are_scored_once_against_their_final_candidates():
    # a deep-inside query is not certified by the first table and is
    # re-queried wider until one certifies it; the on-surface rows are
    # certified by the first.  Each row is scored once, on its final table,
    # and the result is a full scan's
    proj = MeshProjector(icosphere(3))
    rng = np.random.default_rng(8)
    q = np.vstack([proj.project(rng.uniform(-1, 1, (20, 3)))[0], [[0.01, -0.02, 0.03]]])
    first = certified_at(proj, q, 12)
    assert first[:20].all() and not first[20]
    k = 24
    while not certified_at(proj, q[20:], k)[0]:
        k = min(2 * k, proj.n_faces)
    *got, tests, _, _ = proj._fresh(q)
    every = np.broadcast_to(np.arange(proj.n_faces), (len(q), proj.n_faces))
    for g, w in zip(got, unpruned_best(proj, q, every)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    final = (proj._best(q[:20], proj._query(q[:20], 12)[0])[3]
             + proj._best(q[20:], proj._query(q[20:], k)[0])[3])
    assert tests == final


def test_projection_is_idempotent():
    # point and distance stabilize; the face id may flip between the faces
    # sharing an edge the landed point sits on, so it is not asserted
    mesh = icosphere(2)
    proj = MeshProjector(mesh)
    q = np.random.default_rng(6).uniform(-1.5, 1.5, (30, 3))
    once = proj.project(q)[0]
    twice, _, d2 = proj.project(once)
    assert np.abs(twice - once).max() < 1e-12
    assert d2.max() < 1e-12


def test_projection_distance_is_lipschitz():
    mesh = icosphere(1)
    proj = MeshProjector(mesh)
    rng = np.random.default_rng(7)
    p = rng.uniform(-2, 2, (50, 3))
    q = p + rng.normal(0, 0.3, (50, 3))
    dp = proj.project(p)[2]
    dq = proj.project(q)[2]
    step = np.linalg.norm(p - q, axis=1)
    assert (np.abs(dp - dq) <= step + 1e-12).all()


def test_projector_rejects_bad_queries():
    proj = MeshProjector(icosphere(0))
    with pytest.raises(ValueError):
        proj.project(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        proj.project(np.zeros((3, 2)))


@pytest.mark.filterwarnings("error")
def test_projector_rejects_extreme_queries():
    # scipy marks an unreachable centroid with index n_faces once squared
    # distances overflow (|q| above about 1.3e154); no overflow warning comes first
    proj = MeshProjector(icosphere(2))
    with pytest.raises(ValueError, match="coordinates are too extreme"):
        proj.project([[1e160, 0.0, 0.0]])
    cache = FaceCache(proj, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="coordinates are too extreme"):
        cache.project(np.array([1]), np.array([[0.0, -1e160, 0.0]]))
    assert proj.project([[1e150, 0.0, 0.0]])[2][0] == 1e150 - 1.0


def test_face_cache_rejects_bad_rows():
    # rows must be a 1-D integer array of cache row ids, one per point
    cache = FaceCache(MeshProjector(icosphere(1)), np.random.default_rng(2).uniform(-1, 1, (5, 3)))
    q = np.zeros((3, 3))
    with pytest.raises(ValueError, match="one id per point, got int.* rows of shape"):
        cache.project(np.array([0, 1]), q)
    with pytest.raises(ValueError, match=r"rows must lie in \[0, 5\), got ids from 7 to 7"):
        cache.project(np.array([7]), q[:1])
    with pytest.raises(ValueError, match="integer array with one id per point, got float64"):
        cache.project(np.array([0.0, 1.0, 2.0]), q)
    with pytest.raises(ValueError, match=r"rows must lie in \[0, 5\)"):
        cache.project(np.array([-1, 0, 1]), q)
    with pytest.raises(ValueError, match="one id per point"):
        cache.project(np.array([[0, 1, 2]]), q)
    np.testing.assert_array_equal(cache.project([4, 0, 2], q)[0], cache.projector.project(q)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projector_rejects_non_finite_queries(bad):
    mesh = icosphere(0)
    q = np.zeros((3, 3))
    q[1, 2] = bad
    with pytest.raises(ValueError, match="query points contain non-finite coordinates"):
        MeshProjector(mesh).project(q)
    with pytest.raises(ValueError, match="query points contain non-finite coordinates"):
        noise_score(q, mesh)


def test_noise_score_zero_on_surface():
    mesh = icosphere(1)
    on = mesh.vertices[:20]
    assert noise_score(on, mesh) < 1e-12
    off = on + 0.25 * on  # radially offset vertices
    assert noise_score(off, mesh) == pytest.approx(0.25, rel=1e-9)


# ------------------------------------------------------------ normalization

def test_normalize_centers_and_scales():
    v = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 4, 0], [0.0, 0, 6]])
    m = TriangleMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))
    out = normalize_mesh(m)
    lo, hi = out.vertices.min(axis=0), out.vertices.max(axis=0)
    np.testing.assert_allclose(lo + hi, 0.0, atol=1e-12)       # centered bbox
    assert np.abs(out.vertices).max() == pytest.approx(1.0)    # longest axis spans [-1, 1]
    np.testing.assert_allclose(hi - lo, [2 / 3, 4 / 3, 2.0], atol=1e-12)  # uniform scale
    np.testing.assert_array_equal(out.faces, m.faces)


def test_normalize_rejects_faces_the_scaling_makes_degenerate():
    # area 2e-12 passes at extent 1e3; scaled by 1/500 it falls below DEGENERATE_AREA
    v = np.array([[0.0, 0, 0], [2e-6, 0, 0], [0, 2e-6, 0], [1e3, 0, 0], [0, 1e3, 0]])
    m = TriangleMesh(v, np.array([[0, 1, 2], [0, 3, 4]]))
    assert m.face_areas[0] == pytest.approx(2e-12)
    with pytest.raises(ValueError, match="degenerate"):
        normalize_mesh(m)


@pytest.mark.parametrize("vertices", [np.zeros((3, 3)), np.full((3, 3), 5.0),
                                      1e-200 * np.eye(3)], ids=["zero", "equal", "tiny"])
def test_zero_area_meshes_are_rejected_before_normalization(vertices):
    # no extent, or one whose face areas underflow: normalize_mesh never sees a zero scale
    with pytest.raises(ValueError, match="degenerate"):
        TriangleMesh(vertices, np.array([[0, 1, 2]]))


def test_normalize_is_idempotent_for_unit_meshes():
    m = icosphere(1)
    out = normalize_mesh(m)
    np.testing.assert_allclose(out.vertices, m.vertices, atol=1e-12)


# ------------------------------------------------------------------ file IO

def test_obj_roundtrip(tmp_path):
    mesh = icosphere(1)
    path = tmp_path / "m.obj"
    save_obj(mesh, path)
    back = load_obj(path)
    np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-8, atol=1e-12)
    np.testing.assert_array_equal(back.faces, mesh.faces)


def test_obj_quad_fan_and_negative_indices(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(
        "# comment\n"
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "f 1 2 3 4\n"
        "f -4 -3 -2\n"
        "f 1/2/3 2/4 3//5\n"  # texture/normal references are ignored
    )
    m = load_obj(path)
    np.testing.assert_array_equal(
        m.faces, [[0, 1, 2], [0, 2, 3], [0, 1, 2], [0, 1, 2]]
    )


def test_obj_errors(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n")
    with pytest.raises(ValueError):
        load_obj(p)  # index 0 is invalid in 1-based OBJ
    p.write_text("v 0 0\n")
    with pytest.raises(ValueError):
        load_obj(p)
    p.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_obj(p)
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n")
    with pytest.raises(ValueError, match=":4: face needs at least 3 vertices"):
        load_obj(p)


def test_obj_names_the_line_of_a_bad_number(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 zz 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ValueError, match="could not convert") as err:
        load_obj(p)
    assert str(err.value).startswith(f"{p}:2: ")
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 2/1 x\n")
    with pytest.raises(ValueError, match="invalid literal for int") as err:
        load_obj(p)
    assert str(err.value).startswith(f"{p}:5: ")
    for value in ("nan", "inf", "-inf"):
        p.write_text(f"v 0 0 0\n# note\nv 1 {value} 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ValueError) as err:
            load_obj(p)
        assert str(err.value) == f"{p}:3: non-finite value '{value}'"


@pytest.mark.parametrize("index", ["4", "-4", "0", "9" * 400], ids=["ahead", "behind", "zero", "huge"])
def test_obj_names_the_line_of_a_face_index_out_of_range(tmp_path, index):
    p = tmp_path / "bad.obj"
    p.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 {index}\nv 1 1 0\n")
    with pytest.raises(ValueError) as err:
        load_obj(p)
    assert str(err.value) == f"{p}:4: face index {index} names none of the 3 vertices before it"


def test_xyz_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    for dim in (2, 3):
        cloud = rng.standard_normal((25, dim)) * 100
        path = tmp_path / f"c{dim}.xyz"
        write_xyz(cloud, path)
        back = read_xyz(path)
        assert back.shape == cloud.shape
        np.testing.assert_allclose(back, cloud, rtol=1e-8)


def test_xyz_comments_and_errors(tmp_path):
    p = tmp_path / "c.xyz"
    p.write_text("# header\n\n0.5 0.25\n1 2\n")
    np.testing.assert_array_equal(read_xyz(p), [[0.5, 0.25], [1.0, 2.0]])
    p.write_text("0 0\n1 2 3\n")
    with pytest.raises(ValueError):
        read_xyz(p)  # inconsistent width
    p.write_text("1 2 3 4\n")
    with pytest.raises(ValueError):
        read_xyz(p)
    p.write_text("# only comments\n")
    with pytest.raises(ValueError):
        read_xyz(p)


def test_xyz_names_the_line_of_a_bad_number(tmp_path):
    p = tmp_path / "c.xyz"
    p.write_text("# header\n0 0\n1 zz\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'zz'") as err:
        read_xyz(p)
    assert str(err.value).startswith(f"{p}:3: ")
    for value in ("nan", "inf", "-inf"):
        p.write_text(f"0 0\n{value} 1\n")
        with pytest.raises(ValueError) as err:
            read_xyz(p)
        assert str(err.value) == f"{p}:2: non-finite value '{value}'"
