"""Meshes, closest-point projection, and file round-trips."""

import numpy as np
import pytest

from ljlayer.geometry import (
    MeshProjector,
    TriangleMesh,
    icosphere,
    load_obj,
    noise_score,
    normalize_mesh,
    read_xyz,
    save_obj,
    write_xyz,
)


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


def test_mesh_arrays_are_frozen():
    m = icosphere(0)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.faces[0, 0] = 0


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


def test_pruned_projection_equals_full_scan_bitwise():
    # same arithmetic with pruning disabled must give identical output,
    # including ties resolved by face index
    from ljlayer.geometry import _closest_on_triangles

    mesh = icosphere(2)
    rng = np.random.default_rng(5)
    q = np.vstack([rng.uniform(-2, 2, (30, 3)), rng.uniform(-0.1, 0.1, (5, 3))])
    pts, fids, dists = MeshProjector(mesh).project(q)
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


def test_projection_tie_takes_lowest_face():
    # a tent of two faces sharing the ridge; points on the symmetry plane are
    # equidistant from both, so face 0 must win
    v = np.array([[0.0, 0, 1], [0.0, 2, 1], [1.0, 0, 0], [1.0, 2, 0],
                  [-1.0, 0, 0], [-1.0, 2, 0]])
    m = TriangleMesh(v, np.array([[0, 1, 2], [0, 1, 4], [1, 2, 3], [1, 4, 5]]))
    pts, fids, _ = MeshProjector(m).project([[0.0, 1.0, 3.0]])
    assert fids[0] == 0
    np.testing.assert_allclose(pts[0], [0.0, 1.0, 1.0], atol=1e-12)


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
