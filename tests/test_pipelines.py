"""Blue-noise synthesis, mesh redistribution, and the embedding harness."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ljlayer.analysis import distance_score
from ljlayer.core import LjParams, Schedule
from ljlayer.geometry import FaceCache, MeshProjector, icosphere, normalize_mesh
from ljlayer.metrics import PERIODIC_UNIT
from ljlayer.pipelines import (
    Boundary,
    EmbedConfig,
    MeshSurface,
    RefineWindow,
    RunReport,
    SurfaceRefiner,
    UnitSphere,
    bluenoise_2d,
    embed_compare,
    embed_refine,
    redistribute_on_mesh,
    run_embedded,
    run_sweep,
    sigma_prime,
    write_sweep_csv,
)

EQ = 2.0 ** (1.0 / 6.0)


def small_config(n, total, **overrides):
    """EmbedConfig whose window matches a non-default run length."""
    w = RefineWindow.default_window(total)
    base = dict(n=n, total=total, start=w.start, stop=w.stop)
    base.update(overrides)
    return EmbedConfig(**base)


# -------------------------------------------------------------- sigma_prime

def test_sigma_prime_frozen_values():
    assert sigma_prime(2) == pytest.approx(0.7598356856515927, rel=1e-12)
    assert sigma_prime(100) == pytest.approx(0.1074569931823542, rel=1e-12)
    assert sigma_prime(1024) == pytest.approx(0.03358031036948569, rel=1e-12)


def test_sigma_prime_scaling_law():
    for n in (2, 10, 57, 4096):
        assert sigma_prime(4 * n) == pytest.approx(sigma_prime(n) / 2, rel=1e-12)


def test_sigma_prime_validation():
    for bad in (1, 0, -3, 2.5, "2"):
        with pytest.raises(ValueError):
            sigma_prime(bad)


# ------------------------------------------------------------------ helpers

def test_boundary_apply():
    pts = np.array([[-0.25, 0.5], [1.5, 0.25]])
    np.testing.assert_array_equal(Boundary.fixed().apply(pts), [[0.0, 0.5], [1.0, 0.25]])
    np.testing.assert_allclose(Boundary.periodic().apply(pts), [[0.75, 0.5], [0.5, 0.25]])
    np.testing.assert_array_equal(Boundary.none().apply(pts), pts)
    # a tiny negative coordinate folds to 0.0, not to 1.0 outside [0, 1)
    np.testing.assert_array_equal(Boundary.periodic().apply([[-1e-17, 0.5]]), [[0.0, 0.5]])
    assert Boundary.periodic().metric.periodic
    assert not Boundary.fixed().metric.periodic
    with pytest.raises(ValueError):
        Boundary("reflect")


def test_refine_window_validation():
    RefineWindow(100, 60, 95)
    RefineWindow(100, None, None)
    RefineWindow(100, 1, 100)
    with pytest.raises(ValueError):
        RefineWindow(100, 101, 101)  # start beyond total
    with pytest.raises(ValueError):
        RefineWindow(100, 60, 101)
    with pytest.raises(ValueError):
        RefineWindow(100, 0, 50)
    with pytest.raises(ValueError):
        RefineWindow(100, 80, 60)
    with pytest.raises(ValueError):
        RefineWindow(100, 60, None)  # half-set window
    with pytest.raises(ValueError):
        RefineWindow(-1, None, None)


def test_refine_window_activity():
    w = RefineWindow(100, 60, 95)
    assert w.enabled
    assert not w.active(59) and w.active(60) and w.active(95) and not w.active(96)
    d = RefineWindow.disabled(100)
    assert not d.enabled and not d.active(60)


def test_default_window_fractions():
    assert RefineWindow.default_window(100) == RefineWindow(100, 60, 95)
    assert RefineWindow.default_window(60) == RefineWindow(60, 36, 57)
    assert RefineWindow.default_window(1) == RefineWindow(1, 1, 1)
    assert not RefineWindow.default_window(0).enabled


def test_run_report_trace_length_checked():
    with pytest.raises(ValueError):
        RunReport(3, 0.0, 0, np.zeros(2))
    with pytest.raises(ValueError):
        RunReport(3, 0.0, 0, np.zeros(3), np.zeros(4))
    rep = RunReport(2, 0.1, 7, np.array([0.5, 0.6]))
    d = rep.to_dict()
    assert d["iterations"] == 2 and d["seed"] == 7
    assert d["trace"]["distance_score"] == [0.5, 0.6]
    assert "noise_score" not in d["trace"]
    assert d["knn_rebuilds"] == 0 and d["stop_reason"] == "max_iter"
    assert d["knn_rescans"] == 0
    d = RunReport(2, 0.1, 7, np.array([0.5, 0.6]), knn_rebuilds=2, stop_reason="tol").to_dict()
    assert d["knn_rebuilds"] == 2 and d["stop_reason"] == "tol"
    with pytest.raises(ValueError):
        RunReport(2, 0.1, 7, np.array([0.5, 0.6]), stop_reason="converged")
    # a run without traces: no length check, null in the JSON
    d = RunReport(4, 0.1, 7, None).to_dict()
    assert d["trace"] is None and d["iterations"] == 4
    assert '"trace": null' in json.dumps(d)
    with pytest.raises(ValueError, match="noise trace needs a distance trace"):
        RunReport(2, 0.1, 7, None, np.zeros(2))


# ------------------------------------------------------------- blue noise

def test_bluenoise_single_point_is_noop():
    cloud = np.array([[0.3, 0.7]])
    out, rep = bluenoise_2d(cloud)
    np.testing.assert_array_equal(out, cloud)
    assert rep.iterations == 0 and rep.final_max_disp == 0.0
    assert len(rep.distance_trace) == 0


def test_bluenoise_deterministic():
    a, ra = bluenoise_2d(64, seed=3, max_iter=50)
    b, rb = bluenoise_2d(64, seed=3, max_iter=50)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ra.distance_trace, rb.distance_trace)
    c, _ = bluenoise_2d(64, seed=4, max_iter=50)
    assert not np.array_equal(a, c)


def test_bluenoise_reports_stop_reason_and_rebuilds():
    _, rep = bluenoise_2d(128, seed=0)
    assert rep.stop_reason == "tol" and rep.final_max_disp < 1e-5
    # one rebuild on entry, then only when the neighbor list cannot prove its table
    assert 1 <= rep.knn_rebuilds < rep.iterations
    _, rep = bluenoise_2d(128, seed=0, max_iter=7)
    assert rep.stop_reason == "max_iter" and rep.iterations == 7


def test_bluenoise_counts_rescans_where_clipping_piles_points_up():
    # clipping stacks points on the square's edges and corners, where ties leave
    # rows their tree candidates cannot certify; the torus has no such pile-ups
    _, fixed = bluenoise_2d(300, boundary=Boundary.fixed(), seed=7, max_iter=40)
    _, periodic = bluenoise_2d(300, seed=7, max_iter=40)
    assert fixed.knn_rescans > 0 and fixed.to_dict()["knn_rescans"] == fixed.knn_rescans
    assert periodic.knn_rescans == 0 and periodic.to_dict()["knn_rescans"] == 0


def test_bluenoise_integral_float_k_runs_as_the_integer():
    sigma = sigma_prime(50)
    a, ra = bluenoise_2d(50, params=LjParams(sigma=sigma, k=2.0), max_iter=3)
    b, rb = bluenoise_2d(50, params=LjParams(sigma=sigma, k=2), max_iter=3)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ra.distance_trace, rb.distance_trace)


def test_bluenoise_zero_alpha_stops_immediately():
    cloud = np.random.default_rng(1).random((20, 2))
    out, rep = bluenoise_2d(cloud, schedule=Schedule(alpha=0.0, beta=0.01))
    np.testing.assert_array_equal(out, cloud)
    assert rep.iterations == 1  # one no-move iteration, then the tol break


def test_bluenoise_two_points_reach_equilibrium():
    sigma = 0.3
    cloud = np.array([[0.2, 0.5], [0.5, 0.5]])
    out, _ = bluenoise_2d(cloud, boundary=Boundary.none(),
                          params=LjParams(epsilon=2.0, sigma=sigma))
    d = np.linalg.norm(out[1] - out[0])
    assert d == pytest.approx(EQ * sigma, rel=0.01)


def test_bluenoise_improves_spacing():
    out, rep = bluenoise_2d(128, seed=0, max_iter=400)
    assert rep.distance_trace[-1] > 1.8 * rep.distance_trace[0]
    assert (out >= 0).all() and (out < 1).all()


def test_bluenoise_periodic_translation_equivariance():
    # short horizon: over many iterations rounding noise is amplified by the
    # nonlinear dynamics, so equivariance is only exact step by step
    cloud = np.random.default_rng(5).random((40, 2))
    base, _ = bluenoise_2d(cloud, max_iter=5)
    shifted, _ = bluenoise_2d(np.mod(cloud + 0.25, 1.0), max_iter=5)
    delta = PERIODIC_UNIT.delta(shifted - (base + 0.25))
    assert np.abs(delta).max() < 1e-12


def test_bluenoise_fixed_boundary_contains_points():
    out, _ = bluenoise_2d(100, boundary=Boundary.fixed(), seed=2,
                          sigma_multiplier=10.0, max_iter=150)
    assert (out >= 0.0).all() and (out <= 1.0).all()


def test_bluenoise_unbounded_spills_out():
    out, _ = bluenoise_2d(100, boundary=Boundary.none(), seed=2,
                          sigma_multiplier=10.0, max_iter=150)
    outside = ((out < 0) | (out > 1)).any(axis=1).mean()
    assert outside >= 0.10


def test_bluenoise_validation():
    with pytest.raises(ValueError):
        bluenoise_2d(np.zeros((3, 3)))  # 3D cloud
    with pytest.raises(ValueError):
        bluenoise_2d(0)
    with pytest.raises(ValueError):
        bluenoise_2d(10, schedule=Schedule(1.0, 0.0, kind="adaptive"))
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be a finite number"):
            bluenoise_2d(10, tol=tol)
    with pytest.raises(ValueError):
        bluenoise_2d(3, params=LjParams(sigma=0.1, k=5))  # k too large


# ----------------------------------------------------------- redistribution

@pytest.fixture(scope="module")
def sphere():
    return normalize_mesh(icosphere(2))


def test_redistribute_spreads_and_stays_on_surface(sphere):
    cloud0 = np.random.default_rng(0).uniform(-1, 1, (150, 3))
    out, rep = redistribute_on_mesh(cloud0, sphere, max_iter=400)
    proj = MeshProjector(sphere)
    assert proj.project(out)[2].max() < 1e-9
    start = distance_score(proj.project(cloud0)[0])
    assert distance_score(out) > 1.3 * start
    assert rep.noise_trace is None     # the cloud is on the surface after every step


def test_redistribute_deterministic(sphere):
    cloud0 = np.random.default_rng(1).uniform(-1, 1, (60, 3))
    a, _ = redistribute_on_mesh(cloud0, sphere, max_iter=80)
    b, _ = redistribute_on_mesh(cloud0, sphere, max_iter=80)
    np.testing.assert_array_equal(a, b)


def test_redistribute_antipodal_points_never_move(sphere):
    # two points on opposite poles: their face normals differ by ~180 degrees,
    # the gate fails for both, so neither may move at all
    cloud0 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    projected = MeshProjector(sphere).project(cloud0)[0]
    out, rep = redistribute_on_mesh(cloud0, sphere, max_iter=5, tol=0.0)
    np.testing.assert_array_equal(out, projected)
    assert rep.final_max_disp == 0.0


def test_face_cache_requeries_few_rows(monkeypatch):
    # the mesh benchmark's run: 2000 points from the cube onto icosphere(3)
    projected = []
    project = FaceCache.project

    def counting(self, rows, points):
        projected.append(len(rows))
        return project(self, rows, points)

    monkeypatch.setattr(FaceCache, "project", counting)
    cloud0 = np.random.default_rng(0).uniform(-1, 1, (2000, 3))
    _, rep = redistribute_on_mesh(cloud0, icosphere(3), schedule=Schedule(alpha=0.2, beta=0.05))
    assert rep.stop_reason == "tol"
    assert len(projected) == rep.iterations   # one projection per step, of the moved rows
    assert 0 < rep.face_requeries <= 0.05 * sum(projected)
    assert rep.to_dict()["face_requeries"] == rep.face_requeries
    # each projected row gets at least its seed's exact test, and few get more
    assert sum(projected) <= rep.face_tests < 2 * sum(projected)
    assert rep.to_dict()["face_tests"] == rep.face_tests
    _, blue = bluenoise_2d(40, max_iter=5)
    assert blue.face_requeries == 0 and blue.to_dict()["face_requeries"] == 0
    assert blue.face_tests == 0 and blue.to_dict()["face_tests"] == 0


def test_redistribute_requires_normalized_mesh():
    big = icosphere(0)
    scaled = type(big)(big.vertices * 3.0, big.faces)
    with pytest.raises(ValueError):
        redistribute_on_mesh(np.random.default_rng(0).uniform(-1, 1, (10, 3)), scaled)


def test_redistribute_validation(sphere):
    with pytest.raises(ValueError):
        redistribute_on_mesh(5, sphere)  # needs an explicit cloud
    with pytest.raises(ValueError):
        redistribute_on_mesh(np.zeros((1, 3)), sphere)
    with pytest.raises(ValueError):
        redistribute_on_mesh(np.zeros((4, 2)), sphere)
    with pytest.raises(ValueError, match="tol must be a finite number"):
        redistribute_on_mesh(sphere.vertices[:10], sphere, tol=np.nan)
    with pytest.raises(ValueError, match="max_iter must be >= 0"):
        redistribute_on_mesh(sphere.vertices[:10], sphere, max_iter=-5)


# ----------------------------------------------------------------- surfaces

def test_unit_sphere_closest_and_distance():
    s = UnitSphere()
    np.testing.assert_allclose(s.closest(np.array([[0.0, 0.0, 3.0]])), [[0, 0, 1.0]])
    np.testing.assert_array_equal(s.closest(np.zeros((1, 3))), [[1.0, 0, 0]])
    np.testing.assert_allclose(s.distance(np.array([[0.0, 0.0, 3.0], [0.5, 0, 0]])),
                               [2.0, 0.5])


def test_mesh_surface_wraps_projector(sphere):
    surf = MeshSurface(sphere)
    q = np.random.default_rng(2).uniform(-1.5, 1.5, (10, 3))
    proj = MeshProjector(sphere)
    np.testing.assert_array_equal(surf.closest(q), proj.project(q)[0])
    np.testing.assert_array_equal(surf.distance(q), proj.project(q)[2])


def test_refiner_pull_one_lands_on_surface():
    r = SurfaceRefiner(pull=1.0, noise0=0.0)
    out = r.step(1, np.random.default_rng(3).standard_normal((20, 3)) * 2)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_refiner_contracts_geometrically():
    r = SurfaceRefiner(pull=0.5, noise0=0.0)
    x = np.array([[0.0, 0.0, 2.0]])
    for t in range(1, 5):
        x = r.step(t, x)
        assert np.linalg.norm(x) == pytest.approx(1.0 + 0.5**t, rel=1e-12)


def test_refiner_noise_decays_and_is_seeded():
    a = SurfaceRefiner(noise0=0.1, decay=0.5, seed=9)
    b = SurfaceRefiner(noise0=0.1, decay=0.5, seed=9)
    x = np.zeros((5, 3)) + [[1.0, 0, 0]]
    np.testing.assert_array_equal(a.step(1, x), b.step(1, x))
    # late steps move points far less than early ones
    early = np.linalg.norm(a.step(1, x) - x, axis=1).max()
    late = np.linalg.norm(a.step(40, x) - x, axis=1).max()
    assert late < early


def test_refiner_validation():
    with pytest.raises(ValueError):
        SurfaceRefiner(pull=0.0)
    with pytest.raises(ValueError):
        SurfaceRefiner(pull=1.2)
    for noise0 in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise0 must be a finite number"):
            SurfaceRefiner(noise0=noise0)
    with pytest.raises(ValueError):
        SurfaceRefiner(decay=0.0)


def test_toy_refiner_default_run_converges():
    refiner = SurfaceRefiner()
    x = 0.5 * np.random.default_rng(0).standard_normal((50, 3))
    for t in range(1, 101):
        x = refiner.step(t, x)
    assert UnitSphere().distance(x).mean() < 0.01


def test_toy_refiner_accepts_mesh_target(sphere):
    refiner = SurfaceRefiner(MeshSurface(sphere), noise0=0.0, pull=1.0)
    assert isinstance(refiner.surface, MeshSurface)
    out = refiner.step(1, np.random.default_rng(1).uniform(-1, 1, (5, 3)))
    assert MeshProjector(sphere).project(out)[2].max() < 1e-9


# ----------------------------------------------------------------- embedding

def test_embed_zero_alpha_reproduces_refiner_exactly():
    cfg = EmbedConfig(n=40, total=30, start=10, stop=25, alpha=0.0)
    base_cloud, base_rep = run_embedded(cfg, embedded=False)
    ljl_cloud, ljl_rep = run_embedded(cfg, embedded=True)
    np.testing.assert_array_equal(ljl_cloud, base_cloud)
    np.testing.assert_array_equal(ljl_rep.distance_trace, base_rep.distance_trace)


def test_embed_disabled_window_reproduces_refiner_exactly():
    cfg = EmbedConfig(n=40, total=30, start=None, stop=None)
    base_cloud, _ = run_embedded(cfg, embedded=False)
    ljl_cloud, _ = run_embedded(cfg, embedded=True)
    np.testing.assert_array_equal(ljl_cloud, base_cloud)


def test_embed_active_window_changes_the_cloud():
    cfg = EmbedConfig(n=40, total=30, start=10, stop=25)
    base_cloud, _ = run_embedded(cfg, embedded=False)
    ljl_cloud, _ = run_embedded(cfg, embedded=True)
    assert not np.array_equal(ljl_cloud, base_cloud)


def test_embed_traces_have_run_length():
    cfg = small_config(20, 17)
    cloud, rep = run_embedded(cfg)
    assert cloud.shape == (20, 3)
    assert rep.iterations == 17
    assert len(rep.distance_trace) == 17
    assert len(rep.noise_trace) == 17  # unit-sphere target provides one


def test_embed_deterministic_per_seed():
    cfg = small_config(30, 25, seed=5)
    a, _ = run_embedded(cfg)
    b, _ = run_embedded(cfg)
    np.testing.assert_array_equal(a, b)
    c, _ = run_embedded(small_config(30, 25, seed=6))
    assert not np.array_equal(a, c)


def test_embed_refine_accepts_explicit_cloud():
    refiner = SurfaceRefiner(noise0=0.0, pull=0.5)
    cloud0 = np.random.default_rng(7).standard_normal((12, 3))
    out, rep = embed_refine(refiner, cloud0, RefineWindow.disabled(10))
    assert rep.iterations == 10
    # pure contraction: all points near the sphere at the end
    assert UnitSphere().distance(out).max() < 0.01


def test_embed_refine_rejects_shape_changing_refiner():
    class Bad:
        def step(self, t, cloud):
            return np.asarray(cloud)[:-1]

    with pytest.raises(ValueError):
        embed_refine(Bad(), np.zeros((5, 3)) + np.eye(5, 3), RefineWindow.disabled(3))


def test_embed_refine_validation():
    refiner = SurfaceRefiner()
    cloud10 = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(ValueError):
        embed_refine(refiner, 10, RefineWindow.disabled(5))  # a point count is not a cloud
    with pytest.raises(ValueError):
        embed_refine(refiner, cloud10[:1], RefineWindow.disabled(5))
    with pytest.raises(ValueError, match="requires at least 41 points"):
        embed_refine(refiner, cloud10, RefineWindow.disabled(5),
                     params=LjParams(sigma=1.0, k=40))


def test_embed_config_window_and_params():
    cfg = EmbedConfig()
    assert cfg.window() == RefineWindow(100, 60, 95)
    p = cfg.lj_params()
    assert p.k == cfg.k
    assert p.sigma == pytest.approx(sigma_prime(cfg.n) * cfg.sigma_multiplier)
    assert EmbedConfig(start=None, stop=None).window() == RefineWindow.disabled(100)
    with pytest.raises(ValueError):
        EmbedConfig(init="lattice")
    with pytest.raises(ValueError, match="init_jitter must be finite"):
        EmbedConfig(init_jitter=np.nan)
    with pytest.raises(ValueError):
        EmbedConfig(start=60, stop=101).window()


def test_denoising_preset_overrides():
    cfg = EmbedConfig.denoising()
    assert cfg.total == 60 and (cfg.start, cfg.stop) == (36, 57)
    assert cfg.init == "noisy_surface"
    tweaked = EmbedConfig.denoising(alpha=1.5, seed=3)
    assert tweaked.alpha == 1.5 and tweaked.seed == 3
    assert tweaked.total == cfg.total


def test_embed_compare_report_matches_runs():
    cfg = small_config(40, 40)
    report, (base_cloud, _), (ljl_cloud, _) = embed_compare(cfg)
    sphere = UnitSphere()
    assert report.distance_score_base == pytest.approx(distance_score(base_cloud))
    assert report.distance_score_ljl == pytest.approx(distance_score(ljl_cloud))
    assert report.noise_score_base == pytest.approx(float(sphere.distance(base_cloud).mean()))
    expected = (report.distance_score_ljl - report.distance_score_base) / report.distance_score_base
    assert report.distance_increment == pytest.approx(expected)


def test_embed_compare_accepts_mesh_surface(sphere):
    cfg = small_config(30, 30)
    report, _, _ = embed_compare(cfg, surface=MeshSurface(sphere))
    assert np.isfinite(report.noise_score_ljl)


def test_untraced_embed_compare_is_byte_equal():
    for cfg, surface in ((small_config(40, 30, seed=2), None),
                         (EmbedConfig.denoising(n=40, seed=1), None),
                         (small_config(30, 20, seed=4), MeshSurface(normalize_mesh(icosphere(1))))):
        traced = embed_compare(cfg, surface=surface)
        plain = embed_compare(cfg, surface=surface, trace=False)
        assert repr(plain[0]) == repr(traced[0])
        for (c1, r1), (c0, r0) in zip(traced[1:], plain[1:]):
            assert c0.tobytes() == c1.tobytes()
            assert r0.distance_trace is None and r0.noise_trace is None
            assert r0.to_dict()["trace"] is None
            assert r0.iterations == r1.iterations == cfg.total
            assert r0.final_max_disp == r1.final_max_disp
            # no trace, no neighbor table; traced: the k = 1 trace table, entry included
            assert r0.knn_rebuilds == 0
            assert 1 <= r1.knn_rebuilds <= r1.iterations + 1
            assert len(r1.distance_trace) == len(r1.noise_trace) == cfg.total


def test_sweep_rows_equal_traced_compares():
    base = small_config(30, 25)
    rows = run_sweep("alpha", [0.5, 2.5], seeds=[0, 3], base=base)
    for row in rows:
        report, _, _ = embed_compare(replace(base, alpha=row["value"], seed=row["seed"]))
        ratio = float("nan") if report.ratio is None else report.ratio
        assert repr(row) == repr({
            "value": row["value"], "seed": row["seed"],
            "distance_score": report.distance_score_ljl, "noise_score": report.noise_score_ljl,
            "distance_increment": report.distance_increment,
            "noise_increment": report.noise_increment, "ratio": ratio})


@pytest.mark.filterwarnings("error")
def test_embed_divergence_fails_at_its_first_step():
    # alpha = 4.8 drives this seed's cloud beyond float range at step 56; no
    # numpy overflow warning may come first, traced or not
    msg = r"diverged at step 56 \(alpha=4.8\): refiner displacement 1\.5\d*e\+125"
    with pytest.raises(ValueError, match=msg):
        run_sweep("alpha_denoise", [4.8], [5071])
    with pytest.raises(ValueError, match=msg):
        run_embedded(EmbedConfig.denoising(alpha=4.8, seed=5071))

    class NanRefiner:
        def step(self, t, cloud):
            return np.asarray(cloud) * (np.nan if t == 3 else 1.0)

    cloud0 = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(ValueError, match="diverged at step 3 .* refiner displacement nan"):
        embed_refine(NanRefiner(), cloud0, RefineWindow.disabled(5))
    with pytest.raises(ValueError, match="initial cloud coordinates must be below"):
        embed_refine(NanRefiner(), cloud0 * 1e160, RefineWindow.disabled(5))


# ------------------------------------------------------------------- sweeps

def test_sweep_row_layout():
    rows = run_sweep("alpha", [0.5, 2.5], seeds=[0, 1],
                     base=small_config(20, 20))
    assert len(rows) == 4
    assert [r["value"] for r in rows] == [0.5, 0.5, 2.5, 2.5]
    assert [r["seed"] for r in rows] == [0, 1, 0, 1]
    for r in rows:
        assert set(r) == {"value", "seed", "distance_score", "noise_score",
                          "distance_increment", "noise_increment", "ratio"}


def test_sweep_ss_beyond_stop_disables_the_window():
    base = EmbedConfig(n=20, total=20, start=12, stop=19)
    rows = run_sweep("ss", [21], seeds=[0], base=base)
    assert rows[0]["distance_increment"] == 0.0
    assert rows[0]["noise_increment"] == 0.0
    assert np.isnan(rows[0]["ratio"])


def test_sweep_axis_changes_the_right_knob():
    base = small_config(20, 20)
    a = run_sweep("alpha", [0.0], seeds=[0], base=base)[0]
    assert a["distance_increment"] == 0.0  # alpha 0 means no dynamics
    b = run_sweep("beta", [0.01], seeds=[0], base=base)[0]
    assert np.isfinite(b["distance_score"])


def test_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep("gamma", [1.0], seeds=[0])
    with pytest.raises(ValueError):
        run_sweep("alpha", [], seeds=[0])
    with pytest.raises(ValueError):
        run_sweep("alpha", [1.0], seeds=[])


def test_sweep_csv_format(tmp_path):
    rows = run_sweep("alpha", [0.0], seeds=[0, 1], base=small_config(20, 15))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("value,seed,distance_score,noise_score,"
                        "distance_increment,noise_increment,ratio")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "0"
    assert cells[6] == "nan"  # alpha 0: no distance gain, undefined ratio
    float(cells[2]), float(cells[3])  # scores parse as numbers
