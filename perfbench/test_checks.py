"""Each benchmark check rejects a known-wrong output and accepts a right one.

Run with `python3 -m pytest perfbench -q`; needs numpy only.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckError, KnownFault


def profile(x, fmax):
    """Radial power profile of a 2D cloud, by direct sums over every lattice bin."""
    radii = np.arange(1, fmax + 1)
    return radii, np.array([checks.direct_radial_power(x, r) for r in radii])


def jittered_grid(side, jitter, seed=0):
    g = (np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2) + 0.5) / side
    x = g + np.random.default_rng(seed).uniform(-jitter, jitter, g.shape) / side
    return np.mod(x, 1.0)


WHITE = np.random.default_rng(1).random((256, 2))
GRID = jittered_grid(16, 0.05)


def test_unit_square_separates_the_wrap_fault_from_other_escapes():
    checks.check_unit_square(GRID)
    with pytest.raises(KnownFault):
        checks.check_unit_square(np.vstack([GRID, [[1.0, 0.5]]]))
    for bad in ([1.5, 0.5], [-1e-17, 0.5]):
        with pytest.raises(CheckError) as info:
            checks.check_unit_square(np.vstack([GRID, [bad]]))
        assert not isinstance(info.value, KnownFault)


def test_min_spacing_rejects_white_noise():
    checks.check_min_spacing(GRID)
    with pytest.raises(CheckError, match="minimum spacing"):
        checks.check_min_spacing(WHITE)


def test_low_band_rejects_white_noise():
    checks.check_low_band(*profile(GRID, 40))
    with pytest.raises(CheckError):
        checks.check_low_band(*profile(WHITE, 40))


def test_low_band_rejects_a_summary_that_disagrees_with_the_profile():
    radii, power = profile(GRID, 40)
    r_peak, low, plateau = checks.band_means(radii, power)
    good = {"r_peak": r_peak, "low_band_mean": low, "plateau_mean": plateau}
    checks.check_low_band(radii, power, good)
    with pytest.raises(CheckError, match="low_band_mean"):
        checks.check_low_band(radii, power, {**good, "low_band_mean": low * 1.001})


def test_profile_bins_match_direct_sums_and_reject_a_changed_bin():
    radii, power = profile(WHITE, 6)
    checks.check_profile_bins(WHITE, power, (1, 2, 6))
    power[1] *= 1.0001
    with pytest.raises(CheckError, match="r=2"):
        checks.check_profile_bins(WHITE, power, (1, 2, 6))


def test_direct_radial_power_of_a_single_point_is_one():
    assert checks.direct_radial_power(np.array([[0.3, 0.7]]), 3) == pytest.approx(1.0)


def test_score_rejects_a_wrong_mean():
    want = float(checks.nn_distances(WHITE, periodic=True).mean())
    assert checks.check_score(want, WHITE, periodic=True) == want
    with pytest.raises(CheckError):
        checks.check_score(want * (1 + 1e-4), WHITE, periodic=True)


def test_nn_distances_use_the_minimum_image():
    x = np.array([[0.01, 0.5], [0.99, 0.5], [0.5, 0.5]])
    assert checks.nn_distances(x, periodic=True)[0] == pytest.approx(0.02)
    assert checks.nn_distances(x)[0] == pytest.approx(0.49)


OCTA_V = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)
OCTA_F = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                   [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])


def on_octahedron(n, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet((1, 1, 1), n)
    tri = OCTA_V[OCTA_F[rng.integers(0, len(OCTA_F), n)]]
    return (w[:, :, None] * tri).sum(axis=1)


def test_closest_on_mesh_finds_faces_edges_and_vertices():
    q = np.array([[2.0, 0, 0], [1.0, 1.0, 0], [1.0, 1.0, 1.0]])
    pts, dist = checks.closest_on_mesh(q, OCTA_V, OCTA_F)
    np.testing.assert_allclose(pts, [[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]], atol=1e-12)
    np.testing.assert_allclose(dist, [1.0, math.sqrt(0.5), math.sqrt(3) - 1 / math.sqrt(3)])


def test_surface_check_rejects_one_lifted_point():
    cloud = on_octahedron(200)
    checks.check_on_surface(cloud, OCTA_V, OCTA_F)
    cloud[17] *= 1.0 + 1e-6
    with pytest.raises(CheckError, match="point 17"):
        checks.check_on_surface(cloud, OCTA_V, OCTA_F)


def test_noise_score_rejects_a_wrong_mean():
    dist = checks.closest_on_mesh(on_octahedron(50) * 1.01, OCTA_V, OCTA_F)[1]
    checks.check_noise_score(float(dist.mean()), dist)
    with pytest.raises(CheckError):
        checks.check_noise_score(float(dist.mean()) * 1.001, dist)


def test_obj_round_trip_and_normalize():
    text = "".join(f"v {x} {y} {z}\n" for x, y, z in 3 * OCTA_V + 5)
    text += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in OCTA_F)
    verts, faces = checks.read_obj(text)
    np.testing.assert_array_equal(faces, OCTA_F)
    np.testing.assert_allclose(checks.normalize(verts), OCTA_V)


def sweep_csv(d_incs, values=(60, 70), seeds=(3, 4)):
    lines = [",".join(checks.SWEEP_COLUMNS)]
    it = iter(d_incs)
    for v in values:
        for s in seeds:
            d = next(it)
            ratio = 0.5 if d > 0 else float("nan")
            lines.append(f"{v},{s},0.1,0.01,{d:.9g},{0.5 * d:.9g},{ratio:.9g}")
    return "\n".join(lines) + "\n"


def test_sweep_checks_accept_falling_gains():
    rows = checks.read_sweep(sweep_csv([0.3, 0.2, 0.1, 0.0]), (60, 70), (3, 4))
    checks.check_gain_falls(rows)


def test_sweep_checks_reject_rising_ss_gains():
    rows = checks.read_sweep(sweep_csv([0.1, 0.1, 0.2, 0.3]), (60, 70), (3, 4))
    with pytest.raises(CheckError, match="ss=70"):
        checks.check_gain_falls(rows)


def test_sweep_read_rejects_missing_rows_and_bad_cells():
    with pytest.raises(CheckError, match="one per"):
        checks.read_sweep(sweep_csv([0.3, 0.2, 0.1, 0.0]), (60, 70, 80), (3, 4))
    bad_ratio = sweep_csv([0.3, 0.2, 0.1, 0.0]).replace(",0.5\n", ",0.6\n", 1)
    with pytest.raises(CheckError, match="ratio differs"):
        checks.read_sweep(bad_ratio, (60, 70), (3, 4))
    nan_cell = sweep_csv([0.3, 0.2, 0.1, 0.0]).replace(",0.1,0.01,", ",nan,0.01,", 1)
    with pytest.raises(CheckError, match="non-finite"):
        checks.read_sweep(nan_cell, (60, 70), (3, 4))


def test_bit_equal_rejects_one_ulp():
    a = np.random.default_rng(0).standard_normal((10, 3))
    b = a.copy()
    checks.check_bit_equal(a, b, "copy")
    b[4, 1] = np.nextafter(b[4, 1], np.inf)
    with pytest.raises(CheckError):
        checks.check_bit_equal(a, b, "one ulp")
