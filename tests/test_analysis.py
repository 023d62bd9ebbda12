"""Spectral statistics, distance/noise scores, and report arithmetic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ljlayer import analysis
from ljlayer.analysis import (
    ANISOTROPY_FLOOR_DB,
    Scores,
    SpectralStats,
    band_mean,
    distance_score,
    increment_report,
    peak_radius,
    periodogram,
    radial_stats,
    write_periodogram_pgm,
    write_profile_csv,
)
from ljlayer.metrics import PERIODIC_UNIT


def radial_stats_reference(grid):
    """Loop-based oracle for the annulus reduction."""
    fmax = (grid.shape[0] - 1) // 2
    bins = {r: [] for r in range(1, fmax + 1)}
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            r = int(round(np.hypot(i - fmax, j - fmax)))
            if 1 <= r <= fmax:
                bins[r].append(grid[i, j])
    power = np.array([np.mean(bins[r]) for r in range(1, fmax + 1)])
    var = np.array([np.mean(np.square(bins[r])) - np.mean(bins[r]) ** 2
                    for r in range(1, fmax + 1)])
    return power, np.maximum(var, 0.0)


# -------------------------------------------------------------- periodogram

def test_single_point_spectrum_is_flat_one():
    grid = periodogram(np.array([[0.37, 0.81]]), fmax=4)
    np.testing.assert_allclose(grid, 1.0, atol=1e-12)


def test_dc_bin_equals_n():
    cloud = np.random.default_rng(0).random((57, 2))
    grid = periodogram(cloud, fmax=3)
    assert grid[3, 3] == pytest.approx(57.0, rel=1e-12)


def test_lattice_spectrum_peaks_at_multiples():
    m = 4
    ij = np.mgrid[0:m, 0:m].reshape(2, -1).T / m
    grid = periodogram(ij, fmax=2 * m)
    f = np.arange(-2 * m, 2 * m + 1)
    on_lattice = (f[:, None] % m == 0) & (f[None, :] % m == 0)
    assert np.allclose(grid[on_lattice], m * m, atol=1e-8)
    assert np.abs(grid[~on_lattice]).max() < 1e-8


def test_periodogram_translation_and_wrap_invariance():
    cloud = np.random.default_rng(1).random((40, 2))
    base = periodogram(cloud, fmax=6)
    shifted = periodogram(cloud + 0.25, fmax=6)
    wrapped = periodogram(np.mod(cloud + 3.0, 1.0), fmax=6)
    np.testing.assert_allclose(shifted, base, atol=1e-8)
    np.testing.assert_allclose(wrapped, base, atol=1e-8)


def test_periodogram_permutation_invariance():
    rng = np.random.default_rng(2)
    cloud = rng.random((30, 2))
    perm = rng.permutation(30)
    np.testing.assert_allclose(
        periodogram(cloud[perm], fmax=5), periodogram(cloud, fmax=5), atol=1e-9
    )


def direct_periodogram(cloud, fmax):
    """The single product over all points, as periodogram computed it before chunking."""
    freqs = np.arange(-fmax, fmax + 1)
    ex = np.exp(-2j * np.pi * np.outer(freqs, cloud[:, 0]))
    ey = np.exp(-2j * np.pi * np.outer(freqs, cloud[:, 1]))
    amp = ex @ ey.T
    return (amp.real * amp.real + amp.imag * amp.imag) / cloud.shape[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), fmax=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
@example(n=8192, fmax=128, seed=0)      # the largest single chunk
@example(n=1, fmax=1, seed=1)
def test_single_chunk_periodogram_is_the_direct_product_bitwise(n, fmax, seed):
    cloud = np.random.default_rng(seed).uniform(-1.5, 2.5, (n, 2))
    got, want = periodogram(cloud, fmax), direct_periodogram(cloud, fmax)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, fmax", [(8193, 8), (8193, 128), (16387, 8), (16387, 128),
                                     (8193, 256)])
def test_chunked_periodogram_stays_near_the_direct_product(n, fmax):
    # above 8192 points rows are powers of exp(-2 pi i x), restarted from
    # np.exp every 32 powers, so fmax > 32 runs the restarts
    cloud = np.random.default_rng(n + fmax).uniform(-1.5, 2.5, (n, 2))
    got = periodogram(cloud, fmax)
    assert np.abs(got - direct_periodogram(cloud, fmax)).max() <= 1e-14 * n
    assert got[fmax, fmax] == pytest.approx(n, rel=1e-12)


def test_chunked_lattice_spectrum_peaks_at_multiples():
    m = 128                                 # 16384 points: two chunks
    ij = np.mgrid[0:m, 0:m].reshape(2, -1).T / m
    grid = periodogram(ij, fmax=m)
    f = np.arange(-m, m + 1)
    on_lattice = (f[:, None] % m == 0) & (f[None, :] % m == 0)
    assert np.allclose(grid[on_lattice], m * m, atol=1e-8)
    assert np.abs(grid[~on_lattice]).max() < 1e-8


def test_periodogram_memory_does_not_grow_with_n():
    # two (2F+1) x 8192 complex buffers whatever N is; the single product
    # over all 24581 points peaked at 194 MB
    cloud = np.random.default_rng(3).random((3 * 8192 + 5, 2))
    tracemalloc.start()
    try:
        periodogram(cloud, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 257 * 8192 * 16


def test_periodogram_validation():
    with pytest.raises(ValueError):
        periodogram(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        periodogram(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        periodogram(np.array([[0.1, np.nan]]))
    with pytest.raises(ValueError):
        periodogram(np.zeros((4, 2)), fmax=0)


def test_fmax_beyond_memory_is_rejected_before_any_allocation():
    # the (2F+1)^2 complex grid at F = 1e9 takes 6.4e19 bytes, beyond any machine's memory
    cloud = np.random.default_rng(4).random((16, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"^fmax must be an integer in \[1, \d+\], got 1000000000$"):
            periodogram(cloud, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_fmax_limit_falls_back_to_what_numpy_can_index(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(analysis.os, "sysconf", unknown)
    limit = analysis._fmax_limit()
    assert (2 * limit + 1) ** 2 * 16 <= np.iinfo(np.intp).max < (2 * limit + 3) ** 2 * 16


# ------------------------------------------------------------- radial stats

def test_radial_reduction_matches_loop_oracle():
    rng = np.random.default_rng(3)
    grid = rng.random((13, 13)) * 10  # fmax = 6
    stats = radial_stats([grid])
    power_ref, var_ref = radial_stats_reference(grid)
    np.testing.assert_allclose(stats.radial_power, power_ref, rtol=1e-12)
    expected = np.where(power_ref > 0, 10 * np.log10(var_ref / power_ref**2), -np.inf)
    np.testing.assert_allclose(stats.anisotropy_db,
                               np.maximum(expected, ANISOTROPY_FLOOR_DB), rtol=1e-9)
    np.testing.assert_array_equal(stats.radii, np.arange(1, 7))
    assert stats.runs == 1


def test_radial_stats_averages_runs():
    rng = np.random.default_rng(4)
    grids = [rng.random((9, 9)) for _ in range(3)]
    stats = radial_stats(grids)
    mean = radial_stats([np.mean(grids, axis=0)])
    np.testing.assert_allclose(stats.grid, np.mean(grids, axis=0), rtol=1e-12)
    np.testing.assert_allclose(stats.radial_power, mean.radial_power, rtol=1e-12)
    assert stats.runs == 3


def test_constant_grid_hits_anisotropy_floor():
    stats = radial_stats([np.full((11, 11), 2.5)])
    np.testing.assert_allclose(stats.radial_power, 2.5)
    np.testing.assert_array_equal(stats.anisotropy_db,
                                  np.full(5, ANISOTROPY_FLOOR_DB))
    assert peak_radius(stats) == 1  # all equal: tie goes to the lowest radius


def test_radial_stats_validation():
    with pytest.raises(ValueError):
        radial_stats([])
    with pytest.raises(ValueError):
        radial_stats([np.zeros((4, 4))])  # even size has no center bin
    with pytest.raises(ValueError):
        radial_stats([np.zeros((5, 7))])
    with pytest.raises(ValueError):
        radial_stats([np.zeros((5, 5)), np.zeros((7, 7))])


def test_peak_radius_and_band_mean():
    grid = np.zeros((11, 11))
    grid[5, 8] = 60.0  # a single hot bin at radius 3
    stats = radial_stats([grid])
    assert peak_radius(stats) == 3
    assert band_mean(stats, 3, 3) == pytest.approx(stats.radial_power[2])
    assert band_mean(stats, 1, 2) == pytest.approx(stats.radial_power[:2].mean())
    with pytest.raises(ValueError):
        band_mean(stats, 0.2, 0.4)  # no annulus in that range


def test_white_noise_radial_power_is_flat_near_one():
    grids = [periodogram(np.random.default_rng(s).random((256, 2)), fmax=16)
             for s in range(10)]
    stats = radial_stats(grids)
    assert band_mean(stats, 3, 16) == pytest.approx(1.0, abs=0.15)


# ------------------------------------------------------------------- scores

def test_distance_score_two_points():
    assert distance_score(np.array([[0.0, 0.0], [0.25, 0.0]])) == 0.25


def test_distance_score_periodic():
    cloud = np.array([[0.05, 0.5], [0.95, 0.5]])
    assert distance_score(cloud, PERIODIC_UNIT) == pytest.approx(0.1)
    assert distance_score(cloud) == pytest.approx(0.9)


def test_distance_score_is_mean_over_points():
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.0]])
    # nearest distances: 1.0, 0.2, 0.2
    assert distance_score(cloud) == pytest.approx((1.0 + 0.2 + 0.2) / 3)
    with pytest.raises(ValueError):
        distance_score(np.array([[0.0, 0.0]]))


# ------------------------------------------------------------------ reports

def test_increment_arithmetic():
    rep = increment_report(Scores(distance=0.02, noise=0.010),
                           Scores(distance=0.04, noise=0.011))
    assert rep.distance_increment == pytest.approx(1.0)     # +100%
    assert rep.noise_increment == pytest.approx(0.1)        # +10%
    assert rep.ratio == pytest.approx(0.1)
    assert rep.distance_score_base == 0.02
    assert rep.noise_score_ljl == 0.011


def test_increment_ratio_none_without_distance_gain():
    rep = increment_report(Scores(0.02, 0.01), Scores(0.015, 0.02))
    assert rep.distance_increment == pytest.approx(-0.25)
    assert rep.ratio is None
    rep = increment_report(Scores(0.02, 0.01), Scores(0.02, 0.02))
    assert rep.ratio is None  # zero increment has no defined tradeoff


def test_increment_zero_baseline_rejected():
    with pytest.raises(ValueError):
        increment_report(Scores(0.0, 0.01), Scores(0.1, 0.01))
    with pytest.raises(ValueError):
        increment_report(Scores(0.1, 0.0), Scores(0.1, 0.01))


# ------------------------------------------------------------------ writers

def test_profile_csv_format(tmp_path):
    stats = radial_stats([periodogram(np.random.default_rng(5).random((20, 2)), fmax=4)])
    path = tmp_path / "profile.csv"
    write_profile_csv(stats, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "radius,radial_power,anisotropy_db"
    assert len(lines) == 5  # header + one row per annulus
    r, p, a = lines[1].split(",")
    assert int(r) == 1
    assert float(p) == pytest.approx(stats.radial_power[0], rel=1e-8)
    assert float(a) == pytest.approx(stats.anisotropy_db[0], rel=1e-8)


def test_pgm_format(tmp_path):
    grid = periodogram(np.random.default_rng(6).random((30, 2)), fmax=3)
    stats = radial_stats([grid])
    path = tmp_path / "spec.pgm"
    write_periodogram_pgm(stats, path)
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert (w, h, maxval) == (7, 7, 255)
    pix = np.array([int(t) for t in tokens[4:]]).reshape(h, w)
    assert pix.min() >= 0 and pix.max() == 255
    assert pix[3, 3] == 255  # the DC bin dominates every other frequency


def test_pgm_accepts_raw_grid(tmp_path):
    path = tmp_path / "raw.pgm"
    write_periodogram_pgm(radial_stats([np.zeros((3, 3))]), path)
    tokens = path.read_text().split()
    assert tokens[:4] == ["P2", "3", "3", "255"]
    assert all(t == "0" for t in tokens[4:])


def test_spectral_stats_arrays_are_frozen():
    stats = radial_stats([np.full((5, 5), 1.0)])
    assert isinstance(stats, SpectralStats)
    with pytest.raises(ValueError):
        stats.radial_power[0] = 9.0
    with pytest.raises(ValueError):
        stats.grid[0, 0] = 9.0
