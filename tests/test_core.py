"""Pair potential, force, schedules, and the damped update step."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ljlayer.core import (
    COINCIDENT_TOL,
    LjParams,
    Schedule,
    clamp_distance,
    dt_adaptive,
    dt_exponential,
    lj_force,
    lj_potential,
    lj_step,
)
from ljlayer.metrics import EUCLIDEAN, PERIODIC_UNIT

EQ = 2.0 ** (1.0 / 6.0)  # separation where the force vanishes (sigma = 1)


# ---------------------------------------------------------------- potential

def test_potential_frozen_value():
    # 8 * ((10/9)**12 - (10/9)**6) evaluated exactly over the rationals
    v = lj_potential(0.9, LjParams(epsilon=2.0, sigma=1.0))
    assert v == pytest.approx(13.2722379065058, abs=1e-10)


def test_potential_zero_at_sigma():
    for eps in (0.5, 1.0, 2.0, 7.3):
        for sigma in (0.1, 1.0, 4.0):
            assert abs(lj_potential(sigma, LjParams(epsilon=eps, sigma=sigma))) < 1e-9


def test_potential_minimum_at_equilibrium():
    p = LjParams(epsilon=2.0, sigma=1.0)
    assert lj_potential(EQ, p) == pytest.approx(-2.0, abs=1e-9)
    p = LjParams(epsilon=0.7, sigma=3.0)
    assert lj_potential(EQ * 3.0, p) == pytest.approx(-0.7, abs=1e-9)


def test_potential_rejects_nonpositive_r():
    p = LjParams()
    with pytest.raises(ValueError):
        lj_potential(0.0, p)
    with pytest.raises(ValueError):
        lj_potential(np.array([1.0, -0.5]), p)


def test_potential_vectorized_matches_scalar():
    p = LjParams(epsilon=1.3, sigma=0.8)
    r = np.array([0.5, 0.9, 1.1, 2.0, 10.0])
    vec = lj_potential(r, p)
    assert vec.shape == r.shape
    for ri, vi in zip(r, vec):
        assert lj_potential(float(ri), p) == vi


# -------------------------------------------------------------------- force

def test_force_frozen_values():
    p = LjParams(epsilon=2.0, sigma=1.0)
    assert lj_force(1.0, p) == 48.0  # 24*2*(2 - 1), exact in floats
    assert lj_force(10.0, p) == pytest.approx(-4.7999904e-06, rel=1e-12)


def test_force_zero_at_equilibrium():
    for eps, sigma in ((2.0, 1.0), (1.0, 0.25), (5.0, 3.0)):
        p = LjParams(epsilon=eps, sigma=sigma)
        assert abs(lj_force(EQ * sigma, p)) < 1e-9


def test_force_sign_split_at_equilibrium():
    p = LjParams(epsilon=2.0, sigma=1.0)
    assert lj_force(EQ * 0.99, p) > 0  # inside: repulsive
    assert lj_force(EQ * 1.01, p) < 0  # outside: attractive


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(0.5, 20.0),
    eps=st.floats(0.1, 10.0),
    sigma=st.floats(0.05, 5.0),
)
def test_force_is_negative_potential_gradient(rho, eps, sigma):
    p = LjParams(epsilon=eps, sigma=sigma)
    r = rho * sigma
    h = 1e-6 * r
    fd = -(lj_potential(r + h, p) - lj_potential(r - h, p)) / (2.0 * h)
    f = lj_force(r, p)
    assert f == pytest.approx(fd, rel=1e-4, abs=1e-9 * eps / sigma)


# -------------------------------------------------------------------- clamp

def test_clamp_distance_window():
    p = LjParams(sigma=2.0)  # window [1.8, 200]
    assert clamp_distance(0.3, p) == 1.8
    assert clamp_distance(5.0, p) == 5.0
    assert clamp_distance(1e6, p) == 200.0
    np.testing.assert_array_equal(
        clamp_distance(np.array([0.0, 2.0, 1e9]), p), [1.8, 2.0, 200.0]
    )


@pytest.mark.parametrize("function", [lj_potential, lj_force, clamp_distance])
def test_scalar_in_float_out_and_array_in_array_out(function):
    p = LjParams()
    for r in (1.1, np.float64(1.1), np.asarray(1.1)):
        assert isinstance(function(r, p), float)
    out = function(np.array([1.1, 2.0]), p)
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_params_validation():
    with pytest.raises(ValueError):
        LjParams(epsilon=0.0)
    with pytest.raises(ValueError):
        LjParams(sigma=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be a finite number"):
            LjParams(epsilon=bad)
        with pytest.raises(ValueError, match="sigma must be a finite number"):
            LjParams(sigma=bad)
    with pytest.raises(ValueError):
        LjParams(k=0)
    for bad in (1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="k must be an integer"):
            LjParams(k=bad)
    with pytest.raises(ValueError, match=r"k must be an integer >= 1, got 2\.0"):
        LjParams(k=2.0)
    assert type(LjParams(k=np.int64(2)).k) is int and LjParams(k=np.int64(2)) == LjParams(k=2)


# ---------------------------------------------------------------- schedules

def test_dt_exponential_frozen_value():
    s = Schedule(alpha=0.5, beta=0.01)
    assert dt_exponential(100, s) == pytest.approx(0.18393972058572117, rel=1e-12)
    assert dt_exponential(0, s) == 0.5


def test_dt_adaptive_frozen_value():
    s = Schedule(alpha=2.5, beta=0.01)
    assert dt_adaptive(1, 0.1, s) == pytest.approx(0.24751245843729203, rel=1e-12)


def test_dt_adaptive_decreases_with_iteration():
    s = Schedule(alpha=2.5, beta=0.01)
    vals = [dt_adaptive(i, 0.3, s) for i in range(1, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dt_adaptive_scales_with_displacement():
    s = Schedule(alpha=1.0, beta=0.0)
    assert dt_adaptive(4, 0.0, s) == 0.0
    assert dt_adaptive(4, 0.8, s) == pytest.approx(0.2)


def test_schedule_zero_alpha_allowed():
    s = Schedule(alpha=0.0, beta=0.01)
    assert dt_exponential(5, s) == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(alpha=-0.1, beta=0.01)
    with pytest.raises(ValueError):
        Schedule(alpha=1.0, beta=-0.01)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            Schedule(alpha=bad, beta=0.01)
        with pytest.raises(ValueError, match="beta must be a finite number"):
            Schedule(alpha=1.0, beta=bad)


def test_dt_adaptive_index_validation():
    s = Schedule(alpha=1.0, beta=0.0)
    with pytest.raises(ValueError):
        dt_adaptive(0, 0.1, s)
    with pytest.raises(ValueError):
        dt_adaptive(1.5, 0.1, s)
    with pytest.raises(ValueError):
        dt_adaptive(1, -0.1, s)


# ------------------------------------------------------------------ lj_step

def _two_points(d, dim=2):
    x = np.zeros((2, dim))
    x[1, 0] = d
    return x


def test_step_pushes_close_pair_apart():
    p = LjParams(epsilon=2.0, sigma=1.0)
    out = lj_step(_two_points(0.95), np.array([1, 0]), 0.5, p)
    d = np.linalg.norm(out[1] - out[0])
    assert d > 0.95


def test_step_pulls_distant_pair_together():
    p = LjParams(epsilon=2.0, sigma=1.0)
    out = lj_step(_two_points(1.5), np.array([1, 0]), 0.5, p)
    assert np.linalg.norm(out[1] - out[0]) < 1.5


def test_step_is_symmetric_for_a_pair():
    p = LjParams(epsilon=2.0, sigma=1.0)
    x = np.array([[0.2, 0.7], [1.1, 0.1]])
    out = lj_step(x, np.array([1, 0]), 0.3, p)
    # equal and opposite moves: the centroid stays put
    np.testing.assert_allclose(out.mean(axis=0), x.mean(axis=0), atol=1e-15)


def test_step_displacement_is_bounded():
    # |tanh| <= 1 caps each per-partner move at dt^2/2
    p = LjParams(epsilon=100.0, sigma=1.0, k=3)
    rng = np.random.default_rng(11)
    x = rng.random((40, 2)) * 0.01  # everything deep in the repulsive clamp
    pairs = np.array([[(i + j) % 40 for j in (1, 2, 3)] for i in range(40)])
    dt = 0.7
    out = lj_step(x, pairs, dt, p)
    moves = np.linalg.norm(out - x, axis=1)
    assert (moves <= 3 * dt * dt / 2 + 1e-12).all()


def test_step_zero_dt_is_identity():
    p = LjParams()
    x = np.random.default_rng(3).random((10, 2))
    pairs = np.zeros(10, dtype=int)
    pairs[0] = 1
    np.testing.assert_array_equal(lj_step(x, pairs, 0.0, p), x)


def test_step_clamped_magnitude_inside_floor():
    # any separation below 0.9*sigma feels exactly the same (clamped) force
    p = LjParams(epsilon=2.0, sigma=1.0)
    dt = 0.4
    expected = np.tanh(lj_force(0.9, p)) * dt * dt / 2
    for d in (0.9, 0.5, 0.05):
        out = lj_step(_two_points(d), np.array([1, 0]), dt, p)
        move = np.linalg.norm(out[0] - _two_points(d)[0])
        assert move == pytest.approx(expected, rel=1e-12)


def test_step_direction_is_unclamped_separation():
    p = LjParams(epsilon=2.0, sigma=1.0)
    x = np.array([[0.0, 0.0], [0.3, 0.4]])  # separation 0.5, inside the clamp floor
    out = lj_step(x, np.array([1, 0]), 0.2, p)
    move = out[0] - x[0]
    unit = (x[0] - x[1]) / 0.5
    cos = move @ unit / np.linalg.norm(move)
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_step_periodic_pushes_across_boundary():
    p = LjParams(epsilon=2.0, sigma=0.5)
    x = np.array([[0.02, 0.5], [0.98, 0.5]])  # minimum-image separation 0.04
    out = lj_step(x, np.array([1, 0]), 0.3, p, metric=PERIODIC_UNIT)
    # repulsion acts through the seam: the left point moves right, not left
    assert out[0, 0] > x[0, 0]
    assert out[1, 0] < x[1, 0]


def test_step_k_partners_sum():
    p = LjParams(epsilon=2.0, sigma=1.0, k=2)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    both = lj_step(x, np.array([[1, 2], [0, 0], [0, 0]]), 0.3, p)
    one = lj_step(x, np.array([[1, 1], [0, 0], [0, 0]]), 0.3, p)
    other = lj_step(x, np.array([[2, 2], [0, 0], [0, 0]]), 0.3, p)
    # per-partner displacements add; partner duplication doubles the move
    np.testing.assert_allclose(
        both[0] - x[0], (one[0] - x[0]) / 2 + (other[0] - x[0]) / 2, atol=1e-15
    )


def test_step_deterministic():
    p = LjParams(k=2)
    rng = np.random.default_rng(5)
    x = rng.random((30, 3))
    pairs = rng.integers(0, 30, (30, 2))
    a = lj_step(x, pairs, 0.25, p)
    b = lj_step(x, pairs, 0.25, p)
    np.testing.assert_array_equal(a, b)


def test_step_coincident_pair_separates():
    p = LjParams(epsilon=2.0, sigma=1.0)
    x = np.array([[0.4, 0.4], [0.4, 0.4]])
    rng = np.random.default_rng(9)
    out = lj_step(x, np.array([1, 0]), 0.3, p, rng=rng)
    assert np.linalg.norm(out[1] - out[0]) > COINCIDENT_TOL
    # each point moved by the clamped-force magnitude along its own direction
    expected = np.tanh(lj_force(0.9, p)) * 0.3 * 0.3 / 2
    assert np.linalg.norm(out[0] - x[0]) == pytest.approx(expected, rel=1e-12)


def test_step_coincident_reproducible_with_seeded_rng():
    p = LjParams()
    x = np.zeros((2, 3))
    a = lj_step(x, np.array([1, 0]), 0.2, p, rng=np.random.default_rng(7))
    b = lj_step(x, np.array([1, 0]), 0.2, p, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_step_input_validation():
    p = LjParams()
    x = np.zeros((4, 2))
    ok = np.array([1, 0, 0, 0])
    with pytest.raises(ValueError):
        lj_step(np.zeros((4, 5)), ok, 0.1, p)
    with pytest.raises(ValueError):
        lj_step(x, np.array([1, 0]), 0.1, p)  # pairs shorter than the cloud
    with pytest.raises(ValueError):
        lj_step(x, np.array([1, 0, 0, 4]), 0.1, p)  # partner out of range
    for dt in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be a finite number >= 0"):
            lj_step(x, ok, dt, p)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        lj_step(bad, ok, 0.1, p)


@settings(max_examples=200, deadline=None)
@given(space=st.sampled_from([(2, EUCLIDEAN), (3, EUCLIDEAN), (2, PERIODIC_UNIT)]),
       n=st.integers(2, 30), k=st.integers(1, 4), scale=st.integers(-8, 8),
       coincident=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_step_equals_the_axis_reduction(space, n, k, scale, coincident, seed):
    # the per-component squared norm must add in the order (d * d).sum(axis=-1) does
    dim, metric = space
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim)) * 10.0**scale
    if coincident:
        x[: n // 2] = x[-1]
    pairs = rng.integers(0, n, (n, k))
    p = LjParams(sigma=10.0**scale, k=k)
    got = lj_step(x, pairs, 0.3, p, metric, np.random.default_rng(1))
    with mock.patch("ljlayer.core.squared_norm", lambda d: (d * d).sum(axis=-1)):
        expected = lj_step(x, pairs, 0.3, p, metric, np.random.default_rng(1))
    assert got.tobytes() == expected.tobytes()


def test_step_does_not_mutate_input():
    p = LjParams()
    x = np.random.default_rng(1).random((8, 2))
    keep = x.copy()
    lj_step(x, np.roll(np.arange(8), 1), 0.3, p)
    np.testing.assert_array_equal(x, keep)
