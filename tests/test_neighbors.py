"""Indexed nearest-neighbor queries against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ljlayer.metrics import EUCLIDEAN, PERIODIC_UNIT
from ljlayer.neighbors import NeighborList, SpatialIndex, build_index, k_nearest_all, nearest_all


def brute_k_nearest(points, metric, k):
    """Reference answer: full distance matrix, ties broken by lowest index."""
    x = np.asarray(points, dtype=float)
    n = len(x)
    d2 = metric.distance2(x[:, None, :], x[None, :, :])
    ids = np.broadcast_to(np.arange(n), (n, n))
    order = np.lexsort((ids, d2), axis=1)  # distance first, then index
    out = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        row = order[i]
        out[i] = row[row != i][:k]
    return out


# ------------------------------------------------------------------- oracle

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim,metric", [(2, EUCLIDEAN), (3, EUCLIDEAN), (2, PERIODIC_UNIT)])
def test_matches_brute_force_random_clouds(seed, dim, metric):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    x = rng.random((n, dim)) * (1.0 if metric.periodic else 10.0)
    index = SpatialIndex(x, metric)
    for k in {1, min(3, n - 1), n - 1}:
        np.testing.assert_array_equal(k_nearest_all(index, k), brute_k_nearest(x, metric, k))


def test_matches_brute_force_on_quantized_ties():
    # coordinates on a coarse grid force many exactly equal distances
    rng = np.random.default_rng(42)
    x = rng.integers(0, 5, (120, 2)).astype(float) / 5.0
    for metric in (EUCLIDEAN, PERIODIC_UNIT):
        index = SpatialIndex(x, metric)
        for k in (1, 2, 7):
            np.testing.assert_array_equal(k_nearest_all(index, k), brute_k_nearest(x, metric, k))


def test_lattice_tie_breaks_to_lowest_index():
    # the origin's four axis neighbors are equidistant; index 1 must win
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    index = build_index(x)
    assert nearest_all(index)[0] == 1
    np.testing.assert_array_equal(k_nearest_all(index, 4)[0], [1, 2, 3, 4])


def test_many_duplicates_force_exhaustive_fallback():
    # 15 coincident points exceed the tree's candidate budget for k=1 and
    # k=3, so the provably-complete check must trigger the ball rescan
    x = np.vstack([np.full((15, 2), 0.25), [[0.9, 0.9], [0.8, 0.1]]])
    for metric in (EUCLIDEAN, PERIODIC_UNIT):
        index = build_index(x, metric)
        got = nearest_all(index)
        np.testing.assert_array_equal(got, brute_k_nearest(x, metric, 1)[:, 0])
        assert got[0] == 1  # lowest co-located index other than itself
        assert (got[1:15] == 0).all()
        got = k_nearest_all(index, 3)
        np.testing.assert_array_equal(got, brute_k_nearest(x, metric, 3))
        np.testing.assert_array_equal(got[:2], [[1, 2, 3], [0, 2, 3]])


def test_periodic_wraps_across_the_seam():
    x = np.array([[0.05, 0.5], [0.95, 0.5], [0.5, 0.5]])
    index = SpatialIndex(x, PERIODIC_UNIT)
    # 0.1 through the seam beats 0.45 direct
    np.testing.assert_array_equal(k_nearest_all(index, 1)[:2, 0], [1, 0])


def test_periodic_accepts_unwrapped_coordinates():
    a = np.array([[0.1, 0.2], [0.4, 0.9]])
    b = a + np.array([[3.0, -2.0], [-1.0, 5.0]])  # same torus points
    ia, ib = SpatialIndex(a, PERIODIC_UNIT), SpatialIndex(b, PERIODIC_UNIT)
    np.testing.assert_array_equal(nearest_all(ia), nearest_all(ib))


# --------------------------------------------------------------- validation

def test_index_snapshot_is_immutable_and_detached():
    src = np.random.default_rng(0).random((10, 2))
    index = build_index(src)
    with pytest.raises(ValueError):
        index.points[0, 0] = 99.0
    first = nearest_all(index).copy()
    src[:] = 0.0  # mutating the source must not reach the snapshot
    np.testing.assert_array_equal(nearest_all(index), first)


def test_index_validation():
    with pytest.raises(ValueError):
        build_index(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        build_index(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        build_index(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        SpatialIndex(np.zeros((4, 3)), PERIODIC_UNIT)  # periodic is 2D only


def test_query_validation():
    index = build_index(np.random.default_rng(2).random((6, 2)))
    with pytest.raises(ValueError):
        k_nearest_all(index, 0)
    for bad in (1.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            k_nearest_all(index, bad)
    with pytest.raises(ValueError):
        k_nearest_all(index, 6)  # only 5 other points exist
    with pytest.raises(ValueError):
        nearest_all(build_index(np.array([[0.0, 0.0]])))


def test_integral_float_k_is_an_integer():
    index = build_index(np.random.default_rng(4).random((20, 3)))
    np.testing.assert_array_equal(k_nearest_all(index, 2.0), k_nearest_all(index, 2))


def test_extreme_coordinates_raise_cleanly():
    # squared distances overflow the tree arithmetic; must not return garbage
    x = np.array([[0.0, 0.0, 0.0], [1e200, 1e200, 1e200], [-1e200, 2e200, 0.0]])
    index = build_index(x)
    with pytest.raises(ValueError):
        nearest_all(index)


def test_metric_name_roundtrip():
    assert build_index(np.zeros((2, 2)), "periodic").metric is PERIODIC_UNIT
    with pytest.raises(ValueError):
        build_index(np.zeros((2, 2)), "manhattan")


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-17)
def test_periodic_wrap_lands_in_unit_interval(c):
    # np.mod alone maps tiny negatives such as -1e-17 to exactly 1.0
    w = PERIODIC_UNIT.wrap(np.array([c, 0.5]))
    assert ((w >= 0.0) & (w < 1.0)).all()
    build_index(np.array([[c, 0.5], [0.25, 0.75]]), "periodic")


@settings(max_examples=200, deadline=None)
@given(metric=st.sampled_from([EUCLIDEAN, PERIODIC_UNIT]), dim=st.sampled_from([2, 3]),
       n=st.integers(1, 30), m=st.integers(1, 12), scale=st.integers(-8, 8),
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_distance2_equals_the_axis_reduction(metric, dim, n, m, scale, fortran, seed):
    # the per-component sum must add in the order (d * d).sum(axis=-1) does
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, dim)) * 10.0**scale
    b = rng.standard_normal((n, m, dim)) * 10.0**scale
    if fortran:
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    for x, y in ((a, b[:, 0]), (a[:, None, :], b)):
        d = metric.delta(x - y)
        expected = (d * d).sum(axis=-1)
        got = metric.distance2(x, y)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# ------------------------------------------------------------ neighbor list

def _largest_move(metric, old, new):
    """What the relaxation loop passes on: the largest per-point move under the metric."""
    return float(np.sqrt((metric.delta(new - old) ** 2).sum(axis=1)).max())


@settings(max_examples=150, deadline=None)
@given(space=st.sampled_from([(2, EUCLIDEAN), (3, EUCLIDEAN), (2, PERIODIC_UNIT)]),
       k=st.integers(1, 3),
       n=st.integers(2, 40),
       kind=st.sampled_from(["uniform", "seam", "grid", "coincident"]),
       scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-5, 1e-3, 0.01, 0.03, 0.1, 0.6]),
                       min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@example(space=(2, PERIODIC_UNIT), k=3, n=5, kind="seam", scales=[1e-3, 0.6], seed=0)
def test_neighbor_list_matches_a_fresh_query_every_step(space, k, n, kind, scales, seed):
    # small n caches every point (m = n); larger n relies on the certificate
    dim, metric = space
    n = max(n, k + 1)
    rng = np.random.default_rng(seed)
    if kind == "grid":
        x = rng.integers(0, 4, (n, dim)) / 4.0        # many exactly equal distances
    elif kind == "seam":
        x = metric.wrap(rng.normal(0.0, 0.05, (n, dim)))  # straddles the torus corner
    else:
        x = rng.random((n, dim))
    if kind == "coincident":
        x[: n // 2] = x[-1]
    nbrs = NeighborList(metric, k)

    def check(pairs):
        # the fresh query shares the list's selection routine; the oracle does not
        np.testing.assert_array_equal(pairs, k_nearest_all(build_index(x, metric), k))
        np.testing.assert_array_equal(pairs, brute_k_nearest(x, metric, k))

    check(nbrs.update(x))
    for scale in scales:
        if kind == "grid":
            # eighths keep coordinates exact, so ties survive the move
            step = rng.integers(-1, 2, (n, dim)) * (rng.random((n, 1)) < scale) / 8.0
        elif rng.random() < 0.5:
            step = scale * rng.standard_normal((n, dim))
        else:
            # one point jumps while the rest stay: it can enter rows that never cached it
            step = np.zeros((n, dim))
            step[rng.integers(n)] = scale * rng.standard_normal(dim)
        new = metric.wrap(x + step)
        moved = _largest_move(metric, x, new)
        x = new
        check(nbrs.update(x, moved))
    assert nbrs.rebuilds <= len(scales) + 1


@pytest.mark.parametrize("metric", [EUCLIDEAN, PERIODIC_UNIT])
def test_neighbor_list_rarely_rebuilds_a_slowly_moving_cloud(metric):
    rng = np.random.default_rng(3)
    x = rng.random((300, 2))
    nbrs = NeighborList(metric, 2)
    nbrs.update(x)
    steps = 40
    for _ in range(steps):
        new = metric.wrap(x + 1e-4 * rng.standard_normal(x.shape))
        moved = _largest_move(metric, x, new)
        x = new
        np.testing.assert_array_equal(nbrs.update(x, moved),
                                      k_nearest_all(build_index(x, metric), 2))
    assert nbrs.rebuilds < steps
