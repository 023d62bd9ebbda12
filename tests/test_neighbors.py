"""Indexed nearest-neighbor queries against a brute-force oracle."""

import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ljlayer import neighbors
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


def tree_unless(all_pairs: bool):
    """Context in which indexes of more than one point build a tree unless all_pairs."""
    return mock.patch.object(neighbors, "_ALL_PAIRS", neighbors._ALL_PAIRS if all_pairs else 1)


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
    # k=3, so with a tree the provably-complete check must trigger the wider re-query
    x = np.vstack([np.full((15, 2), 0.25), [[0.9, 0.9], [0.8, 0.1]]])
    for metric, all_pairs in itertools.product((EUCLIDEAN, PERIODIC_UNIT), (True, False)):
        with tree_unless(all_pairs):
            index = build_index(x, metric)
        got = nearest_all(index)
        np.testing.assert_array_equal(got, brute_k_nearest(x, metric, 1)[:, 0])
        assert got[0] == 1  # lowest co-located index other than itself
        assert (got[1:15] == 0).all()
        got = k_nearest_all(index, 3)
        np.testing.assert_array_equal(got, brute_k_nearest(x, metric, 3))
        np.testing.assert_array_equal(got[:2], [[1, 2, 3], [0, 2, 3]])


@settings(max_examples=150, deadline=None)
@given(space=st.sampled_from([(2, EUCLIDEAN), (3, EUCLIDEAN), (2, PERIODIC_UNIT)]),
       k=st.integers(1, 3), sizes=st.lists(st.integers(1, 25), min_size=1, max_size=8),
       singles=st.integers(3, 20), grid=st.booleans(), seed=st.integers(0, 2**32 - 1),
       all_pairs=st.booleans())
def test_duplicate_groups_match_brute_force(space, k, sizes, singles, grid, seed, all_pairs):
    # groups of coincident points overflow the first query's candidates; on the
    # torus, integer offsets make copies that wrap to equal or nearly equal points.
    # Most of these clouds are small enough to score every pair: all_pairs=False
    # sends them through the tree
    dim, metric = space
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, 4, (len(sizes), dim)) / 4.0 if grid else rng.random((len(sizes), dim))
    x = np.vstack([np.repeat(sites, sizes, axis=0), rng.random((singles, dim))])
    x = x[rng.permutation(len(x))]
    if metric.periodic:
        x += rng.integers(-2, 3, x.shape)
    with tree_unless(all_pairs):
        index = build_index(x, metric)
    np.testing.assert_array_equal(k_nearest_all(index, k), brute_k_nearest(metric.wrap(x), metric, k))


@pytest.mark.parametrize("n", [neighbors._ALL_PAIRS, neighbors._ALL_PAIRS + 1])
@pytest.mark.parametrize("kind", ["uniform", "grid", "coincident"])
@pytest.mark.parametrize("metric", [EUCLIDEAN, PERIODIC_UNIT])
def test_all_pairs_and_tree_agree_at_the_crossover(n, kind, metric):
    # the largest cloud that scores every pair and the smallest that builds a tree
    rng = np.random.default_rng(n)
    x = rng.integers(0, 4, (n, 2)) / 4.0 if kind == "grid" else rng.random((n, 2))
    if kind == "coincident":
        x[: n // 2] = x[-1]
    index = build_index(x, metric)
    assert (index._tree is None) == (n <= neighbors._ALL_PAIRS)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(k_nearest_all(index, k), brute_k_nearest(x, metric, k))


def test_periodic_index_scores_the_wrapped_cloud():
    # the copies of one torus point wrap to coordinates a rounding apart, so the
    # tree and the re-score must both see the wrapped cloud
    offsets = [(2, -1), (2, -2), (-2, -2), (1, 1), (-1, -2), (-1, -2), (1, 2), (0, -1), (0, -1),
               (-2, -2), (1, 1)]
    x = np.array([0.32, 0.03]) + np.array(offsets, dtype=float)
    index = build_index(x, "periodic")
    expected = brute_k_nearest(PERIODIC_UNIT.wrap(x), PERIODIC_UNIT, 3)
    np.testing.assert_array_equal(nearest_all(index), expected[:, 0])
    np.testing.assert_array_equal(k_nearest_all(index, 3), expected)


@pytest.mark.parametrize("metric", [EUCLIDEAN, PERIODIC_UNIT])
@pytest.mark.parametrize("k", [1, 3])
def test_coincident_points_take_one_query_per_round(metric, k):
    # a per-row rescan of 8000 identical points is quadratic: several seconds
    n = 8000
    x = np.full((n, 2), 0.25)
    expected = np.tile(np.arange(k), (n, 1))        # row i > k: ids 0..k-1
    for i in range(k + 1):
        expected[i] = [j for j in range(k + 1) if j != i]
    start = time.perf_counter()
    got = k_nearest_all(build_index(x, metric), k)
    elapsed = time.perf_counter() - start
    np.testing.assert_array_equal(got, expected)
    assert elapsed < 3.0


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


@pytest.mark.filterwarnings("error")
def test_extreme_coordinates_raise_cleanly():
    # squared distances overflow the tree's arithmetic and the all-pairs scoring
    # alike; must not return garbage, nor warn before it raises
    far = np.array([[0.0, 0.0, 0.0], [1e200, 1e200, 1e200], [-1e200, 2e200, 0.0]])
    near = np.random.default_rng(9).random((neighbors._ALL_PAIRS + 1 - len(far), 3))
    for x in (far, np.vstack([far, near])):
        index = build_index(x)
        with pytest.raises(ValueError, match="coordinates are too extreme"):
            nearest_all(index)


def _both_paths(x, k):
    """k_nearest_all with the tree forced and with every pair forced: each
    result is the table or the ValueError raised."""
    out = []
    for all_pairs in (1, len(x) + 1):
        with mock.patch.object(neighbors, "_ALL_PAIRS", all_pairs):
            index = build_index(x)
            assert (index._tree is None) == (all_pairs > len(x))
            try:
                out.append(k_nearest_all(index, k))
            except ValueError as exc:
                out.append(exc)
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [10, neighbors._ALL_PAIRS, neighbors._ALL_PAIRS + 1, 300])
def test_overflowing_pairs_are_absent_on_both_paths(n):
    # two coincident points at 1e200 among uniform ones: the tree marks every
    # pair between the groups as unreachable, the all-pairs scores read inf,
    # and each point's nearest neighbor is finite all the same
    x = np.random.default_rng(n).random((n, 3))
    x[-2:] = 1e200
    tree, every = _both_paths(x, 1)
    np.testing.assert_array_equal(tree, every)
    np.testing.assert_array_equal(tree[-2:, 0], [n - 1, n - 2])
    np.testing.assert_array_equal(tree[:-2], brute_k_nearest(x[:-2], EUCLIDEAN, 1))
    # a single far point's nearest neighbor overflows: both paths raise
    x[-1] = 0.5
    for result in _both_paths(x, 1):
        assert isinstance(result, ValueError) and "coordinates are too extreme" in str(result)


def test_neighbor_list_rebuilds_when_overflowing_pairs_close_in():
    # clusters of 9 points 1e200 apart: every pair between clusters overflows,
    # so a tree row holds only its own cluster; a cluster that moves onto
    # another must still force a rebuild
    rng = np.random.default_rng(0)
    x = (np.arange(15)[:, None, None] * [1e200, 0.0, 0.0] + rng.random((15, 9, 3))).reshape(-1, 3)
    nl = NeighborList("euclidean", 1)
    np.testing.assert_array_equal(nl.update(x), k_nearest_all(build_index(x), 1))
    x[:9, 0] += 1e200
    np.testing.assert_array_equal(nl.update(x, 1e200), k_nearest_all(build_index(x), 1))
    assert nl.rebuilds == 2


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


@settings(max_examples=200, deadline=None)
@given(metric=st.sampled_from([EUCLIDEAN, PERIODIC_UNIT]), dim=st.sampled_from([2, 3]),
       n=st.integers(2, 30), m=st.integers(1, 12), shared=st.booleans(), scale=st.integers(-8, 8),
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_per_coordinate_scores_equal_the_gathered_stack(metric, dim, n, m, shared, scale,
                                                        fortran, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim)) * 10.0**scale
    if fortran:
        x = np.asfortranarray(x)
    rows = rng.permutation(n)[: rng.integers(1, n + 1)]
    cand = np.arange(n)[None, :] if shared else np.sort(rng.integers(0, n, (len(rows), m)), axis=1)
    expected = metric.distance2(x.take(rows, axis=0)[:, None, :], x.take(cand, axis=0))
    got = neighbors._distance2(metric, x, rows, cand)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(metric=st.sampled_from([EUCLIDEAN, PERIODIC_UNIT]), n=st.integers(2, 40),
       m=st.integers(2, 16), k=st.integers(1, 5), shared=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_argmin_passes_take_lexsort_order(metric, n, m, k, shared, seed):
    # quarter-grid coordinates tie many distances; each row keeps (distance, id) order
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, (n, 2)) / 4.0
    rows = np.arange(n)
    if shared:
        cand = np.arange(n)[None, :]
    else:   # distinct ascending ids that include the row itself, as a tree returns
        m = min(m, n)
        cand = np.sort([np.r_[i, rng.permutation(np.delete(rows, i))[: m - 1]] for i in rows])
    k = min(k, cand.shape[1] - 1)
    table, dk, _ = neighbors._select(metric, x, rows, cand, np.inf, k)
    full = np.broadcast_to(cand, (n, cand.shape[1]))
    for i in rows:
        ids = full[i][full[i] != i]
        d2 = metric.distance2(x[i], x.take(ids, axis=0))
        order = np.lexsort((ids, d2))[:k]
        np.testing.assert_array_equal(table[i], ids[order])
        assert dk[i] == np.sqrt(d2[order[-1]])


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
       seed=st.integers(0, 2**32 - 1), all_pairs=st.booleans())
@example(space=(2, PERIODIC_UNIT), k=3, n=5, kind="seam", scales=[1e-3, 0.6], seed=0,
         all_pairs=False)
# a large move makes the next rebuild narrow, with tied rows sent to the wider query;
# the small ones after it widen the table again
@example(space=(2, PERIODIC_UNIT), k=3, n=30, kind="grid", scales=[0.6, 0.03, 0.01, 0.01],
         seed=3, all_pairs=False)
def test_neighbor_list_matches_a_fresh_query_every_step(space, k, n, kind, scales, seed,
                                                        all_pairs):
    # every pair, or with a tree: small n caches every point (m = n), larger n
    # relies on the certificate
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

    with tree_unless(all_pairs):
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
        with tree_unless(all_pairs):
            check(nbrs.update(x, moved))
    assert nbrs.rebuilds <= len(scales) + 1
    if all_pairs:
        assert nbrs.rebuilds == 1 and nbrs.rescans == 0


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


@pytest.mark.parametrize("metric", [EUCLIDEAN, PERIODIC_UNIT])
def test_neighbor_list_widens_again_once_steps_slow_down(metric):
    rng = np.random.default_rng(11)
    x = rng.random((300, 2))
    nbrs = NeighborList(metric, 2)
    nbrs.update(x)

    def step(length):
        nonlocal x
        turn = rng.uniform(0.0, 2.0 * np.pi, len(x))
        new = metric.wrap(x + length * np.column_stack([np.cos(turn), np.sin(turn)]))
        moved = _largest_move(metric, x, new)
        x = new
        np.testing.assert_array_equal(nbrs.update(x, moved), brute_k_nearest(x, metric, 2))

    for _ in range(20):
        step(0.2)       # farther than any row's certificate radius
    assert nbrs._cand.shape[1] == 2 + 2      # such steps rebuild narrow
    fast = nbrs.rebuilds
    for _ in range(40):
        step(1e-4)
    # a list that stayed narrow would fail a row and rebuild on most slow steps
    assert nbrs.rebuilds <= fast + 1


def test_neighbor_list_rejects_a_negative_move():
    rng = np.random.default_rng(5)
    x = rng.random((50, 2))
    nbrs = NeighborList(EUCLIDEAN, 1)
    nbrs.update(x)
    x[0] = x[1] + 1e-4
    # a negative move would shrink the drift and certify a stale table
    with pytest.raises(ValueError, match="moved must be >= 0"):
        nbrs.update(x, -5.0)
    np.testing.assert_array_equal(nbrs.update(x, np.nan), k_nearest_all(build_index(x), 1))
    assert nbrs.rebuilds == 2   # NaN certifies nothing: it rebuilds
    x[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        nbrs.update(x, np.nan)


def test_neighbor_list_rejects_a_cloud_of_another_shape():
    rng = np.random.default_rng(6)
    nbrs = NeighborList(EUCLIDEAN, 1)
    nbrs.update(rng.random((50, 2)))
    # stale 2D candidates would score the 3D cloud; 60 rows would outrun the table
    for shape in ((50, 3), (60, 2)):
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\).*\(50, 2\)"):
            nbrs.update(rng.random(shape))
    assert nbrs.rebuilds == 1


def test_neighbor_list_takes_an_integral_float_k():
    rng = np.random.default_rng(5)
    x = rng.random((50, 2))
    nbrs = NeighborList(EUCLIDEAN, 2.0)
    assert nbrs.k == 2 and isinstance(nbrs.k, int)
    np.testing.assert_array_equal(nbrs.update(x), k_nearest_all(build_index(x), 2))
    new = x + 1e-6 * rng.standard_normal(x.shape)
    moved = _largest_move(EUCLIDEAN, x, new)
    # the second update selects from the cached candidates, with k as a slice bound
    np.testing.assert_array_equal(nbrs.update(new, moved), k_nearest_all(build_index(new), 2))
    assert nbrs.rebuilds == 1
    for bad in (1.5, 0, -1, np.nan):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            NeighborList(EUCLIDEAN, bad)
