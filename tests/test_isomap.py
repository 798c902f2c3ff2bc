import heapq
import importlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from topoclass import cli
from topoclass import numerics as numerics_mod
from topoclass.data import LabeledPointCloud, gen_annulus2d, gen_nested_shells, save_cloud
from topoclass.errors import DisconnectedError, NumericalError, SpecError
from topoclass.isomap import (
    DUPLICATE_POINT_WEIGHT,
    TILE_ENTRIES,
    NeighborGraph,
    _sq_dist_blocks,
    classical_mds,
    geodesic_distances,
    graph_components,
    isomap,
    knn_graph,
    pairwise_distances,
)
from topoclass.numerics import make_rng
from topoclass.topology import _min_dists, component_count

# the package's ``isomap`` attribute is the function, not the module
isomap_mod = importlib.import_module("topoclass.isomap")


def floyd_warshall(weights):
    """Dense all-pairs oracle."""
    n = weights.shape[0]
    dist = np.where(weights > 0.0, weights, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, np.newaxis] + dist[k, :][np.newaxis, :])
    return dist


def geodesics_with_final_min(graph):
    """The Floyd-Warshall loop of geodesic_distances, then its min with the transpose."""
    dist = np.where(graph.weights > 0.0, graph.weights, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return np.minimum(dist, dist.T)


def dijkstra(weights):
    """Binary-heap Dijkstra from every source: an oracle independent of the
    min-plus recursion that geodesic_distances and floyd_warshall share."""
    n = weights.shape[0]
    out = np.full((n, n), np.inf)
    for src in range(n):
        dist = out[src]
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in np.nonzero(weights[u])[0]:
                cand = d + weights[u, v]
                if cand < dist[v]:
                    dist[v] = cand
                    heapq.heappush(heap, (cand, v))
    return out


def random_connected_graph(rng, n, dyadic=False):
    """Random symmetric weighted graph, connected via a spanning path."""
    weights = np.zeros((n, n))

    def draw():
        if dyadic:
            return float(rng.integers(1, 4097)) / 256.0
        return float(rng.uniform(0.1, 4.0))

    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        w = draw()
        weights[a, b] = weights[b, a] = w
    extra = int(rng.integers(n, 3 * n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            w = draw()
            weights[a, b] = weights[b, a] = w
    return NeighborGraph(weights=weights)


def broadcast_sq_dists(xs, pts):
    """Squared distances through one (rows, m, d) difference array, summed over d."""
    return ((xs[:, None] - pts[None]) ** 2).sum(axis=2)


class TestSquaredDistanceBlocks:
    """Blocked per-coordinate distances against the broadcast formula.

    Below 8 coordinates numpy sums the broadcast array's last axis in
    coordinate order, the order the blocks accumulate in, so the results are
    bit-identical; from 8 on numpy sums pairwise and only rounding differs.
    """

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_bit_identical_below_eight_coordinates(self, dim):
        rng = make_rng(dim)
        pts = rng.standard_normal((60, dim))
        assert np.array_equal(pairwise_distances(pts), np.sqrt(broadcast_sq_dists(pts, pts)))
        # 1200 rows against 900 points is 34 tiles of 36 rows, the last one 12
        xs = rng.uniform(-3.0, 3.0, size=(1200, dim))
        ref = rng.uniform(-3.0, 3.0, size=(900, dim))
        expected = np.sqrt(broadcast_sq_dists(xs, ref).min(axis=1))
        assert np.array_equal(_min_dists(xs, ref), expected)

    def test_pairwise_spans_several_blocks(self):
        pts = make_rng(11).standard_normal((1100, 3))
        assert np.array_equal(pairwise_distances(pts), np.sqrt(broadcast_sq_dists(pts, pts)))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_ragged_last_tile(self, dim):
        rng = make_rng(20 + dim)
        xs = rng.standard_normal((1001, dim))
        pts = rng.standard_normal((300, dim))
        tiles = list(_sq_dist_blocks(xs, pts))
        chunk = TILE_ENTRIES // 300
        assert [t.shape[0] for _, t in tiles] == [chunk] * (1001 // chunk) + [1001 % chunk]
        assert np.array_equal(np.concatenate([t for _, t in tiles]), broadcast_sq_dists(xs, pts))

    def test_one_row_per_tile_past_the_tile_size(self):
        rng = make_rng(30)
        xs = rng.standard_normal((3, 2))
        pts = rng.standard_normal((TILE_ENTRIES + 5, 2))
        tiles = list(_sq_dist_blocks(xs, pts))
        assert [rows for rows, _ in tiles] == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert np.array_equal(np.concatenate([t for _, t in tiles]), broadcast_sq_dists(xs, pts))

    def test_min_dists_memory_does_not_grow_with_grid_times_points(self):
        # the default urysohn grid against one 500-point class: blocks of
        # about 1e6 entries (8 MB) peaked at 32 MB, 256 KB tiles near 1 MB
        axis = np.linspace(-2.5, 2.5, 101)
        grid = np.column_stack([g.ravel() for g in np.meshgrid(axis, axis)])
        pts = make_rng(31).standard_normal((500, 2))
        tracemalloc.start()
        try:
            _min_dists(grid, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_no_coordinates_is_distance_zero(self):
        assert np.array_equal(pairwise_distances(np.empty((3, 0))), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "xs, pts",
        [
            ([[1e308, 1e308]], [[0.0, 0.0]]),
            ([[1e200, 0.0]], [[0.0, 0.0], [1.0, 1.0]]),
            ([[1e154, 0.0], [-1e154, 0.0]], [[1e154, 0.0], [-1e154, 0.0]]),
        ],
    )
    def test_overflowing_distances_raise_without_warning(self, xs, pts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if xs == pts:
                # each point is its own nearest, so no distance _min_dists returns overflows
                assert _min_dists(np.array(xs), np.array(pts)).tolist() == [0.0, 0.0]
            else:
                with pytest.raises(NumericalError):
                    _min_dists(np.array(xs), np.array(pts))
            with pytest.raises(NumericalError):
                pairwise_distances(np.array(xs + pts))

    @pytest.mark.parametrize("build", [pairwise_distances, lambda pts: knn_graph(pts, 1)])
    def test_a_returned_distance_that_overflows_raises_the_one_text(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as raised:
                build(np.array([[1e154, 0.0], [-1e154, 0.0]]))
        assert str(raised.value) == "points too far apart: squared distances overflow float64"

    def test_empty_rows(self):
        assert _min_dists(np.empty((0, 2)), np.ones((4, 2))).shape == (0,)
        assert pairwise_distances(np.empty((0, 3))).shape == (0, 0)

    @pytest.mark.parametrize("dim", [8, 9, 16, 33])
    def test_agree_to_rounding_from_eight_coordinates(self, dim):
        rng = make_rng(dim)
        xs = rng.standard_normal((300, dim))
        pts = rng.standard_normal((200, dim))
        expected = np.sqrt(broadcast_sq_dists(xs, pts).min(axis=1))
        np.testing.assert_allclose(_min_dists(xs, pts), expected, rtol=1e-15, atol=0)
        np.testing.assert_allclose(
            pairwise_distances(xs), np.sqrt(broadcast_sq_dists(xs, xs)), rtol=1e-15, atol=0
        )


def union_find_components(weights):
    """Components by union-find over every edge, grouped by root, sorted by first node."""
    parent = list(range(weights.shape[0]))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in zip(*np.nonzero(weights)):
        parent[find(b)] = find(a)
    groups = {}
    for node in range(len(parent)):
        groups.setdefault(find(node), []).append(node)
    return sorted(groups.values(), key=lambda c: c[0])


def knn_oracle(points, k):
    """knn_graph's weights picked one row at a time, skipping the point itself."""
    dists = pairwise_distances(points)
    n = dists.shape[0]
    weights = np.zeros((n, n))
    for i in range(n):
        picked = 0
        for j in np.argsort(dists[i], kind="stable"):
            if j == i:
                continue
            weights[i, j] = weights[j, i] = max(dists[i, j], DUPLICATE_POINT_WEIGHT)
            picked += 1
            if picked == k:
                break
    return weights


class TestKnnGraph:
    @pytest.mark.parametrize(
        "pts",
        [
            # an integer grid: many exact distance ties, broken by index
            np.array([[x, y] for x in range(4) for y in range(3)], dtype=np.float64),
            # duplicated points: zero distances tie with the point itself
            np.repeat(make_rng(3).standard_normal((4, 3)), [3, 1, 2, 2], axis=0),
            make_rng(4).standard_normal((9, 5)),
        ],
        ids=["grid", "duplicates", "random-5d"],
    )
    def test_matches_per_row_oracle_for_every_k(self, pts):
        for k in range(1, len(pts)):
            assert np.array_equal(knn_graph(pts, k).weights, knn_oracle(pts, k)), k

    def test_collinear_path(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        graph = knn_graph(pts, 1)
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(graph.weights, expected)

    def test_full_k_gives_complete_graph(self):
        pts = make_rng(1).standard_normal((12, 3))
        graph = knn_graph(pts, 11)
        assert graph.edge_count() == 12 * 11 // 2

    def test_symmetry(self):
        pts = make_rng(2).standard_normal((30, 2))
        graph = knn_graph(pts, 4)
        assert np.array_equal(graph.weights, graph.weights.T)

    def test_duplicates_get_positive_weight(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        graph = knn_graph(pts, 1)
        assert graph.weights[0, 1] == 1e-12

    def test_k_out_of_range(self):
        pts = np.zeros((4, 2))
        with pytest.raises(SpecError):
            knn_graph(pts, 0)
        with pytest.raises(SpecError):
            knn_graph(pts, 4)


class TestGeodesics:
    def test_path_graph_endpoints(self):
        weights = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        dist = geodesic_distances(NeighborGraph(weights=weights))
        assert dist[0, 2] == 2.0
        assert np.array_equal(dist, dist.T)
        assert np.diagonal(dist).max() == 0.0

    def test_complete_graph_equals_euclidean(self):
        pts = make_rng(3).standard_normal((15, 3))
        graph = knn_graph(pts, 14)
        dist = geodesic_distances(graph)
        np.testing.assert_allclose(dist, pairwise_distances(pts), rtol=0, atol=1e-12)

    def test_matches_floyd_warshall(self):
        rng = make_rng(4)
        for _ in range(5):
            graph = random_connected_graph(rng, 30)
            got = geodesic_distances(graph)
            want = floyd_warshall(graph.weights)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_dijkstra(self):
        rng = make_rng(4)
        graphs = [random_connected_graph(rng, 30) for _ in range(5)]
        base = make_rng(15).standard_normal((30, 2))
        duplicated = knn_graph(np.vstack([base, base[:10]]), 5)
        assert (duplicated.weights == DUPLICATE_POINT_WEIGHT).any()
        for graph in graphs + [duplicated]:
            got = geodesic_distances(graph)
            np.testing.assert_allclose(got, dijkstra(graph.weights), rtol=0, atol=1e-12)

    def test_exactly_symmetric_without_a_final_min(self):
        rng = make_rng(16)
        path = np.diag(rng.uniform(0.1, 4.0, size=11), 1)
        tied = np.ones((12, 12)) - np.eye(12)  # every path of two edges ties with every other
        ring = np.roll(np.eye(20), 1, axis=1) + np.roll(np.eye(20), -1, axis=1)
        graphs = [random_connected_graph(rng, 40) for _ in range(3)]
        graphs += [random_connected_graph(rng, 40, dyadic=True) for _ in range(3)]
        graphs += [
            NeighborGraph(weights=path + path.T),
            knn_graph(rng.standard_normal((25, 3)), 24),  # complete
            NeighborGraph(weights=tied),
            NeighborGraph(weights=0.1 * ring),  # two tied ways round to the opposite node
        ]
        for graph in graphs:
            got = geodesic_distances(graph)
            assert np.array_equal(got, got.T)
            assert np.array_equal(got, geodesics_with_final_min(graph))

    def test_geodesic_at_least_euclidean(self):
        pts = make_rng(5).standard_normal((40, 2))
        graph = knn_graph(pts, 5)
        geo = geodesic_distances(graph)
        assert (geo >= pairwise_distances(pts) - 1e-9).all()

    def test_triangle_inequality(self):
        rng = make_rng(13)
        graph = random_connected_graph(rng, 20)
        geo = geodesic_distances(graph)
        via = geo[:, :, np.newaxis] + geo[np.newaxis, :, :]  # via[i, k, j]
        assert (geo[:, np.newaxis, :] <= via + 1e-9).all()

    def test_disconnected_raises_with_components(self):
        weights = np.zeros((4, 4))
        weights[0, 1] = weights[1, 0] = 1.0
        weights[2, 3] = weights[3, 2] = 1.0
        graph = NeighborGraph(weights=weights)
        with pytest.raises(DisconnectedError) as err:
            geodesic_distances(graph)
        assert err.value.components == [[0, 1], [2, 3]]

    def test_graph_components(self):
        weights = np.zeros((3, 3))
        graph = NeighborGraph(weights=weights)
        assert graph_components(graph) == [[0], [1], [2]]

    def test_graph_components_match_union_find(self):
        rng = make_rng(12)
        for n in (1, 2, 7, 30):
            for p in (0.0, 0.05, 0.2, 1.0):
                upper = np.triu(rng.uniform(size=(n, n)) < p, 1)
                graph = NeighborGraph(weights=(upper | upper.T).astype(np.float64))
                assert graph_components(graph) == union_find_components(graph.weights)


class TestClassicalMds:
    def test_two_points(self):
        d = np.array([[0.0, 4.0], [4.0, 0.0]])
        result = classical_mds(d, 1)
        coords = result.coordinates[:, 0]
        assert abs(abs(coords[0] - coords[1]) - 4.0) < 1e-9
        assert abs(coords.sum()) < 1e-9

    def test_recovers_euclidean_configuration(self):
        rng = make_rng(6)
        for n in (10, 30, 50):
            pts = rng.standard_normal((n, 3))
            d = pairwise_distances(pts)
            result = classical_mds(d, 3)
            np.testing.assert_allclose(
                pairwise_distances(result.coordinates), d, rtol=0, atol=1e-6
            )
            assert result.clamped == 0

    def test_planar_square_stress(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        result = classical_mds(pairwise_distances(square), 2)
        assert result.stress < 1e-9

    def test_coordinates_are_centered(self):
        pts = make_rng(7).standard_normal((25, 4))
        result = classical_mds(pairwise_distances(pts), 3)
        assert np.abs(result.coordinates.mean(axis=0)).max() < 1e-9

    def test_eigenvalues_descending_full_spectrum(self):
        pts = make_rng(8).standard_normal((12, 3))
        result = classical_mds(pairwise_distances(pts), 2)
        assert result.eigenvalues.shape == (12,)
        assert (np.diff(result.eigenvalues) <= 1e-9).all()

    # the tolerances are relative to the largest entry, below 1 too
    @pytest.mark.parametrize(
        "d, text",
        [
            ([[0.0, 1.0], [2.0, 0.0]], "distance matrix must be symmetric"),
            ([[0.0, 1e-12], [3e-10, 0.0]], "distance matrix must be symmetric"),
            ([[5e-13, 1e-12], [1e-12, 0.0]], "distance matrix must have a zero diagonal"),
        ],
        ids=["asymmetric", "asymmetric-below-1", "diagonal-below-1"],
    )
    def test_rejects_asymmetric_or_nonzero_diagonal(self, d, text):
        with pytest.raises(SpecError, match=f"^{text}$"):
            classical_mds(np.array(d), 1)

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(SpecError, match=r"^distance matrix must be non-empty, got 0x0$"):
            classical_mds(np.zeros((0, 0)), 1)

    def test_all_zero_distances_embed_at_the_origin(self):
        result = classical_mds(np.zeros((3, 3)), 2)
        assert result.coordinates.tolist() == [[0.0, 0.0]] * 3
        assert result.stress == 0.0

    def test_accepts_asymmetry_within_its_tolerance(self):
        # 1e-10 of asymmetry in d passes its 1e-9 check, but leaves the centred
        # matrix past eigh_symmetric's EIGH_TOL unless MDS symmetrises it first
        d = pairwise_distances(make_rng(9).standard_normal((30, 2)))
        d[0, 1] *= 1.0 + 1e-10
        result = classical_mds(d, 2)
        assert result.clamped == 0 and result.stress < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(SpecError, match="distances must be nonnegative"):
            classical_mds(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)

    def test_non_euclidean_clamps_and_flags(self):
        # violates the triangle inequality: not embeddable, B has negative spectrum
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
        result = classical_mds(d, 3)
        assert result.clamped >= 1
        assert np.isfinite(result.coordinates).all()

    @pytest.mark.parametrize(
        "gap", [1.5e154, 1.2e154], ids=["square-overflows", "sum-of-squares-overflows"]
    )
    def test_overflowing_squares_are_numerical_error(self, gap):
        with pytest.raises(NumericalError, match="overflow float64"):
            classical_mds(np.array([[0.0, gap], [gap, 0.0]]), 1)


class TestIsomapComposition:
    def test_planar_data_large_k_preserves_distances(self):
        pts = make_rng(9).standard_normal((25, 2))
        result = isomap(pts, 24, target_dim=2)
        np.testing.assert_allclose(
            pairwise_distances(result.coordinates), pairwise_distances(pts), rtol=0, atol=1e-6
        )

    def test_high_dim_projects_to_three(self):
        pts = make_rng(10).standard_normal((40, 5))
        result = isomap(pts, 10, target_dim=3)
        assert result.coordinates.shape == (40, 3)

    def test_permutation_equivariance_up_to_isometry(self):
        rng = make_rng(11)
        pts = rng.standard_normal((20, 3))
        perm = rng.permutation(20)
        a = isomap(pts, 19, target_dim=2)
        b = isomap(pts[perm], 19, target_dim=2)
        da = pairwise_distances(a.coordinates)[np.ix_(perm, perm)]
        db = pairwise_distances(b.coordinates)
        np.testing.assert_allclose(da, db, rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "entry", ["isomap", "cmd_isomap", "cmd_isomap_largest_component", "project_stage"]
    )
    def test_every_entry_point_peaks_within_the_plan_less_eigh(self, entry, tmp_path):
        # knn_graph's plan rests on dense Isomap holding at most
        # TRACED_ARRAYS = 5 n x n float64 arrays that tracemalloc sees (LAPACK
        # eigh's EIGH_ARRAYS it cannot see): knn_graph alone 3.2,
        # geodesics 2.0 beside the graph, MDS 3.8 beside the geodesics once
        # the graph is freed.  Measured on this 5-D lift of a 200-per-class
        # annulus (n = 400): isomap() 4.83, cmd_isomap 4.85, _project_stage
        # 4.83; with --largest-component on three bands (n = 402, the far
        # band cut off at k = 10) 3.22, the cut's kNN graph of every point;
        # isomap() on the 268 kept points, after that graph is freed, 2.15
        annulus = gen_annulus2d(200, 0)
        lifted = annulus.points @ make_rng(0).standard_normal((2, 5))
        cloud = LabeledPointCloud(5, lifted, annulus.labels, 2)
        flags = []
        if entry == "cmd_isomap_largest_component":
            cloud = gen_nested_shells(2, [(0.0, 0.9), (1.0, 2.0), (50.0, 51.0)], 134, 1)
            flags = ["--largest-component"]
        save_cloud(cloud, tmp_path / "data.json")
        argv = ["isomap", str(tmp_path / "data.json"), "--out-dir", str(tmp_path), *flags]
        args = cli.build_parser().parse_args(argv)
        calls = {
            "isomap": lambda: isomap(cloud.points, 10, target_dim=3),
            "cmd_isomap": lambda: cli.cmd_isomap(args),
            "cmd_isomap_largest_component": lambda: cli.cmd_isomap(args),
            "project_stage": lambda: cli._project_stage(cloud.points, 10),
        }
        n = len(cloud)
        tracemalloc.start()
        try:
            out = calls[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if flags:
            assert out[1][0].startswith("embedded 268 points")
        assert peak <= 8 * isomap_mod.TRACED_ARRAYS * n * n

    def test_deterministic(self):
        pts = make_rng(12).standard_normal((30, 4))
        a = isomap(pts, 6)
        b = isomap(pts, 6)
        assert np.array_equal(a.coordinates, b.coordinates)
        assert a.stress == b.stress


def largest_component_subgraph_oracle(points, k, target_dim):
    """``isomap --largest-component`` as one kNN graph, cut to its largest component's subgraph."""
    graph = knn_graph(points, k)
    keep = max(graph_components(graph), key=len)
    sub = NeighborGraph(weights=graph.weights[np.ix_(keep, keep)])
    return keep, classical_mds(geodesic_distances(sub), target_dim)


def tie_heavy_lattice():
    """A 12 x 12 integer lattice, 20 of its points twice, and a far blob of 15."""
    lattice = np.array([(x, y) for x in range(12) for y in range(12)], dtype=float)
    blob = 100.0 + make_rng(3).standard_normal((15, 2))
    points = np.concatenate([lattice, lattice[::7][:20], blob])
    labels = (np.arange(len(points)) % 2).astype(np.int64)
    return LabeledPointCloud(2, points, labels, 2)


@pytest.mark.parametrize(
    "cloud, k",
    [
        (gen_nested_shells(2, [(0.0, 0.9), (1.0, 2.0), (50.0, 51.0)], 100, 1), 5),
        (gen_nested_shells(2, [(0.0, 0.9), (1.0, 2.0), (50.0, 51.0)], 100, 1), 8),
        (tie_heavy_lattice(), 4),
        (tie_heavy_lattice(), 6),
    ],
    ids=["far band k=5", "far band k=8", "lattice k=4", "lattice k=6"],
)
def test_largest_component_cut_then_isomap_matches_the_subgraph_oracle(cloud, k, tmp_path):
    # a point's k nearest neighbours lie in its own component, so the kNN
    # graph of the kept points is the full graph's subgraph on them, ties
    # and duplicate weights included
    save_cloud(cloud, tmp_path / "data.json")
    argv = ["isomap", str(tmp_path / "data.json"), "--knn", str(k), "--largest-component",
            "--out-dir", str(tmp_path)]
    files, _, _ = cli.cmd_isomap(cli.build_parser().parse_args(argv))
    got = json.loads(files[0][1])
    keep, expected = largest_component_subgraph_oracle(cloud.points, k, 3)
    assert len(keep) < len(cloud)
    assert np.array_equal(np.array(got["coordinates"]), expected.coordinates)
    assert np.array_equal(np.array(got["eigenvalues"]), expected.eigenvalues)
    assert got["stress"] == expected.stress


def test_knn_graph_past_the_budget_raises_before_allocating(monkeypatch):
    # 12 points plan 8 float64 arrays of 12 x 12, 9216 bytes
    pts = make_rng(13).standard_normal((12, 3))
    monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 9216)  # the 12 points pass
    assert knn_graph(pts, 3).node_count == 12

    def never(points):
        raise AssertionError("pairwise distances allocated past MEMORY_BUDGET")

    monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 9215)
    monkeypatch.setattr(isomap_mod, "pairwise_distances", never)
    for call in (knn_graph, component_count, isomap):
        with pytest.raises(SpecError) as info:
            call(pts, 3)
        assert str(info.value) == (
            "dense Isomap of 12 points needs 9216 bytes, more than MEMORY_BUDGET = 9215"
        )


def test_embedding_json_round_trip(tmp_path):
    import json

    from topoclass.data import json_text, write_files

    pts = make_rng(14).standard_normal((10, 3))
    result = isomap(pts, 9, target_dim=2)
    path = tmp_path / "embedding.json"
    write_files([(path, json_text(result.to_jsonable()))])
    back = json.loads(path.read_text())
    assert np.array_equal(np.array(back["coordinates"]), result.coordinates)
    assert back["stress"] == result.stress
    assert back["clamped"] == result.clamped


class TestNeighborGraphValidation:
    def test_rejects_asymmetric(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(SpecError):
            NeighborGraph(weights=w)

    def test_rejects_self_loops(self):
        w = np.eye(2)
        with pytest.raises(SpecError):
            NeighborGraph(weights=w)

    def test_rejects_negative_weights(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(SpecError):
            NeighborGraph(weights=w)
