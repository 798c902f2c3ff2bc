import heapq

import numpy as np
import pytest

from topoclass.errors import DisconnectedError, DomainError, SpecError
from topoclass.isomap import (
    DUPLICATE_POINT_WEIGHT,
    NeighborGraph,
    classical_mds,
    geodesic_distances,
    graph_components,
    isomap,
    knn_graph,
    pairwise_distances,
)
from topoclass.numerics import make_rng


def floyd_warshall(weights):
    """Dense all-pairs oracle."""
    n = weights.shape[0]
    dist = np.where(weights > 0.0, weights, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, np.newaxis] + dist[k, :][np.newaxis, :])
    return dist


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


class TestKnnGraph:
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

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            classical_mds(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)

    def test_non_euclidean_clamps_and_flags(self):
        # violates the triangle inequality: not embeddable, B has negative spectrum
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
        result = classical_mds(d, 3)
        assert result.clamped >= 1
        assert np.isfinite(result.coordinates).all()


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

    def test_deterministic(self):
        pts = make_rng(12).standard_normal((30, 4))
        a = isomap(pts, 6)
        b = isomap(pts, 6)
        assert np.array_equal(a.coordinates, b.coordinates)
        assert a.stress == b.stress


def test_embedding_json_round_trip(tmp_path):
    import json

    from topoclass.isomap import embedding_to_json

    pts = make_rng(14).standard_normal((10, 3))
    result = isomap(pts, 9, target_dim=2)
    path = tmp_path / "embedding.json"
    embedding_to_json(result, path)
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
