import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoclass import topology
from topoclass.data import LabeledPointCloud, gen_annulus2d, gen_nested_shells
from topoclass.errors import (
    DimensionError,
    DomainError,
    EmptyInputError,
    NumericalError,
    SeparationError,
    SpecError,
)
from topoclass.network import LayerSpec, Mlp, build_relu_net, forward, forward_batch
from topoclass.numerics import make_rng
from topoclass.topology import (
    KernelWitness,
    check_disc_separation,
    check_thm3,
    component_count,
    full_separability_report,
    kernel_witness,
    linear_rank,
    min_enclosing_ball,
    principal_spectrum,
    simplex_class,
    urysohn_binary,
    urysohn_multiclass,
)
from topoclass.training import TrainConfig, accuracy, train


def nearest_vertex_oracle(y, tol=1e-12):
    """Brute-force nearest simplex vertex by explicit distances."""
    c = y.shape[0]
    d2 = np.empty(c)
    for i in range(c):
        v = np.zeros(c)
        v[i] = 1.0
        d2[i] = ((y - v) ** 2).sum()
    best = d2.min()
    # distance-squared gaps are 2x coordinate gaps on the simplex
    winners = np.nonzero(d2 <= best + 2.0 * tol)[0]
    if winners.size != 1:
        return None
    return int(winners[0])


class TestSimplexClass:
    def test_clear_class(self):
        assert simplex_class(np.array([0.9, 0.1])) == 0

    def test_tie_is_boundary(self):
        assert simplex_class(np.array([0.5, 0.5])) is None

    def test_matches_distance_oracle(self):
        rng = make_rng(1)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            y = rng.dirichlet(np.ones(c))
            assert simplex_class(y) == nearest_vertex_oracle(y)

    def test_rejects_non_simplex(self):
        with pytest.raises(DomainError):
            simplex_class(np.array([0.9, 0.3]))
        with pytest.raises(DomainError):
            simplex_class(np.array([-0.2, 1.2]))


class TestCheckThm3:
    def constant_net(self, logits):
        return Mlp(
            layers=(
                LayerSpec(
                    weight=np.zeros((len(logits), 2)),
                    bias=np.asarray(logits, dtype=np.float64),
                    activation="softmax",
                ),
            )
        )

    def test_trained_net_separates(self, trained_paper_net, annulus500):
        report = check_thm3(trained_paper_net, annulus500)
        assert report.voronoi_ok
        assert report.violating_points == ()

    def test_constant_net_lists_one_class(self, annulus500):
        report = check_thm3(self.constant_net([1.0, 0.0]), annulus500)
        assert not report.voronoi_ok
        bad = report.violating_points
        assert len(bad) == 500
        assert all(true == 1 and assigned == 0 for _, assigned, true in bad)

    def test_violations_empty_iff_accuracy_one(self, annulus500):
        rng = make_rng(2)
        for seed in range(3):
            net = build_relu_net((2, 4, 2), make_rng(seed))
            report = check_thm3(net, annulus500)
            acc = accuracy(net, annulus500)
            assert (report.violating_points == ()) == (acc == 1.0)


class TestMinEnclosingBall:
    def test_single_point(self):
        disc = min_enclosing_ball(np.array([[2.0, 3.0]]))
        assert disc.radius == 0.0
        np.testing.assert_array_equal(disc.center, [2.0, 3.0])

    def test_two_points(self):
        disc = min_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(disc.center, [1.0, 0.0], atol=1e-12)
        assert abs(disc.radius - 1.0) < 1e-12

    def test_equilateral_triangle_circumradius(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        disc = min_enclosing_ball(tri)
        assert abs(disc.radius - 1.0 / np.sqrt(3.0)) < 1e-9

    def test_containment_random_low_dims(self):
        rng = make_rng(3)
        for dim in (1, 2, 3):
            pts = rng.standard_normal((80, dim))
            disc = min_enclosing_ball(pts)
            gaps = np.linalg.norm(pts - disc.center, axis=1)
            assert (gaps <= disc.radius + 1e-9).all()
            # the MEB radius is at least half the diameter
            assert disc.radius >= gaps.max() / 2.0

    def test_high_dim_fallback_slack(self):
        # +-2 e_i in R^5: optimal ball is radius 2 at the origin
        cross = np.concatenate([2.0 * np.eye(5), -2.0 * np.eye(5)])
        disc = min_enclosing_ball(cross)
        gaps = np.linalg.norm(cross - disc.center, axis=1)
        assert (gaps <= disc.radius + 1e-9).all()
        assert disc.radius <= 2.0 * 1.01

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            min_enclosing_ball(np.zeros((0, 2)))

    @pytest.mark.parametrize(
        "points",
        [
            [[1e308, 0.0], [-1e308, 0.0]],  # Welzl path
            [[1e200, 0.0, 0.0, 0.0], [0.0, 1e200, 0.0, 0.0]],  # core-set path
        ],
    )
    def test_overflowing_distances_raise_without_warning(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                min_enclosing_ball(np.array(points))


def farthest_point_oracle(points):
    """The core-set loop evaluating every point at every step."""
    center = points[0].copy()
    for i in range(1, topology._MEB_ITERATIONS + 1):
        gaps = points - center
        far = int(np.argmax((gaps * gaps).sum(axis=1)))
        center += (points[far] - center) / (i + 1.0)
    return center


def assert_matches_oracle(points):
    disc = min_enclosing_ball(points)
    center = farthest_point_oracle(points)
    assert np.array_equal(disc.center, center)
    gaps = points - center
    assert disc.radius == float(np.sqrt((gaps * gaps).sum(axis=1).max()))


def _hard_cloud(name):
    rng = make_rng(21)
    if name == "sphere":
        pts = rng.standard_normal((300, 6))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if name == "duplicated":
        return np.repeat(rng.standard_normal((5, 6)), 20, axis=0)
    if name == "offset":
        return 1e6 + rng.uniform(-1e-3, 1e-3, (200, 5))
    if name == "cross":  # +-2 e_i, then filler: the far points tie exactly
        filler = rng.uniform(-0.5, 0.5, (200, 5))
        return np.concatenate([2.0 * np.eye(5), -2.0 * np.eye(5), filler])
    if name == "grid":
        return rng.integers(-2, 3, (400, 4)).astype(np.float64)
    dim = int(name[len("gaussian"):])
    return rng.standard_normal((150, dim))


class TestCoresetBall:
    """The core-set MEB skips points but keeps the full iteration's bits."""

    @pytest.fixture(scope="class")
    def softmax_outputs(self):
        # the tour's 4-class leg: a 2,16,16,4 net trained on 4-band shells
        bands = ((0.0, 0.5), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5))
        cloud = gen_nested_shells(2, bands, 100, 0)
        net, _ = train(build_relu_net((2, 16, 16, 4), make_rng(0)), cloud, TrainConfig(seed=0))
        outputs = forward_batch(net, cloud.points)
        return [outputs[cloud.labels == k] for k in range(4)]

    def test_softmax_outputs_match_oracle(self, softmax_outputs):
        for outputs in softmax_outputs:
            assert_matches_oracle(outputs)

    @pytest.mark.parametrize(
        "name",
        ["sphere", "duplicated", "offset", "cross", "grid"]
        + [f"gaussian{d}" for d in range(4, 10)],
    )
    def test_hard_clouds_match_oracle(self, name):
        assert_matches_oracle(_hard_cloud(name))

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(4, 9),
        n=st.integers(1, 80),
        kind=st.sampled_from(["normal", "grid", "duplicated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_clouds_match_oracle(self, dim, n, kind, seed):
        rng = make_rng(seed)
        if kind == "normal":
            pts = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
        elif kind == "grid":  # integer coordinates: many exactly tied distances
            pts = rng.integers(-2, 3, (n, dim)).astype(np.float64)
        else:
            pts = rng.standard_normal((n, dim))[rng.integers(0, max(1, n // 4), n)]
        # fewer steps keep the example fast; candidate steps start at step 500
        with mock.patch.object(topology, "_MEB_ITERATIONS", 1500):
            assert_matches_oracle(pts)

    def test_candidate_steps_stop_when_the_center_leaves_the_budget(self):
        rows = [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
        start = [0.0] * 4
        # a zero budget allows one step away from the anchor
        center, i = topology._candidate_steps(rows, start, start, 0.0, 600)
        assert i == 601
        # the two rows tie, and the first one wins, as in np.argmax
        assert center.tolist() == [1.0 / 601.0, 0.0, 0.0, 0.0]

    def test_row_sum_is_left_to_right_up_to_seven_coordinates(self):
        # the premise of the candidate steps: for rows of at most 7 squares,
        # numpy's row sum is the sequential sum the Python steps compute
        rng = make_rng(22)
        for dim in range(1, topology._SEQUENTIAL_SUM_DIMS + 1):
            gaps = rng.standard_normal((2000, dim)) * 10.0 ** rng.integers(-8, 9, (2000, dim))
            sequential = []
            for row in gaps.tolist():
                total = 0.0
                for g in row:
                    total += g * g
                sequential.append(total)
            assert np.array_equal((gaps * gaps).sum(axis=1), np.array(sequential)), dim


class TestDiscSeparation:
    def test_far_clusters(self):
        rng = make_rng(4)
        a = rng.standard_normal((30, 2)) * 0.5
        b = rng.standard_normal((30, 2)) * 0.5 + [10.0, 0.0]
        ok, discs, gap = check_disc_separation([a, b])
        assert ok
        assert gap > 0.0
        assert len(discs) == 2

    def test_identical_clouds_fail(self):
        pts = make_rng(5).standard_normal((20, 2))
        ok, _, gap = check_disc_separation([pts, pts.copy()])
        assert not ok
        assert gap <= 0.0

    def test_single_class_has_no_gap(self):
        ok, discs, gap = check_disc_separation([make_rng(6).standard_normal((10, 2))])
        assert ok
        assert len(discs) == 1
        assert gap is None

    def test_class_dimensions_differ(self, monkeypatch):
        def no_ball(points):
            raise AssertionError("a ball was computed")

        monkeypatch.setattr(topology, "min_enclosing_ball", no_ball)
        with pytest.raises(DimensionError):
            check_disc_separation([np.zeros((3, 2)), np.ones((3, 3))])

    def test_one_dimensional_intervals(self):
        a = np.linspace(0.0, 0.4, 9).reshape(-1, 1)
        b = np.linspace(0.6, 1.0, 9).reshape(-1, 1)
        ok, discs, gap = check_disc_separation([a, b])
        assert ok
        assert abs(gap - 0.2) < 1e-12
        assert abs(discs[0].radius - 0.2) < 1e-12


class TestUrysohnBinary:
    def test_exact_on_members(self):
        cloud = gen_annulus2d(100, 1)
        f = urysohn_binary(cloud.class_points(0), cloud.class_points(1))
        assert np.abs(f(cloud.class_points(0))).max() == 0.0
        assert np.abs(f(cloud.class_points(1)) - 1.0).max() == 0.0

    def test_equidistant_midpoint(self):
        f = urysohn_binary(np.array([[0.0]]), np.array([[2.0]]))
        assert f(np.array([1.0])) == 0.5

    def test_hand_value(self):
        f = urysohn_binary(np.array([[0.0]]), np.array([[1.0]]))
        assert abs(f(np.array([0.25])) - 0.25) < 1e-15

    def test_range_bounded(self):
        cloud = gen_annulus2d(50, 2)
        f = urysohn_binary(cloud.class_points(0), cloud.class_points(1))
        probes = make_rng(3).uniform(-3, 3, size=(500, 2))
        vals = f(probes)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_overlap_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(SeparationError):
            urysohn_binary(pts, pts[:1])

    def test_matches_closed_form_reference(self):
        # reference: dist(x, a) / (dist(x, a) + dist(x, b)), written out
        cloud = gen_annulus2d(100, 3)
        a, b = cloud.class_points(0), cloud.class_points(1)
        axis = np.linspace(-2.5, 2.5, 41)
        grid = np.column_stack([g.ravel() for g in np.meshgrid(axis, axis)])
        probes = np.concatenate([grid, a, b])

        def dist(pts):
            sq = ((probes[:, np.newaxis, :] - pts[np.newaxis, :, :]) ** 2).sum(axis=2)
            return np.sqrt(sq.min(axis=1))

        da, db = dist(a), dist(b)
        assert np.array_equal(urysohn_binary(a, b)(probes), da / (da + db))


class TestUrysohnMulticlass:
    def test_agrees_with_binary(self):
        cloud = gen_annulus2d(60, 4)
        classes = cloud.split_by_class()
        f2 = urysohn_binary(classes[0], classes[1])
        fm = urysohn_multiclass(classes)
        probes = make_rng(5).uniform(-2.5, 2.5, size=(300, 2))
        assert np.abs(f2(probes) - fm(probes)).max() < 1e-12

    def test_exact_on_members(self):
        classes = [np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]]), np.array([[0.0, 3.0]])]
        f = urysohn_multiclass(classes)
        for k, pts in enumerate(classes):
            assert f(pts[0]) == float(k)

    def test_collinear_singletons(self):
        f = urysohn_multiclass([np.array([[0.0]]), np.array([[1.0]]), np.array([[2.0]])])
        assert f(np.array([1.0])) == 1.0

    def test_needs_two_classes(self):
        with pytest.raises(SeparationError):
            urysohn_multiclass([np.array([[0.0]])])


class TestKernelWitness:
    def test_explicit_kernel(self):
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        witness = kernel_witness(w)
        np.testing.assert_allclose(np.abs(witness.direction), [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(witness.p1), [0.0, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(np.abs(witness.p2), [0.0, 0.0, 1.5], atol=1e-12)

    def test_first_layer_collision(self):
        rng = make_rng(6)
        for _ in range(20):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(rows + 1, 7))
            w = rng.uniform(-1, 1, size=(rows, cols))
            b = rng.uniform(-1, 1, size=rows)
            witness = kernel_witness(w)
            f1 = Mlp(layers=(LayerSpec(weight=w, bias=b, activation="relu"),))
            gap = np.abs(forward(f1, witness.p1) - forward(f1, witness.p2)).max()
            assert gap <= 1e-9

    def test_full_net_collision_and_accuracy_bound(self):
        rng = make_rng(7)
        for trial in range(10):
            cols = int(rng.integers(2, 6))
            w = rng.uniform(-1, 1, size=(1, cols))
            witness = kernel_witness(w)
            first = LayerSpec(weight=w, bias=rng.uniform(-1, 1, 1), activation="relu")
            tail = build_relu_net((1, 4, 2), make_rng(50 + trial))
            net = Mlp(layers=(first,) + tail.layers)
            out_gap = np.abs(forward(net, witness.p1) - forward(net, witness.p2)).max()
            assert out_gap <= 1e-9
            cloud = LabeledPointCloud(
                dim=cols,
                points=np.stack([witness.p1, witness.p2]),
                labels=np.array([0, 1]),
                class_count=2,
            )
            assert accuracy(net, cloud) <= 0.5

    def test_radii_constraints_by_construction(self):
        w = make_rng(8).uniform(-1, 1, size=(2, 5))
        witness = kernel_witness(w)
        assert abs(np.linalg.norm(witness.p1) - 0.5) < 1e-12
        assert abs(np.linalg.norm(witness.p2) - 1.5) < 1e-12

    def test_no_bottleneck_rejected(self):
        with pytest.raises(SpecError):
            kernel_witness(np.eye(3))

    def test_witness_invariants_enforced(self):
        with pytest.raises(NumericalError):
            KernelWitness(
                direction=np.array([2.0, 0.0]),
                p1=np.array([0.5, 0.0]),
                p2=np.array([1.5, 0.0]),
                output_gap=0.0,
            )


class TestDiagnostics:
    def test_line_has_rank_one(self):
        t = np.linspace(0.0, 1.0, 30)[:, np.newaxis]
        pts = t @ np.array([[1.0, 2.0, -1.0]])
        assert linear_rank(pts) == 1

    def test_single_point_rank_zero(self):
        assert linear_rank(np.array([[1.0, 2.0, 3.0]])) == 0

    def test_generic_cloud_full_rank(self):
        pts = make_rng(9).standard_normal((100, 5))
        assert linear_rank(pts) == 5

    def test_spectrum_resolves_tiny_singular_values(self):
        # (u * s) @ v.T with zero-mean orthonormal columns u has singular values s
        rng = make_rng(13)
        a = rng.standard_normal((50, 3))
        u, _ = np.linalg.qr(a - a.mean(axis=0))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.array([1.0, 1e-9, 0.0])
        np.testing.assert_allclose(principal_spectrum((u * s) @ v.T), s, rtol=0.0, atol=1e-12)
        assert principal_spectrum(rng.standard_normal((2, 5))).shape == (5,)

    def test_two_far_clusters(self):
        # two small rings 100x their diameter apart; rings stay internally
        # connected at any k >= 1
        theta = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
        ring = 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
        far = ring + [100.0, 0.0]
        assert component_count(np.concatenate([ring, far]), 3) == 2

    def test_single_cluster(self):
        theta = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        assert component_count(pts, 3) == 1

    def test_matches_bfs_oracle(self):
        from topoclass.isomap import knn_graph

        rng = make_rng(12)
        for _ in range(10):
            pts = rng.standard_normal((25, 2))
            k = int(rng.integers(1, 6))
            graph = knn_graph(pts, k)
            # BFS flood fill over the adjacency matrix
            n = pts.shape[0]
            seen = np.zeros(n, dtype=bool)
            comps = 0
            for start in range(n):
                if seen[start]:
                    continue
                comps += 1
                stack = [start]
                seen[start] = True
                while stack:
                    u = stack.pop()
                    for v in np.nonzero(graph.weights[u] > 0)[0]:
                        if not seen[v]:
                            seen[v] = True
                            stack.append(int(v))
            assert component_count(pts, k) == comps

    def test_component_count_validates_k(self):
        pts = np.zeros((5, 2))
        with pytest.raises(SpecError):
            component_count(pts, 0)
        with pytest.raises(SpecError):
            component_count(pts, 5)


def test_full_report_combines_criteria(trained_paper_net, annulus500):
    report = full_separability_report(trained_paper_net, annulus500)
    assert report.voronoi_ok
    assert report.disc_ok
    assert report.min_inter_disc_gap > 0.0
    payload = report.to_jsonable()
    assert set(payload) == {
        "voronoi_ok", "violating_points", "disc_ok", "discs", "min_inter_disc_gap",
    }
