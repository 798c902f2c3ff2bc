import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoclass import topology
from topoclass.data import ANNULUS_BANDS, LabeledPointCloud, gen_annulus2d, gen_nested_shells
from topoclass.errors import NumericalError, SpecError
from topoclass.network import LayerSpec, Mlp, build_relu_net, forward, forward_batch
from topoclass.numerics import KERNEL_TOL, make_rng
from topoclass.topology import (
    WITNESS_RADII,
    check_disc_separation,
    check_thm3,
    component_count,
    full_separability_report,
    kernel_witness,
    linear_rank,
    min_class_gap,
    min_enclosing_ball,
    principal_spectrum,
    simplex_class,
    urysohn_binary,
    urysohn_grid,
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
        with pytest.raises(SpecError, match="not within 1e-9 of the closed simplex"):
            simplex_class(np.array([0.9, 0.3]))
        with pytest.raises(SpecError, match="not within 1e-9 of the closed simplex"):
            simplex_class(np.array([-0.2, 1.2]))
        # every comparison with NaN is false: without a finiteness check it reads as a tie
        for y in ([np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]):
            with pytest.raises(NumericalError, match="simplex point contains NaN or Inf"):
                simplex_class(np.array(y))


def constant_net(logits):
    """A 2-D input net whose softmax output is the same on every point."""
    return Mlp(
        layers=(
            LayerSpec(
                weight=np.zeros((len(logits), 2)),
                bias=np.asarray(logits, dtype=np.float64),
                activation="softmax",
            ),
        )
    )


class TestCheckThm3:
    def test_trained_net_separates(self, trained_paper_net, annulus500):
        report = check_thm3(trained_paper_net, annulus500)
        assert report.voronoi_ok
        assert report.violating_points == ()

    def test_constant_net_lists_one_class(self, annulus500):
        report = check_thm3(constant_net([1.0, 0.0]), annulus500)
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
        # +-2 e_i in R^5: optimal ball is radius 2 at the origin, with no slack
        cross = np.concatenate([2.0 * np.eye(5), -2.0 * np.eye(5)])
        disc = min_enclosing_ball(cross)
        gaps = np.linalg.norm(cross - disc.center, axis=1)
        assert (gaps <= disc.radius).all()
        assert abs(disc.radius - 2.0) <= 2.0 * 1e-12
        assert np.abs(disc.center).max() <= 1e-12

    def test_empty_input(self):
        with pytest.raises(SpecError, match="min_enclosing_ball needs at least one point"):
            min_enclosing_ball(np.zeros((0, 2)))

    @pytest.mark.parametrize("points", [[[1e308, 0.0], [-1e308, 0.0]]])  # the gap is inf
    def test_overflowing_distances_raise_without_warning(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                min_enclosing_ball(np.array(points))

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0, 0.0], [1.5e308, 1.5e308], [-1.5e308, -1.5e308]],  # radius ~2.1e308
            # a finite spread from the first point, but 1.21 x 1.7e308 from the center
            [[0.0, 0.0], [1.7e308, 0.0], [-1.53e308, 1.7e308], [-1.53e308, -1.7e308]],
        ],
        ids=["radius", "gap-to-center"],
    )
    def test_finite_spread_whose_ball_overflows_raises_without_warning(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="points too far apart"):
                min_enclosing_ball(np.array(points))

    def test_squares_past_float64_give_the_exact_ball(self):
        # the squared gaps of 1e200 overflow, the gaps and the ball do not
        points = np.array([[1e200, 0.0, 0.0, 0.0], [0.0, 1e200, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            disc = min_enclosing_ball(points)
        small = min_enclosing_ball(np.ldexp(points, -600))
        assert disc.center.tobytes() == np.ldexp(small.center, 600).tobytes()
        assert disc.radius == math.ldexp(small.radius, 600)

    @pytest.mark.parametrize("k", [-600, -300, -257, -256, -100, 0, 100, 254, 256, 300, 500])
    def test_scaling_by_a_power_of_two_scales_the_ball_bit_for_bit(self, k):
        # spreads outside [2^-257, 2^256) are scaled by a power of 4 for the
        # pivot; the ball of the scaled points must be the scaled ball
        for dim, n in itertools.product((2, 3, 4, 7), (5, 40, 200)):
            points = make_rng(100 * dim + n).standard_normal((n, dim))
            disc = min_enclosing_ball(points)
            scaled = min_enclosing_ball(np.ldexp(points, k))
            assert scaled.center.tobytes() == np.ldexp(disc.center, k).tobytes()
            assert scaled.radius == math.ldexp(disc.radius, k)

    @pytest.mark.parametrize(
        "points",
        [
            np.array([[0.0, 0.0], [1e-170, 0.0], [0.0, 3e-170]]),  # squares underflow to 0
            1e-200 * make_rng(8).standard_normal((30, 4)) + [1e-200, -2e-200, 0.0, 3e-300],
        ],
        ids=["2-D", "4-D"],
    )
    def test_tiny_spread_keeps_its_ball(self, points):
        # scaling by a power of two is exact, so the ball of the scaled-up
        # gaps, scaled back, is this cloud's ball
        disc = min_enclosing_ball(points)
        gaps = np.ldexp(points - disc.center, 600)
        assert np.sqrt((gaps * gaps).sum(axis=1)).max() <= np.ldexp(disc.radius, 600)
        big = min_enclosing_ball(np.ldexp(points - points[0], 600))
        assert disc.radius > 0.0
        assert abs(np.ldexp(disc.radius, 600) - big.radius) <= 1e-12 * big.radius

    def test_stalled_pivot_raises(self, monkeypatch):
        monkeypatch.setattr(topology, "_MAX_PIVOTS", 1)
        with pytest.raises(NumericalError):
            min_enclosing_ball(_hard_cloud("sphere"))


def farthest_point_oracle(points):
    """1000 Badoiu-Clarkson steps toward the farthest point: an upper bound on the radius."""
    center = points[0].copy()
    for i in range(1, 1001):
        gaps = points - center
        far = int(np.argmax((gaps * gaps).sum(axis=1)))
        center += (points[far] - center) / (i + 1.0)
    gaps = points - center
    return float(np.sqrt((gaps * gaps).sum(axis=1).max()))


def _circumball(boundary):
    """Smallest ball with all boundary points on its surface."""
    base = boundary[0]
    if len(boundary) == 1:
        return base.copy(), 0.0
    rel = np.array([p - base for p in boundary[1:]])
    a = 2.0 * (rel @ rel.T)
    b = (rel * rel).sum(axis=1)
    try:
        alpha = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(a, b, rcond=None)[0]
    center = base + alpha @ rel
    return center, float(np.linalg.norm(center - base))


def _welzl_ball(points):
    """Exact Welzl move-to-front recursion (boundary sets stay <= dim+1)."""
    dim = points.shape[1]
    rng = make_rng(0x5EB1)  # fixed shuffle keeps the whole pipeline deterministic
    pts = points[rng.permutation(points.shape[0])]

    def outside(p, center, radius):
        gap = p - center
        return float(gap @ gap) > radius * radius * (1.0 + 1e-12) + 1e-30

    def with_boundary(limit, boundary):
        center, radius = _circumball(boundary)
        if len(boundary) == dim + 1:
            return center, radius
        for i in range(limit):
            if outside(pts[i], center, radius):
                center, radius = with_boundary(i, boundary + [pts[i]])
        return center, radius

    center, radius = pts[0].copy(), 0.0
    for i in range(1, pts.shape[0]):
        if outside(pts[i], center, radius):
            center, radius = with_boundary(i, [pts[i]])
    return center, radius


def assert_exact_ball(points):
    """Containment, the optimality certificate and both oracles; returns the pivots.

    The certificate is checked where the pivot computes it, on the points
    less the first one: the support points are equidistant from the center
    within a relative 1e-12, no point is farther, and the center is a
    convex combination of them (weights >= -1e-12).
    """
    n, dim = points.shape
    disc = min_enclosing_ball(points)
    gaps = points - disc.center
    assert np.sqrt((gaps * gaps).sum(axis=1)).max() == disc.radius

    rel = points - points[0]
    center, support, pivots = topology._pivot_ball(rel)
    assert np.array_equal(disc.center, center + points[0])
    assert len(set(support)) == len(support) <= dim + 1
    dists = np.sqrt(((rel - center) ** 2).sum(axis=1))
    radius = dists[support].max()
    assert dists[support].min() >= radius * (1.0 - 1e-12)
    assert dists.max() <= radius * (1.0 + 1e-12)
    base = rel[support[0]]
    spans = rel[support[1:]] - base
    tail = np.linalg.lstsq(spans.T, center - base, rcond=None)[0]
    assert np.linalg.norm(base + tail @ spans - center) <= 1e-12 * radius
    assert np.append(1.0 - tail.sum(), tail).min() >= -1e-12

    assert disc.radius <= farthest_point_oracle(points) * (1.0 + 1e-12)
    if dim <= 5:
        welzl_center, _ = _welzl_ball(points)
        gaps = points - welzl_center
        welzl_radius = float(np.sqrt((gaps * gaps).sum(axis=1).max()))
        assert abs(disc.radius - welzl_radius) <= 1e-9 * welzl_radius
    return pivots


def _hard_cloud(name):
    rng = make_rng(21)
    if name == "sphere":
        pts = rng.standard_normal((300, 6))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if name == "cospherical":  # 58 points on a sphere around a point off the origin
        pts = rng.standard_normal((58, 30))
        return 3.0 * pts / np.linalg.norm(pts, axis=1, keepdims=True) + 5.0
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
    """The exact ball and its core set, the support: the ball of the support
    alone is the ball of every point."""

    @pytest.fixture(scope="class")
    def softmax_outputs(self):
        # the tour's 4-class leg: a 2,16,16,4 net trained on 4-band shells;
        # outputs sum to 1, so each 4-D class is affinely 3-D
        bands = ((0.0, 0.5), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5))
        cloud = gen_nested_shells(2, bands, 100, 0)
        net, _ = train(build_relu_net((2, 16, 16, 4), make_rng(0)), cloud, TrainConfig(seed=0))
        outputs = forward_batch(net, cloud.points)
        return [outputs[cloud.labels == k] for k in range(4)]

    def test_softmax_outputs_match_oracle(self, softmax_outputs):
        for outputs in softmax_outputs:
            assert assert_exact_ball(outputs) <= 10 * (outputs.shape[1] + 1)

    @pytest.mark.parametrize(
        "name",
        ["sphere", "cospherical", "duplicated", "offset", "cross", "grid"]
        + [f"gaussian{d}" for d in range(4, 10)],
    )
    def test_hard_clouds_match_oracle(self, name):
        points = _hard_cloud(name)
        assert assert_exact_ball(points) <= 10 * (points.shape[1] + 1)

    @pytest.mark.parametrize("dim", [5, 8, 16, 40])
    def test_points_on_a_sphere(self, dim):
        # every point is on the sphere, and the origin is inside their hull,
        # so the unit sphere is the minimum and every point ties for the support
        points = make_rng(dim).standard_normal((300, dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        assert assert_exact_ball(points) <= 10 * (dim + 1)
        disc = min_enclosing_ball(points)
        assert abs(disc.radius - 1.0) <= 1e-12
        assert np.linalg.norm(disc.center) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 40),
        n=st.integers(1, 80),
        kind=st.sampled_from(["normal", "grid", "duplicated", "cospherical", "cube", "flat"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_clouds_match_oracle(self, dim, n, kind, seed):
        rng = make_rng(seed)
        if kind == "normal":
            pts = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
        elif kind == "grid":  # integer coordinates: many exactly tied distances
            pts = rng.integers(-2, 3, (n, dim)).astype(np.float64)
        elif kind == "duplicated":
            pts = rng.standard_normal((n, dim))[rng.integers(0, max(1, n // 4), n)]
        elif kind == "cospherical":  # on one sphere around a point off the origin
            pts = rng.standard_normal((n, dim))
            pts = 3.0 * pts / np.linalg.norm(pts, axis=1, keepdims=True) + 5.0
        elif kind == "cube":  # hypercube vertices: on one sphere and on a grid
            pts = rng.choice([-1.0, 1.0], (n, dim))
        else:  # affinely degenerate: a random flat of lower dimension
            k = int(rng.integers(0, dim))
            flat = rng.standard_normal((n, k)) @ rng.standard_normal((k, dim))
            pts = flat + rng.standard_normal(dim)
        assert assert_exact_ball(pts) <= 10 * (dim + 1)


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
        with pytest.raises(SpecError, match="classes differ in dimension"):
            check_disc_separation([np.zeros((3, 2)), np.ones((3, 3))])

    def test_far_apart_discs_raise_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                check_disc_separation([[[1e308, 0.0]], [[-1e308, 0.0]]])

    def test_gap_whose_square_overflows_is_exact(self):
        # the centers' difference is measured on the power-of-4 scale; only
        # a difference that is itself inf is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, _, gap = check_disc_separation([[[0.0, 0.0]], [[1e200, 1e200]]])
            with pytest.raises(NumericalError, match="class discs too far apart"):
                check_disc_separation([[[1e308, 1e308]], [[-1e308, -1e308]]])
        assert ok
        assert gap == math.hypot(1e200, 1e200)

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
        with pytest.raises(SpecError, match=r"classes 0 and 1 overlap \(min distance 0\)"):
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


class TestMinClassGap:
    def test_is_the_smallest_cross_class_distance(self):
        classes = gen_annulus2d(30, 6).split_by_class() + [np.array([[5.0, 5.0]])]
        want = min(
            np.linalg.norm(p - q)
            for i, a in enumerate(classes)
            for b in classes[i + 1 :]
            for p in a
            for q in b
        )
        assert min_class_gap(classes) == pytest.approx(want, rel=1e-12)

    def test_one_class_has_no_gap(self):
        assert min_class_gap([np.ones((3, 2))]) == np.inf

    def test_overlapping_classes_have_gap_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert min_class_gap([pts, pts + 3.0, pts[1:]]) == 0.0

    @pytest.mark.parametrize("empty_at", [0, 1])
    def test_empty_class_is_refused(self, empty_at):
        classes = [np.ones((3, 2))]
        classes.insert(empty_at, np.zeros((0, 2)))
        with pytest.raises(SpecError, match=f"class {empty_at} has no points"):
            min_class_gap(classes)
        with pytest.raises(SpecError, match=f"class {empty_at} has no points"):
            urysohn_multiclass(classes)


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
        with pytest.raises(SpecError, match="need at least 2 classes"):
            urysohn_multiclass([np.array([[0.0]])])

    @pytest.mark.parametrize("far", [[1e308, 1e308], [1e200, 0.0]])
    def test_far_point_raises_without_warning(self, far):
        classes = gen_annulus2d(20, 5).split_by_class()
        classes[0] = np.concatenate([[far], classes[0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                urysohn_multiclass(classes)

    def test_class_whose_own_squared_spread_overflows(self):
        # the squared gap between the two points of class 0 overflows, but
        # each is its own nearest, so the field is exact on it
        classes = [np.array([[-7e153, 0.0], [7e153, 0.0]]), np.array([[0.0, 0.0]])]
        axis = np.array([-7e153, 0.0, 7e153])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = urysohn_multiclass(classes)
            on_class = [f(pts) for pts in classes]
            grid = urysohn_grid(classes, axis, [0.0])
        assert [values.tolist() for values in on_class] == [[0.0, 0.0], [1.0]]
        assert grid.tolist() == [[0.0, 1.0, 0.0]]

    def test_far_probe_raises_without_warning(self):
        f = urysohn_multiclass([np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                f(np.array([1e300, 1e300]))

    # the field takes a point or a batch of finite points; a NaN or inf
    # coordinate is the input's fault, not a distance past float64
    @pytest.mark.parametrize(
        "x, error, text",
        [
            (0.5, SpecError, "x must be 2-D, got ndim=0"),
            (np.zeros((1, 1, 2)), SpecError, "x must be 2-D, got ndim=3"),
            ([np.nan, 0.0], NumericalError, "x contains NaN or Inf"),
            ([[np.inf, 0.0]], NumericalError, "x contains NaN or Inf"),
        ],
        ids=["scalar", "3-d", "nan", "inf"],
    )
    @pytest.mark.parametrize("build", [urysohn_multiclass, lambda c: urysohn_binary(*c)])
    def test_field_refuses_points_that_are_not_finite_rows(self, build, x, error, text):
        f = build([np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as raised:
                f(x)
        assert str(raised.value) == text

    def test_overflowing_distance_products_raise_without_warning(self):
        # squared distances stay finite, but the product of three ~1e150
        # distances does not
        classes = [np.array([[0.0, 0.0]]), np.array([[1e150, 0.0]]),
                   np.array([[0.0, 1e150]]), np.array([[-1e150, 0.0]])]
        f = urysohn_multiclass(classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                f(np.array([[0.5, 0.5]]))

    def test_underflowing_distance_products_raise_without_warning(self):
        # squared distances stay normal, but on class 0 every product has a
        # factor 0 or is three ~1e-120 distances, which underflows to 0
        classes = [np.array([[0.0]]), np.array([[1e-120]]), np.array([[-1e-120]]),
                   np.array([[2e-120]])]
        f = urysohn_multiclass(classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                f(np.array([0.0]))


def grid_points(xs, ys):
    """The grid's nodes as rows, in the order ``urysohn_grid`` lays out its values."""
    return np.column_stack([g.ravel() for g in np.meshgrid(xs, ys)])


def field_on_grid(classes, xs, ys):
    return urysohn_multiclass(classes)(grid_points(xs, ys)).reshape(len(ys), len(xs))


class TestUrysohnGrid:
    """``urysohn_grid`` against the field evaluated node by node, bit for bit."""

    def check(self, classes, xs, ys):
        got = urysohn_grid(classes, xs, ys)
        assert got.shape == (len(ys), len(xs))
        assert got.tobytes() == field_on_grid(classes, xs, ys).tobytes()
        # a grid that returns vouches for the field on the classes
        field = urysohn_multiclass(classes)
        for k, pts in enumerate(classes):
            assert (field(pts) == k).all()
        return got

    @pytest.mark.parametrize("seed, count", [(0, 2), (1, 3), (2, 4), (3, 5)])
    def test_random_classes(self, seed, count):
        rng = make_rng(seed)
        classes = [rng.uniform(-2.0, 2.0, size=(rng.integers(1, 40), 2)) for _ in range(count)]
        axis = np.linspace(-2.5, 2.5, 31)
        self.check(classes, axis, axis)
        # a grid wider than tall, off-centre: rows follow ys, columns xs
        self.check(classes, np.linspace(-3.0, 1.0, 13), np.linspace(0.5, 2.0, 4))

    def test_classes_of_several_point_chunks(self):
        # 1200 points against a 101-node axis take four chunks of 324
        rng = make_rng(7)
        classes = [rng.normal(0.0, 0.5, (1200, 2)), rng.normal(3.0, 0.5, (700, 2))]
        axis = np.linspace(-2.5, 2.5, 101)
        self.check(classes, axis, axis)

    def test_duplicated_points(self):
        rng = make_rng(8)
        base = [rng.uniform(-1.0, 1.0, (6, 2)), rng.uniform(1.5, 2.0, (5, 2))]
        classes = [np.concatenate([pts, pts, pts[:2]]) for pts in base]
        axis = np.linspace(-2.5, 2.5, 17)
        self.check(classes, axis, axis)

    def test_points_on_grid_nodes(self):
        xs, ys = np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 9)
        classes = [
            np.array([[xs[1], ys[2]], [xs[3], ys[3]]]),
            np.array([[xs[8], ys[1]], [xs[9], ys[7]]]),
            np.array([[xs[5], ys[8]]]),
        ]
        got = self.check(classes, xs, ys)
        for k, (i, j) in enumerate([(1, 2), (8, 1), (5, 8)]):
            assert got[j, i] == float(k)

    def test_one_node(self):
        classes = gen_annulus2d(40, 9).split_by_class()
        axis = np.linspace(-2.5, 2.5, 1)
        self.check(classes, axis, axis)

    def test_four_band_shells(self):
        bands = [(0.0, 0.5), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5)]
        classes = gen_nested_shells(2, bands, 150, 10).split_by_class()
        axis = np.linspace(-2.5, 2.5, 101)
        self.check(classes, axis, axis)

    @pytest.mark.parametrize(
        "classes, axis",
        [
            # squared gaps from the grid's corners overflow
            ([np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])], np.linspace(-1e300, 1e300, 3)),
            # squared gaps stay finite, products of three ~1e150 distances do not
            (
                [np.array([[0.0, 0.0]]), np.array([[1e150, 0.0]]),
                 np.array([[0.0, 1e150]]), np.array([[-1e150, 0.0]])],
                np.linspace(-1.0, 1.0, 5),
            ),
        ],
    )
    def test_far_apart_raise_the_fields_error_without_warning(self, classes, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as want:
                field_on_grid(classes, axis, axis)
            with pytest.raises(NumericalError) as got:
                urysohn_grid(classes, axis, axis)
        assert str(got.value) == str(want.value)

    def test_field_on_the_classes_out_of_range_raises(self):
        # on each class the product of the three other distances underflows;
        # an even grid size keeps (0, 0) off the grid, where the field is in range
        classes = [np.array([[k * 1e-110, 0.0]]) for k in range(4)]
        axis = np.linspace(-2.5, 2.5, 100)
        field_on_grid(classes, axis, axis)
        field = urysohn_multiclass(classes)
        for pts in classes:
            with pytest.raises(NumericalError, match="distance products leave float64 range"):
                field(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="distance products leave float64 range"):
                urysohn_grid(classes, axis, axis)

    def test_overlap_and_single_class_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        axis = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(SpecError, match=r"classes 0 and 1 overlap \(min distance 0\)"):
            urysohn_grid([pts, pts[1:]], axis, axis)
        with pytest.raises(SpecError, match="need at least 2 classes"):
            urysohn_grid([pts], axis, axis)

    def test_classes_must_be_planar(self):
        axis = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(SpecError, match="a urysohn grid needs 2-D classes"):
            urysohn_grid([np.zeros((1, 3)), np.ones((1, 3))], axis, axis)

    @pytest.mark.parametrize(
        "xs, error, text",
        [
            ([0.0, np.nan], NumericalError, "^xs contains NaN or Inf$"),
            (np.zeros((2, 2)), SpecError, "^xs must be 1-D, got ndim=2$"),
            (5.0, SpecError, "^xs must be 1-D, got ndim=0$"),
        ],
        ids=["nan", "2-d", "scalar"],
    )
    def test_axes_must_be_finite_vectors(self, xs, error, text):
        classes = gen_annulus2d(10, 0).split_by_class()
        axis = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(error, match=text):
            urysohn_grid(classes, xs, axis)
        with pytest.raises(error, match=text.replace("xs", "ys")):
            urysohn_grid(classes, axis, xs)

    def test_distance_tables_do_not_grow_with_grid_times_points(self):
        # per-axis tables of all 5000 points on a 101-node axis would take
        # 4 MB each; chunks of 324 points keep each near 256 KB
        axis = np.linspace(-2.5, 2.5, 101)
        pts = make_rng(31).standard_normal((5000, 2))
        tracemalloc.start()
        try:
            topology._grid_min_dists(axis, axis, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000


FOUR_BANDS = ((0.0, 0.5), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5))


def pair_gaps_oracle(classes):
    """The i < j loop the class table replaced: (i, j, min distance) per pair."""
    prepared = [np.asarray(pts, dtype=np.float64) for pts in classes]
    return [
        (i, j, float(topology._min_dists(a, b).min()))
        for i, a in enumerate(prepared)
        for j, b in enumerate(prepared[i + 1 :], start=i + 1)
    ]


class TestClassTable:
    """One table of distances between the classes serves every Urysohn check."""

    @pytest.mark.parametrize("bands, passes", [(((0.0, 0.9), (1.0, 2.0)), 2), (FOUR_BANDS, 12)])
    def test_grid_measures_each_ordered_pair_of_classes_once(self, monkeypatch, bands, passes):
        classes = gen_nested_shells(2, bands, 30, 5).split_by_class()
        axis = np.linspace(-4.0, 4.0, 9)
        want = urysohn_grid(classes, axis, axis)
        min_dists, pairs = topology._min_dists, []

        def counting(xs, pts):
            pairs.append((len(xs), len(pts)))
            return min_dists(xs, pts)

        monkeypatch.setattr(topology, "_min_dists", counting)
        assert urysohn_grid(classes, axis, axis).tobytes() == want.tobytes()
        assert len(pairs) == passes == len(classes) * (len(classes) - 1)

    @pytest.mark.parametrize("seed, count", [(0, 2), (1, 3), (2, 4), (3, 6)])
    def test_gaps_match_the_pair_loop_bit_for_bit(self, seed, count):
        rng = make_rng(seed)
        classes = [rng.uniform(-3.0, 3.0, size=(rng.integers(1, 30), 2)) for _ in range(count)]
        prepared, table = topology._prepare_classes(classes)
        gaps = pair_gaps_oracle(classes)
        assert [(i, j, float(table[i][:, j].min())) for i, j, _ in gaps] == gaps
        assert min_class_gap(classes).hex() == min([np.inf] + [g for _, _, g in gaps]).hex()
        for k, own in enumerate(prepared):
            assert table[k].shape == (len(own), count)
            for j, pts in enumerate(prepared):
                want = np.zeros(len(own)) if j == k else topology._min_dists(own, pts)
                assert table[k][:, j].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "classes, error, text",
        [
            (
                [np.ones((2, 2)), np.zeros((0, 2)), np.array([[np.nan, 0.0]])],
                SpecError,
                "class 1 has no points",
            ),
            (
                [np.array([[0.0, 0.0]]), np.array([[5.0, 5.0]]), np.array([[5.0, 5.0], [0, 0]])],
                SpecError,
                "classes 0 and 2 overlap (min distance 0)",
            ),
            ([np.array([[0.0, 0.0]])], SpecError, "need at least 2 classes"),
            (
                [np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), np.array([[1e200, 0.0]])],
                NumericalError,
                "points too far apart: squared distances overflow float64",
            ),
        ],
        ids=["empty", "overlap", "single", "far-apart"],
    )
    def test_refusals_keep_their_type_text_and_order(self, monkeypatch, classes, error, text):
        def never(xs, ys, pts):
            raise AssertionError("grid distances formed for refused classes")

        monkeypatch.setattr(topology, "_grid_min_dists", never)
        axis = np.linspace(-1.0, 1.0, 5)
        for build in (urysohn_multiclass, lambda c: urysohn_grid(c, axis, axis)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error) as raised:
                    build(classes)
            assert str(raised.value) == text

    # not among the refusals above: urysohn_grid refuses classes that are not 2-D first
    @pytest.mark.parametrize(
        "call, dims",
        [
            (lambda: urysohn_multiclass([[[0, 0, 0]], [[3, 0, 10]]])([1, 0]), (2, 3)),
            (lambda: min_class_gap([[[0, 0]], [[3, 0, 10]]]), (2, 3)),
            (lambda: min_class_gap([[[3, 0, 10]], [[0, 0]]]), (3, 2)),
            (lambda: urysohn_multiclass([[[0, 0]], [[3, 0, 10]]]), (2, 3)),
            (lambda: urysohn_multiclass([[[3, 0, 10]], [[0, 0]]]), (3, 2)),
        ],
        ids=["field-at-2d", "gap-2d-3d", "gap-3d-2d", "field-2d-3d", "field-3d-2d"],
    )
    def test_point_sets_of_different_dimension_are_refused(self, call, dims):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError) as raised:
                call()
        assert str(raised.value) == "point sets differ in dimension: {} and {}".format(*dims)


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

    @pytest.mark.parametrize("w", [[[1e300, 3.3e300]], [[1e308, 1e308]], [[1e-300, 3.3e-300]]])
    def test_residual_at_the_float64_limits_is_measured_scaled(self, w):
        # ||W p|| overflows for 1e300 entries and underflows for 1e-300 ones,
        # unless W is first scaled by a power of two
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            witness = kernel_witness(w)
        exponent = int(np.frexp(np.max(w))[1])
        scaled = np.ldexp(np.array(w), -exponent)
        tol = KERNEL_TOL * np.linalg.norm(scaled, 2)
        for p in (witness.p1, witness.p2):
            assert np.linalg.norm(scaled @ p) <= tol * np.linalg.norm(p)
        assert 0.0 <= witness.output_gap <= np.ldexp(tol * 2.0, exponent)

    def test_residual_in_range_is_measured_unscaled(self):
        w = np.array([[1e12, 3.3e12]])
        witness = kernel_witness(w)
        assert witness.output_gap == float(np.linalg.norm(w @ witness.p1 - w @ witness.p2))

    def test_radii_lie_in_the_annulus_bands(self):
        # p1 in the disc, p2 in the annulus, and neither at the origin
        assert len(WITNESS_RADII) == len(ANNULUS_BANDS)
        for r, (lo, hi) in zip(WITNESS_RADII, ANNULUS_BANDS):
            assert 0.0 < r and lo <= r <= hi


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


def test_full_report_runs_the_net_once(trained_paper_net, annulus500, monkeypatch):
    calls = []

    def counted(net, points):
        calls.append(len(points))
        return forward_batch(net, points)

    monkeypatch.setattr(topology, "forward_batch", counted)
    full_separability_report(trained_paper_net, annulus500)
    assert calls == [len(annulus500)]


def test_full_report_combines_criteria(trained_paper_net, annulus500):
    report = full_separability_report(trained_paper_net, annulus500)
    assert report.voronoi_ok
    assert report.disc_ok
    assert report.min_inter_disc_gap > 0.0
    payload = report.to_jsonable()
    assert list(payload) == [
        "voronoi_ok", "violating_points", "disc_ok", "discs", "min_inter_disc_gap",
    ]
    # the verdicts derive from the violations and the gap, and equal the
    # verdicts of check_thm3 and check_disc_separation
    one_class = LabeledPointCloud(
        dim=2, points=annulus500.points[:50], labels=np.zeros(50, dtype=np.int64), class_count=1
    )
    cases = [
        (trained_paper_net, annulus500, True, True),  # separated outputs
        (constant_net([1.0, 0.0]), annulus500, False, False),  # overlapping: one output for all
        (constant_net([0.0]), one_class, True, True),  # one class: no pair of discs
    ]
    for net, cloud, voronoi_ok, disc_ok in cases:
        report = full_separability_report(net, cloud)
        outputs = forward_batch(net, cloud.points)
        by_class = [outputs[cloud.labels == k] for k in range(cloud.class_count)]
        voronoi_only = check_thm3(net, cloud)
        assert report.voronoi_ok is voronoi_only.voronoi_ok is voronoi_ok
        assert report.disc_ok is check_disc_separation(by_class)[0] is disc_ok
        assert voronoi_only.disc_ok is None
