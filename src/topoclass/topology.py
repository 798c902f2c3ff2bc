"""Separability criteria, separator constructions, and cloud diagnostics.

Three ways of asking "did the net pull the classes apart?":

* the Voronoi criterion: every softmax output has a strict maximum at its
  true label (interior Voronoi membership for simplex vertices);
* the disc certificate: per-class minimum enclosing balls of the output
  cloud, exact in every dimension, are pairwise disjoint (sufficient, not
  complete);
* explicit separators: metric Urysohn fields that are exactly 0/1 (or k)
  on the classes, defined on all of R^n.

Plus the bottleneck impossibility construction: a weight matrix with fewer
rows than columns kills a direction, and two differently labeled points on
that direction are mapped identically by the whole net.

A Urysohn field on a 2-D grid (``urysohn_grid``) takes its squared gaps to
each point from one table per axis, (x_i - p0)^2 and (y_j - p1)^2, added
one grid column at a time: a third of the arithmetic of forming them node
by node, with the field's bits (float addition commutes, a minimum over
points is exact in any order, and one helper forms the weights for both).
The distances between the classes are measured once, in ``_class_table``:
the overlap check, ``min_class_gap`` and the weights on the classes read it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpecError
from .isomap import TILE_ENTRIES, _sq_dist_blocks, _too_far, graph_components, knn_graph
from .network import forward_batch, require_fit, strict_argmax, strict_argmax_batch
from .numerics import KERNEL_TOL, as_matrix, as_vector, null_space_basis, scaled_by_power_of_4

SIMPLEX_TOL = 1e-9
# linear_rank counts the singular values above this fraction of the largest
RANK_REL_TOL = 1e-6

# within this fraction of the radius (its square, for the sphere) a point is
# on the sphere or in the support's affine hull, and a center at its target
_MEB_TOL = 1e-12
# tested clouds (1-40 dimensions, up to 600 points) took at most 141 pivots;
# a pivot that stalls in a degenerate position raises instead of looping
_MAX_PIVOTS = 10_000
# |p1|, |p2| of a kernel witness: inside the disc and the annulus of
# data.ANNULUS_BANDS, the canonical two-class geometry
WITNESS_RADII = (0.5, 1.5)


@dataclass(frozen=True)
class Disc:
    center: np.ndarray
    radius: float

    def to_jsonable(self):
        return {"center": self.center.tolist(), "radius": self.radius}


@dataclass(frozen=True)
class SeparabilityReport:
    """Voronoi violations, optionally plus the class discs; the verdicts derive from them."""

    violating_points: tuple  # ((index, assigned or None, true label), ...)
    discs: tuple = None
    min_inter_disc_gap: float = None  # also None for a single class: no pair

    @property
    def voronoi_ok(self):
        return not self.violating_points

    @property
    def disc_ok(self):
        """None without discs; else whether every pair of discs is apart."""
        if self.discs is None:
            return None
        return self.min_inter_disc_gap is None or self.min_inter_disc_gap > 0.0

    def to_jsonable(self):
        out = {
            "voronoi_ok": self.voronoi_ok,
            "violating_points": [
                {"index": i, "assigned": a, "true": t} for i, a, t in self.violating_points
            ],
        }
        if self.discs is not None:
            out["disc_ok"] = self.disc_ok
            out["discs"] = [d.to_jsonable() for d in self.discs]
            out["min_inter_disc_gap"] = self.min_inter_disc_gap
        return out


@dataclass(frozen=True)
class KernelWitness:
    """Two points on a null direction of a bottleneck first layer."""

    direction: np.ndarray
    p1: np.ndarray  # inside the inner ball (class 0 region)
    p2: np.ndarray  # inside the outer shell (class 1 region)
    output_gap: float

    def to_jsonable(self):
        return {
            "direction": self.direction.tolist(),
            "p1": self.p1.tolist(),
            "p2": self.p2.tolist(),
            "output_gap": self.output_gap,
        }


def simplex_class(y):
    """Class index of a simplex point, or None on a tie boundary.

    The index of the strict maximum coordinate is exactly interior Voronoi
    membership for the simplex vertices (||y - v_i||^2 - ||y - v_j||^2 =
    2(y_j - y_i)), so no distances are computed.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise SpecError("simplex point must be a nonempty vector")
    y = as_vector(y, "simplex point")
    if (y < -SIMPLEX_TOL).any() or abs(float(y.sum()) - 1.0) > SIMPLEX_TOL:
        raise SpecError("point is not within 1e-9 of the closed simplex")
    return strict_argmax(y)


def _voronoi_violations(net, cloud):
    """The outputs of a net that fits the cloud (``require_fit``), and the points it gets wrong."""
    require_fit(net, cloud.dim, cloud.class_count)
    outputs = forward_batch(net, cloud.points)
    preds = strict_argmax_batch(outputs)
    bad = np.nonzero(preds != cloud.labels)[0]  # a tie's -1 is no label
    rows = zip(bad.tolist(), preds[bad].tolist(), cloud.labels[bad].tolist())
    return outputs, tuple((i, None if pred < 0 else pred, label) for i, pred, label in rows)


def check_thm3(net, cloud):
    """Voronoi criterion: every point's strict-argmax class equals its label."""
    return SeparabilityReport(violating_points=_voronoi_violations(net, cloud)[1])


def _circumball(support):
    """Circumcenter of affinely independent points, with its affine weights.

    Also returns an orthonormal basis of the directions of their affine
    hull.  The center is the point of the hull equidistant from them all.
    """
    base = support[0]
    rel = support[1:] - base
    basis, tri = np.linalg.qr(rel.T)
    # base + basis @ y is as far from each point base + rel[i] as from base
    # exactly when 2 tri.T @ y = |rel[i]|^2
    y = np.linalg.solve(2.0 * tri.T, (rel * rel).sum(axis=1))
    alpha = np.linalg.solve(tri, y)
    return base + basis @ y, np.concatenate([[1.0 - alpha.sum()], alpha]), basis


def _pivot_ball(points):
    """Minimum enclosing ball by the pivot of Fischer, Gaertner & Kutz (ESA 2003).

    The ball around the center always contains every point and has the
    support T, affinely independent points, on its sphere.  A pivot walks
    the center toward T's circumcenter, which keeps T on the shrinking
    sphere, until the first point reaches it and joins T.  At the
    circumcenter the support point with the smallest affine weight leaves
    T, until every weight is positive: the center is then a convex
    combination of equidistant support points, which makes the ball the
    minimum.  Points that reach the sphere at the same moment (on a sphere
    that already holds them, say) are taken in order of how fast the walk
    approaches them, then by index: the first index alone stalls on such
    clouds.  Returns (center, support indices, pivots).
    """
    center = points[0]
    gaps = points - center
    support = [int(np.argmax((gaps * gaps).sum(axis=1)))]
    for pivots in range(_MAX_PIVOTS):
        target, weights, basis = _circumball(points[support])
        walk = target - center
        gaps = points - center
        sq = (gaps * gaps).sum(axis=1)
        r2 = float(sq[support].max())
        step, radius = math.sqrt(walk @ walk), math.sqrt(r2)
        if step <= _MEB_TOL * radius:
            center = target
            if weights.min() > 0.0:
                return center, support, pivots
            del support[int(np.argmin(weights))]
            continue
        # along center + t * walk the sphere stays on T and reaches point p
        # at t = slack / (2 * ahead), ahead = walk . (q - p) for q in T
        dots = points @ walk
        ahead = dots[support].max() - dots
        slack = r2 - sq
        slack[slack <= _MEB_TOL * r2] = 0.0
        reach = np.full(len(points), np.inf)
        blocks = ahead > _MEB_TOL * step * radius
        reach[blocks] = 0.5 * slack[blocks] / ahead[blocks]
        while True:
            ties = np.flatnonzero(reach == reach.min())
            stopper = int(ties[np.argmax(ahead[ties])])
            if reach[stopper] >= 1.0:
                center = target
                break
            off = points[stopper] - points[support[0]]
            off -= basis @ (basis.T @ off)
            if math.sqrt(off @ off) > _MEB_TOL * radius:
                center = center + reach[stopper] * walk
                support.append(stopper)
                break
            reach[stopper] = np.inf  # affinely dependent on T: never enters
    raise NumericalError(f"minimum enclosing ball: no optimum after {_MAX_PIVOTS} pivots")


def min_enclosing_ball(points):
    """Smallest ball containing the points, exact in every dimension.

    The pivot runs on the points less the first one, so the center keeps
    the digits of the points' spread, not of their offset.  The pivot and
    the radius run on that spread scaled by ``scaled_by_power_of_4``
    (exact), so their squares neither overflow nor underflow; a spread, gap
    or radius past float64 raises ``NumericalError``.  Containment is
    guaranteed: the radius is the max distance from the returned center.
    """
    pts = as_matrix(points, "points")
    if pts.shape[0] == 0:
        raise SpecError("min_enclosing_ball needs at least one point")
    with np.errstate(over="ignore"):
        rel = pts - pts[0]
    spread = float(np.abs(_too_far(rel)).max())
    rel, shift = scaled_by_power_of_4(rel, spread)
    offset = _pivot_ball(rel)[0]
    # a point's gap to the center, and the radius, may pass float64 where the spread does not
    with np.errstate(over="ignore"):
        center = np.ldexp(offset, shift) + pts[0]
        gaps = np.ldexp(_too_far(pts - center), -shift)
        radius = np.ldexp(np.sqrt((gaps * gaps).sum(axis=1).max()), shift)
    return Disc(center=center, radius=float(_too_far(radius)))


def check_disc_separation(clouds_by_class):
    """Disjointness of per-class minimum enclosing balls.

    Returns (ok, discs, min gap) where the gap between two balls is the
    center distance minus the radius sum, and None for a single class.
    Disjoint balls are a sufficient certificate of disc-separation, not a
    complete decision procedure.
    """
    if not clouds_by_class:
        raise SpecError("need at least one class")
    clouds = [as_matrix(c, f"class {k}") for k, c in enumerate(clouds_by_class)]
    dims = sorted({c.shape[1] for c in clouds})
    if len(dims) > 1:
        raise SpecError(f"classes differ in dimension: {dims}")
    discs = [min_enclosing_ball(c) for c in clouds]
    gaps = []
    with np.errstate(over="ignore"):
        for k, a in enumerate(discs):
            for b in discs[k + 1 :]:
                # the norm of the difference on the power-of-4 scale, scaled back
                diff = a.center - b.center
                diff, shift = scaled_by_power_of_4(diff, np.abs(diff).max())
                gaps.append(float(np.ldexp(np.linalg.norm(diff), shift)) - a.radius - b.radius)
    if not all(map(math.isfinite, gaps)):
        raise NumericalError("class discs too far apart: center distances overflow float64")
    return all(gap > 0.0 for gap in gaps), discs, min(gaps, default=None)


def full_separability_report(net, cloud):
    """Voronoi criterion plus the disc certificate on the net's output clouds."""
    outputs, violations = _voronoi_violations(net, cloud)
    by_class = [outputs[cloud.labels == k] for k in range(cloud.class_count)]
    _, discs, gap = check_disc_separation(by_class)
    return SeparabilityReport(violations, discs=tuple(discs), min_inter_disc_gap=gap)


def _min_dists(xs, pts):
    """Min Euclidean distance from each row of xs to the finite set pts."""
    out = np.empty(xs.shape[0])
    for rows, sq in _sq_dist_blocks(xs, pts):
        out[rows] = np.sqrt(sq.min(axis=1))
    return _too_far(out)


def _class_table(classes):
    """The classes as nonempty float arrays, and each one's (n_k, c) distances to every class."""
    prepared = []
    for i, pts in enumerate(classes):
        arr = as_matrix(pts, f"class {i}")
        if arr.shape[0] == 0:
            raise SpecError(f"class {i} has no points")
        prepared.append(arr)
    table = [np.zeros((len(own), len(prepared))) for own in prepared]
    for k, j in itertools.permutations(range(len(prepared)), 2):
        table[k][:, j] = _min_dists(prepared[k], prepared[j])
    return prepared, table


def _prepare_classes(classes):
    """``_class_table`` of two or more nonempty classes, checked to be disjoint."""
    prepared, table = _class_table(classes)
    for i, j in itertools.combinations(range(len(table)), 2):
        if table[i][:, j].min() <= 0.0:
            raise SpecError(f"classes {i} and {j} overlap (min distance 0)")
    if len(prepared) < 2:
        raise SpecError("need at least 2 classes")
    return prepared, table


def min_class_gap(classes):
    """Smallest cross-class point distance; the separator's conditioning number."""
    table = _class_table(classes)[1]
    return min([np.inf] + [float(d[:, k + 1 :].min()) for k, d in enumerate(table[:-1])])


def urysohn_binary(d1, d2):
    """Metric Urysohn separator f(x) = dist(x, d1) / (dist(x, d1) + dist(x, d2)).

    Exactly 0 on d1, exactly 1 on d2, in [0, 1] everywhere, and defined on
    all of R^n (the distance formula is its own global extension).  The
    returned callable accepts one point or an (m, n) batch.  It is the
    two-class ``urysohn_multiclass``: the weight on label 1 is
    dist(x, d1) / (dist(x, d2) + dist(x, d1)) and the weight on label 0 is
    multiplied by 0, so the value is this quotient bit for bit.
    """
    return urysohn_multiclass([d1, d2])


def _partition_of_unity(dists):
    """Values sum_k k * w_k(x) from the (m, c) distances of m points to c classes.

    w_k is the product of the distances to every class but k, over the sum
    of these products.  Separated classes leave at most one distance 0, so
    the sum is positive: a sum of inf or 0 means the products overflowed or
    underflowed, and raises ``NumericalError``.
    """
    c = dists.shape[1]
    products = np.empty_like(dists)
    with np.errstate(over="ignore"):
        for k in range(c):
            others = [j for j in range(c) if j != k]
            products[:, k] = dists[:, others].prod(axis=1)
        total = products.sum(axis=1)
    if not (np.isfinite(total).all() and (total > 0.0).all()):
        raise NumericalError("urysohn field: distance products leave float64 range")
    weights = products / total[:, np.newaxis]
    return weights @ np.arange(c, dtype=np.float64)


def urysohn_multiclass(classes):
    """Partition-of-unity separator: exactly k on class k, continuous on R^n.

    f(x) = sum_k k * w_k(x) with w_k proportional to the product of the
    distances to every other class, so membership in class k forces w_k = 1.
    """
    prepared = _prepare_classes(classes)[0]

    def field(x):
        xs = np.asarray(x, dtype=np.float64)
        single = xs.ndim == 1
        xs2 = as_vector(xs, "x")[np.newaxis, :] if single else as_matrix(xs, "x")
        dists = np.stack([_min_dists(xs2, pts) for pts in prepared], axis=1)
        vals = _partition_of_unity(dists)
        return float(vals[0]) if single else vals

    return field


def _grid_min_dists(xs, ys, pts):
    """``_min_dists`` of the grid nodes (xs[i], ys[j]) to 2-D pts, as (len(ys), len(xs)).

    The points go in chunks that keep each per-axis table near
    ``TILE_ENTRIES`` entries; a running minimum over the chunks is exact.
    """
    by_column = np.full((len(xs), len(ys)), np.inf)
    nearest = np.empty(len(ys))
    chunk = min(len(pts), max(1, TILE_ENTRIES // max(len(xs), len(ys))))
    tables = np.empty((len(xs), chunk)), np.empty((len(ys), chunk)), np.empty((len(ys), chunk))
    with np.errstate(over="ignore"):
        for start in range(0, len(pts), chunk):
            part = pts[start : start + chunk]
            dx, dy, sq = (table[:, : len(part)] for table in tables)
            np.subtract.outer(xs, part[:, 0], out=dx)
            np.multiply(dx, dx, out=dx)
            np.subtract.outer(ys, part[:, 1], out=dy)
            np.multiply(dy, dy, out=dy)
            for column, row in zip(by_column, dx):
                np.add(dy, row, out=sq)
                np.minimum(column, sq.min(axis=1, out=nearest), out=column)
    return _too_far(np.sqrt(by_column.T))


def urysohn_grid(classes, xs, ys):
    """``urysohn_multiclass(classes)`` on the nodes (xs[i], ys[j]) of a 2-D grid, bit for bit.

    Returns a (len(ys), len(xs)) array: row j, column i holds the field at
    (xs[i], ys[j]).  The weights are also formed on the classes, from the
    class table, so a field that leaves float64 range there raises
    ``NumericalError``; otherwise it is exactly k on class k (p / p = 1).
    Classes that are not 2-D, and axes that are not finite 1-D arrays,
    raise before any distance.
    """
    if any(np.shape(pts)[1:] != (2,) for pts in classes):
        raise SpecError("a urysohn grid needs 2-D classes")
    xs, ys = as_vector(xs, "xs"), as_vector(ys, "ys")
    prepared, table = _prepare_classes(classes)
    dists = np.stack([_grid_min_dists(xs, ys, pts).ravel() for pts in prepared], axis=1)
    values = _partition_of_unity(dists).reshape(len(ys), len(xs))
    for on_class in table:
        _partition_of_unity(on_class)
    return values


def kernel_witness(w):
    """Two points the first layer cannot tell apart, from its null space.

    Requires a bottleneck (rows < cols).  The points sit on the line through
    the origin along a kernel direction, at the radii ``WITNESS_RADII``: p1
    inside the inner ball and p2 inside the outer shell of the canonical
    two-class geometry.
    """
    w = as_matrix(w, "w")
    rows, cols = w.shape
    if rows >= cols:
        raise SpecError(f"no bottleneck: weight is {rows}x{cols} (needs rows < cols)")
    basis = null_space_basis(w)
    if not basis:
        raise NumericalError("kernel numerically trivial despite rows < cols")
    direction = basis[0]
    p1, p2 = (r * direction for r in WITNESS_RADII)
    # null_space_basis's bound, ||W p|| <= KERNEL_TOL * ||W||_2 * ||p||, measured on W
    # scaled as null_space_basis scales it, so that no norm overflows
    w, shift = scaled_by_power_of_4(w, np.abs(w).max(initial=0.0))
    scale = KERNEL_TOL * float(np.linalg.norm(w, 2))
    img1 = w @ p1
    img2 = w @ p2
    for name, p, img in (("p1", p1, img1), ("p2", p2, img2)):
        residual = float(np.linalg.norm(img))
        bound = scale * float(np.linalg.norm(p))
        if not residual <= bound:
            with np.errstate(over="ignore"):  # reported unscaled: inf past float64
                residual, bound = np.ldexp([residual, bound], shift)
            raise NumericalError(
                f"null direction residual exceeds its bound: |W {name}| = {residual:.3e}"
                f" > KERNEL_TOL * ||W||_2 * ||{name}|| = {bound:.3e}"
            )
    return KernelWitness(
        direction=direction,
        p1=p1,
        p2=p2,
        output_gap=math.ldexp(float(np.linalg.norm(img1 - img2)), shift),
    )


def principal_spectrum(points):
    """Singular values of the centered cloud, descending, zero-padded to shape (dim,)."""
    pts = as_matrix(points, "points")
    if 0 in pts.shape:
        raise SpecError("need at least one point and one coordinate")
    centered = pts - pts.mean(axis=0)
    sigma = np.linalg.svd(centered, compute_uv=False)
    return np.concatenate([sigma, np.zeros(pts.shape[1] - sigma.size)])


def linear_rank(points):
    """Count of singular values above RANK_REL_TOL times the largest one."""
    spectrum = principal_spectrum(points)
    top = float(spectrum[0])
    if top == 0.0:
        return 0
    return int((spectrum > RANK_REL_TOL * top).sum())


def component_count(points, k):
    """Connected components of the symmetric kNN graph."""
    return len(graph_components(knn_graph(points, k)))
