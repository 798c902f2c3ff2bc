"""Separability criteria, separator constructions, and cloud diagnostics.

Three ways of asking "did the net pull the classes apart?":

* the Voronoi criterion: every softmax output has a strict maximum at its
  true label (interior Voronoi membership for simplex vertices);
* the disc certificate: per-class minimum enclosing balls of the output
  cloud are pairwise disjoint (sufficient, not complete);
* explicit separators: metric Urysohn fields that are exactly 0/1 (or k)
  on the classes, defined on all of R^n.

Plus the bottleneck impossibility construction: a weight matrix with fewer
rows than columns kills a direction, and two differently labeled points on
that direction are mapped identically by the whole net.
"""

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptyInputError,
    NumericalError,
    SeparationError,
    SpecError,
)
from .isomap import _sq_dist_blocks, graph_components, knn_graph
from .network import SOFTMAX, forward_batch, strict_argmax, strict_argmax_batch
from .numerics import as_matrix, make_rng, null_space_basis

TIE_TOL = 1e-12
SIMPLEX_TOL = 1e-9

# core-set iterations for the high-dimensional MEB fallback; after k steps
# the center is within r_opt/sqrt(k) of optimal, so 10^4 bounds the radius
# slack at 1%.  All 10^4 steps run, but most of them evaluate only the few
# points that can still be farthest (see _coreset_ball).
_MEB_ITERATIONS = 10_000
# how far, as a fraction of the anchor's farthest distance, the center may
# move from an anchor before every point is evaluated again (0.001 to 0.005
# measured close on 4-D softmax outputs; 0.002 was best)
_ANCHOR_BUDGET = 0.002
# relative slack on both bounds of that test, far above the rounding of a
# squared distance of at most 7 coordinates
_ROUNDING_MARGIN = 1e-9
# a step in Python floats costs about as much per candidate as a numpy step
# costs per 16 points (4-D, measured), so when more than one point in 16 is
# a candidate (points on a sphere, duplicated points) numpy steps run, and
# the next anchor pass waits _ANCHOR_RETRY steps
_POINTS_PER_CANDIDATE = 16
_ANCHOR_RETRY = 32
# numpy adds a row of up to 7 squares left to right, as the candidate steps
# do; from 8 coordinates on it adds pairwise, so only numpy steps run there
_SEQUENTIAL_SUM_DIMS = 7


@dataclass(frozen=True)
class Disc:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        if not np.isfinite(center).all() or not np.isfinite(self.radius):
            raise NumericalError("disc center/radius must be finite")
        if self.radius < 0.0:
            raise NumericalError("disc radius must be nonnegative")
        object.__setattr__(self, "center", center)

    def to_jsonable(self):
        return {"center": self.center.tolist(), "radius": self.radius}


@dataclass(frozen=True)
class SeparabilityReport:
    """Voronoi verdict with witnesses, optionally plus the disc certificate."""

    voronoi_ok: bool
    violating_points: tuple  # ((index, assigned or None, true label), ...)
    disc_ok: bool = None
    discs: tuple = None
    min_inter_disc_gap: float = None  # also None for a single class: no pair

    def __post_init__(self):
        if self.voronoi_ok != (len(self.violating_points) == 0):
            raise NumericalError("voronoi_ok must match emptiness of violations")

    def to_jsonable(self):
        out = {
            "voronoi_ok": self.voronoi_ok,
            "violating_points": [
                {"index": i, "assigned": a, "true": t} for i, a, t in self.violating_points
            ],
        }
        if self.disc_ok is not None:
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

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=np.float64)
        p1 = np.asarray(self.p1, dtype=np.float64)
        p2 = np.asarray(self.p2, dtype=np.float64)
        if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-12:
            raise NumericalError("witness direction must be a unit vector")
        if float(np.linalg.norm(p1)) > 0.9 + 1e-12:
            raise NumericalError("p1 must lie in the inner ball (norm <= 0.9)")
        if not (1.0 - 1e-12 <= float(np.linalg.norm(p2)) <= 2.0 + 1e-12):
            raise NumericalError("p2 must lie in the outer shell (1 <= norm <= 2)")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    def to_jsonable(self):
        return {
            "direction": self.direction.tolist(),
            "p1": self.p1.tolist(),
            "p2": self.p2.tolist(),
            "output_gap": self.output_gap,
        }


def simplex_class(y, tol=TIE_TOL):
    """Class index of a simplex point, or None on a tie boundary.

    The index of the strict maximum coordinate is exactly interior Voronoi
    membership for the simplex vertices (||y - v_i||^2 - ||y - v_j||^2 =
    2(y_j - y_i)), so no distances are computed.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise DomainError("simplex point must be a nonempty vector")
    if (y < -SIMPLEX_TOL).any() or abs(float(y.sum()) - 1.0) > SIMPLEX_TOL:
        raise DomainError("point is not within 1e-9 of the closed simplex")
    return strict_argmax(y, tol)


def check_thm3(net, cloud):
    """Voronoi criterion: every point's strict-argmax class equals its label."""
    if net.layers[-1].activation != SOFTMAX:
        raise DimensionError("criterion needs a softmax final layer")
    if net.output_dim != cloud.class_count:
        raise DimensionError(
            f"net has {net.output_dim} outputs but cloud has {cloud.class_count} classes"
        )
    outputs = forward_batch(net, cloud.points)
    preds, ties = strict_argmax_batch(outputs, TIE_TOL)
    bad = np.nonzero((preds != cloud.labels) | ties)[0]
    violations = tuple(
        (int(i), None if ties[i] else int(preds[i]), int(cloud.labels[i])) for i in bad
    )
    return SeparabilityReport(voronoi_ok=len(violations) == 0, violating_points=violations)


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


def _coreset_ball(points):
    """Badoiu-Clarkson farthest-point iteration: containing, <= 1% radius slack.

    Step i moves the center c to c + (p - c)/(i + 1), p the farthest point
    (the first one on ties).  A step that evaluates every point is also an
    anchor: with top the anchor's farthest distance and budget a small
    fraction of it, the points nearer than top - 2*budget are dropped.
    While c stays within budget of the anchor, each dropped point is, by the
    triangle inequality, strictly nearer to c than the anchor's farthest
    point, so the steps in between evaluate the remaining candidates only.
    They repeat numpy's arithmetic in Python floats, so the argmax, its tie
    and every bit of the center are those of evaluating every point.
    """
    n, dim = points.shape
    center = points[0].astype(np.float64).copy()
    # until step 1/_ANCHOR_BUDGET the anchor's own step leaves the budget
    next_anchor = 1.0 / _ANCHOR_BUDGET if dim <= _SEQUENTIAL_SUM_DIMS else math.inf
    i = 1
    while i <= _MEB_ITERATIONS:
        gaps = points - center
        sq = (gaps * gaps).sum(axis=1)
        far = int(np.argmax(sq))
        anchor = center  # the step below makes a new array
        center = center + (points[far] - center) / (i + 1.0)
        i += 1
        if i < next_anchor:
            continue
        top = math.sqrt(sq[far])
        budget = _ANCHOR_BUDGET * top
        low = (top - 2.0 * budget) * (1.0 - _ROUNDING_MARGIN)
        candidates = np.flatnonzero(sq >= low * low)
        if len(candidates) * _POINTS_PER_CANDIDATE > n:
            next_anchor = i + _ANCHOR_RETRY
            continue
        max_drift = budget * (1.0 - _ROUNDING_MARGIN)
        rows = points[candidates].tolist()
        center, i = _candidate_steps(
            rows, center.tolist(), anchor.tolist(), max_drift * max_drift, i
        )
    return center


def _candidate_steps(rows, center, anchor, max_drift_sq, i):
    """Farthest-point steps over rows while |center - anchor|^2 <= max_drift_sq.

    Returns (center as an array, next step).  Squares are written g * g
    (``**`` raises OverflowError) and summed left to right: numpy's row sum
    for up to 7 coordinates.
    """
    while i <= _MEB_ITERATIONS:
        drift = 0.0
        for g in map(sub, center, anchor):
            drift += g * g
        if drift > max_drift_sq:
            break
        best = -1.0
        for row in rows:
            dist = 0.0
            for g in map(sub, row, center):
                dist += g * g
            if dist > best:
                best, far_row = dist, row
        step = i + 1.0
        center = [c + (p - c) / step for p, c in zip(far_row, center)]
        i += 1
    return np.array(center), i


def min_enclosing_ball(points):
    """Smallest ball containing the points.

    Exact (Welzl) for dim <= 3; for higher dimensions the Badoiu-Clarkson
    core-set iteration (10^4 farthest-point steps, most of them over the few
    points that can still be farthest), whose radius is within 1% of
    optimal.  Containment is guaranteed in both paths: the radius is the max
    distance from the returned center.  Points whose squared distances
    overflow float64 raise ``NumericalError``.
    """
    pts = as_matrix(points, "points")
    if pts.shape[0] == 0:
        raise EmptyInputError("min_enclosing_ball needs at least one point")
    with np.errstate(over="ignore"):
        span = pts.max(axis=0) - pts.min(axis=0)
        extent_sq = float((span * span).sum())
    # twice the squared bounding-box diagonal bounds every squared gap either
    # path forms, Welzl's doubled Gram entries included
    if not math.isfinite(2.0 * extent_sq):
        raise NumericalError("points too far apart: squared distances overflow float64")
    if pts.shape[1] <= 3:
        center, radius = _welzl_ball(pts)
    else:
        center = _coreset_ball(pts)
        radius = 0.0
    gaps = pts - center
    radius = max(radius, float(np.sqrt((gaps * gaps).sum(axis=1).max())))
    return Disc(center=center, radius=radius)


def check_disc_separation(clouds_by_class):
    """Disjointness of per-class minimum enclosing balls.

    Returns (ok, discs, min gap) where the gap between two balls is the
    center distance minus the radius sum, and None for a single class.
    Disjoint balls are a sufficient certificate of disc-separation, not a
    complete decision procedure.
    """
    if not clouds_by_class:
        raise EmptyInputError("need at least one class")
    clouds = [as_matrix(c, f"class {k}") for k, c in enumerate(clouds_by_class)]
    dims = sorted({c.shape[1] for c in clouds})
    if len(dims) > 1:
        raise DimensionError(f"classes differ in dimension: {dims}")
    discs = [min_enclosing_ball(c) for c in clouds]
    gaps = [
        float(np.linalg.norm(a.center - b.center)) - a.radius - b.radius
        for k, a in enumerate(discs)
        for b in discs[k + 1:]
    ]
    return all(gap > 0.0 for gap in gaps), discs, min(gaps, default=None)


def full_separability_report(net, cloud):
    """Voronoi criterion plus the disc certificate on the net's output clouds."""
    report = check_thm3(net, cloud)
    outputs = forward_batch(net, cloud.points)
    by_class = [outputs[cloud.labels == k] for k in range(cloud.class_count)]
    disc_ok, discs, gap = check_disc_separation(by_class)
    return SeparabilityReport(
        voronoi_ok=report.voronoi_ok,
        violating_points=report.violating_points,
        disc_ok=disc_ok,
        discs=tuple(discs),
        min_inter_disc_gap=gap,
    )


def _min_dists(xs, pts):
    """Min Euclidean distance from each row of xs to the finite set pts."""
    out = np.empty(xs.shape[0])
    for rows, sq in _sq_dist_blocks(xs, pts):
        out[rows] = np.sqrt(sq.min(axis=1))
    return out


def _prepare_classes(classes):
    prepared = []
    for i, pts in enumerate(classes):
        arr = as_matrix(pts, f"class {i}")
        if arr.shape[0] == 0:
            raise EmptyInputError(f"class {i} has no points")
        prepared.append(arr)
    for i in range(len(prepared)):
        for j in range(i + 1, len(prepared)):
            gap = float(_min_dists(prepared[i], prepared[j]).min())
            if gap <= 0.0:
                raise SeparationError(f"classes {i} and {j} overlap (min distance 0)")
    return prepared


def min_class_gap(classes):
    """Smallest cross-class point distance; the separator's conditioning number."""
    prepared = [as_matrix(p) for p in classes]
    gap = np.inf
    for i in range(len(prepared)):
        for j in range(i + 1, len(prepared)):
            gap = min(gap, float(_min_dists(prepared[i], prepared[j]).min()))
    return gap


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


def urysohn_multiclass(classes):
    """Partition-of-unity separator: exactly k on class k, continuous on R^n.

    f(x) = sum_k k * w_k(x) with w_k proportional to the product of the
    distances to every other class, so membership in class k forces w_k = 1.
    """
    prepared = _prepare_classes(classes)
    if len(prepared) < 2:
        raise SeparationError("need at least 2 classes")

    def field(x):
        xs = np.asarray(x, dtype=np.float64)
        single = xs.ndim == 1
        xs2 = xs[np.newaxis, :] if single else xs
        dists = np.stack([_min_dists(xs2, pts) for pts in prepared], axis=1)
        c = dists.shape[1]
        products = np.empty_like(dists)
        for k in range(c):
            others = [j for j in range(c) if j != k]
            products[:, k] = dists[:, others].prod(axis=1)
        total = products.sum(axis=1)
        weights = products / total[:, np.newaxis]
        vals = weights @ np.arange(c, dtype=np.float64)
        return float(vals[0]) if single else vals

    return field


def kernel_witness(w, inner_r=0.5, outer_r=1.5):
    """Two points the first layer cannot tell apart, from its null space.

    Requires a bottleneck (rows < cols).  The points sit on the line through
    the origin along a kernel direction, at radii that put p1 inside the
    inner ball and p2 inside the outer shell of the canonical two-class
    geometry.
    """
    w = as_matrix(w, "w")
    rows, cols = w.shape
    if rows >= cols:
        raise SpecError(f"no bottleneck: weight is {rows}x{cols} (needs rows < cols)")
    if not 0.0 < inner_r <= 0.9:
        raise SpecError("inner radius must lie in (0, 0.9]")
    if not 1.0 <= outer_r <= 2.0:
        raise SpecError("outer radius must lie in [1, 2]")
    basis = null_space_basis(w)
    if not basis:
        raise NumericalError("kernel numerically trivial despite rows < cols")
    direction = basis[0]
    p1 = inner_r * direction
    p2 = outer_r * direction
    img1 = w @ p1
    img2 = w @ p2
    if float(np.linalg.norm(img1)) > 1e-9 or float(np.linalg.norm(img2)) > 1e-9:
        raise NumericalError("null direction residual exceeds 1e-9")
    return KernelWitness(
        direction=direction,
        p1=p1,
        p2=p2,
        output_gap=float(np.linalg.norm(img1 - img2)),
    )


def principal_spectrum(points):
    """Singular values of the centered cloud, descending, zero-padded to shape (dim,)."""
    pts = as_matrix(points, "points")
    if 0 in pts.shape:
        raise EmptyInputError("need at least one point and one coordinate")
    centered = pts - pts.mean(axis=0)
    sigma = np.linalg.svd(centered, compute_uv=False)
    return np.concatenate([sigma, np.zeros(pts.shape[1] - sigma.size)])


def linear_rank(points, rel_tol=1e-6):
    """Count of singular values above rel_tol times the largest one."""
    spectrum = principal_spectrum(points)
    top = float(spectrum[0])
    if top == 0.0:
        return 0
    return int((spectrum > rel_tol * top).sum())


def component_count(points, k):
    """Connected components of the symmetric kNN graph."""
    pts = as_matrix(points, "points")
    if k < 1 or k >= pts.shape[0]:
        raise SpecError(f"k must satisfy 1 <= k < {pts.shape[0]}, got {k}")
    return len(graph_components(knn_graph(pts, k)))
