"""Isomap: kNN graph, graph geodesics, classical MDS.

The three stages are exposed separately because each has its own oracle
(complete graphs reduce geodesics to Euclidean distances, exact Euclidean
matrices make MDS lossless); ``isomap()`` is the one place that chains
them.  Geodesics are a dense Floyd-Warshall min-plus recursion in numpy,
and the MDS eigensolve is LAPACK ``eigh``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, NumericalError, SpecError
from .numerics import as_matrix, eigh_symmetric, require_budget

DUPLICATE_POINT_WEIGHT = 1e-12
# entries in one squared-distance tile: 2^15 float64 (256 KB) stays in L2;
# 4K-entry tiles measured slower again, 16K to 64K about equal
TILE_ENTRIES = 32_768
# dense Isomap's plan, in n x n float64 arrays: those tracemalloc sees (4.85 at n = 400), and
# LAPACK eigh's input copy and work arrays (max RSS grows by 7.2-7.5 n x n at n = 1000 and 1500)
TRACED_ARRAYS, EIGH_ARRAYS = 5, 3


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric weighted adjacency; weights[i, j] > 0 iff edge, 0 on diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.weights, "weights")
        n, m = w.shape
        if n != m:
            raise SpecError(f"adjacency must be square, got {n}x{m}")
        if not np.array_equal(w, w.T):
            raise SpecError("adjacency must be symmetric")
        if np.diagonal(w).any():
            raise SpecError("adjacency must have a zero diagonal (no self-loops)")
        if (w < 0.0).any():
            raise SpecError("edge weights must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def node_count(self):
        return self.weights.shape[0]

    def edge_count(self):
        return int((self.weights > 0.0).sum()) // 2


def _sq_dist_blocks(xs, pts):
    """Squared Euclidean distances from xs to pts, one tile of xs rows at a time.

    Yields ``(rows, block)`` with ``block[i, j] = ||xs[rows][i] - pts[j]||^2``.
    A tile holds about ``TILE_ENTRIES`` = 2^15 entries (256 KB, sized for L2),
    so the memory a distance pass holds at once does not grow with
    ``len(xs) * len(pts)``; when ``len(pts)`` exceeds it a tile is one row.
    The first coordinate's squared differences are written into the tile
    and later coordinates are added in place, in coordinate order, so no
    ``(rows, len(pts), dim)`` array exists.  Direct subtraction keeps small
    distances accurate (no Gram-matrix cancellation).  A square past float64
    is inf in the tile, with no warning: each caller refuses (``_too_far``)
    only an inf among the distances it returns.  The error state covers the
    arithmetic of one tile and is closed before the ``yield``.
    """
    n, dim = xs.shape
    m = pts.shape[0]
    if pts.shape[1] != dim:
        raise SpecError(f"point sets differ in dimension: {dim} and {pts.shape[1]}")
    if dim == 0:
        xs, pts = np.zeros((n, 1)), np.zeros((m, 1))
    chunk = max(1, TILE_ENTRIES // max(m, 1))
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        with np.errstate(over="ignore"):
            block = np.subtract.outer(xs[rows, 0], pts[:, 0])
            np.multiply(block, block, out=block)
            diff = np.empty_like(block)
            for c in range(1, xs.shape[1]):
                np.subtract.outer(xs[rows, c], pts[:, c], out=diff)
                block += np.multiply(diff, diff, out=diff)
        yield rows, block


def _too_far(dists):
    """``dists``, or NumericalError when one of them is not finite (a square overflowed)."""
    if not np.isfinite(dists).all():
        raise NumericalError("points too far apart: squared distances overflow float64")
    return dists


def pairwise_distances(points):
    """Dense Euclidean distance matrix, computed by direct differences."""
    pts = as_matrix(points, "points")
    out = np.empty((pts.shape[0], pts.shape[0]))
    for rows, sq in _sq_dist_blocks(pts, pts):
        out[rows] = np.sqrt(sq)
    return _too_far(out)


def knn_graph(points, k):
    """Symmetrized k-nearest-neighbor graph with Euclidean edge weights.

    Edge (i, j) exists iff j is among i's k nearest (ties to the lower index)
    or vice versa.  Exact duplicate points get the tiny positive weight 1e-12
    instead of zero so edges stay distinguishable from non-edges.
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    require_budget(f"dense Isomap of {n} points", 8 * (TRACED_ARRAYS + EIGH_ARRAYS) * n * n)
    if not 1 <= k < n:
        raise SpecError(f"k must satisfy 1 <= k < {n}, got {k}")
    dists = pairwise_distances(pts)
    # +inf sorts each point last in its own row, so it is never its own neighbor
    np.fill_diagonal(dists, np.inf)
    rows = np.arange(n)[:, np.newaxis]
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    picked = np.maximum(dists[rows, nearest], DUPLICATE_POINT_WEIGHT)
    weights = np.zeros((n, n))
    weights[rows, nearest] = picked
    weights[nearest, rows] = picked
    return NeighborGraph(weights=weights)


def graph_components(graph):
    """Connected components as sorted node lists, smallest first; one breadth-first search each."""
    adjacent = graph.weights > 0.0
    unseen = np.ones(graph.node_count, dtype=bool)
    components = []
    while unseen.any():
        frontier = np.zeros_like(unseen)
        frontier[np.argmax(unseen)] = True
        reached = frontier.copy()
        while frontier.any():
            frontier = adjacent[frontier].any(axis=0) & ~reached
            reached |= frontier
        unseen &= ~reached
        components.append(np.flatnonzero(reached).tolist())
    return components


def geodesic_distances(graph):
    """All-pairs shortest-path distances along graph edges.

    Raises DisconnectedError (naming the components) when the graph is not
    connected; callers can retry with larger k or restrict the input to the
    largest component first.
    """
    components = graph_components(graph)
    if len(components) > 1:
        raise DisconnectedError(components)
    w = graph.weights
    dist = np.where(w > 0.0, w, np.inf)
    np.fill_diagonal(dist, 0.0)
    # exactly symmetric, as NeighborGraph's weights are: pivot k tries dist[i,k] + dist[k,j]
    # at (i, j) and the same sum in the other order at (j, i), equal as float addition commutes
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


@dataclass(frozen=True)
class EmbeddingResult:
    """Low-dimensional coordinates plus the MDS diagnostics."""

    coordinates: np.ndarray  # (n, target_dim)
    eigenvalues: np.ndarray  # full spectrum, descending
    stress: float  # normalized Frobenius distortion
    clamped: int  # how many of the used eigenvalues were negative

    def to_jsonable(self):
        return {
            "coordinates": self.coordinates.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "stress": self.stress,
            "clamped": self.clamped,
        }


def classical_mds(d, target_dim):
    """Classical (Torgerson) scaling of a distance matrix.

    Double-centers the squared distances, eigendecomposes, and scales the
    top eigenvectors by sqrt(eigenvalue).  Negative eigenvalues among the
    used ones (non-Euclidean input) are clamped to zero and counted in the
    result.  Stress is ||pairwise(coords) - d||_F / ||d||_F.
    """
    d = as_matrix(d, "d")
    n, m = d.shape
    if n != m:
        raise SpecError(f"distance matrix must be square, got {n}x{m}")
    if n == 0:
        raise SpecError("distance matrix must be non-empty, got 0x0")
    scale = float(np.abs(d).max())
    if float(np.abs(d - d.T).max()) > 1e-9 * scale:
        raise SpecError("distance matrix must be symmetric")
    if float(np.abs(np.diagonal(d)).max()) > 1e-12 * scale:
        raise SpecError("distance matrix must have a zero diagonal")
    if (d < 0.0).any():
        raise SpecError("distances must be nonnegative")
    if not 1 <= target_dim <= n:
        raise SpecError(f"target_dim must satisfy 1 <= t <= {n}, got {target_dim}")

    with np.errstate(over="ignore", invalid="ignore"):
        b = d * d
        denom = float(np.sqrt(b.sum()))  # ||d||_F for the stress, before b is centered
        row_mean = b.mean(axis=1, keepdims=True)
        col_mean = b.mean(axis=0, keepdims=True)
        total = b.mean()
        # b = -0.5 * (b - row_mean - col_mean + total), in place, in that order
        b -= row_mean
        b -= col_mean
        b += total
        b *= -0.5
        b = (b + b.T) / 2.0  # d may be 1e-9 asymmetric; eigh_symmetric accepts 1e-12 (relative)
    if not np.isfinite(b).all():
        raise NumericalError("squared distances or their sums overflow float64 in classical MDS")

    evals, evecs = eigh_symmetric(b)
    used = evals[:target_dim]
    clamped = int((used < 0.0).sum())
    lam = np.sqrt(np.clip(used, 0.0, None))
    coords = evecs[:, :target_dim] * lam[np.newaxis, :]

    recon = pairwise_distances(coords)
    with np.errstate(over="ignore"):
        recon -= d  # the residual, squared in place
        recon *= recon
        residual = float(np.sqrt(recon.sum()))
    if not (math.isfinite(denom) and math.isfinite(residual)):
        raise NumericalError("the stress sums of classical MDS overflow float64")
    stress = 0.0 if denom == 0.0 else residual / denom
    return EmbeddingResult(coordinates=coords, eigenvalues=evals, stress=stress, clamped=clamped)


def isomap(points, k, target_dim=3):
    """knn_graph -> geodesic_distances -> classical_mds, composed; the graph is freed before MDS."""
    return classical_mds(geodesic_distances(knn_graph(points, k)), target_dim)
