"""Isomap: kNN graph, graph geodesics, classical MDS.

The three stages are exposed separately because each has its own oracle
(complete graphs reduce geodesics to Euclidean distances, exact Euclidean
matrices make MDS lossless) and because the trace pipeline wants to reuse
the MDS stage on its own.  Geodesics are a dense Floyd-Warshall min-plus
recursion in numpy, and the MDS eigensolve is LAPACK ``eigh``.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, DomainError, SpecError
from .numerics import as_matrix, eigh_symmetric

DUPLICATE_POINT_WEIGHT = 1e-12


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
    """Squared Euclidean distances from xs to pts, one block of xs rows at a time.

    Yields ``(rows, block)`` with ``block[i, j] = ||xs[rows][i] - pts[j]||^2``.
    Blocks are sized so each difference array holds about 4e6 entries, and
    direct subtraction keeps small distances accurate (no Gram-matrix
    cancellation).
    """
    chunk = max(1, int(4_000_000 // max(pts.shape[0] * pts.shape[1], 1)))
    for start in range(0, xs.shape[0], chunk):
        rows = slice(start, min(start + chunk, xs.shape[0]))
        diff = xs[rows, np.newaxis, :] - pts[np.newaxis, :, :]
        np.multiply(diff, diff, out=diff)
        block = diff.sum(axis=2)
        # release the difference array before yielding, so it is never alive
        # alongside the caller's block and the next difference array
        del diff
        yield rows, block


def pairwise_distances(points):
    """Dense Euclidean distance matrix, computed by direct differences."""
    pts = as_matrix(points, "points")
    out = np.empty((pts.shape[0], pts.shape[0]))
    for rows, sq in _sq_dist_blocks(pts, pts):
        out[rows] = np.sqrt(sq)
    return out


def knn_graph(points, k):
    """Symmetrized k-nearest-neighbor graph with Euclidean edge weights.

    Edge (i, j) exists iff j is among i's k nearest or vice versa.  Exact
    duplicate points get the tiny positive weight 1e-12 instead of zero so
    edges stay distinguishable from non-edges.
    """
    pts = as_matrix(points, "points")
    n = pts.shape[0]
    if not 1 <= k < n:
        raise SpecError(f"k must satisfy 1 <= k < {n}, got {k}")
    dists = pairwise_distances(pts)
    weights = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(dists[i], kind="stable")
        picked = 0
        for j in order:
            if j == i:
                continue
            w = max(dists[i, j], DUPLICATE_POINT_WEIGHT)
            weights[i, j] = w
            weights[j, i] = w
            picked += 1
            if picked == k:
                break
    return NeighborGraph(weights=weights)


def graph_components(graph):
    """Connected components as lists of node indices (each sorted, smallest first)."""
    n = graph.node_count
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rows, cols = np.nonzero(graph.weights)
    for a, b in zip(rows.tolist(), cols.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for node in range(n):
        groups.setdefault(find(node), []).append(node)
    return sorted(groups.values(), key=lambda c: c[0])


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
    for k in range(dist.shape[0]):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    # a path and its reverse sum the same weights in opposite order; take the
    # min so the matrix is exactly symmetric
    return np.minimum(dist, dist.T)


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
        raise DomainError(f"distance matrix must be square, got {n}x{m}")
    scale = float(np.abs(d).max()) if d.size else 0.0
    if float(np.abs(d - d.T).max()) > 1e-9 * max(scale, 1.0):
        raise DomainError("distance matrix must be symmetric")
    if float(np.abs(np.diagonal(d)).max()) > 1e-12 * max(scale, 1.0):
        raise DomainError("distance matrix must have a zero diagonal")
    if (d < 0.0).any():
        raise DomainError("distances must be nonnegative")
    if not 1 <= target_dim <= n:
        raise SpecError(f"target_dim must satisfy 1 <= t <= {n}, got {target_dim}")

    sq = d * d
    row_mean = sq.mean(axis=1, keepdims=True)
    col_mean = sq.mean(axis=0, keepdims=True)
    b = -0.5 * (sq - row_mean - col_mean + sq.mean())
    b = (b + b.T) / 2.0

    evals, evecs = eigh_symmetric(b)
    used = evals[:target_dim]
    clamped = int((used < 0.0).sum())
    lam = np.sqrt(np.clip(used, 0.0, None))
    coords = evecs[:, :target_dim] * lam[np.newaxis, :]

    recon = pairwise_distances(coords)
    denom = float(np.sqrt((d * d).sum()))
    if denom == 0.0:
        stress = 0.0
    else:
        stress = float(np.sqrt(((recon - d) ** 2).sum()) / denom)
    return EmbeddingResult(coordinates=coords, eigenvalues=evals, stress=stress, clamped=clamped)


def isomap(points, k, target_dim=3):
    """knn_graph -> geodesic_distances -> classical_mds, composed."""
    graph = knn_graph(points, k)
    geo = geodesic_distances(graph)
    return classical_mds(geo, target_dim)


def largest_component_indices(points, k):
    """Node indices of the largest kNN-graph component (ties: smallest index)."""
    comps = graph_components(knn_graph(points, k))
    return max(comps, key=len)


def embedding_to_json(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_jsonable(), fh)
        fh.write("\n")


def embedding_to_csv(result, path, labels=None):
    """Coordinate columns (x, y, z, ...) plus a label column when given."""
    coords = result.coordinates
    names = ["x", "y", "z"] + [f"c{i}" for i in range(3, coords.shape[1])]
    header = names[: coords.shape[1]]
    if labels is not None:
        header = header + ["label"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(coords):
            cells = [repr(float(x)) for x in row]
            if labels is not None:
                cells.append(int(labels[i]))
            writer.writerow(cells)
