"""Minimal dense linear algebra and seeded randomness.

Matrices and vectors are plain float64 ``numpy.ndarray`` values; every public
operation validates shapes and rejects non-finite entries.  The symmetric
eigensolver is LAPACK ``eigh`` (through ``numpy.linalg``) followed by a stable
descending sort and a sign convention, so its output is a pure function of
the input for a given numpy/BLAS build and BLAS thread count.

Randomness: ``make_rng(seed)`` returns a ``numpy.random.Generator`` driven by
the PCG64 bit generator.  Identical seeds give identical streams.
"""

import numpy as np

from .errors import DimensionError, NumericalError, ShapeError, SpecError

DEFAULT_EIGH_TOL = 1e-12
DEFAULT_KERNEL_TOL = 1e-10


def make_rng(seed):
    """Deterministic generator (PCG64) for a 64-bit unsigned seed."""
    if not isinstance(seed, (int, np.integer)):
        raise SpecError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 2**64:
        raise SpecError(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_matrix(a, name="matrix"):
    """Coerce to a finite float64 2-D array, copying only when needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise NumericalError(f"{name} contains NaN or Inf")
    return m


def as_vector(v, name="vector"):
    """Coerce to a finite float64 1-D array."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise NumericalError(f"{name} contains NaN or Inf")
    return a


def matmul(a, b):
    """Matrix product with explicit shape checking."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    out = a @ b
    if out.size and not np.isfinite(out).all():
        raise NumericalError("matmul overflowed to non-finite entries")
    return out


def eigh_symmetric(s, tol=DEFAULT_EIGH_TOL):
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order (ties keep LAPACK's order) and eigenvectors as
    orthonormal columns.  Each eigenvector is sign-normalized so its first
    nonzero entry is positive, which makes the output a pure function of the
    input on a given numpy/BLAS build and BLAS thread count.

    Raises ShapeError for empty or non-square input, and for input whose
    asymmetry exceeds ``tol`` times its largest entry (or ``tol`` when the
    entries are below 1); the symmetric part is what gets decomposed.
    """
    a = as_matrix(s, "s")
    n, m = a.shape
    if n != m:
        raise ShapeError(f"matrix must be square, got {n}x{m}")
    if n == 0:
        raise ShapeError("matrix must be non-empty")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.T).max()) > tol * max(1.0, scale):
        raise ShapeError("matrix is not symmetric within tol")

    evals, basis = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-evals, kind="stable")
    return evals[order], _fix_signs(basis[:, order])


def _fix_signs(columns):
    """Flip each column so its first nonzero entry is positive."""
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nonzero = np.nonzero(col)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            out[:, j] = -col
    return out


def _orthonormal_rows(w, drop_tol):
    """Orthonormal basis of the row space via modified Gram-Schmidt."""
    basis = []
    for row in w:
        r = row.astype(np.float64).copy()
        for _ in range(2):  # re-orthogonalize: twice is enough
            for q in basis:
                r -= (q @ r) * q
        norm = float(np.linalg.norm(r))
        if norm > drop_tol:
            basis.append(r / norm)
    return basis


def null_space_basis(w, tol=DEFAULT_KERNEL_TOL):
    """Orthonormal basis of the numerical kernel {v : ||Wv|| <= tol*||W||*||v||}.

    Candidate directions come from the eigendecomposition of the Gram matrix
    W^T W, selected at the Gram noise floor (sqrt of machine epsilon, or tol
    if looser); each candidate is then cleaned by projecting out the row
    space of W, which pushes the residual ||Wv|| from the sqrt(eps) level
    the Gram matrix delivers down to machine epsilon.  Candidates whose null
    component collapses under that projection were never kernel vectors and
    are dropped, as is anything whose cleaned residual still exceeds the
    contract bound.  Vectors come back most null first; the list is empty
    when the kernel is trivial at tol.
    """
    w = as_matrix(w, "w")
    rows, cols = w.shape
    if cols == 0:
        return []
    gram = w.T @ w
    evals, evecs = eigh_symmetric(gram)
    sigma = np.sqrt(np.clip(evals, 0.0, None))  # descending
    sigma_max = float(sigma[0])

    if sigma_max == 0.0:
        keep = list(range(cols))
    else:
        select = max(tol, 8.0 * np.sqrt(np.finfo(np.float64).eps))
        keep = [j for j in range(cols) if sigma[j] <= select * sigma_max]
    if not keep:
        return []

    row_basis = _orthonormal_rows(w, drop_tol=1e-12 * max(sigma_max, 1.0))
    residual_bound = tol * sigma_max
    basis = []
    for j in sorted(keep, key=lambda j: sigma[j]):
        v = evecs[:, j].copy()
        for _ in range(2):
            for q in row_basis:
                v -= (q @ v) * q
            for q in basis:
                v -= (q @ v) * q
        norm = float(np.linalg.norm(v))
        if norm <= 0.5:  # candidate lived in the row space, not the kernel
            continue
        v /= norm
        if float(np.linalg.norm(w @ v)) <= residual_bound:
            basis.append(v)
    return [_fix_signs(v.reshape(-1, 1))[:, 0] for v in basis]
