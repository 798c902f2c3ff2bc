"""Minimal dense linear algebra and seeded randomness.

Matrices and vectors are plain float64 ``numpy.ndarray`` values; every public
operation validates shapes and rejects non-finite entries.  The symmetric
eigensolver is LAPACK ``eigh`` (through ``numpy.linalg``) followed by a stable
descending sort and a sign convention; it serves classical MDS only.  Null
spaces (here) and the rank of a point cloud (``topology.principal_spectrum``)
come from ``np.linalg.svd``, which does not square the condition number the
way an eigendecomposition of a Gram or covariance matrix does.  All outputs
are pure functions of the input for a given numpy/BLAS build.  LAPACK
``eigh`` rounds differently on different OpenBLAS thread counts, so
``eigh_symmetric`` runs it on one thread (``_one_blas_thread``); where no
OpenBLAS thread control is found, its bits also depend on the thread count.

Randomness: ``make_rng(seed)`` returns a ``numpy.random.Generator`` driven by
the PCG64 bit generator.  Identical seeds give identical streams.
"""

import contextlib
import ctypes
import functools
import itertools

import numpy as np

from .errors import NumericalError, SpecError

EIGH_TOL = 1e-12  # eigh_symmetric: the asymmetry it accepts, relative to the largest entry
KERNEL_TOL = 1e-10  # null_space_basis: the kernel's bound, relative to ||W||
# bytes a command's planned peak may take: what tracemalloc traces, and LAPACK's work arrays
MEMORY_BUDGET = 2**31


def require_budget(what, planned):
    """``planned`` bytes, or SpecError (exit 2) naming ``what`` if they pass ``MEMORY_BUDGET``."""
    if planned > MEMORY_BUDGET:
        raise SpecError(f"{what} needs {planned} bytes, more than MEMORY_BUDGET = {MEMORY_BUDGET}")
    return planned


def is_integer(value):
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def make_rng(seed):
    """Deterministic generator (PCG64) for a 64-bit unsigned seed."""
    if not is_integer(seed):
        raise SpecError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 2**64:
        raise SpecError(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_matrix(a, name="matrix"):
    """Coerce to a finite float64 2-D array, copying only when needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise SpecError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise NumericalError(f"{name} contains NaN or Inf")
    return m


def as_vector(v, name="vector"):
    """Coerce to a finite float64 1-D array."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise SpecError(f"{name} must be 1-D, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise NumericalError(f"{name} contains NaN or Inf")
    return a


@functools.cache
def _blas_thread_controls():
    """OpenBLAS's ``(get, set)`` thread-count functions in the library numpy loaded, or None.

    The library is found by name in ``/proc/self/maps`` (Linux only) and
    opened again through ctypes, which returns the loaded copy.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(lib)
            for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
                get, set_ = (
                    getattr(handle, f"{prefix}_{verb}_num_threads{suffix}", None)
                    for verb in ("get", "set")
                )
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count; a no-op without controls."""
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def eigh_symmetric(s):
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order (ties keep LAPACK's order) and eigenvectors as
    orthonormal columns.  Each eigenvector is sign-normalized so its first
    nonzero entry is positive.  LAPACK runs on one OpenBLAS thread
    (``_one_blas_thread``), so the output is a pure function of the input on
    a given numpy/BLAS build, whatever the BLAS thread count.

    Raises SpecError for empty or non-square input, and for input whose
    asymmetry exceeds ``EIGH_TOL`` times its largest entry; the symmetric
    part is what gets decomposed.
    A matrix whose largest entry lies outside [2^-257, 2^256) is decomposed
    scaled by an exact power of 4 (``scaled_by_power_of_4``), and its
    eigenvalues scaled back; eigenvalues past float64 raise NumericalError.
    """
    a = as_matrix(s, "s")
    n, m = a.shape
    if n != m:
        raise SpecError(f"matrix must be square, got {n}x{m}")
    if n == 0:
        raise SpecError("matrix must be non-empty")
    scale = float(np.abs(a).max())
    with np.errstate(over="ignore"):  # an asymmetry past float64 is inf, and fails the check
        sym = np.subtract(a, a.T)  # one n x n buffer: |a - a.T|, then (a + a.T) / 2.0 bit for bit
    if float(np.abs(sym, out=sym).max()) > EIGH_TOL * scale:
        raise SpecError("matrix is not symmetric within EIGH_TOL")
    a, shift = scaled_by_power_of_4(a, scale)
    with _one_blas_thread():
        evals, basis = np.linalg.eigh(np.multiply(np.add(a, a.T, out=sym), 0.5, out=sym))
    del sym  # freed before the reordered copy of the basis
    if shift:
        with np.errstate(over="ignore"):
            evals = np.ldexp(evals, shift)
        if not np.isfinite(evals).all():
            raise NumericalError("eigenvalues overflow float64")
    order = np.argsort(-evals, kind="stable")
    return evals[order], _fix_signs(basis[:, order])


def scaled_by_power_of_4(a, largest):
    """``(a * 2**-shift, shift)`` for the even ``shift`` that brings ``largest`` into [0.5, 2).

    ``largest`` is the largest ``|entry|`` of ``a``.  Where it already lies in
    [2^-257, 2^256), ``shift`` is 0 and ``a`` comes back as it is: every
    product or sum of squares of such entries stays inside float64.  A
    power of 4 is exact, and so is its square root.
    """
    _, exponent = np.frexp(largest)
    if abs(exponent) <= 256:
        return a, 0
    shift = 2 * (int(exponent) // 2)
    return np.ldexp(a, -shift), shift


def _fix_signs(columns):
    """Flip each column in place (exact, by -1.0) so its first nonzero entry is positive."""
    first = np.argmax(columns != 0.0, axis=0)  # 0 for an all-zero column
    leading = columns[first, np.arange(columns.shape[1])]
    return np.multiply(columns, np.where(leading < 0.0, -1.0, 1.0), out=columns)


def null_space_basis(w):
    """Orthonormal basis of the numerical kernel {v : ||Wv|| <= KERNEL_TOL*||W||*||v||}.

    The candidates are the right singular vectors of W from one
    ``np.linalg.svd`` (singular values padded with zeros to the column
    count).  A candidate is kept when its singular value and its residual
    ||Wv|| are both at most KERNEL_TOL times the largest singular value, ||W||.
    Vectors come back most null first (a stable sort by residual), each
    sign-normalized; the list is empty when the kernel is trivial.
    W is first scaled by ``scaled_by_power_of_4``, so that ||Wv|| can
    neither overflow nor underflow.
    """
    w = as_matrix(w, "w")
    cols = w.shape[1]
    if cols == 0:
        return []
    w, _ = scaled_by_power_of_4(w, np.abs(w).max(initial=0.0))
    _, sigma, vt = np.linalg.svd(w)
    sigma = np.concatenate([sigma, np.zeros(cols - sigma.size)])
    residuals = np.linalg.norm(w @ vt.T, axis=0)
    bound = KERNEL_TOL * float(sigma[0])
    keep = np.nonzero((sigma <= bound) & (residuals <= bound))[0]
    order = keep[np.argsort(residuals[keep], kind="stable")]
    return list(_fix_signs(vt[order].T).T)
