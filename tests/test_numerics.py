import numpy as np
import pytest

from topoclass.errors import DimensionError, NumericalError, ShapeError, SpecError
from topoclass.numerics import eigh_symmetric, make_rng, matmul, null_space_basis


def naive_matmul(a, b):
    """Triple-loop oracle."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), b), b)

    def test_projection(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[5.0], [7.0]])
        assert np.array_equal(matmul(p, v), np.array([[5.0], [0.0]]))

    def test_matches_triple_loop_oracle(self):
        rng = make_rng(11)
        for _ in range(10):
            a = rng.uniform(-2, 2, size=(3, 2))
            b = rng.uniform(-2, 2, size=(2, 4))
            np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            matmul(bad, np.eye(2))


class TestEighSymmetric:
    def test_identity_eigenvalues(self):
        evals, evecs = eigh_symmetric(np.eye(3))
        np.testing.assert_allclose(evals, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(evecs.T @ evecs, np.eye(3), atol=1e-12)

    def test_diagonal_sorting(self):
        evals, evecs = eigh_symmetric(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(evals, [3.0, 2.0])
        # axes swap: top eigenvector is e2, second is e1
        np.testing.assert_allclose(np.abs(evecs), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_offdiag_pair(self):
        # characteristic polynomial of [[0,1],[1,0]] is x^2 - 1
        evals, _ = eigh_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(evals, [1.0, -1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = make_rng(3)
        for n in (2, 5, 17, 40):
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2.0
            evals, evecs = eigh_symmetric(s)
            norm = np.sqrt((s * s).sum())
            assert np.abs(evecs @ np.diag(evals) @ evecs.T - s).max() < 1e-8 * norm
            assert np.abs(evecs.T @ evecs - np.eye(n)).max() < 1e-8
            assert (np.diff(evals) <= 1e-12).all()

    def test_deterministic(self):
        rng = make_rng(4)
        a = rng.standard_normal((8, 8))
        s = (a + a.T) / 2.0
        e1, v1 = eigh_symmetric(s)
        e2, v2 = eigh_symmetric(s.copy())
        assert np.array_equal(e1, e2)
        assert np.array_equal(v1, v2)

    def test_degenerate_spectrum_contract(self):
        # blocks with eigenvalues {3, 1}, {3}, {1}, {3, 1}: 3 and 1 each triple
        pair = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = np.zeros((6, 6))
        s[0:2, 0:2] = pair
        s[2, 2] = 3.0
        s[3, 3] = 1.0
        s[4:6, 4:6] = pair
        evals, evecs = eigh_symmetric(s)
        np.testing.assert_allclose(evals, [3.0, 3.0, 3.0, 1.0, 1.0, 1.0], atol=1e-12)
        assert (np.diff(evals) <= 0.0).all()
        for col in evecs.T:
            assert col[np.nonzero(col)[0][0]] > 0.0
        e2, v2 = eigh_symmetric(s.copy())
        assert np.array_equal(evals, e2)
        assert np.array_equal(evecs, v2)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ShapeError):
            eigh_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            eigh_symmetric(np.ones((2, 3)))


class TestNullSpace:
    def test_explicit_kernel(self):
        basis = null_space_basis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert len(basis) == 1
        np.testing.assert_allclose(basis[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_zero_matrix_full_kernel(self):
        basis = null_space_basis(np.zeros((2, 3)))
        assert len(basis) == 3

    def test_full_rank_trivial(self):
        rng = make_rng(6)
        assert null_space_basis(rng.uniform(-1, 1, (4, 4))) == []

    def test_random_wide_residuals(self):
        rng = make_rng(7)
        for _ in range(25):
            w = rng.uniform(-1, 1, size=(2, 3))
            basis = null_space_basis(w)
            assert len(basis) >= 1
            for v in basis:
                assert np.linalg.norm(w @ v) <= 1e-9

    def test_orthonormal_within_tolerance(self):
        rng = make_rng(8)
        for _ in range(10):
            w = rng.uniform(-1, 1, size=(2, 6))
            basis = null_space_basis(w)
            assert len(basis) >= 4
            for i, v in enumerate(basis):
                assert abs(np.linalg.norm(v) - 1.0) < 1e-9
                for u in basis[i + 1 :]:
                    assert abs(float(u @ v)) < 1e-9


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = make_rng(123).uniform(size=100)
        b = make_rng(123).uniform(size=100)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        assert not np.array_equal(make_rng(1).uniform(size=10), make_rng(2).uniform(size=10))

    def test_seed_range_checked(self):
        with pytest.raises(SpecError):
            make_rng(-1)
        with pytest.raises(SpecError):
            make_rng(2**64)
        with pytest.raises(SpecError):
            make_rng("seed")
