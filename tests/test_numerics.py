import tracemalloc
import warnings

import numpy as np
import pytest

from topoclass.errors import NumericalError, SpecError
from topoclass import numerics
from topoclass.numerics import (
    EIGH_TOL,
    _fix_signs,
    eigh_symmetric,
    make_rng,
    null_space_basis,
)


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
        # an all-zero column stays as it is, signed zeros included
        zero = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 0.0])
        fixed = _fix_signs(np.column_stack([-evecs[:, 0], zero, evecs[:, 1]]))
        assert np.array_equal(fixed, np.column_stack([evecs[:, 0], zero, evecs[:, 1]]))
        assert np.array_equal(np.signbit(fixed[:, 1]), np.signbit(zero))

    def test_fix_signs_matches_column_loop(self):
        def oracle(columns):
            out = columns.copy()
            for j in range(out.shape[1]):
                col = out[:, j]
                nonzero = np.nonzero(col)[0]
                if nonzero.size and col[nonzero[0]] < 0.0:
                    out[:, j] = -col
            return out

        rng = make_rng(5)
        for shape in ((1, 1), (4, 7), (9, 3), (6, 0)):
            # zeros of both signs, leading runs of zeros and zero columns
            columns = rng.standard_normal(shape) * rng.integers(-1, 2, size=shape)
            want = oracle(columns)  # before _fix_signs flips columns in place
            got = _fix_signs(columns)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_matches_the_copying_formula(self):
        def oracle(s):  # eigh_symmetric with a fresh array for each step
            a = np.asarray(s, dtype=np.float64)
            assert np.abs(a - a.T).max() <= EIGH_TOL * max(1.0, np.abs(a).max())
            # a largest entry outside [2^-257, 2^256) is brought into [0.5, 2) by a power of 4
            exponent = int(np.frexp(np.abs(a).max())[1])
            shift = 2 * (exponent // 2) if abs(exponent) > 256 else 0
            a = np.ldexp(a, -shift)
            evals, basis = np.linalg.eigh((a + a.T) / 2.0)
            evals = np.ldexp(evals, shift)
            order = np.argsort(-evals, kind="stable")
            columns = basis[:, order]
            first = np.argmax(columns != 0.0, axis=0)
            leading = columns[first, np.arange(columns.shape[1])]
            return evals[order], columns * np.where(leading < 0.0, -1.0, 1.0)

        rng = make_rng(6)
        # a double-centred squared-distance matrix, as classical_mds passes, and small cases
        pts = rng.standard_normal((120, 4))
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        centred = sq - sq.mean(axis=0) - sq.mean(axis=1, keepdims=True) + sq.mean()
        inputs = [-0.5 * centred, np.eye(3), np.zeros((4, 4)), np.array([[-2.0]])]
        for n in (1, 2, 5, 17, 64):
            a = rng.standard_normal((n, n))
            exact = (a + a.T) / 2.0
            # exactly symmetric, asymmetric within EIGH_TOL either way, and subnormal
            inputs += [exact, exact + 1e-14 * a, exact - 1e-14 * a, exact * 2.0**-1060]
        for s in inputs:
            before = s.copy()
            got, want = eigh_symmetric(s), oracle(s)
            assert np.array_equal(s, before)  # the input is left as it was
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))

    def test_holds_two_n_by_n_arrays_beside_its_input(self):
        # the symmetric part, then LAPACK's eigenvectors and their reordered
        # copy: 2.14 measured at n = 400; LAPACK's own work arrays are not
        # allocated through numpy, so tracemalloc does not see them
        a = make_rng(7).standard_normal((400, 400))
        s = a + a.T
        tracemalloc.start()
        try:
            eigh_symmetric(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * s.size * 8

    def test_lapack_runs_on_one_blas_thread_and_the_count_comes_back(self, monkeypatch):
        controls = numerics._blas_thread_controls()
        if controls is None:
            pytest.skip("no OpenBLAS thread functions found in this process")
        get, set_ = controls
        eigh, seen = np.linalg.eigh, []

        def eigh_that_fails_once_seen(a):
            seen.append(get())
            if len(seen) == 2:
                raise np.linalg.LinAlgError("refused")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh_that_fails_once_seen)
        before = get()
        set_(2)
        try:
            eigh_symmetric(np.eye(3))
            assert get() == 2
            with pytest.raises(np.linalg.LinAlgError):
                eigh_symmetric(np.eye(3))
            assert (seen, get()) == ([1, 1], 2)
        finally:
            set_(before)

    # EIGH_TOL is relative to the largest entry, below 1 too
    @pytest.mark.parametrize(
        "s", [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 1e-14], [5e-13, 0.0]]], ids=["unit", "below-1"]
    )
    def test_rejects_non_symmetric(self, s):
        with pytest.raises(SpecError, match="matrix is not symmetric within EIGH_TOL"):
            eigh_symmetric(np.array(s))

    def test_all_zero_matrix(self):
        evals, vecs = eigh_symmetric(np.zeros((2, 2)))
        assert evals.tolist() == [0.0, 0.0]
        assert np.array_equal(np.abs(vecs), np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(SpecError, match="matrix must be square, got 2x3"):
            eigh_symmetric(np.ones((2, 3)))

    def test_entries_at_the_float64_limit(self):
        # a + a.T overflows for 1e308 unless the matrix is scaled first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evals, evecs = eigh_symmetric(np.diag([1e308, 1e308]))
        assert evals.tolist() == [1e308, 1e308]
        assert evecs.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_asymmetry_past_float64_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match="matrix is not symmetric within EIGH_TOL"):
                eigh_symmetric(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_eigenvalues_past_float64_raise(self):
        # the entries are finite, the top eigenvalue 2e308 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="eigenvalues overflow float64"):
                eigh_symmetric(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_scaled_matrix_has_the_scaled_spectrum(self, exponent):
        m = make_rng(13).uniform(-1, 1, (6, 6))
        m = m + m.T
        want_evals, want_evecs = eigh_symmetric(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evals, evecs = eigh_symmetric(np.ldexp(m, exponent))
        np.testing.assert_allclose(evals, np.ldexp(want_evals, exponent), rtol=1e-12)
        np.testing.assert_allclose(evecs, want_evecs, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("largest", [2.0**-257, 2.0**256 * (1 - 2.0**-53), 1.0])
    def test_matrices_in_range_are_not_scaled(self, largest):
        m = np.diag([largest, largest / 3])
        scaled, shift = numerics.scaled_by_power_of_4(m, largest)
        assert scaled is m and shift == 0

    @pytest.mark.parametrize("largest", [2.0**-258, 2.0**256, 1e308, 5e-324])
    def test_matrices_out_of_range_are_scaled_by_a_power_of_4(self, largest):
        scaled, shift = numerics.scaled_by_power_of_4(np.array([[largest]]), largest)
        assert shift % 2 == 0 and 0.5 <= scaled[0, 0] < 2.0
        assert np.ldexp(scaled, shift)[0, 0] == largest


class TestNullSpace:
    def test_explicit_kernel(self):
        cases = [
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]),
            # tall, rank 1
            ([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [[2.0 / np.sqrt(5.0), -1.0 / np.sqrt(5.0)]]),
            # a residual of 1e-9 fails tol=1e-10
            ([[1.0, 0.0, 0.0], [0.0, 1e-9, 0.0]], [[0.0, 0.0, 1.0]]),
            # residuals 0, 1e-12 and 1e-11 all pass tol=1e-10: most null first
            (
                [[1.0, 0.0, 0.0, 0.0], [0.0, 1e-11, 0.0, 0.0], [0.0, 0.0, 1e-12, 0.0]],
                [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            ),
        ]
        for w, expected in cases:
            basis = null_space_basis(np.array(w))
            np.testing.assert_allclose(basis, expected, atol=1e-12)

    def test_zero_matrix_full_kernel(self):
        for shape in [(2, 3), (0, 3)]:
            assert len(null_space_basis(np.zeros(shape))) == 3

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

    def test_relative_bound_and_count(self):
        for scale in (1.0, 1e12):
            w = scale * make_rng(9).uniform(-1, 1, size=(2, 5))
            basis = null_space_basis(w)
            assert len(basis) == 5 - np.linalg.matrix_rank(w)
            for v in basis:
                assert np.linalg.norm(w @ v) <= 1e-10 * np.linalg.norm(w, 2)

    @pytest.mark.parametrize("scale", [1e308, 1e-308, 5e-324])
    def test_extreme_entries_keep_their_kernel(self, scale):
        # ||W v|| of 1e308 entries overflows, and of 5e-324 ones underflows,
        # unless W is rescaled first; the kernel is the same at every scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = null_space_basis(np.array([[scale, scale]]))
        np.testing.assert_allclose(basis, [[1 / np.sqrt(2.0), -1 / np.sqrt(2.0)]], rtol=1e-15)

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
