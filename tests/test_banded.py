"""The two band shapes the reference solver builds: G (kl = 0, ku = 2) and
H = G^H G (kl = ku = 2), their storage, products and LAPACK solvers."""

import numpy as np
import pytest
from scipy.linalg import solve_banded, solve_triangular

from oscint import SingularMatrixError
from oscint.banded import (
    BandedComplexMatrix,
    banded_lu_partial_pivot,
    lu_solve,
    normal_system,
    upper_triangular_backsolve,
)
from oscint.levin import assemble_G

G_SHAPE = (0, 2)
H_SHAPE = (2, 2)


def from_dense(A, kl, ku):
    """The (kl, ku) band of the square array A, stored as a BandedComplexMatrix."""
    dim = len(A)
    M = BandedComplexMatrix(dim, kl, ku)
    i, j = np.indices((dim, dim))
    inside = (j - i <= ku) & (i - j <= kl)
    M.ab[(kl + ku + i - j)[inside], j[inside]] = np.asarray(A, dtype=complex)[inside]
    return M


def random_banded(rng, dim, kl, ku, diag_boost=0.0):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return from_dense(A + diag_boost * np.eye(dim), kl, ku)


def spec_example_G():
    """3x3 matrix rows (5i, 1, -5i), (0, 5i, 2), (0, 0, 5i)."""
    return from_dense([[5j, 1, -5j], [0, 5j, 2], [0, 0, 5j]], *G_SHAPE)


def random_shape(rng, seed):
    """A dimension n + 1 >= 3 and, alternating with the seed, G's or H's bandwidths."""
    return (int(rng.integers(3, 14)), *(G_SHAPE, H_SHAPE)[seed % 2])


class TestStorage:
    @pytest.mark.parametrize("seed", range(8))
    def test_layout_matches_solve_banded(self, seed):
        # oracle: scipy's banded solver reads the lower kl + ku + 1 rows
        # of ab as its own (kl, ku) storage
        rng = np.random.default_rng(seed)
        dim, kl, ku = random_shape(rng, seed)
        M = random_banded(rng, dim, kl, ku, diag_boost=3.0)
        assert M.ab.shape == (2 * kl + ku + 1, dim)
        assert not M.ab[:kl].any()
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        np.testing.assert_allclose(
            solve_banded((kl, ku), M.ab[kl:], b),
            np.linalg.solve(M.to_dense(), b),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_solver_matrices_are_fortran_ordered(self):
        # the layout LAPACK reads: f2py passes ab to ztbtrs without a copy
        G = assemble_G(5.0, 8)
        H, _ = normal_system(G, np.ones(9))
        assert G.ab.flags.f_contiguous
        assert H.ab.flags.f_contiguous

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        for kl, ku in (G_SHAPE, H_SHAPE):
            M = random_banded(rng, 9, kl, ku)
            x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            np.testing.assert_allclose(M.matvec(x), M.to_dense() @ x, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_rmatvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        dim, kl, ku = random_shape(rng, seed)
        M = random_banded(rng, dim, kl, ku)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        np.testing.assert_allclose(
            M.rmatvec(x), M.to_dense().conj().T @ x, rtol=1e-13, atol=1e-13
        )


class TestBacksolve:
    def test_identity(self):
        M = from_dense(np.eye(3), *G_SHAPE)
        rhs = np.array([1 + 2j, 3.0, -1j])
        np.testing.assert_array_equal(upper_triangular_backsolve(M, rhs), rhs)

    def test_hand_worked_levin_matrix(self):
        x = upper_triangular_backsolve(spec_example_G(), np.array([0, 0, 5j]))
        np.testing.assert_allclose(x, [0.92, 0.4j, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_multiply_then_solve_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        for dim in (3, 4, int(rng.integers(5, 13))):
            M = random_banded(rng, dim, *G_SHAPE, diag_boost=3.0)
            x_true = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rhs = M.matvec(x_true)
            x = upper_triangular_backsolve(M, rhs)
            np.testing.assert_allclose(x, x_true, atol=1e-11)
            dense = np.linalg.solve(M.to_dense(), rhs)
            np.testing.assert_allclose(x, dense, rtol=1e-13, atol=1e-13)

    def test_direct_regime_levin_matrix_vs_dense(self):
        G = assemble_G(omega=1e5, n=2000)
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
        x = upper_triangular_backsolve(G, rhs)
        np.testing.assert_allclose(
            x, solve_triangular(G.to_dense(), rhs), rtol=1e-12, atol=1e-18
        )

    def test_zero_diagonal_reports_row(self):
        M = from_dense(np.diag([1, 1, 0, 1]) + np.eye(4, k=1), *G_SHAPE)
        with pytest.raises(SingularMatrixError) as err:
            upper_triangular_backsolve(M, np.ones(4))
        assert err.value.index == 2


class TestBandedLU:
    def test_diagonal_matrix(self):
        M = from_dense(np.diag([2.0, 3j, 1.0]), *H_SHAPE)
        factors = banded_lu_partial_pivot(M)
        np.testing.assert_array_equal(factors[1], [0, 1, 2])
        np.testing.assert_allclose(lu_solve(factors, np.array([2.0, 3j, 1.0])), [1, 1, 1])

    def test_zero_leading_entry_needs_pivot(self):
        # unpivoted elimination would divide by zero here
        M = from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 1]], *H_SHAPE)
        x = lu_solve(banded_lu_partial_pivot(M), np.array([2.0, 3.0, 4.0]))
        np.testing.assert_allclose(x, [3.0, 2.0, 4.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_factors_reconstruct_matrix(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(4, 20))
        M = random_banded(rng, dim, *H_SHAPE, diag_boost=2.0)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rhs = M.matvec(x)
        solved = lu_solve(banded_lu_partial_pivot(M), rhs)
        np.testing.assert_allclose(solved, x, atol=1e-11 * np.max(np.abs(x)))
        dense = np.linalg.solve(M.to_dense(), rhs)
        np.testing.assert_allclose(solved, dense, rtol=1e-13, atol=1e-13)

    def test_pentadiagonal_normal_matrix_vs_dense_oracle(self):
        G = assemble_G(omega=4.0, n=8)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        H, y = normal_system(G, rhs)
        x = lu_solve(banded_lu_partial_pivot(H), y)
        x_dense = np.linalg.solve(H.to_dense(), y)
        np.testing.assert_allclose(x, x_dense, atol=1e-11)

    @pytest.mark.parametrize("dim", [5, 16, 64])
    def test_solve_residual(self, dim):
        rng = np.random.default_rng(dim)
        M = random_banded(rng, dim, *H_SHAPE, diag_boost=4.0)
        factors = banded_lu_partial_pivot(M)
        rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = lu_solve(factors, rhs)
        res = np.max(np.abs(M.matvec(x) - rhs))
        scale = np.max(np.abs(M.to_dense())) * np.max(np.abs(x)) + np.max(np.abs(rhs))
        assert res <= 1e-12 * scale

    def test_factor_reuse_is_deterministic(self):
        rng = np.random.default_rng(9)
        M = random_banded(rng, 12, *H_SHAPE, diag_boost=4.0)
        factors = banded_lu_partial_pivot(M)
        for seed in range(3):
            rhs = np.random.default_rng(seed).standard_normal(12).astype(complex)
            again = lu_solve(banded_lu_partial_pivot(M), rhs)
            np.testing.assert_array_equal(lu_solve(factors, rhs), again)

    def test_exactly_singular_reports_column(self):
        M = from_dense(np.diag([1, 0, 1]), *H_SHAPE)
        with pytest.raises(SingularMatrixError) as err:
            banded_lu_partial_pivot(M)
        assert err.value.index == 1


class TestNormalSystem:
    def test_identity(self):
        G = from_dense(np.eye(4), *G_SHAPE)
        rhs = np.array([1j, 2.0, 3.0, 4.0])
        H, y = normal_system(G, rhs)
        np.testing.assert_array_equal(H.to_dense(), np.eye(4))
        np.testing.assert_array_equal(y, rhs)

    def test_hand_worked_entries(self):
        H, y = normal_system(spec_example_G(), np.zeros(3))
        Hd = H.to_dense()
        assert Hd[0, 0] == 25
        assert Hd[1, 1] == 26
        assert Hd[2, 2] == 54
        assert Hd[0, 1] == -5j

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 15))
        G = random_banded(rng, dim, *G_SHAPE)
        rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        H, y = normal_system(G, rhs)
        Gd = G.to_dense()
        np.testing.assert_allclose(H.to_dense(), Gd.conj().T @ Gd, atol=1e-12)
        np.testing.assert_allclose(y, Gd.conj().T @ rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_positive_semidefinite(self, seed):
        rng = np.random.default_rng(100 + seed)
        G = random_banded(rng, 10, *G_SHAPE)
        H, _ = normal_system(G, np.zeros(10))
        Hd = H.to_dense()
        np.testing.assert_allclose(Hd, Hd.conj().T, atol=1e-13)
        assert np.all(H.ab[4].real >= 0)  # the diagonal
        assert np.all(np.abs(H.ab[4].imag) == 0)
        assert np.min(np.linalg.eigvalsh(Hd)) > -1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_unused_storage_stays_zero(self, seed):
        # zgbtrf reads the top kl rows as fill-in room; to_dense cannot see them
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(3, 12))
        G = random_banded(rng, dim, *G_SHAPE)
        H, _ = normal_system(G, rng.standard_normal(dim) + 0j)
        ab = H.ab
        assert ab.shape == (7, dim)
        assert np.all(ab[:2] == 0)
        assert np.all(ab[2, :2] == 0)  # band 2 starts at column 2
        assert ab[3, 0] == 0  # band 1 starts at column 1
        assert ab[5, -1] == 0  # band -1 ends one column early
        assert np.all(ab[6, -2:] == 0)  # band -2 ends two columns early
        Gd = G.to_dense()
        np.testing.assert_allclose(H.to_dense(), Gd.conj().T @ Gd, atol=1e-12)


def test_lu_agrees_with_backsolve_in_direct_regime():
    # both paths are valid when |omega| > n: the band LU solves the normal
    # equations of the system that the back-substitution solves
    G = assemble_G(omega=20.0, n=8)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    direct = upper_triangular_backsolve(G, rhs)
    H, y = normal_system(G, rhs)
    via_lu = lu_solve(banded_lu_partial_pivot(H), y)
    np.testing.assert_allclose(via_lu, direct, atol=1e-12)
