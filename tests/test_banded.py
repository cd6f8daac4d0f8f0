import numpy as np
import pytest
from scipy.linalg import solve_banded, solve_triangular

from oscint.levin import assemble_G
from oscint.banded import (
    BandedComplexMatrix,
    SingularMatrixError,
    banded_lu_partial_pivot,
    lu_solve,
    normal_system,
    upper_triangular_backsolve,
)


def random_banded(rng, dim, kl, ku, diag_boost=0.0):
    M = BandedComplexMatrix(dim, kl, ku)
    for k in range(-kl, ku + 1):
        m = dim - abs(k)
        band = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if k == 0:
            band += diag_boost
        M.set_band(k, band)
    return M


def spec_example_G():
    """3x3 matrix rows (5i, 1, -5i), (0, 5i, 2), (0, 0, 5i)."""
    G = BandedComplexMatrix(3, kl=0, ku=2)
    G.set_band(0, np.full(3, 5j))
    G.set_band(1, np.array([1.0, 2.0], dtype=complex))
    G.set_band(2, np.array([-5j]))
    return G


def random_shape(rng):
    dim = int(rng.integers(1, 14))
    return dim, int(rng.integers(0, dim)), int(rng.integers(0, dim))


class TestStorage:
    @pytest.mark.parametrize("seed", range(8))
    def test_layout_matches_solve_banded(self, seed):
        # oracle: scipy's banded solver reads the lower kl + ku + 1 rows
        # of ab as its own (kl, ku) storage
        rng = np.random.default_rng(seed)
        dim, kl, ku = random_shape(rng)
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
        with pytest.raises(ValueError):
            M.band(ku + 1)
        with pytest.raises(ValueError):
            M.band(-kl - 1)

    def test_solver_matrices_are_fortran_ordered(self):
        # the layout LAPACK reads: f2py passes ab to ztbtrs without a copy
        G = assemble_G(5.0, 8)
        H, _ = normal_system(G, np.ones(9))
        assert G.ab.flags.f_contiguous
        assert H.ab.flags.f_contiguous

    def test_band_is_a_view(self):
        M = BandedComplexMatrix(4, 1, 2)
        M.band(1)[2] = 7j
        M.set_band(-1, [1, 2, 3])
        dense = M.to_dense()
        assert dense[2, 3] == 7j and dense[3, 2] == 3
        assert np.count_nonzero(dense) == 4

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        M = random_banded(rng, 9, 2, 4)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        np.testing.assert_allclose(M.matvec(x), M.to_dense() @ x, atol=1e-13)

    @pytest.mark.parametrize("seed", range(8))
    def test_rmatvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        dim, kl, ku = random_shape(rng)
        M = random_banded(rng, dim, kl, ku)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        np.testing.assert_allclose(
            M.rmatvec(x), M.to_dense().conj().T @ x, rtol=1e-13, atol=1e-13
        )
        with pytest.raises(ValueError):
            M.rmatvec(np.ones(dim + 1))

    def test_bad_bandwidths(self):
        with pytest.raises(ValueError):
            BandedComplexMatrix(3, kl=0, ku=3)


class TestBacksolve:
    def test_identity(self):
        M = BandedComplexMatrix(3, 0, 2)
        M.set_band(0, np.ones(3, dtype=complex))
        rhs = np.array([1 + 2j, 3.0, -1j])
        np.testing.assert_array_equal(upper_triangular_backsolve(M, rhs), rhs)

    def test_hand_worked_levin_matrix(self):
        x = upper_triangular_backsolve(spec_example_G(), np.array([0, 0, 5j]))
        np.testing.assert_allclose(x, [0.92, 0.4j, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_multiply_then_solve_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        for ku in (1, 2, 3):
            for dim in (1, 2, int(rng.integers(ku + 1, 13))):
                M = random_banded(rng, dim, 0, min(ku, dim - 1), diag_boost=3.0)
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
        M = BandedComplexMatrix(4, 0, 2)
        M.set_band(0, np.array([1, 1, 0, 1], dtype=complex))
        M.set_band(1, np.ones(3, dtype=complex))
        with pytest.raises(SingularMatrixError) as err:
            upper_triangular_backsolve(M, np.ones(4))
        assert err.value.index == 2

    def test_rejects_lower_band(self):
        M = BandedComplexMatrix(3, 1, 1)
        M.set_band(0, np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            upper_triangular_backsolve(M, np.ones(3))


class TestBandedLU:
    def test_diagonal_matrix(self):
        M = BandedComplexMatrix(2, 1, 1)
        M.set_band(0, np.array([2.0, 3j]))
        factors = banded_lu_partial_pivot(M)
        np.testing.assert_array_equal(factors.pivots, [0, 1])
        np.testing.assert_allclose(lu_solve(factors, np.array([2.0, 3j])), [1, 1])

    def test_zero_leading_entry_needs_pivot(self):
        # unpivoted elimination would divide by zero here
        M = BandedComplexMatrix(2, 1, 1)
        M.set_band(1, [1.0])
        M.set_band(-1, [1.0])
        x = lu_solve(banded_lu_partial_pivot(M), np.array([2.0, 3.0]))
        np.testing.assert_allclose(x, [3.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_factors_reconstruct_matrix(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(4, 20))
        kl = int(rng.integers(1, 3))
        ku = int(rng.integers(1, 4))
        M = random_banded(rng, dim, kl, ku, diag_boost=2.0)
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
        M = random_banded(rng, dim, 2, 2, diag_boost=4.0)
        factors = banded_lu_partial_pivot(M)
        rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = lu_solve(factors, rhs)
        res = np.max(np.abs(M.matvec(x) - rhs))
        scale = np.max(np.abs(M.to_dense())) * np.max(np.abs(x)) + np.max(np.abs(rhs))
        assert res <= 1e-12 * scale

    def test_factor_reuse_is_deterministic(self):
        rng = np.random.default_rng(9)
        M = random_banded(rng, 12, 2, 2, diag_boost=4.0)
        factors = banded_lu_partial_pivot(M)
        for seed in range(3):
            rhs = np.random.default_rng(seed).standard_normal(12).astype(complex)
            again = lu_solve(banded_lu_partial_pivot(M), rhs)
            np.testing.assert_array_equal(lu_solve(factors, rhs), again)

    def test_exactly_singular_reports_column(self):
        M = BandedComplexMatrix(3, 1, 1)
        M.set_band(0, np.array([1, 0, 1], dtype=complex))
        M.set_band(1, np.array([0, 0], dtype=complex))
        M.set_band(-1, np.array([0, 0], dtype=complex))
        with pytest.raises(SingularMatrixError) as err:
            banded_lu_partial_pivot(M)
        assert err.value.index == 1

    def test_dimension_mismatch(self):
        M = random_banded(np.random.default_rng(0), 5, 1, 1, diag_boost=3.0)
        factors = banded_lu_partial_pivot(M)
        with pytest.raises(ValueError):
            lu_solve(factors, np.ones(4))


class TestNormalSystem:
    def test_identity(self):
        G = BandedComplexMatrix(4, 0, 2)
        G.set_band(0, np.ones(4, dtype=complex))
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
        G = random_banded(rng, dim, 0, 2)
        rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        H, y = normal_system(G, rhs)
        Gd = G.to_dense()
        np.testing.assert_allclose(H.to_dense(), Gd.conj().T @ Gd, atol=1e-12)
        np.testing.assert_allclose(y, Gd.conj().T @ rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_positive_semidefinite(self, seed):
        rng = np.random.default_rng(100 + seed)
        G = random_banded(rng, 10, 0, 2)
        H, _ = normal_system(G, np.zeros(10))
        Hd = H.to_dense()
        np.testing.assert_allclose(Hd, Hd.conj().T, atol=1e-13)
        assert np.all(H.band(0).real >= 0)
        assert np.all(np.abs(H.band(0).imag) == 0)
        assert np.min(np.linalg.eigvalsh(Hd)) > -1e-10


    @pytest.mark.parametrize("seed", range(3))
    def test_unused_storage_stays_zero(self, seed):
        # zgbtrf reads the top kl rows as fill-in room; to_dense cannot see them
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(3, 12))
        G = random_banded(rng, dim, 0, 2)
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
    # both routes are valid when |omega| > n
    G = assemble_G(omega=20.0, n=8)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    direct = upper_triangular_backsolve(G, rhs)
    via_lu = lu_solve(banded_lu_partial_pivot(G), rhs)
    np.testing.assert_allclose(via_lu, direct, atol=1e-12)
