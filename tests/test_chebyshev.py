import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest

from oscint import (
    SpectralCoefficients,
    endpoint_values,
    forward_coefficients,
    gauss_lobatto_nodes,
)
from oscint.oracle import physical_diff_matrix, spectral_diff_matrix, transform_matrix


class TestGaussLobattoNodes:
    def test_n1(self):
        assert gauss_lobatto_nodes(1).nodes.tolist() == [1.0, -1.0]

    def test_n2(self):
        assert gauss_lobatto_nodes(2).nodes.tolist() == [1.0, 0.0, -1.0]

    def test_n4(self):
        s = np.sqrt(2) / 2
        np.testing.assert_allclose(
            gauss_lobatto_nodes(4).nodes, [1.0, s, 0.0, -s, -1.0], rtol=0, atol=0
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
    def test_symmetry_exact(self, n):
        x = gauss_lobatto_nodes(n).nodes
        # exact antisymmetry, no round-off allowed
        assert np.all(x + x[::-1] == 0.0)
        assert x[0] == 1.0 and x[n] == -1.0
        assert np.all(np.diff(x) < 0)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            gauss_lobatto_nodes(0)

    @pytest.mark.parametrize("n", [30.0, np.float64(4.0), "8"])
    def test_non_integer_degree(self, n):
        with pytest.raises(ValueError, match="degree must be an integer") as err:
            gauss_lobatto_nodes(n)
        assert type(err.value) is ValueError

    def test_numpy_integer_degree(self):
        grid = gauss_lobatto_nodes(np.int64(4))
        assert grid.n == 4
        assert grid.nodes.tolist() == gauss_lobatto_nodes(4).nodes.tolist()


class TestTransformMatrix:
    def test_n1(self):
        T = transform_matrix(gauss_lobatto_nodes(1))
        np.testing.assert_array_equal(T, [[1.0, 1.0], [1.0, -1.0]])

    def test_n2_middle_row(self):
        T = transform_matrix(gauss_lobatto_nodes(2))
        np.testing.assert_allclose(T[1], [1.0, 0.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_trig_identity(self, k):
        grid = gauss_lobatto_nodes(8)
        T = transform_matrix(grid)
        expected = np.cos(k * np.arccos(grid.nodes))
        np.testing.assert_allclose(T[:, k], expected, atol=1e-13)


class TestPhysicalDiffMatrix:
    def test_n1_hand_values(self):
        D = physical_diff_matrix(gauss_lobatto_nodes(1))
        np.testing.assert_allclose(D, [[0.5, -0.5], [0.5, -0.5]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    def test_rows_sum_to_zero(self, n):
        D = physical_diff_matrix(gauss_lobatto_nodes(n))
        np.testing.assert_allclose(D.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 9, 20])
    def test_differentiates_x_squared(self, n):
        grid = gauss_lobatto_nodes(n)
        D = physical_diff_matrix(grid)
        np.testing.assert_allclose(D @ grid.nodes**2, 2 * grid.nodes, atol=1e-12)


class TestSpectralDiffMatrix:
    def test_n3_nonzeros(self):
        B = spectral_diff_matrix(3)
        expected = {(0, 1): 1, (0, 3): 3, (1, 2): 4, (2, 3): 6}
        for i in range(4):
            for j in range(4):
                assert B[i, j] == expected.get((i, j), 0)

    def test_n1(self):
        B = spectral_diff_matrix(1)
        assert B[0, 1] == 1.0
        assert B[0, 0] == 0.0 and B[1, 1] == 0.0

    def test_commutes_with_physical_differentiation(self):
        n = 16
        rng = np.random.default_rng(7)
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        grid = gauss_lobatto_nodes(n)
        T = transform_matrix(grid)
        D = physical_diff_matrix(grid)
        B = spectral_diff_matrix(n)
        np.testing.assert_allclose(T @ (B @ c), D @ (T @ c), atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_exact_chebyshev_derivatives(self, k):
        # oracle: numpy's Chebyshev derivative of a unit coefficient vector
        n = 12
        c = np.zeros(n + 1)
        c[k] = 1.0
        expected = np.zeros(n + 1)
        expected[: k] = npcheb.chebder(c)[: k]
        got = spectral_diff_matrix(n) @ c
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestForwardCoefficients:
    def test_constant(self):
        grid = gauss_lobatto_nodes(4)
        c = forward_coefficients(np.ones(5), grid)
        np.testing.assert_allclose(c, [1, 0, 0, 0, 0], atol=1e-15)

    def test_linear(self):
        grid = gauss_lobatto_nodes(4)
        c = forward_coefficients(grid.nodes, grid)
        np.testing.assert_allclose(c, [0, 1, 0, 0, 0], atol=1e-15)

    def test_quadratic(self):
        grid = gauss_lobatto_nodes(4)
        c = forward_coefficients(grid.nodes**2, grid)
        np.testing.assert_allclose(c, [0.5, 0, 0.5, 0, 0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_coefficients(np.ones(4), gauss_lobatto_nodes(4))

    @pytest.mark.parametrize("n", [3, 8, 21])
    def test_polynomial_round_trip(self, n):
        # exact recovery of Chebyshev coefficients up to and including j = n
        rng = np.random.default_rng(n)
        c_true = rng.standard_normal(n + 1)
        grid = gauss_lobatto_nodes(n)
        samples = npcheb.chebval(grid.nodes, c_true)
        c_back = forward_coefficients(samples, grid)
        np.testing.assert_allclose(c_back.real, c_true, atol=1e-12)
        np.testing.assert_allclose(c_back.imag, 0, atol=1e-12)

    def test_matches_matrix_transform(self):
        # oracle: explicit half-weighted sums through the dense T matrix
        n = 9
        grid = gauss_lobatto_nodes(n)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        T = transform_matrix(grid)
        w = np.ones(n + 1)
        w[0] = w[n] = 0.5
        gamma = np.full(n + 1, 2.0 / n)
        gamma[0] = gamma[n] = 1.0 / n
        expected = gamma * (T.T @ (w * f))
        np.testing.assert_allclose(forward_coefficients(f, grid), expected, atol=1e-13)

    # power-of-two, small odd and prime lengths; 1009 and 4099 are primes,
    # whose 2n-long transforms pocketfft runs as Bluestein convolutions
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 97, 1009, 4099])
    def test_matches_dense_oracle(self, n):
        # oracle: half-weighted sums through the dense T matrix, for real
        # samples and for complex ones
        grid = gauss_lobatto_nodes(n)
        T = transform_matrix(grid)
        w = np.ones(n + 1)
        w[0] = w[n] = 0.5
        gamma = np.full(n + 1, 2.0 / n)
        gamma[0] = gamma[n] = 1.0 / n
        rng = np.random.default_rng(n)
        re, im = rng.standard_normal((2, n + 1))
        for f in (re, re + 1j * im):
            # two real products: T stays float64 instead of a complex copy
            expected = gamma * (T.T @ (w * f.real) + 1j * (T.T @ (w * f.imag)))
            got = forward_coefficients(f, grid)
            assert got.dtype == np.complex128
            np.testing.assert_allclose(
                got, expected, rtol=0, atol=1e-13 * np.max(np.abs(f))
            )


class TestEndpointValues:
    def test_constant_series(self):
        p1, pm1 = endpoint_values(SpectralCoefficients(np.array([1.0, 0, 0])))
        assert (p1, pm1) == (1, 1)

    def test_t1_series(self):
        p1, pm1 = endpoint_values(SpectralCoefficients(np.array([0.0, 1, 0])))
        assert (p1, pm1) == (1, -1)

    def test_against_clenshaw(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        p1, pm1 = endpoint_values(SpectralCoefficients(c))
        # oracle: Clenshaw evaluation of the series at +-1
        assert abs(p1 - npcheb.chebval(1.0, c)) < 1e-14
        assert abs(pm1 - npcheb.chebval(-1.0, c)) < 1e-14


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_modified_transform_discrete_orthogonality(n):
    grid = gauss_lobatto_nodes(n)
    T = transform_matrix(grid)
    Tm = T.copy()
    Tm[0] /= np.sqrt(2)
    Tm[n] /= np.sqrt(2)
    product = Tm.T @ Tm
    expected = np.diag(np.r_[n, np.full(n - 1, n / 2), n].astype(float))
    np.testing.assert_allclose(product, expected, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_diff_commutation_identity(n):
    grid = gauss_lobatto_nodes(n)
    T = transform_matrix(grid)
    D = physical_diff_matrix(grid)
    B = spectral_diff_matrix(n)
    DT = D @ T
    np.testing.assert_allclose(DT, T @ B, atol=1e-10 * np.max(np.abs(DT)))
