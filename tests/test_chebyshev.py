import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest
from scipy.fft import dct

from oscint import chebyshev
from oscint.chebyshev import (
    endpoint_values,
    forward_coefficients,
    gauss_lobatto_nodes,
)
from oscint.oracle import physical_diff_matrix, spectral_diff_matrix, transform_matrix


class TestGaussLobattoNodes:
    def test_n1(self):
        assert gauss_lobatto_nodes(1).tolist() == [1.0, -1.0]

    def test_n2(self):
        assert gauss_lobatto_nodes(2).tolist() == [1.0, 0.0, -1.0]

    def test_n4(self):
        s = np.sqrt(2) / 2
        np.testing.assert_allclose(
            gauss_lobatto_nodes(4), [1.0, s, 0.0, -s, -1.0], rtol=0, atol=0
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
    def test_symmetry_exact(self, n):
        x = gauss_lobatto_nodes(n)
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
        x = gauss_lobatto_nodes(np.int64(4))
        assert x.tolist() == gauss_lobatto_nodes(4).tolist()


class TestGridMemo:
    def test_repeated_degree_returns_the_same_grid(self):
        assert gauss_lobatto_nodes(64) is gauss_lobatto_nodes(64)

    def test_float_degree_rejected_after_integer_is_cached(self):
        gauss_lobatto_nodes(30)
        # 30.0 == 30 and both hash alike: only validation keeps it off the memo
        with pytest.raises(ValueError, match="degree must be an integer"):
            gauss_lobatto_nodes(30.0)

    def test_numpy_integer_degree_shares_the_memo(self):
        assert gauss_lobatto_nodes(np.int64(30)) is gauss_lobatto_nodes(30)

    def test_cached_nodes_stay_read_only(self):
        gauss_lobatto_nodes(17)
        x = gauss_lobatto_nodes(17)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[1] = 0.0
        with pytest.raises(ValueError):
            x.flags.writeable = True

    def test_memo_holds_at_most_four_grids(self):
        for n in range(100, 110):
            gauss_lobatto_nodes(n)
        assert chebyshev._grid.cache_info().currsize <= 4
        assert gauss_lobatto_nodes(109) is gauss_lobatto_nodes(109)


class TestTransformMatrix:
    def test_n1(self):
        T = transform_matrix(gauss_lobatto_nodes(1))
        np.testing.assert_array_equal(T, [[1.0, 1.0], [1.0, -1.0]])

    def test_n2_middle_row(self):
        T = transform_matrix(gauss_lobatto_nodes(2))
        np.testing.assert_allclose(T[1], [1.0, 0.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_trig_identity(self, k):
        x = gauss_lobatto_nodes(8)
        T = transform_matrix(x)
        expected = np.cos(k * np.arccos(x))
        np.testing.assert_allclose(T[:, k], expected, atol=1e-13)

    def test_bit_for_bit_the_three_term_recurrence(self):
        # the dense oracles and the reference quadrature's weights are sums
        # over T, so its bits and its row-major layout both hold their values
        for n in [*range(1, 80), 128, 256, 257]:
            x = gauss_lobatto_nodes(n)
            expected = np.empty((n + 1, n + 1))
            expected[:, 0] = 1.0
            expected[:, 1] = x
            for k in range(1, n):
                expected[:, k + 1] = 2.0 * x * expected[:, k] - expected[:, k - 1]
            T = transform_matrix(x)
            assert T.flags.c_contiguous
            assert T.tobytes() == expected.tobytes()


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
        x = gauss_lobatto_nodes(n)
        D = physical_diff_matrix(x)
        np.testing.assert_allclose(D @ x**2, 2 * x, atol=1e-12)


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

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
            spectral_diff_matrix(0)

    def test_commutes_with_physical_differentiation(self):
        n = 16
        rng = np.random.default_rng(7)
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        x = gauss_lobatto_nodes(n)
        T = transform_matrix(x)
        D = physical_diff_matrix(x)
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
        c = forward_coefficients(np.ones(5))
        np.testing.assert_allclose(c, [1, 0, 0, 0, 0], atol=1e-15)

    def test_linear(self):
        c = forward_coefficients(gauss_lobatto_nodes(4))
        np.testing.assert_allclose(c, [0, 1, 0, 0, 0], atol=1e-15)

    def test_quadratic(self):
        c = forward_coefficients(gauss_lobatto_nodes(4) ** 2)
        np.testing.assert_allclose(c, [0.5, 0, 0.5, 0, 0], atol=1e-15)

    def test_fewer_than_two_samples(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            forward_coefficients(np.ones(1))

    @pytest.mark.parametrize("n", [3, 8, 21])
    def test_polynomial_round_trip(self, n):
        # exact recovery of Chebyshev coefficients up to and including j = n
        rng = np.random.default_rng(n)
        c_true = rng.standard_normal(n + 1)
        samples = npcheb.chebval(gauss_lobatto_nodes(n), c_true)
        c_back = forward_coefficients(samples)
        np.testing.assert_allclose(c_back.real, c_true, atol=1e-12)
        np.testing.assert_allclose(c_back.imag, 0, atol=1e-12)

    def test_matches_matrix_transform(self):
        # oracle: explicit half-weighted sums through the dense T matrix
        n = 9
        rng = np.random.default_rng(3)
        f = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        T = transform_matrix(gauss_lobatto_nodes(n))
        w = np.ones(n + 1)
        w[0] = w[n] = 0.5
        gamma = np.full(n + 1, 2.0 / n)
        gamma[0] = gamma[n] = 1.0 / n
        expected = gamma * (T.T @ (w * f))
        np.testing.assert_allclose(forward_coefficients(f), expected, atol=1e-13)

    # power-of-two, small odd and prime lengths; 1009 and 4099 are primes,
    # whose 2n-long transforms pocketfft runs as Bluestein convolutions
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 97, 1009, 4099])
    def test_matches_dense_oracle(self, n):
        # oracle: half-weighted sums through the dense T matrix, for real
        # samples and for complex ones
        T = transform_matrix(gauss_lobatto_nodes(n))
        w = np.ones(n + 1)
        w[0] = w[n] = 0.5
        gamma = np.full(n + 1, 2.0 / n)
        gamma[0] = gamma[n] = 1.0 / n
        rng = np.random.default_rng(n)
        re, im = rng.standard_normal((2, n + 1))
        for f in (re, re + 1j * im):
            # two real products: T stays float64 instead of a complex copy
            expected = gamma * (T.T @ (w * f.real) + 1j * (T.T @ (w * f.imag)))
            got = forward_coefficients(f)
            assert got.dtype == np.complex128
            if f is re:
                # the type-I DCT of real samples is real, to the last bit
                assert not got.imag.any()
            np.testing.assert_allclose(
                got, expected, rtol=0, atol=1e-13 * np.max(np.abs(f))
            )


    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_every_call_returns_a_fresh_writable_array(self, real):
        f = np.exp(gauss_lobatto_nodes(8) * (1 + 0.5j))
        f = f.real if real else f
        first = forward_coefficients(f)
        expected = first.copy()
        second = forward_coefficients(f)
        assert second is not first and not np.shares_memory(first, second)
        for c in (first, second):
            assert c.flags.writeable and c.flags.owndata
        first[:] = 0.0
        assert second.tobytes() == expected.tobytes()
        assert forward_coefficients(f).tobytes() == expected.tobytes()


class TestSampleDtypes:
    @pytest.mark.parametrize("n", [16, 97])
    @pytest.mark.parametrize(
        "narrow,wide", [(np.float32, np.float64), (np.complex64, np.complex128)]
    )
    def test_narrow_samples_give_the_bits_of_their_upcast(self, n, narrow, wide):
        f = np.exp(gauss_lobatto_nodes(n) * (0.7 - 1.3j))
        samples = (f if np.dtype(narrow).kind == "c" else f.real).astype(narrow)
        got = forward_coefficients(samples)
        expected = forward_coefficients(samples.astype(wide))
        assert got.dtype == expected.dtype == np.complex128
        assert got.tobytes() == expected.tobytes()


def powers_of_i(n):
    """i^k for k = 0..n, exactly."""
    return np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4]


class TestNodeWeights:
    """``_node_weights``: the packed FFT against scipy's type-I DCT."""

    # 16414 = 2*29*283 and 54149 = 173*313 are split at their prime factors
    # 283 and 313, whose lines pocketfft runs as Bluestein convolutions; the
    # prime 99991 is one Bluestein convolution of its full length
    @pytest.mark.parametrize("n", [*range(2, 65), 16414, 54149, 99991])
    def test_matches_type_one_dct_of_the_moments(self, n):
        m = np.random.default_rng(n).standard_normal(n + 1)
        M = m * powers_of_i(n)
        h = np.ones(n + 1)
        h[0] = h[n] = 0.5
        expected = h / n * dct(M, type=1)
        got = chebyshev._node_weights(m, gauss_lobatto_nodes(n))
        assert got.dtype == np.complex128
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=2e-15 * np.abs(expected).max()
        )

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_samples_dot_weights_is_coefficients_dot_moments(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal(n + 1)
        f = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        expected = forward_coefficients(f) @ (m * powers_of_i(n))
        got = f @ chebyshev._node_weights(m, gauss_lobatto_nodes(n))
        assert abs(got - expected) <= 1e-14 * abs(expected)


class TestSplitFFT:
    """``_fft``: numpy's FFT, split where the length has a large prime factor."""

    def test_largest_prime_factor(self):
        # a sieve: each prime d, in ascending order, overwrites its multiples
        largest = list(range(3000))
        for d in range(2, 3000):
            if largest[d] == d:
                largest[d::d] = [d] * len(largest[d::d])
        for n in range(1, 3000):
            assert chebyshev._largest_prime_factor(n) == largest[n], n
        for n, p in [(16414, 283), (54149, 313), (82760, 2069), (99991, 99991)]:
            assert chebyshev._largest_prime_factor(n) == p

    # the largest prime factor p has p < n < p*p: 1202 = 2*601,
    # 16414 = 2*29*283, 54149 = 173*313, 82760 = 2^3*5*2069, 99998 = 2*49999.
    # Twiddle sines formed as sqrt((1 - x)(1 + x)) miss the bound by 1.6x
    # (at 1202) to 54x (at 99998).
    @pytest.mark.parametrize("n", [1202, 16414, 54149, 82760, 99998])
    def test_split_lengths_match_numpy_to_rounding(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = np.fft.fft(z)
        got = chebyshev._fft(z, gauss_lobatto_nodes(n))
        eps = np.finfo(float).eps
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=8 * eps * np.abs(expected).max()
        )

    # 1024 and 65536 are smooth, 74883 = 3*109*229 has p*p <= n, and 4099
    # and 99991 are prime
    @pytest.mark.parametrize("n", [1024, 65536, 74883, 4099, 99991])
    def test_other_lengths_are_numpy_fft_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = chebyshev._fft(z, gauss_lobatto_nodes(n))
        assert got.tobytes() == np.fft.fft(z).tobytes()


class TestEndpointValues:
    def test_constant_series(self):
        p1, pm1 = endpoint_values(np.array([1.0, 0, 0]))
        assert (p1, pm1) == (1, 1)

    def test_t1_series(self):
        p1, pm1 = endpoint_values(np.array([0.0, 1, 0]))
        assert (p1, pm1) == (1, -1)

    def test_against_clenshaw(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        p1, pm1 = endpoint_values(c)
        # oracle: Clenshaw evaluation of the series at +-1
        assert abs(p1 - npcheb.chebval(1.0, c)) < 1e-14
        assert abs(pm1 - npcheb.chebval(-1.0, c)) < 1e-14


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_modified_transform_discrete_orthogonality(n):
    T = transform_matrix(gauss_lobatto_nodes(n))
    Tm = T.copy()
    Tm[0] /= np.sqrt(2)
    Tm[n] /= np.sqrt(2)
    product = Tm.T @ Tm
    expected = np.diag(np.r_[n, np.full(n - 1, n / 2), n].astype(float))
    np.testing.assert_allclose(product, expected, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_diff_commutation_identity(n):
    x = gauss_lobatto_nodes(n)
    T = transform_matrix(x)
    D = physical_diff_matrix(x)
    B = spectral_diff_matrix(n)
    DT = D @ T
    np.testing.assert_allclose(DT, T @ B, atol=1e-10 * np.max(np.abs(DT)))
