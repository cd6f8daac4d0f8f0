import re
import warnings

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest

from oscint import (
    AmplitudeSamplingError,
    IntegralProblem,
    SolvePath,
    SolverOverflowError,
    ZeroFrequencyError,
    assemble_G,
    assemble_rhs,
    dense_collocation_solve,
    forward_coefficients,
    gauss_lobatto_nodes,
    integrate_on_interval,
    integrate_standard,
    solve_coefficients,
)
from oscint.oracle import spectral_diff_matrix

TABLE_1 = {
    1: 0.9113301035062809891 - 0.1775799622517861791j,
    10: -0.07854759997855625023 - 0.04871911238563061052j,
}


def band_compressor(n):
    """Dense row-combination matrix that compresses the triangular
    collocation system to bandwidth 2: row i minus row i+2, with row 0
    taking half of row 2 to absorb its endpoint weight."""
    P = np.eye(n + 1)
    P[0, 2] = -0.5
    for i in range(1, n - 1):
        P[i, i + 2] = -1.0
    return P


def ultraspherical_operators(n):
    """Dense T -> C^(1) differentiation D and conversion S0, with the
    row scaling diag(1/2, 1, ..., 1), all (n+1) x (n+1)."""
    D = np.diag(np.arange(1.0, n + 1), 1)
    S0 = np.diag(np.r_[1.0, np.full(n, 0.5)]) - 0.5 * np.eye(n + 1, k=2)
    scale = np.diag(np.r_[0.5, np.ones(n)])
    return D, S0, scale


class TestAssembleG:
    @pytest.mark.parametrize("omega,n", [(5.0, 2), (3.0, 7), (40.0, 12)])
    def test_band_structure(self, omega, n):
        G = assemble_G(omega, n)
        assert (G.kl, G.ku) == (0, 2)
        np.testing.assert_array_equal(G.band(0), np.full(n + 1, 1j * omega))
        sup1 = np.r_[1.0, 2.0 * np.arange(2, n + 1)]
        np.testing.assert_array_equal(G.band(1), sup1)
        sup2 = np.full(n - 1, -1j * omega)
        sup2[0] = -1j * omega / 2
        np.testing.assert_array_equal(G.band(2), sup2)

    def test_last_row_single_nonzero(self):
        G = assemble_G(5.0, 6).to_dense()
        assert G[6, 6] == 5j
        assert G[6, 5] == 0  # lower band unrepresentable anyway

    @pytest.mark.parametrize("omega,n", [(5.0, 4), (2.5, 9), (30.0, 16)])
    def test_equals_compressed_triangular_system(self, omega, n):
        # oracle: dense product of the row compressor with B + i*omega*E
        B = spectral_diff_matrix(n)
        A = B + 1j * omega * np.eye(n + 1)
        expected = band_compressor(n) @ A
        np.testing.assert_allclose(
            assemble_G(omega, n).to_dense(), expected, atol=1e-13 * n
        )

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroFrequencyError):
            assemble_G(0.0, 8)

    @pytest.mark.parametrize("omega", [3.5, -3.5])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_ultraspherical_identity(self, omega, n):
        # G = diag(1/2, 1, ..., 1) . 2 (D + i*omega*S0), and the rhs is the
        # same row-scaled conversion applied to the amplitude's coefficients
        D, S0, scale = ultraspherical_operators(n)
        expected = scale @ (2 * (D + 1j * omega * S0))
        np.testing.assert_array_equal(assemble_G(omega, n).to_dense(), expected)
        rng = np.random.default_rng(n)
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        amp = lambda x: npcheb.chebval(x, coeffs)
        grid = gauss_lobatto_nodes(n)
        c = forward_coefficients(amp(grid.nodes), grid)
        rhs = assemble_rhs(IntegralProblem(amp, omega, n), grid)
        np.testing.assert_array_equal(rhs, scale @ (2 * S0) @ c)


class TestAssembleRHS:
    def test_constant_amplitude(self):
        problem = IntegralProblem(lambda x: np.ones_like(x), 5.0, 4)
        rhs = assemble_rhs(problem, gauss_lobatto_nodes(4))
        np.testing.assert_allclose(rhs, [1, 0, 0, 0, 0], atol=1e-15)

    def test_quadratic_amplitude(self):
        problem = IntegralProblem(lambda x: x**2, 5.0, 4)
        rhs = assemble_rhs(problem, gauss_lobatto_nodes(4))
        np.testing.assert_allclose(rhs, [0.25, 0, 0.5, 0, 0], atol=1e-15)

    def test_matches_dense_assembly_oracle(self):
        n = 10
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(n + 1)
        amp = lambda x: npcheb.chebval(x, coeffs)
        grid = gauss_lobatto_nodes(n)
        rhs = assemble_rhs(IntegralProblem(amp, 3.0, n), grid)
        expected = band_compressor(n) @ forward_coefficients(amp(grid.nodes), grid)
        np.testing.assert_allclose(rhs, expected, atol=1e-12)

    def test_non_finite_amplitude_reports_node(self):
        def amp(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x  # infinite at the midpoint node

        with pytest.raises(AmplitudeSamplingError) as err:
            assemble_rhs(IntegralProblem(amp, 5.0, 4), gauss_lobatto_nodes(4))
        assert err.value.node == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            assemble_rhs(
                IntegralProblem(lambda x: x, 5.0, 4), gauss_lobatto_nodes(6)
            )


class TestSolveCoefficients:
    @pytest.mark.parametrize("omega", [2.0, -7.5, 100.0])
    def test_constant_antiderivative(self, omega):
        problem = IntegralProblem(
            lambda x: 1j * omega * np.ones_like(x), omega, 4
        )
        coeffs, _, residual = solve_coefficients(problem)
        np.testing.assert_allclose(coeffs.c, [1, 0, 0, 0, 0], atol=1e-13)
        assert residual < 1e-12 * abs(omega)

    def test_paths_agree_when_both_valid(self):
        problem = IntegralProblem(lambda x: 1.0 / (x + 2), 20.0, 8)
        c_direct, path_d, _ = solve_coefficients(problem, SolvePath.DIRECT_TRIANGULAR)
        c_normal, path_n, _ = solve_coefficients(problem, SolvePath.NORMAL_EQUATIONS)
        assert path_d is SolvePath.DIRECT_TRIANGULAR
        assert path_n is SolvePath.NORMAL_EQUATIONS
        np.testing.assert_allclose(c_direct.c, c_normal.c, atol=1e-10)

    def test_path_selection_threshold(self):
        f = lambda x: 1.0 / (x + 2)
        _, path, _ = solve_coefficients(IntegralProblem(f, 9.0, 8))
        assert path is SolvePath.DIRECT_TRIANGULAR
        _, path, _ = solve_coefficients(IntegralProblem(f, 8.0, 8))
        assert path is SolvePath.NORMAL_EQUATIONS

    def test_normal_regime_matches_dense_collocation(self):
        n = 20
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(20)  # degree 19 polynomial amplitude
        amp = lambda x: npcheb.chebval(x, coeffs)
        problem = IntegralProblem(amp, 12.0, n)
        c_banded, path, _ = solve_coefficients(problem)
        assert path is SolvePath.NORMAL_EQUATIONS
        c_dense = dense_collocation_solve(problem).c
        np.testing.assert_allclose(c_banded.c, c_dense, atol=1e-9)

    def test_normal_regime_integral_accuracy_when_ill_conditioned(self):
        # at omega << n the coefficient map is too ill conditioned for
        # entrywise coefficient comparisons, but the endpoint combination
        # p(1)e^{iw} - p(-1)e^{-iw} is insensitive to the bad modes and
        # the computed integral must still match an independent quadrature
        from oscint import oscillatory_reference_quadrature

        n, omega = 32, 3.0
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(20)
        amp = lambda x: npcheb.chebval(x, coeffs)
        value = integrate_standard(IntegralProblem(amp, omega, n)).value
        exact = oscillatory_reference_quadrature(amp, omega, -1, 1, tol=1e-13)
        assert abs(value - exact) < 1e-12

    def test_forced_direct_path_overflow_is_typed(self):
        problem = IntegralProblem(lambda x: 1 / (x + 2), 1.0, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverOverflowError, match=re.escape("n/|omega| = 400")):
                solve_coefficients(problem, SolvePath.DIRECT_TRIANGULAR)

    def test_quadrature_path_cannot_be_forced(self):
        problem = IntegralProblem(lambda x: x, 5.0, 8)
        with pytest.raises(ValueError):
            solve_coefficients(problem, SolvePath.QUADRATURE)


class TestIntegrateStandard:
    @pytest.mark.parametrize("alpha", [0.8 + 0.7j, -1.2 - 1.1j])
    @pytest.mark.parametrize("n", [2000, 20000])
    @pytest.mark.parametrize("omega", [1.0, 5.0, 10.0])
    def test_large_n_normal_regime(self, alpha, n, omega):
        # int exp(alpha x) exp(i omega x) = 2 sinh(z)/z, z = alpha + i omega
        result = integrate_standard(
            IntegralProblem(lambda x: np.exp(alpha * x), omega, n)
        )
        assert result.path is SolvePath.NORMAL_EQUATIONS
        z = alpha + 1j * omega
        exact = 2 * np.sinh(z) / z
        assert abs(result.value - exact) <= 1e-10 * abs(exact)

    def test_constant_antiderivative_value(self):
        result = integrate_standard(
            IntegralProblem(lambda x: 3j * np.ones_like(x), 3.0, 4)
        )
        assert abs(result.value - 2j * np.sin(3)) < 1e-14

    @pytest.mark.parametrize("omega,expected", TABLE_1.items())
    def test_reference_values(self, omega, expected):
        result = integrate_standard(IntegralProblem(lambda x: 1 / (x + 2), omega, 30))
        assert abs(result.value - expected) < 1e-12

    def test_linearity(self):
        f = lambda x: np.exp(x)
        g = lambda x: 1.0 / (x + 3)
        alpha, beta = 2.0 - 1j, 0.5j
        combo = lambda x: alpha * f(x) + beta * g(x)
        i_f = integrate_standard(IntegralProblem(f, 12.0, 24)).value
        i_g = integrate_standard(IntegralProblem(g, 12.0, 24)).value
        i_c = integrate_standard(IntegralProblem(combo, 12.0, 24)).value
        assert abs(i_c - (alpha * i_f + beta * i_g)) < 1e-11

    @pytest.mark.parametrize("omega", [3.0, 17.0, 80.0])
    def test_conjugation_symmetry(self, omega):
        f = lambda x: np.exp(-(x**2))
        plus = integrate_standard(IntegralProblem(f, omega, 32)).value
        minus = integrate_standard(IntegralProblem(f, -omega, 32)).value
        assert abs(minus - np.conj(plus)) < 1e-12

    def test_exact_on_resolvable_problems(self):
        # f = p' + i*omega*p for a polynomial p of degree <= n-1
        omega, n = 6.0, 10
        p = np.array([0.3, -1.2, 0.7, 0.05, 1.1])
        dp = np.polynomial.polynomial.polyder(p)
        f = lambda x: (
            np.polynomial.polynomial.polyval(x, dp)
            + 1j * omega * np.polynomial.polynomial.polyval(x, p)
        )
        pv = np.polynomial.polynomial.polyval
        expected = pv(1.0, p) * np.exp(1j * omega) - pv(-1.0, p) * np.exp(-1j * omega)
        result = integrate_standard(IntegralProblem(f, omega, n))
        assert abs(result.value - expected) < 1e-12

    def test_path_equivalence_above_threshold(self):
        problem = IntegralProblem(lambda x: np.exp(x), 25.0, 12)
        direct = integrate_standard(problem, SolvePath.DIRECT_TRIANGULAR)
        normal = integrate_standard(problem, SolvePath.NORMAL_EQUATIONS)
        assert abs(direct.value - normal.value) < 1e-10

    def test_convergence_to_plateau(self):
        from oscint import oscillatory_reference_quadrature

        f = lambda x: 1.0 / (x + 2)
        for omega in (1.0, 10.0, 50.0, 100.0):
            exact = oscillatory_reference_quadrature(f, omega, -1, 1, tol=1e-13)
            errors = [
                abs(integrate_standard(IntegralProblem(f, omega, n)).value - exact)
                for n in (8, 16, 24, 32)
            ]
            assert errors[-1] <= 1e-12
            for prev, nxt in zip(errors, errors[1:]):
                assert nxt <= prev or nxt <= 1e-12  # monotone up to the plateau

    def test_solution_slowly_oscillating_in_omega(self):
        f = lambda x: 1.0 / (x + 2)
        norms = {}
        for omega in (100.0, 1000.0):
            coeffs, _, _ = solve_coefficients(IntegralProblem(f, omega, 30))
            norms[omega] = np.max(np.abs(coeffs.c))
        assert norms[1000.0] <= norms[100.0]


class TestIntegrateOnInterval:
    def test_standard_interval_is_identity(self):
        f = lambda x: np.exp(x)
        a = integrate_on_interval(f, 11.0, -1.0, 1.0, 16)
        b = integrate_standard(IntegralProblem(f, 11.0, 16))
        assert a.value == b.value

    def test_closed_form_on_zero_pi(self):
        # int_0^pi e^{ix} dx = (e^{i pi} - 1)/i = 2i
        result = integrate_on_interval(
            lambda x: np.ones_like(x), 1.0, 0.0, np.pi, 8
        )
        assert abs(result.value - 2j) < 1e-13

    def test_transformed_sin_phase_integral(self):
        f = lambda y: 1.0 / (np.sqrt(1 - y**2) * ((np.arcsin(y) - 0.25) ** 2 + 1))
        result = integrate_on_interval(f, 10.0, -np.sin(0.75), np.sin(1.25), 90)
        expected = 0.00266714972608754 + 0.180595659138141j
        assert abs(result.value - expected) < 1e-10

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_on_interval(lambda x: x, 5.0, 1.0, -1.0, 8)

    @pytest.mark.parametrize("a,b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
    def test_non_finite_endpoint_rejected_before_sampling(self, a, b):
        sampled = []

        def f(x):
            sampled.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError, match="endpoints must be finite") as err:
            integrate_on_interval(f, 5.0, a, b, 30)
        assert type(err.value) is ValueError
        assert not sampled

    def test_zero_effective_frequency_falls_back_to_quadrature(self):
        result = integrate_on_interval(lambda x: x**2, 0.0, 0.0, 1.0, 8)
        assert abs(result.value - 1.0 / 3.0) < 1e-12
        assert result.path is SolvePath.QUADRATURE
        assert np.isnan(result.residual_norm)


class TestAmplitudeDtype:
    """Real samples stay real and take one real DCT; complex ones one FFT."""

    @pytest.mark.parametrize(
        "omega,path",
        [(50.0, SolvePath.DIRECT_TRIANGULAR), (5.0, SolvePath.NORMAL_EQUATIONS)],
    )
    def test_real_and_complex_dtype_agree(self, omega, path):
        real = integrate_on_interval(lambda x: 1 / (x + 2), omega, -1.0, 1.0, 30)
        as_complex = integrate_on_interval(
            lambda x: (1 / (x + 2)).astype(complex), omega, -1.0, 1.0, 30
        )
        assert real.path is as_complex.path is path
        assert abs(real.value - as_complex.value) <= 1e-14 * abs(as_complex.value)

    @pytest.mark.parametrize(
        "amplitude",
        [
            lambda x: 1.0,
            lambda x: 1,
            lambda x: np.ones_like(x, dtype=int),
            lambda x: np.ones_like(x, dtype=np.float32),
            lambda x: np.True_,
        ],
        ids=["float", "int", "int-array", "float32-array", "bool"],
    )
    @pytest.mark.parametrize("omega", [5.0, 50.0])
    def test_scalar_and_integer_amplitudes_broadcast(self, amplitude, omega):
        # int_0^2 exp(i omega x) dx
        result = integrate_on_interval(amplitude, omega, 0.0, 2.0, 30)
        exact = (np.exp(2j * omega) - 1) / (1j * omega)
        assert abs(result.value - exact) <= 1e-13 * abs(exact)

    def test_nan_in_real_samples_reports_node(self):
        def amp(x):
            return np.where(x == 0.0, np.nan, 1.0)  # NaN at the midpoint node

        with pytest.raises(AmplitudeSamplingError) as err:
            integrate_standard(IntegralProblem(amp, 5.0, 4))
        assert err.value.node == 0.0

    @pytest.mark.parametrize(
        "amplitude,transform",
        [
            (lambda x: 1 / (x + 2), "dct"),
            (lambda x: 1, "dct"),
            (lambda x: np.exp((0.5 + 1j) * x), "fft"),
            (lambda x: (1 / (x + 2)).astype(complex), "fft"),
        ],
        ids=["real", "int-scalar", "complex", "complex-dtype"],
    )
    @pytest.mark.parametrize("omega", [5.0, 500.0])
    def test_one_transform_per_integral(self, monkeypatch, amplitude, transform, omega):
        import oscint.chebyshev as chebyshev_mod

        calls = {"dct": 0, "fft": 0}

        def counted(name):
            inner = getattr(chebyshev_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(chebyshev_mod, name, counted(name))
        integrate_on_interval(amplitude, omega, 0.0, 3.0, 97)
        assert calls == {"dct": 0, "fft": 0, transform: 1}


def test_problem_validation():
    with pytest.raises(ZeroFrequencyError):
        IntegralProblem(lambda x: x, 0.0, 8)
    with pytest.raises(ValueError):
        IntegralProblem(lambda x: x, 5.0, 1)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_non_finite_omega_rejected(omega):
    with pytest.raises(ValueError, match="omega must be finite") as err:
        IntegralProblem(lambda x: x, omega, 8)
    assert type(err.value) is ValueError


def test_non_integer_degree_rejected():
    with pytest.raises(ValueError, match="degree must be an integer"):
        IntegralProblem(lambda x: x, 5.0, 30.0)
    with pytest.raises(ValueError, match="degree must be an integer"):
        integrate_on_interval(lambda x: x, 5.0, -1.0, 1.0, 30.0)
    with pytest.raises(ValueError, match="degree must be an integer"):
        integrate_on_interval(lambda x: x, 0.0, 0.0, 1.0, 30.0)  # quadrature
    result = integrate_standard(IntegralProblem(np.exp, 5.0, np.int64(30)))
    assert result.n_used == 30
