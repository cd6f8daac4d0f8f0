import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest
from helpers import bits, chebyshev_moments, i_pow, to_dense
from scipy.special import jn_zeros

import oscint
from oscint import (
    AmplitudeSamplingError,
    IntegralProblem,
    PhaseSpec,
    SingularMatrixError,
    SolvePath,
    SolverOverflowError,
    ZeroFrequencyError,
    integrate_on_interval,
    integrate_standard,
    substitute,
)
from oscint.chebyshev import _node_weights, forward_coefficients, gauss_lobatto_nodes
from oscint.errors import InvalidInputError
from oscint.levin import assemble_G, assemble_rhs, solve_coefficients
from oscint.moments import (
    _NODE_WEIGHTS_FROM_N,
    _cast_samples,
    _coefficients,
    _real_moments,
    _sample_amplitude,
)
from oscint.oracle import (
    dense_collocation_solve,
    oscillatory_reference_quadrature,
    spectral_diff_matrix,
)

TABLE_1 = {
    1: 0.9113301035062809891 - 0.1775799622517861791j,
    10: -0.07854759997855625023 - 0.04871911238563061052j,
}


def count_transforms(monkeypatch):
    """Count the ``numpy.fft`` calls that ``oscint.chebyshev`` makes.

    ``rfft`` transforms real samples; ``fft`` transforms complex samples and
    the node weights. The kernel's memoised last transform is forgotten
    first, so that the count does not depend on what an earlier test
    transformed.
    """
    import oscint.moments as moments_mod

    monkeypatch.setattr(moments_mod, "_last_transform", None)
    calls = {"rfft": 0, "fft": 0}

    def counted(name):
        inner = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)

    for name in calls:
        counted(name)
    return calls


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
        np.testing.assert_array_equal(np.diag(to_dense(G), 0), np.full(n + 1, 1j * omega))
        sup1 = np.r_[1.0, 2.0 * np.arange(2, n + 1)]
        np.testing.assert_array_equal(np.diag(to_dense(G), 1), sup1)
        sup2 = np.full(n - 1, -1j * omega)
        sup2[0] = -1j * omega / 2
        np.testing.assert_array_equal(np.diag(to_dense(G), 2), sup2)

    @pytest.mark.parametrize("omega,n", [(5.0, 2), (3.0, 7), (40.0, 12)])
    def test_unused_storage_stays_zero(self, omega, n):
        # corners of band storage that no entry maps to; to_dense cannot see them
        ab = assemble_G(omega, n).ab
        assert ab.shape == (3, n + 1)
        assert np.all(ab[0, :2] == 0)
        assert ab[1, 0] == 0

    def test_last_row_single_nonzero(self):
        G = to_dense(assemble_G(5.0, 6))
        assert G[6, 6] == 5j
        assert G[6, 5] == 0  # lower band unrepresentable anyway

    @pytest.mark.parametrize("omega,n", [(5.0, 4), (2.5, 9), (30.0, 16)])
    def test_equals_compressed_triangular_system(self, omega, n):
        # oracle: dense product of the row compressor with B + i*omega*E
        B = spectral_diff_matrix(n)
        A = B + 1j * omega * np.eye(n + 1)
        expected = band_compressor(n) @ A
        np.testing.assert_allclose(
            to_dense(assemble_G(omega, n)), expected, atol=1e-13 * n
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
        np.testing.assert_array_equal(to_dense(assemble_G(omega, n)), expected)
        rng = np.random.default_rng(n)
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        amp = lambda x: npcheb.chebval(x, coeffs)
        c = forward_coefficients(amp(gauss_lobatto_nodes(n)))
        rhs = assemble_rhs(IntegralProblem(amp, omega, n))
        np.testing.assert_array_equal(rhs, scale @ (2 * S0) @ c)


class TestAssembleRHS:
    def test_constant_amplitude(self):
        problem = IntegralProblem(lambda x: np.ones_like(x), 5.0, 4)
        rhs = assemble_rhs(problem)
        np.testing.assert_allclose(rhs, [1, 0, 0, 0, 0], atol=1e-15)

    def test_quadratic_amplitude(self):
        problem = IntegralProblem(lambda x: x**2, 5.0, 4)
        rhs = assemble_rhs(problem)
        np.testing.assert_allclose(rhs, [0.25, 0, 0.5, 0, 0], atol=1e-15)

    def test_matches_dense_assembly_oracle(self):
        n = 10
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(n + 1)
        amp = lambda x: npcheb.chebval(x, coeffs)
        rhs = assemble_rhs(IntegralProblem(amp, 3.0, n))
        c = forward_coefficients(amp(gauss_lobatto_nodes(n)))
        np.testing.assert_allclose(rhs, band_compressor(n) @ c, atol=1e-12)

    def test_non_finite_amplitude_reports_node(self):
        def amp(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x  # infinite at the midpoint node

        with pytest.raises(AmplitudeSamplingError) as err:
            assemble_rhs(IntegralProblem(amp, 5.0, 4))
        assert err.value.node == 0.0


class TestSolveCoefficients:
    @pytest.mark.parametrize("omega", [2.0, -7.5, 100.0])
    def test_constant_antiderivative(self, omega):
        problem = IntegralProblem(
            lambda x: 1j * omega * np.ones_like(x), omega, 4
        )
        coeffs, _, residual = solve_coefficients(problem)
        np.testing.assert_allclose(coeffs, [1, 0, 0, 0, 0], atol=1e-13)
        assert residual < 1e-12 * abs(omega)

    def test_paths_agree_when_both_valid(self):
        problem = IntegralProblem(lambda x: 1.0 / (x + 2), 20.0, 8)
        c_direct, path_d, _ = solve_coefficients(problem, SolvePath.DIRECT_TRIANGULAR)
        c_normal, path_n, _ = solve_coefficients(problem, SolvePath.NORMAL_EQUATIONS)
        assert path_d is SolvePath.DIRECT_TRIANGULAR
        assert path_n is SolvePath.NORMAL_EQUATIONS
        np.testing.assert_allclose(c_direct, c_normal, atol=1e-10)

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
        c_dense = dense_collocation_solve(problem)
        np.testing.assert_allclose(c_banded, c_dense, atol=1e-9)

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
            norms[omega] = np.max(np.abs(coeffs))
        assert norms[1000.0] <= norms[100.0]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    @pytest.mark.parametrize(
        "omega,n", [(1e-11, 32), (1e-9, 256), (1e-7, 256), (1e-5, 256)]
    )
    def test_tiny_frequency_is_right_or_raises(self, omega, n):
        alpha = 1.019 - 1.0542j
        z = alpha + 1j * omega
        exact = 2.0 * np.sinh(z) / z
        try:
            result = integrate_standard(
                IntegralProblem(lambda x: np.exp(alpha * x), omega, n)
            )
        except ValueError:
            return
        assert abs(result.value - exact) <= 1e-12 * abs(exact)


class TestIntegrateOnInterval:
    def test_standard_interval_agrees_with_levin_solver(self):
        # the Levin value is c . M; above |omega| > n both are the direct path
        f = lambda x: np.exp(x)
        a = integrate_on_interval(f, 17.0, -1.0, 1.0, 16)
        b = integrate_standard(IntegralProblem(f, 17.0, 16))
        assert a.path is b.path is SolvePath.DIRECT_TRIANGULAR
        assert abs(a.value - b.value) <= 1e-14 * abs(b.value)

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

    @pytest.mark.parametrize(
        "a,b,omega,message",
        [
            pytest.param(0.0, np.inf, 5.0, "endpoints", id="0.0-inf"),
            pytest.param(-np.inf, 0.0, 5.0, "endpoints", id="-inf-0.0"),
            pytest.param(np.nan, 1.0, 5.0, "endpoints", id="nan-1.0"),
            pytest.param(-1.0, 1.0, np.nan, "omega", id="omega-nan"),
            pytest.param(-1.0, 1.0, np.inf, "omega", id="omega-inf"),
            pytest.param(0.0, 1.0, -np.inf, "omega", id="omega--inf"),
            # omega is finite, omega*(b-a)/2 is not
            pytest.param(-10.0, 10.0, 1e308, "omega", id="omega_eff-overflow"),
        ],
    )
    def test_non_finite_endpoint_rejected_before_sampling(self, a, b, omega, message):
        sampled = []

        def f(x):
            sampled.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError, match=f"{message} must be finite") as err:
            integrate_on_interval(f, omega, a, b, 30)
        assert type(err.value) is InvalidInputError
        assert not sampled

    def test_overflowing_phase_shift_rejected_before_sampling(self):
        # omega*(b-a)/2 = 1e300 is finite, omega*(a+b)/2 = 1e310 is not
        sampled = []

        def f(x):
            sampled.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError, match=r"omega\*\(a\+b\)/2 overflows"):
            integrate_on_interval(f, 1e300, 1e10 - 1, 1e10 + 1, 8)
        assert not sampled

    def test_zero_effective_frequency_falls_back_to_quadrature(self):
        result = integrate_on_interval(lambda x: x**2, 0.0, 0.0, 1.0, 8)
        assert abs(result.value - 1.0 / 3.0) < 1e-12
        assert result.path is SolvePath.QUADRATURE
        assert np.isnan(result.residual_norm)

    @pytest.mark.parametrize("a,b", [(1e308, 1.7e308), (-1.7e308, -1e308)])
    @pytest.mark.parametrize("omega", [0.0, 4e-308])
    def test_overflowing_endpoint_sum_takes_the_halves(self, a, b, omega):
        # a + b overflows, (b - a)/2 and the integral do not
        half, mid = b / 2 - a / 2, a / 2 + b / 2
        w = omega * half
        expected = 2 * half * np.sinc(w / np.pi) * np.exp(1j * omega * mid)
        result = integrate_on_interval(lambda x: np.ones_like(x), omega, a, b, 8)
        assert abs(result.value - expected) <= 1e-14 * abs(expected)

    def test_overflowing_endpoint_difference_takes_the_halves(self):
        # b - a overflows, (b - a)/2 and the integral, 2e8, do not
        result = integrate_on_interval(lambda x: 1e-300 + 0 * x, 0.0, -1e308, 1e308, 8)
        assert abs(result.value - 2e8) <= 1e-14 * 2e8

    @pytest.mark.parametrize("omega", [0.0, 4e-308])
    def test_substitute_probes_an_overflowing_bracket_by_halves(self, omega):
        # the probes of (-1e308, 1e308) are finite, so g = x/4 is monotone there
        phase = PhaseSpec(lambda x: x / 4, lambda x: 0.25 + 0 * x, (-1e308, 1e308))
        f, (lo, hi), w = substitute(lambda x: 1e-300 + 0 * x, phase, omega)
        assert (lo, hi) == (-2.5e307, 2.5e307)
        expected = 2e8 * np.sinc(omega * 2.5e307 / np.pi)
        result = integrate_on_interval(f, w, lo, hi, 8)
        assert abs(result.value - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("omega", [0.0, 1e-20, -1e-15])
    def test_zero_frequency_integrates_the_solver_samples(self, monkeypatch, omega, n):
        import oscint.oracle

        def refuse(*args, **kwargs):
            raise AssertionError("the reference quadrature was called")

        monkeypatch.setattr(oscint.oracle, "oscillatory_reference_quadrature", refuse)
        # degree 8 <= n, so Clenshaw-Curtis on the n+1 nodes is exact
        p = np.polynomial.Polynomial([-1.0, 0.5, 2.0, 0.0, 0.0, -1.0, 0.0, 0.25, 3.0])
        a, b = -1.5, 2.0
        result = integrate_on_interval(p, omega, a, b, n)
        exact = p.integ()(b) - p.integ()(a)
        assert result.path is SolvePath.QUADRATURE
        assert result.n_used == n
        assert np.isnan(result.residual_norm)
        assert abs(result.value - exact) <= 1e-14 * abs(exact)

    def test_zero_frequency_keeps_the_midpoint_phase(self):
        # omega*(b-a)/2 = 1e-15 is negligible, omega*mid = 1e-9 is not
        omega, a, b = 1e-15, 1e6, 1e6 + 2
        mid = (a + b) / 2
        result = integrate_on_interval(lambda x: x, omega, a, b, 8)
        expected = 2 * np.exp(1j * omega * mid) * mid  # int_a^b x dx = 2*mid
        assert result.path is SolvePath.QUADRATURE
        assert abs(result.value - expected) <= 1e-14 * abs(expected)

    def test_zero_frequency_non_finite_sample_reports_node(self):
        def amp(x):
            return np.where(x == 0.5, np.nan, 1.0)  # NaN at the midpoint node

        with pytest.raises(AmplitudeSamplingError) as err:
            integrate_on_interval(amp, 0.0, 0.0, 1.0, 8)
        assert err.value.node == 0.5


    @pytest.mark.parametrize(
        "omega,path",
        [(5.0, SolvePath.QUADRATURE), (50.0, SolvePath.DIRECT_TRIANGULAR)],
    )
    def test_levin_non_finite_sample_reports_node_in_x(self, omega, path):
        def amp(x):
            return np.where(x == 0.5, np.nan, 1.0)  # NaN at the midpoint node

        assert integrate_on_interval(lambda x: 1.0, omega, 0.0, 1.0, 8).path is path
        with pytest.raises(AmplitudeSamplingError) as err:
            integrate_on_interval(amp, omega, 0.0, 1.0, 8)
        assert err.value.node == 0.5
        assert "x = 0.5" in str(err.value)

    @pytest.mark.parametrize("n", [64, 1500])
    @pytest.mark.parametrize(
        "omega,a,b",
        [
            (12345.678, np.float32(-1), np.float32(1)),
            (np.float32(12345.678), -1.0, 1.0),
            (np.float32(30.7), np.float32(0.1), np.float32(2.3)),
            (3.0, np.float32(-0.3), 1.7),
        ],
        ids=["interval", "omega", "all", "a"],
    )
    def test_float32_inputs_are_computed_in_double(self, omega, a, b, n):
        # numpy >= 2 would keep omega*(b-a)/2 of float32 endpoints in float32
        f = lambda x: np.exp((0.9 - 0.6j) * x)
        result = integrate_on_interval(f, omega, a, b, n)
        expected = integrate_on_interval(f, float(omega), float(a), float(b), n)
        assert np.complex128(result.value).tobytes() == (
            np.complex128(expected.value).tobytes()
        )
        assert result.path is expected.path

    def test_float32_interval_keeps_its_digits(self):
        f = lambda x: np.exp((0.9 - 0.6j) * x)
        omega = 12345.678
        result = integrate_on_interval(f, omega, np.float32(-1), np.float32(1), 64)
        z = complex(0.9, omega - 0.6)
        exact = 2 * np.sinh(z) / z
        assert abs(result.value - exact) <= 1e-11 * abs(exact)

    def test_result_is_a_frozen_dataclass_of_four_fields(self):
        # integrate_on_interval builds its result positionally, in this order
        result = integrate_on_interval(lambda x: np.exp(x), 5.0, -1.0, 1.0, 16)
        assert [f.name for f in dataclasses.fields(result)] == [
            "value",
            "path",
            "n_used",
            "residual_norm",
        ]
        assert type(result.value) is complex
        assert result.path is SolvePath.QUADRATURE
        assert result.n_used == 16
        assert type(result.residual_norm) is float and math.isnan(result.residual_norm)
        for name in ("value", "path", "n_used", "residual_norm"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, None)


def seeded_intervals():
    """100 intervals: seed 1, a ~ U[-10, 10], then b - a ~ U[1e-3, 10]."""
    rng = np.random.default_rng(1)
    intervals = []
    for _ in range(100):
        a = float(rng.uniform(-10, 10))
        intervals.append((a, a + float(rng.uniform(1e-3, 10))))
    return intervals


def decay_in(a, b, seen):
    """exp(a - x), NaN only outside [a, b]; every argument is appended to ``seen``."""

    def f(x):
        seen.append(np.array(x))
        with np.errstate(invalid="ignore"):
            return np.exp(a - x) + 0 * np.sqrt(x - a) * np.sqrt(b - x)

    return f


def decay_integral(omega, a, b):
    """int_a^b exp(a - x) exp(i*omega*x) dx."""
    z = complex(-1.0, omega)
    return (cmath.exp(a - b + 1j * omega * b) - cmath.exp(1j * omega * a)) / z


class TestSamplesStayInTheInterval:
    """Every point placed on [a, b] is half*x + mid clipped into [a, b]."""

    def test_kernel_samples_in_the_interval(self):
        # one node rounded an ulp past an end on 15 of these intervals
        for a, b in seeded_intervals():
            seen = []
            value = integrate_on_interval(decay_in(a, b, seen), 7.0, a, b, 32).value
            x = np.concatenate(seen)
            assert a <= x.min() and x.max() <= b
            exact = decay_integral(7.0, a, b)
            assert abs(value - exact) <= 1e-13 * abs(exact)

    def test_reference_quadrature_samples_in_the_interval(self):
        # a panel node rounded past an end on 35 of these intervals
        for a, b in seeded_intervals():
            seen = []
            value = oscillatory_reference_quadrature(decay_in(a, b, seen), 7.0, a, b)
            x = np.concatenate(seen)
            assert a <= x.min() and x.max() <= b
            exact = decay_integral(7.0, a, b)
            assert abs(value - exact) <= 1e-12 * abs(exact)


def two_product(x, y):
    """(p, e) with p + e = x*y exactly: Dekker's TwoProduct with a Veltkamp split."""

    def split(v):
        c = 134217729.0 * v  # 2^27 + 1
        high = c - (c - v)
        return high, v - high

    p = x * y
    xh, xl = split(x)
    yh, yl = split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def linear_phase_integral(omega, a, b):
    """int_a^b exp(i*omega*x) dx with omega*a and omega*b carried exactly as p + e."""

    def phase_factor(x):
        p, e = two_product(omega, x)
        return cmath.exp(1j * p) * cmath.exp(1j * e)

    return (phase_factor(b) - phase_factor(a)) / (1j * omega)


class TestPhaseRoundingOffTheStandardInterval:
    """Off [-1, 1] the rounding of omega*(b-a)/2 and omega*(a+b)/2 sets an
    error floor of about eps*|omega|*max(|a|, |b|) (ROADMAP item 3)."""

    @pytest.mark.parametrize("omega", [3.0, 1e5])
    def test_reference_equals_the_kernel_on_the_standard_interval(self, omega):
        result = integrate_on_interval(lambda x: np.ones_like(x), omega, -1.0, 1.0, 64)
        assert result.value == linear_phase_integral(omega, -1.0, 1.0)

    # worst relative errors of the 20 draws of each row, as measured: 2.6e-4,
    # 4.2e-2, 2.0 and 3.1e-10
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    @pytest.mark.parametrize(
        "far,omega",
        [(True, 1e6), (True, 1e8), (True, 1e10), (False, 1e5)],
        ids=["far-1e6", "far-1e8", "far-1e10", "near-1e5"],
    )
    def test_within_1e_14_of_the_exact_phase(self, far, omega):
        # far: |a| in [5e5, 2e6]; near: a in [-1, 0]; b - a in [0.5, 2]
        rng = np.random.default_rng([3, int(far), int(omega)])
        for _ in range(20):
            if far:
                a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e6)
            else:
                a = float(rng.uniform(-1.0, 0.0))
            b = a + float(rng.uniform(0.5, 2.0))
            w = float(rng.uniform(1.0, 2.0) * omega)
            value = integrate_on_interval(lambda x: np.ones_like(x), w, a, b, 64).value
            exact = linear_phase_integral(w, a, b)
            assert abs(value - exact) <= 1e-14 * abs(exact)


def moment_route_error(alpha, omega, n):
    """Relative error of int_{-1}^{1} exp(alpha*x) exp(i*omega*x) dx on the
    moment route; the closed form is 2 sinh(z)/z with z = alpha + i*omega."""
    result = integrate_on_interval(lambda x: np.exp(alpha * x), omega, -1.0, 1.0, n)
    assert result.path is SolvePath.QUADRATURE
    z = alpha + 1j * omega
    exact = 2.0 * np.sinh(z) / z
    return abs(result.value - exact) / abs(exact)


def worst_seeded_error(seed, draws, n_range, omega_of):
    """Worst moment-route error over seeded draws; ``omega_of(rng, n)``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        omega = omega_of(rng, n)
        alpha = complex(0.5 + rng.random(), rng.uniform(-1.5, 1.5))
        worst = max(worst, moment_route_error(alpha, omega, n))
    return worst


def log_uniform(lo, hi):
    """Frequency draw, log-uniform in [lo, hi) with a random sign."""
    def draw(rng, n):
        return rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(lo), np.log(hi)))

    return draw


class TestMomentRoute:
    """|omega_eff| <= n: coefficients against the moments of T_k."""

    def test_tiny_frequency_is_not_zero(self):
        assert moment_route_error(1.019 - 1.0542j, 1e-11, 32) <= 1e-13

    @pytest.mark.parametrize("lo,hi", [(1e-12, 1e-6), (1e-6, 3.0)])
    def test_low_frequency_bins(self, lo, hi):
        assert worst_seeded_error(11, 200, (24, 64), log_uniform(lo, hi)) <= 1e-13

    def test_band_below_n(self):
        # 0.15 n <= |omega| < n, where the normal equations lost digits
        band = lambda rng, n: n * rng.uniform(0.15, 1.0)
        assert worst_seeded_error(12, 300, (16, 256), band) <= 1e-11

    @pytest.mark.parametrize("n", [64, 2000])
    def test_omega_equal_to_n(self, n):
        # the recurrence's truncation must lie far enough past |omega|
        assert moment_route_error(0.8 + 0.3j, float(n), n) <= 1e-12

    @pytest.mark.parametrize("order", [0, 1])
    def test_frequencies_at_bessel_zeros(self, order):
        # k J_k(omega) solves the homogeneous moment rows, so where J_0 or J_1
        # vanishes one choice of bottom row is singular: the other must be used
        for zero in jn_zeros(order, 40):
            for omega in (zero - 1e-6, zero, zero + 1e-6):
                for n in (64, 7144):
                    if omega <= n:
                        assert moment_route_error(-1.2 + 0.7j, omega, n) <= 1e-13

    def test_frequencies_at_route_switches(self):
        # the sign of sin 2|omega| picks the bottom row: it changes at k pi/2
        for k in range(1, 81):
            for omega in (k * np.pi / 2 - 1e-9, k * np.pi / 2, k * np.pi / 2 + 1e-9):
                for n in (64, 7144):
                    if omega <= n:
                        assert moment_route_error(-1.2 + 0.7j, omega, n) <= 1e-13


# (k, omega, n): the boundary-value solve where |omega| <= n, forwards
# elsewhere; the ids omit n = 32
MOMENT_CASES = [
    pytest.param(k, omega, n, id=f"{k}-{omega}" + ("" if n == 32 else f"-n{n}"))
    for k, omega, n in [
        (0, 3.0, 32), (1, 3.0, 32), (1, 1e-3, 32), (2, 0.5, 32), (5, 7.0, 32),
        (10, 20.0, 32), (30, 30.0, 32), (2, 0.5, 2), (3, 2.0, 3),
        (5, 40.0, 32), (30, -100.0, 32), (2, 3.0, 2), (1, -7.5, 2), (3, 10.0, 3),
    ]
]


def refuse_boundary_value_solve(monkeypatch):
    import oscint.moments

    def refuse(*args):
        raise AssertionError("the boundary-value dgtsv ran above |omega| > n")

    monkeypatch.setattr(oscint.moments, "dgtsv", refuse)


def test_direct_route_matches_closed_form_and_levin_solver(monkeypatch):
    # |omega| > n: the moments run forwards, the value is still c . M
    refuse_boundary_value_solve(monkeypatch)
    rng = np.random.default_rng(13)
    worst_exact = worst_levin = 0.0
    for _ in range(3000):
        n = int(rng.integers(2, 257))
        omega = rng.choice([-1.0, 1.0]) * n * (50.0 - 49.0 * rng.random())
        alpha = complex(0.5 + rng.random(), rng.uniform(-1.5, 1.5))
        f = lambda x: np.exp(alpha * x)
        result = integrate_on_interval(f, omega, -1.0, 1.0, n)
        assert result.path is SolvePath.DIRECT_TRIANGULAR
        assert np.isnan(result.residual_norm)
        levin = integrate_standard(IntegralProblem(f, omega, n)).value
        worst_levin = max(worst_levin, abs(result.value - levin) / abs(levin))
        if n >= 24:  # resolved: exp(alpha*x) to rounding
            z = alpha + 1j * omega
            exact = 2.0 * np.sinh(z) / z
            worst_exact = max(worst_exact, abs(result.value - exact) / abs(exact))
    assert worst_exact <= 1e-11
    assert worst_levin <= 1e-14


@pytest.mark.parametrize("omega", [1e20, 1e200, -1e305, 1.7e308])
def test_direct_route_at_huge_frequencies(monkeypatch, omega):
    # no entry of the forward rows, nor w^2 in M_1, may overflow
    refuse_boundary_value_solve(monkeypatch)
    result = integrate_on_interval(lambda x: np.exp(0.5 * x), omega, -1.0, 1.0, 1000)
    z = complex(0.5, omega)
    exact = 2.0 * np.sinh(z) / z
    assert abs(result.value - exact) <= 1e-14 * abs(exact)


class TestChebyshevMoments:
    @pytest.mark.parametrize("k,omega,n", MOMENT_CASES)
    def test_against_reference_quadrature(self, k, omega, n):
        T_k = npcheb.Chebyshev.basis(k)
        expected = oscillatory_reference_quadrature(T_k, omega, -1.0, 1.0, tol=1e-14)
        got = chebyshev_moments(omega, n)[k]
        # the reference stops once two refinements agree to 1e-14
        assert abs(got - expected) <= 5e-14

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_zero_frequency_is_clenshaw_curtis(self, n):
        weights = np.zeros(n + 1)
        k = np.arange(0, n + 1, 2)
        weights[::2] = 2.0 / (1 - k**2)
        np.testing.assert_array_equal(chebyshev_moments(0.0, n), weights)

    @pytest.mark.parametrize("omega", [-37.0, -0.2, 1e-9, 2.5, 90.0, 200.0, -200.0])
    def test_even_moments_real_odd_imaginary(self, omega):
        M = chebyshev_moments(omega, 90)
        assert np.all(M[0::2].imag == 0)
        assert np.all(M[1::2].real == 0)
        # and M(-omega) is the conjugate of M(omega)
        np.testing.assert_allclose(
            chebyshev_moments(-omega, 90), M.conj(), rtol=0, atol=1e-15
        )

    def test_zero_pivot_is_typed(self, monkeypatch):
        import oscint.moments

        def singular(dl, d, du, b, *overwrite):
            return dl, d, du, b, 3

        monkeypatch.setattr(oscint.moments, "dgtsv", singular)
        with pytest.raises(SingularMatrixError) as err:
            chebyshev_moments(5.0, 16)
        assert err.value.index == 4


def samples_c_dot_moments(amplitude, omega, n):
    """c . M on [-1, 1], summed from the samples' coefficients."""
    samples = np.asarray(amplitude(gauss_lobatto_nodes(n)), dtype=complex)
    return forward_coefficients(samples) @ chebyshev_moments(omega, n)


class TestNodeWeightRoute:
    """From degree ``_NODE_WEIGHTS_FROM_N`` on the value is samples . W."""

    EDGE = [_NODE_WEIGHTS_FROM_N - 1, _NODE_WEIGHTS_FROM_N]
    ALPHA = 0.9 - 0.6j

    @pytest.mark.parametrize("n", EDGE)
    @pytest.mark.parametrize("ratio", [0.004, -0.6, 0.97, 1.7, -20.0])  # w/n
    def test_edge_degrees_against_closed_form_and_c_dot_m(self, n, ratio):
        omega = ratio * n
        f = lambda x: np.exp(self.ALPHA * x)
        result = integrate_on_interval(f, omega, -1.0, 1.0, n)
        z = self.ALPHA + 1j * omega
        exact = 2.0 * np.sinh(z) / z
        assert result.path is (
            SolvePath.DIRECT_TRIANGULAR if abs(ratio) > 1 else SolvePath.QUADRATURE
        )
        # as the direct route's seeded test: |exact| falls to 1e-4 at w = 2e4
        assert abs(result.value - exact) <= 1e-11 * abs(exact)
        reference = samples_c_dot_moments(f, omega, n)
        assert abs(result.value - reference) <= 1e-13 * abs(reference)

    # 1500 is 5-smooth; 4099 is prime, so the node weights' FFT is a Bluestein
    # one; 16414 = 2*29*283 splits it at 283 into two batched FFTs along the
    # axes of a 2-D array
    @pytest.mark.parametrize("n", [1500, 4099, 16414])
    @pytest.mark.parametrize("omega", [5.0, 30000.0])
    def test_fft_lengths_against_closed_form(self, n, omega):
        f = lambda x: np.exp(self.ALPHA * x)
        result = integrate_on_interval(f, omega, -1.0, 1.0, n)
        z = self.ALPHA + 1j * omega
        exact = 2.0 * np.sinh(z) / z
        assert result.path is (
            SolvePath.DIRECT_TRIANGULAR if omega > n else SolvePath.QUADRATURE
        )
        assert abs(result.value - exact) <= 1e-11 * abs(exact)

    @pytest.mark.parametrize(
        "n,amplitude,calls",
        [
            (EDGE[0], lambda x: 1 / (x + 2), {"rfft": 1, "fft": 0}),
            (EDGE[1], lambda x: 1 / (x + 2), {"rfft": 0, "fft": 1}),
            (EDGE[0], lambda x: np.exp((0.5 + 1j) * x), {"rfft": 0, "fft": 1}),
            (EDGE[1], lambda x: np.exp((0.5 + 1j) * x), {"rfft": 0, "fft": 1}),
        ],
        ids=["real-below", "real-from", "complex-below", "complex-from"],
    )
    def test_one_transform_either_side(self, monkeypatch, n, amplitude, calls):
        counted = count_transforms(monkeypatch)
        integrate_on_interval(amplitude, 3.0 * n, -1.0, 1.0, n)
        assert counted == calls

    @pytest.mark.parametrize("omega", [0.5, 3.0], ids=["boundary", "forward"])
    def test_split_degree_takes_two_batched_ffts(self, monkeypatch, omega):
        # 1202 = 2*601: the node weights' FFT of length 1202 runs as 601-point
        # transforms of the 2 columns and 2-point transforms of the 601 rows
        n = 1202
        counted = count_transforms(monkeypatch)
        inputs = []
        fft = np.fft.fft

        def recorded(a, *args, **kwargs):
            inputs.append((np.shape(a), kwargs.get("axis")))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        integrate_on_interval(lambda x: np.exp((0.5 + 1j) * x), omega * n, -1.0, 1.0, n)
        assert counted == {"rfft": 0, "fft": 2}
        assert inputs == [((601, 2), 0), ((601, 2), 1)]

    @pytest.mark.parametrize("n", [_NODE_WEIGHTS_FROM_N, _NODE_WEIGHTS_FROM_N + 1])
    def test_zero_frequency_is_clenshaw_curtis(self, n):
        weights = np.zeros(n + 1)
        k = np.arange(0, n + 1, 2)
        weights[::2] = 2.0 / (1 - k**2)
        clenshaw_curtis = forward_coefficients(np.exp(gauss_lobatto_nodes(n))) @ weights
        result = integrate_on_interval(np.exp, 0.0, -1.0, 1.0, n)
        assert result.path is SolvePath.QUADRATURE
        assert abs(result.value - clenshaw_curtis) <= 1e-15 * abs(clenshaw_curtis)
        assert abs(result.value - 2 * np.sinh(1.0)) <= 1e-14

    def test_tiny_frequency_is_not_zero(self):
        alpha = 1.019 - 1.0542j
        n = _NODE_WEIGHTS_FROM_N
        result = integrate_on_interval(lambda x: np.exp(alpha * x), 1e-11, -1.0, 1.0, n)
        z = alpha + 1e-11j
        exact = 2.0 * np.sinh(z) / z  # 1.8993 - 0.7070j
        assert result.value != 0
        assert abs(result.value - exact) <= 1e-14 * abs(exact)

    # 16 distinct primes near 5e4, each a Bluestein length, then a 17th for
    # the warm-up call; two frequencies each, one per moment route
    FRESH_DEGREES_SCRIPT = """
import resource, sys
import numpy as np
from oscint import integrate_on_interval

primes = [k for k in range(50000, 50200) if all(k % d for d in range(2, 225))]
f = lambda x: np.exp((0.9 - 0.6j) * x)
integrate_on_interval(f, 3.0 * primes[16], -1.0, 1.0, primes[16])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for n in primes[:16]:
    for omega in (0.5 * n, 3.0 * n):
        integrate_on_interval(f, omega, -1.0, 1.0, n)
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(growth * (1 if sys.platform == "darwin" else 1024))  # bytes
"""

    def test_fresh_degrees_keep_no_fft_plans(self):
        # an FFT plan cached per length would grow the peak by MBs per degree
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(oscint.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", self.FRESH_DEGREES_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert int(out) < 20 * 2**20


def node_weight_value(amplitude, omega, n):
    """The node-weight route's value on [-1, 1], computed on this thread alone:
    ``samples @ _node_weights(_real_moments(omega, n), nodes)``."""
    nodes = gauss_lobatto_nodes(n)
    samples = _sample_amplitude(amplitude, nodes)
    return complex(samples @ _node_weights(_real_moments(omega, n), nodes))


class TestOverlappedRoute:
    """From degree ``_NODE_WEIGHTS_FROM_N`` on, one worker thread computes the
    node weights while the caller's thread samples the amplitude; a job not
    started yet is run inline. Every value equals the serial one bit for bit.
    """

    ALPHA = 0.9 - 0.6j

    def amplitude(self, x):
        return np.exp(self.ALPHA * x)

    def test_job_runs_on_the_worker_and_the_amplitude_on_the_caller(
        self, monkeypatch
    ):
        import oscint.moments as moments_mod

        started = threading.Event()
        threads = {}
        real_moments = moments_mod._real_moments

        def moments_on(omega, n):
            threads["moments"] = threading.current_thread()
            started.set()
            return real_moments(omega, n)

        def amplitude(x):
            threads["amplitude"] = threading.current_thread()
            assert started.wait(60)  # sample only once the job has started
            return self.amplitude(x)

        monkeypatch.setattr(moments_mod, "_real_moments", moments_on)
        value = integrate_on_interval(amplitude, 3000.0, -1.0, 1.0, 2048).value
        assert threads["amplitude"] is threading.main_thread()
        assert threads["moments"] is not threading.main_thread()
        monkeypatch.undo()
        assert bits(value) == bits(node_weight_value(self.amplitude, 3000.0, 2048))

    def test_nested_integral(self):
        inner_values = []

        def outer(x):
            # its job queues behind the outer call's job, or runs inline
            inner = integrate_on_interval(self.amplitude, 5000.0, -1.0, 1.0, 2048)
            inner_values.append(inner.value)
            return np.cos(x) * inner.value

        value = integrate_on_interval(outer, 4000.0, -1.0, 1.0, 3000).value
        inner = node_weight_value(self.amplitude, 5000.0, 2048)
        assert [bits(v) for v in inner_values] == [bits(inner)]
        assert bits(value) == bits(node_weight_value(outer, 4000.0, 3000))

    def test_four_caller_threads(self):
        cases = [
            (lambda x, k=k: np.exp((self.ALPHA + 0.1 * k) * x), 1500.0 * (k + 1), n)
            for k, n in enumerate([1024, 2048, 4099, 16414])
        ]
        start = threading.Barrier(len(cases))

        def call(amplitude, omega, n):
            start.wait(60)
            return [
                integrate_on_interval(amplitude, omega, -1.0, 1.0, n).value
                for _ in range(5)
            ]

        # more callers than cores, switching often, so that jobs queue and
        # are cancelled and run inline as well as run on the worker
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(cases)) as callers:
                values = [callers.submit(call, *case) for case in cases]
                values = [job.result(timeout=120) for job in values]
        finally:
            sys.setswitchinterval(interval)
        for case, got in zip(cases, values):
            assert [bits(v) for v in got] == [bits(node_weight_value(*case))] * 5

    def test_busy_worker_runs_the_job_inline(self, monkeypatch):
        import oscint.moments as moments_mod

        threads = []
        real_moments = moments_mod._real_moments

        def moments_on(omega, n):
            threads.append(threading.current_thread())
            return real_moments(omega, n)

        monkeypatch.setattr(moments_mod, "_real_moments", moments_on)
        release = threading.Event()
        busy = moments_mod._worker.submit(release.wait, 60)
        try:
            value = integrate_on_interval(self.amplitude, 3000.0, -1.0, 1.0, 2048).value
            assert not busy.done()  # returned while the worker was still busy
        finally:
            release.set()
            assert busy.result(timeout=60)
        assert threads == [threading.main_thread()]
        monkeypatch.undo()
        assert bits(value) == bits(node_weight_value(self.amplitude, 3000.0, 2048))

    def test_amplitude_error_waits_for_the_running_job(self, monkeypatch):
        import oscint.moments as moments_mod

        started, finished = threading.Event(), threading.Event()
        real_moments = moments_mod._real_moments

        def slow_moments(omega, n):
            started.set()
            time.sleep(0.05)
            m = real_moments(omega, n)
            finished.set()
            return m

        class AmplitudeFailed(Exception):
            pass

        def failing(x):
            assert started.wait(60)  # the job is running
            raise AmplitudeFailed

        monkeypatch.setattr(moments_mod, "_real_moments", slow_moments)
        with pytest.raises(AmplitudeFailed):
            integrate_on_interval(failing, 3000.0, -1.0, 1.0, 2048)
        # the job finished before the error left the call
        assert finished.is_set()
        monkeypatch.undo()
        value = integrate_on_interval(self.amplitude, 3000.0, -1.0, 1.0, 2048).value
        assert bits(value) == bits(node_weight_value(self.amplitude, 3000.0, 2048))

    def test_amplitude_error_wins_over_a_moment_error(self, monkeypatch):
        import oscint.moments as moments_mod

        def singular(dl, d, du, b, *overwrite):
            return dl, d, du, b, 3

        monkeypatch.setattr(moments_mod, "dgtsv", singular)
        # |omega| <= n: the boundary-value solve, which now fails
        with pytest.raises(SingularMatrixError) as err:
            integrate_on_interval(self.amplitude, 5.0, -1.0, 1.0, 2048)
        assert err.value.index == 4
        with pytest.raises(AmplitudeSamplingError):
            integrate_on_interval(lambda x: np.full_like(x, np.nan), 5.0, -1.0, 1.0, 2048)

    # -W error: any warning but the one silenced around os.fork fails the run
    PROCESS_SCRIPT = """
import atexit, os, threading, warnings
import numpy as np
import oscint
assert threading.active_count() == 1, threading.enumerate()
from oscint import integrate_on_interval
from oscint.chebyshev import _node_weights, gauss_lobatto_nodes
from oscint.moments import _real_moments

f = lambda x: np.exp((0.9 - 0.6j) * x)

def integrates(omega, n):
    nodes = gauss_lobatto_nodes(n)
    serial = complex(f(nodes) @ _node_weights(_real_moments(omega, n), nodes))
    return integrate_on_interval(f, omega, -1.0, 1.0, n).value == serial

assert all(integrates(3000.0 + k, 2048) for k in range(5))
assert threading.active_count() <= 2, threading.enumerate()
print("threads", threading.active_count())
if hasattr(os, "fork"):
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # with a worker thread of its own, not the parent's dead one
            ok = integrates(1.5e5, 50000) and threading.active_count() == 2
            code = 0 if ok else 2
        finally:
            os._exit(code)
    print("child", os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
else:
    print("child", 0)
atexit.register(lambda: print("atexit", integrates(3000.0, 2048)))
"""

    def test_import_fork_and_exit(self):
        src = os.path.dirname(os.path.dirname(oscint.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", self.PROCESS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == ["threads 2", "child 0", "atexit True", ""]


class TestAmplitudeDtype:
    """Real samples stay real and take one ``rfft``; complex ones one ``fft``."""

    @pytest.mark.parametrize(
        "omega,path",
        [(50.0, SolvePath.DIRECT_TRIANGULAR), (5.0, SolvePath.QUADRATURE)],
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
            lambda x: np.ones(1),
        ],
        ids=["float", "int", "int-array", "float32-array", "bool", "one-element"],
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
            (lambda x: 1 / (x + 2), "rfft"),
            (lambda x: 1, "rfft"),
            (lambda x: np.exp((0.5 + 1j) * x), "fft"),
            (lambda x: (1 / (x + 2)).astype(complex), "fft"),
        ],
        ids=["real", "int-scalar", "complex", "complex-dtype"],
    )
    @pytest.mark.parametrize("omega", [5.0, 500.0, 0.0])
    def test_one_transform_per_integral(self, monkeypatch, amplitude, transform, omega):
        calls = count_transforms(monkeypatch)
        integrate_on_interval(amplitude, omega, 0.0, 3.0, 97)
        assert calls == {"rfft": 0, "fft": 0, transform: 1}

    @staticmethod
    def _substituted(amplitude):
        phase = PhaseSpec(g=np.sin, g_prime=np.cos, bracket=(-1.0, 1.0))
        f, (lo, hi), omega = substitute(amplitude, phase, 10.0)
        return integrate_on_interval(f, omega, lo, hi, 97)

    def test_substituted_real_amplitude_takes_one_dct(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        self._substituted(lambda x: 1 / (x**2 + 1))
        assert calls == {"rfft": 1, "fft": 0}

    def test_substituted_real_and_complex_dtype_agree(self):
        real = self._substituted(lambda x: 1 / (x**2 + 1))
        as_complex = self._substituted(lambda x: (1 / (x**2 + 1)).astype(complex))
        assert abs(real.value - as_complex.value) <= 1e-14 * abs(as_complex.value)


class TestWrongShapedAmplitude:
    """A return that does not broadcast to the nodes' shape raises
    InvalidInputError naming both shapes, and one that is not numbers names
    its dtype or calls it ragged, wherever the amplitude is sampled; the
    amplitude's own ValueError propagates as it is."""

    ENTRIES = pytest.mark.parametrize(
        "entry",
        [
            lambda f: integrate_on_interval(f, 5.0, 0.0, 2.0, 16),
            lambda f: integrate_on_interval(f, 5.0, 0.0, 2.0, 2048),
            lambda f: integrate_standard(IntegralProblem(f, 5.0, 16)),
            lambda f: oscillatory_reference_quadrature(f, 5.0, 0.0, 2.0),
        ],
        ids=["kernel-16", "kernel-2048", "standard", "reference"],
    )

    @pytest.mark.parametrize(
        "amplitude,message",
        [
            (lambda x: x[:, None], r"\((\d+), 1\), expected \(\1,\)"),
            (lambda x: np.ones(3), r"\(3,\), expected \(\d+,\)"),
        ],
        ids=["column", "three"],
    )
    @ENTRIES
    def test_raises_naming_both_shapes(self, entry, amplitude, message):
        with pytest.raises(InvalidInputError, match=f"^amplitude returned shape {message}$"):
            entry(amplitude)

    @pytest.mark.parametrize(
        "amplitude,dtype",
        [
            # a scalar broadcasts: the cast is what fails
            (lambda x: "a", "<U1"),
            (lambda x: np.full(x.shape, "a"), "<U1"),
            (lambda x: np.array([object()] * len(x)), "object"),
        ],
        ids=["string", "strings", "objects"],
    )
    @ENTRIES
    def test_non_numbers_raise_naming_the_dtype(self, entry, amplitude, dtype):
        with pytest.raises(InvalidInputError) as err:
            entry(amplitude)
        assert str(err.value) == f"amplitude returned {dtype} values, not numbers"
        assert err.value.__cause__ is None and err.value.__suppress_context__

    @pytest.mark.parametrize(
        "amplitude",
        [lambda x: [1, [2, 3]], lambda x: np.array([1, [2, 3]], dtype=object)],
        ids=["list", "objects"],
    )
    @ENTRIES
    def test_ragged_returns_raise(self, entry, amplitude):
        with pytest.raises(InvalidInputError) as err:
            entry(amplitude)
        assert str(err.value) == "amplitude returned a ragged sequence, not numbers"
        assert err.value.__cause__ is None and err.value.__suppress_context__

    @ENTRIES
    def test_the_amplitudes_own_value_error_propagates(self, entry):
        def amplitude(x):
            raise ValueError("the amplitude's own")

        with pytest.raises(ValueError, match="^the amplitude's own$") as err:
            entry(amplitude)
        assert type(err.value) is ValueError


class TestCastSamples:
    """The one sampling contract, called directly."""

    X = np.linspace(-1.0, 1.0, 5)

    def test_matching_float64_and_complex128_returns_are_not_copied(self):
        for dtype in (float, complex):
            v = self.X.astype(dtype)
            assert _cast_samples(lambda x: v, self.X) is v

    @pytest.mark.parametrize(
        "returned", [2.0, np.float32(2.0), np.ones(1), np.full(5, 2.0)[:1]],
        ids=["float", "float32", "one-element", "view"],
    )
    def test_broadcast_returns_are_fresh_arrays(self, returned):
        samples = _cast_samples(lambda x: returned, self.X)
        assert samples.dtype == np.float64 and samples.shape == self.X.shape
        assert samples.flags.writeable and samples.flags.owndata
        assert not np.shares_memory(samples, returned)

    def test_object_arrays_of_numbers_are_cast(self):
        real = _cast_samples(lambda x: np.array(list(x), dtype=object), self.X)
        assert real.dtype == np.float64 and real.tobytes() == self.X.tobytes()
        mixed = _cast_samples(lambda x: np.array([1, 2.5, 1j, 0, -1], dtype=object), self.X)
        assert mixed.tolist() == [1, 2.5, 1j, 0, -1]

    def test_an_object_amplitude_gives_the_bits_of_its_float64_twin(self):
        boxed = integrate_on_interval(
            lambda x: np.array(list(np.cos(x)), dtype=object), 3.0, -1.0, 1.0, 33
        )
        plain = integrate_on_interval(np.cos, 3.0, -1.0, 1.0, 33)
        assert bits(boxed.value) == bits(plain.value)


def exp_integral(alpha, omega, a, b):
    """Closed form of int_a^b exp(alpha*x) exp(i*omega*x) dx."""
    z = alpha + 1j * omega
    return (np.exp(z * b) - np.exp(z * a)) / z


class TestTransformMemo:
    ALPHA = 0.7 - 0.4j

    def test_frequency_sweep_transforms_once(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        # moment and direct routes at one amplitude, interval and n
        omegas = [0.0, 0.5, 3.0, 20.0, 39.0, 41.0, 300.0, 5e3]
        paths = set()
        for omega in omegas:
            result = integrate_on_interval(
                lambda x: np.exp(self.ALPHA * x), omega, 0.0, 3.0, 40
            )
            exact = exp_integral(self.ALPHA, omega, 0.0, 3.0)
            assert abs(result.value - exact) <= 1e-13
            paths.add(result.path)
        assert paths == {SolvePath.DIRECT_TRIANGULAR, SolvePath.QUADRATURE}
        assert calls == {"rfft": 0, "fft": 1}

    def test_finiteness_is_checked_on_a_miss_only(self, monkeypatch):
        import oscint.moments as moments_mod

        calls = count_transforms(monkeypatch)
        check = moments_mod._check_finite
        checked = []

        def counted(samples, nodes):
            checked.append(len(samples))
            return check(samples, nodes)

        monkeypatch.setattr(moments_mod, "_check_finite", counted)
        f = lambda x: np.exp(self.ALPHA * x)
        for omega in [0.0, 0.5, 3.0, 20.0, 39.0, 41.0, 300.0, 5e3]:
            integrate_on_interval(f, omega, 0.0, 3.0, 40)
        # the first call misses; the seven others hit and are not scanned
        assert checked == [41]
        g = lambda x: np.exp(-self.ALPHA * x)
        for amplitude in (g, g, f, f):
            integrate_on_interval(amplitude, 7.0, 0.0, 3.0, 40)
        assert checked == [41, 41, 41]
        # NaN samples right after a hit are a miss: checked, they raise at
        # their node and replace nothing
        broken = lambda x: np.where(x == x[17], np.nan, f(x))
        with pytest.raises(AmplitudeSamplingError) as err:
            integrate_on_interval(broken, 7.0, 0.0, 3.0, 40)
        assert err.value.node == 1.5 * gauss_lobatto_nodes(40)[17] + 1.5
        assert checked == [41, 41, 41, 41]
        integrate_on_interval(f, 9.0, 0.0, 3.0, 40)
        assert checked == [41, 41, 41, 41]
        assert calls == {"rfft": 0, "fft": 3}
        # the node-weight route keeps no memo and checks on every call
        for omega in (0.5, 0.5, 5e3):
            integrate_on_interval(f, omega, 0.0, 3.0, _NODE_WEIGHTS_FROM_N)
        assert checked[4:] == [_NODE_WEIGHTS_FROM_N + 1] * 3

    def test_changed_closure_state_gets_a_fresh_transform(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        state = {"alpha": 1.0}

        def amp(x):
            return np.exp(state["alpha"] * x)

        for alpha in (1.0, 1.0, self.ALPHA, self.ALPHA):
            state["alpha"] = alpha
            result = integrate_on_interval(amp, 7.0, -1.0, 1.0, 40)
            z = alpha + 7j
            assert abs(result.value - 2 * np.sinh(z) / z) <= 1e-14
        assert calls == {"rfft": 1, "fft": 1}

    @staticmethod
    def _integrate_samples(samples, omega=3.0):
        """integrate_on_interval of an amplitude whose samples are ``samples``."""
        n = len(samples) - 1
        return integrate_on_interval(lambda x: samples, omega, -1.0, 1.0, n)

    def test_keys_are_exact_bytes_and_dtype(self, monkeypatch):
        f = np.array([1.0, 0.0, 2.0, 0.5, 3.0, 4.0])
        negative_zero = f.copy()
        negative_zero[1] = -0.0
        sequence = [
            f,
            f.copy(),
            negative_zero,
            f.astype(complex),
            f.astype(complex),
            f.view(complex),  # the same bytes as f, read as 3 complex samples
            f,
        ]
        calls = count_transforms(monkeypatch)
        got = [self._integrate_samples(samples).value for samples in sequence]
        assert calls == {"rfft": 3, "fft": 2}
        # every result, hit or miss, is bit-identical to a transform from scratch
        for samples, value in zip(sequence, got):
            monkeypatch.setattr("oscint.moments._last_transform", None)
            fresh = self._integrate_samples(samples).value
            assert bits(value) == bits(fresh)
        # the coefficient stage returns c * i^k bit for bit on the same misses
        # and hits; a hit returns the stored, read-only array itself
        monkeypatch.setattr("oscint.moments._last_transform", None)
        stored = []
        for samples in sequence:
            n = len(samples) - 1
            c = _coefficients(lambda x: samples, gauss_lobatto_nodes(n), n)
            expected = forward_coefficients(samples) * i_pow(n)
            assert c.dtype == complex and c.tobytes() == expected.tobytes()
            assert not c.flags.writeable
            stored.append(c)
        hits = [c is previous for previous, c in zip(stored, stored[1:])]
        assert hits == [True, False, False, True, False, False]
        with pytest.raises(ValueError, match="read-only"):
            stored[-1][0] = 0.0

    def test_samples_mutated_after_the_call_are_a_miss(self, monkeypatch):
        f = np.linspace(-1.0, 2.0, 7)
        calls = count_transforms(monkeypatch)
        before = self._integrate_samples(f).value
        f[3] += 1.0
        after = self._integrate_samples(f).value
        assert calls == {"rfft": 2, "fft": 0}
        assert after != before
        expected = (forward_coefficients(f) * i_pow(6)) @ _real_moments(3.0, 6)
        assert bits(after) == bits(expected)

    def test_written_coefficients_leave_the_memo_alone(self, monkeypatch):
        f = np.exp(self.ALPHA * gauss_lobatto_nodes(40))
        calls = count_transforms(monkeypatch)
        first = self._integrate_samples(f, 7.0).value
        c = forward_coefficients(f)
        c[:] = np.nan
        assert bits(self._integrate_samples(f, 7.0).value) == bits(first)
        assert calls == {"rfft": 0, "fft": 2}  # the integral's transform and c's

    def test_reference_solver_transforms_on_every_call(self, monkeypatch):
        f = lambda x: np.exp(self.ALPHA * x)
        calls = count_transforms(monkeypatch)
        swept = integrate_on_interval(f, 7.0, -1.0, 1.0, 40).value
        problem = IntegralProblem(f, 7.0, 40)
        values = {bits(integrate_standard(problem).value) for _ in range(3)}
        assert len(values) == 1
        assert calls == {"rfft": 0, "fft": 4}
        # the reference solver's transforms leave the kernel's memo in place
        assert bits(integrate_on_interval(f, 7.0, -1.0, 1.0, 40).value) == bits(swept)
        assert calls == {"rfft": 0, "fft": 4}

    def test_nested_integral_in_the_amplitude(self, monkeypatch):
        calls = count_transforms(monkeypatch)

        def inner(x):
            # at each node s, a two-frequency sweep of int_{-1}^{1} exp(s*t)
            # exp(i*w*t) dt; the outer transform follows the inner ones
            return np.array(
                [
                    sum(
                        integrate_on_interval(
                            lambda t, s=s: np.exp(s * t), w, -1.0, 1.0, 30
                        ).value
                        for w in (3.0, 4.0)
                    )
                    for s in x
                ]
            )

        def closed_form(x):
            return sum(2 * np.sinh(x + 1j * w) / (x + 1j * w) for w in (3.0, 4.0))

        omegas = (0.0, 5.0, 5.0, 80.0)
        for omega in omegas:
            nested = integrate_on_interval(inner, omega, 0.0, 1.0, 24)
            exact = integrate_on_interval(closed_form, omega, 0.0, 1.0, 24)
            assert nested.path is exact.path
            assert abs(nested.value - exact.value) <= 1e-13 * abs(exact.value)
        # per outer integral: one real inner transform per node (the second
        # frequency hits), then the outer one and the closed form's
        assert calls == {"rfft": len(omegas) * 25, "fft": len(omegas) * 2}
        # the inner integrals replace the memo while the outer samples are
        # taken; the outer coefficients are still those of its own samples
        import oscint.moments as moments_mod

        x = gauss_lobatto_nodes(24)
        expected = forward_coefficients(inner(x)) * i_pow(24)
        c = _coefficients(inner, x, 24)
        assert c.tobytes() == expected.tobytes()
        assert c is moments_mod._last_transform[1]


def test_problem_validation():
    with pytest.raises(ZeroFrequencyError):
        IntegralProblem(lambda x: x, 0.0, 8)
    with pytest.raises(ValueError):
        IntegralProblem(lambda x: x, 5.0, 1)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_non_finite_omega_rejected(omega):
    with pytest.raises(ValueError, match="omega must be finite") as err:
        IntegralProblem(lambda x: x, omega, 8)
    assert type(err.value) is InvalidInputError


@pytest.mark.parametrize(
    "omega,path",
    [(100.0, SolvePath.DIRECT_TRIANGULAR), (10.0, SolvePath.NORMAL_EQUATIONS)],
)
def test_float32_omega_is_computed_in_double(omega, path):
    # numpy >= 2 would form exp(1j*w) of a float32 w in complex64 (NEP 50)
    f = lambda x: 1 / (x + 2)
    narrow = IntegralProblem(f, np.float32(omega), 64)
    assert type(narrow.omega) is float
    got = integrate_standard(narrow)
    expected = integrate_standard(IntegralProblem(f, omega, 64))
    assert got.path is expected.path is path
    assert bits(got.value) == bits(expected.value)


def test_non_integer_degree_rejected():
    with pytest.raises(ValueError, match="degree must be an integer"):
        IntegralProblem(lambda x: x, 5.0, 30.0)
    with pytest.raises(ValueError, match="degree must be an integer"):
        integrate_on_interval(lambda x: x, 5.0, -1.0, 1.0, 30.0)
    with pytest.raises(ValueError, match="degree must be an integer"):
        integrate_on_interval(lambda x: x, 0.0, 0.0, 1.0, 30.0)  # quadrature
    result = integrate_standard(IntegralProblem(np.exp, 5.0, np.int64(30)))
    assert result.n_used == 30
