import numpy as np
import pytest

from oscint import (
    AccuracyNotReachedError,
    IntegralProblem,
    dense_collocation_solve,
    builtin_examples,
    get_example,
    oscillatory_reference_quadrature,
)


class TestDenseCollocationSolve:
    def test_constant_antiderivative(self):
        c = dense_collocation_solve(
            IntegralProblem(lambda x: 5j * np.ones_like(x), 5.0, 6)
        ).c
        np.testing.assert_allclose(c, [1, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            dense_collocation_solve(IntegralProblem(lambda x: x, 5.0, 257))

    def test_solution_satisfies_ode_at_nodes(self):
        # p' + i*omega*p must interpolate f at the collocation nodes
        import numpy.polynomial.chebyshev as npcheb

        omega, n = 7.0, 24
        f = lambda x: np.exp(x) / (x + 3)
        c = dense_collocation_solve(IntegralProblem(f, omega, n)).c
        x = np.cos(np.pi * np.arange(n + 1) / n)
        lhs = npcheb.chebval(x, npcheb.chebder(c)) + 1j * omega * npcheb.chebval(x, c)
        np.testing.assert_allclose(lhs, f(x), atol=1e-11)


class TestReferenceQuadrature:
    @pytest.mark.parametrize("omega", [0.5, 3.0, 40.0])
    def test_constant_amplitude_closed_form(self, omega):
        got = oscillatory_reference_quadrature(
            lambda x: np.ones_like(x), omega, -1.0, 1.0
        )
        assert abs(got - 2 * np.sin(omega) / omega) < 1e-13

    def test_zero_frequency_is_plain_quadrature(self):
        got = oscillatory_reference_quadrature(lambda x: x**2, 0.0, 0.0, 1.0)
        assert abs(got - 1.0 / 3.0) < 1e-13

    def test_general_interval_closed_form(self):
        # int_0^pi e^{ix} dx = 2i
        got = oscillatory_reference_quadrature(
            lambda x: np.ones_like(x), 1.0, 0.0, np.pi
        )
        assert abs(got - 2j) < 1e-13

    def test_matches_exponential_closed_form(self):
        alpha, omega = 4.0, 25.0
        z = alpha + 1j * omega
        expected = 2 * np.exp(-alpha) * np.sinh(z) / z
        got = oscillatory_reference_quadrature(
            lambda x: np.exp(alpha * (x - 1)), omega, -1.0, 1.0
        )
        assert abs(got - expected) < 1e-13

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            oscillatory_reference_quadrature(lambda x: x, 1.0, 1.0, -1.0)

    @pytest.mark.parametrize(
        "a,b,omega,name",
        [
            (-1.0, np.inf, 1.0, "b"),
            (-np.inf, 1.0, 1.0, "a"),
            (np.nan, 1.0, 1.0, "a"),
            (-1.0, 1.0, np.nan, "omega"),
            (-1.0, 1.0, -np.inf, "omega"),
        ],
    )
    def test_non_finite_argument_rejected(self, a, b, omega, name):
        sampled = []

        def f(x):
            sampled.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError, match=f"^{name} must be finite") as err:
            oscillatory_reference_quadrature(f, omega, a, b)
        assert type(err.value) is ValueError
        assert not sampled

    def test_unattainable_tolerance_rejected(self):
        with pytest.raises(ValueError):
            oscillatory_reference_quadrature(lambda x: x, 1.0, -1.0, 1.0, tol=1e-16)

    def test_budget_exhaustion_carries_estimate(self, monkeypatch):
        # an endpoint singularity defeats panel doubling at this tolerance
        import oscint.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_PANELS", 256)
        with pytest.raises(AccuracyNotReachedError) as err:
            oscillatory_reference_quadrature(
                lambda x: np.abs(1 - x) ** (-0.9), 1.0, -1.0, 1.0 - 1e-15
            )
        assert np.isfinite(err.value.error_estimate)


class TestExampleCatalog:
    def test_catalog_keys(self):
        assert sorted(builtin_examples()) == [1, 2, 3, 4, 5, 6, 7]

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_example(8)

    def test_tabulated_values_match_quadrature(self):
        for key, omega in ((1, 10.0), (2, 10.0), (7, 20.0)):
            spec = get_example(key)
            exact = spec.exact_value(omega)
            assert exact is not None
            quad = oscillatory_reference_quadrature(
                spec.amplitude(), omega, *spec.interval, tol=1e-13
            )
            assert abs(exact - quad) < 5e-13

    def test_exponential_closed_form_entry(self):
        spec = get_example(3)
        z = 16.0 + 20.0j
        expected = 2 * np.exp(-16.0) * np.sinh(z) / z
        assert abs(spec.exact_value(20.0) - expected) < 1e-16
        assert spec.exact_value(20.0, alpha=16.0) == spec.exact_value(20.0)

    def test_alpha_default_and_override(self):
        spec = get_example(6)
        f_default = spec.amplitude()
        f_override = spec.amplitude(0.5)
        assert f_default(0.0) == pytest.approx(16.0)
        assert f_override(0.0) == pytest.approx(4.0)

    def test_untabulated_frequencies_return_none(self):
        assert get_example(1).exact_value(2.0) is None
        assert get_example(4).exact_value(20.0) is None

    def test_example_amplitudes_finite_on_interval(self):
        for spec in builtin_examples().values():
            a, b = spec.interval
            x = np.linspace(a + 1e-9, b - 1e-9, 33)
            vals = np.asarray(spec.amplitude()(x), dtype=complex)
            assert np.all(np.isfinite(vals)), spec.key
