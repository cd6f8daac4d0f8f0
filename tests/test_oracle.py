import numpy as np
import pytest

from oscint import (
    AccuracyNotReachedError,
    AmplitudeSamplingError,
    IntegralProblem,
    OscintError,
    builtin_examples,
    get_example,
    oscillatory_reference_quadrature,
)
from oscint.errors import InvalidInputError
from oscint.oracle import dense_collocation_solve


class TestDenseCollocationSolve:
    def test_constant_antiderivative(self):
        c = dense_collocation_solve(
            IntegralProblem(lambda x: 5j * np.ones_like(x), 5.0, 6)
        )
        np.testing.assert_allclose(c, [1, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            dense_collocation_solve(IntegralProblem(lambda x: x, 5.0, 257))

    def test_solution_satisfies_ode_at_nodes(self):
        # p' + i*omega*p must interpolate f at the collocation nodes
        import numpy.polynomial.chebyshev as npcheb

        omega, n = 7.0, 24
        f = lambda x: np.exp(x) / (x + 3)
        c = dense_collocation_solve(IntegralProblem(f, omega, n))
        x = np.cos(np.pi * np.arange(n + 1) / n)
        lhs = npcheb.chebval(x, npcheb.chebder(c)) + 1j * omega * npcheb.chebval(x, c)
        np.testing.assert_allclose(lhs, f(x), atol=1e-11)

    def test_non_finite_amplitude_reports_node(self):
        # the solver's sampling contract: the first non-finite sample names its node
        amp = lambda x: np.where(np.abs(x) < 0.1, np.nan, 1.0)
        with pytest.raises(AmplitudeSamplingError) as err:
            dense_collocation_solve(IntegralProblem(amp, 5.0, 4))
        assert err.value.node == 0.0

    def test_scalar_amplitude_broadcasts(self):
        c = dense_collocation_solve(IntegralProblem(lambda x: 5j, 5.0, 6))
        np.testing.assert_allclose(c, [1, 0, 0, 0, 0, 0, 0], atol=1e-12)


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

    def test_float32_ends_are_computed_in_double(self):
        # float32 panel edges never converged: the panels doubled to the budget
        f = lambda x: np.ones_like(x)
        a, b = np.float32(0.1), np.float32(0.9)
        got = oscillatory_reference_quadrature(f, 3.0, a, b)
        expected = oscillatory_reference_quadrature(f, 3.0, float(a), float(b))
        assert np.complex128(got).tobytes() == np.complex128(expected).tobytes()

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize("omega", [5.0, 0.0])
    def test_overflowing_width_is_an_invalid_interval(self, omega, scalar):
        # b - a = inf: the panel count would be int(inf), or int(nan) at omega = 0
        sampled = []

        def f(x):
            sampled.append(x)
            return np.ones_like(x)

        message = "^invalid interval: b - a overflows"
        with pytest.raises(ValueError, match=message) as err:
            oscillatory_reference_quadrature(f, omega, scalar(-1e308), scalar(1e308))
        assert type(err.value) is InvalidInputError
        assert not sampled

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

        message = "invalid interval: endpoints" if name in "ab" else name
        with pytest.raises(ValueError, match=f"^{message} must be finite") as err:
            oscillatory_reference_quadrature(f, omega, a, b)
        assert type(err.value) is InvalidInputError
        assert not sampled

    def test_unattainable_tolerance_rejected(self):
        # all before any sampling: a NaN tol fails every comparison, so it
        # would double the panels up to the cap
        sampled = []

        def amplitude(x):
            sampled.append(x)
            return x

        with pytest.raises(ValueError, match="tolerance below"):
            oscillatory_reference_quadrature(amplitude, 1.0, -1.0, 1.0, tol=1e-16)
        for tol in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                oscillatory_reference_quadrature(amplitude, 1.0, -1.0, 1.0, tol=tol)
        assert not sampled

    def test_first_pass_over_budget_rejected_before_sampling(self):
        # 1.27e9 panels resolve omega = 1e6 on [0, 1e3]: no estimate exists
        sampled = []

        def amplitude(x):
            sampled.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError, match=r"needs 1\.27e\+09 panels") as err:
            oscillatory_reference_quadrature(amplitude, 1e6, 0.0, 1e3)
        assert type(err.value) is InvalidInputError
        assert "budget of 1048576" in str(err.value)
        assert not sampled

    def test_no_room_for_a_second_pass_rejected_before_sampling(self, monkeypatch):
        # 4|omega|(b - a)/pi = 254.6: 255 panels fit the budget, their
        # refinement to 510 does not, so no two passes can be compared
        import oscint.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_PANELS", 256)
        sampled = []

        def amplitude(x):
            sampled.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError, match="needs 255 panels") as err:
            oscillatory_reference_quadrature(amplitude, 100.0, -1.0, 1.0)
        assert type(err.value) is InvalidInputError
        assert "budget of 256" in str(err.value)
        assert not sampled
        # 127.3 rounds up to 128 panels, whose refinement fills the budget
        value = oscillatory_reference_quadrature(amplitude, 50.0, -1.0, 1.0)
        assert abs(value - 2 * np.sin(50.0) / 50.0) < 1e-13
        assert [len(x) for x in sampled] == [128 * 33, 256 * 33]

    def test_budget_exhaustion_carries_estimate(self, monkeypatch):
        # an endpoint singularity defeats panel doubling at this tolerance
        import oscint.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_PANELS", 256)
        with pytest.raises(AccuracyNotReachedError) as err:
            oscillatory_reference_quadrature(
                lambda x: np.abs(1 - x) ** (-0.9), 1.0, -1.0, 1.0 - 1e-15
            )
        assert np.isfinite(err.value.error_estimate)

    def test_non_finite_amplitude_raises_on_first_pass(self, monkeypatch):
        # without the check, NaN samples never converge and the panels double
        # up to the budget; the cap keeps such a regression small and fast
        import oscint.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_PANELS", 2**10)
        calls = []
        panel_sum = oracle_mod._panel_sum

        def counted(*args):
            calls.append(args)
            return panel_sum(*args)

        monkeypatch.setattr(oracle_mod, "_panel_sum", counted)
        with pytest.raises(AmplitudeSamplingError) as err:
            oscillatory_reference_quadrature(
                lambda x: np.where(x > 0.5, np.nan, 1.0), 10.0, -1.0, 1.0
            )
        assert len(calls) == 1
        assert 0.5 < err.value.node <= 1.0

    def test_scalar_amplitude_broadcasts(self):
        got = oscillatory_reference_quadrature(lambda x: 1.0, 3.0, -1.0, 1.0)
        assert abs(got - 2 * np.sin(3.0) / 3.0) < 1e-13

    def test_panel_sum_samples_in_blocks(self, monkeypatch):
        # 2^15 panels of 33 nodes: summed at once, the work arrays peaked at
        # 61 MB; a block of 2^14 panels peaks near 31 MB
        import tracemalloc

        import oscint.oracle as oracle_mod
        from oscint.oracle import _PANEL_BLOCK, _panel_sum

        f = lambda x: np.exp((0.3 + 0.2j) * x) / (x + 3)
        sizes = []

        def amplitude(x):
            sizes.append(len(x))
            return f(x)

        _panel_sum(f, 37.0, -1.0, 2.5, 8)  # the panel rule's set-up
        tracemalloc.start()
        try:
            value = _panel_sum(amplitude, 37.0, -1.0, 2.5, 2 * _PANEL_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
        assert sizes == [_PANEL_BLOCK * 33] * 2
        # every panel is summed as in one block; only the sampling is split
        monkeypatch.setattr(oracle_mod, "_PANEL_BLOCK", 2 * _PANEL_BLOCK)
        assert _panel_sum(f, 37.0, -1.0, 2.5, 2 * _PANEL_BLOCK) == value

    @pytest.mark.parametrize("omega", [0.0, 2.5, 40.0])
    def test_real_samples_match_their_complex_cast(self, omega):
        # real samples stay float64; times exp(i*omega*x) they round exactly
        # as their complex128 cast does
        from oscint.oracle import _panel_sum

        f = lambda x: np.exp(x) / (x + 3)
        real = _panel_sum(f, omega, -0.5, 2.0, 16)
        cast = _panel_sum(lambda x: f(x).astype(complex), omega, -0.5, 2.0, 16)
        assert real == cast


class TestExampleCatalog:
    def test_catalog_keys(self):
        assert sorted(builtin_examples()) == [1, 2, 3, 4, 5, 6, 7]

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_example(8)

    def test_unknown_key_is_an_oscint_error(self):
        with pytest.raises(OscintError) as err:
            get_example(9)
        assert isinstance(err.value, InvalidInputError)
        # the message as it was, not quoted as a KeyError's would be
        assert str(err.value) == "unknown example id 9; available: 1..7"

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

    @pytest.mark.parametrize("alpha", [0.0, -0.0])
    def test_exponential_closed_form_at_zero(self, alpha):
        # z = alpha + i*omega = 0: the integral of exp(0) over [-1, 1]
        spec = get_example(3)
        assert spec.exact_value(0.0, alpha) == 2
        quad = oscillatory_reference_quadrature(spec.amplitude(alpha), 0.0, -1.0, 1.0)
        assert abs(quad - 2) < 1e-14

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
