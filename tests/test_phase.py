import numpy as np
import pytest

from oscint import (
    InversionError,
    NonMonotonePhaseError,
    PhaseSpec,
    integrate_on_interval,
    numeric_inverse,
    substitute,
)


def cubic_phase(bracket=(0.5, 2.0)):
    return PhaseSpec(
        g=lambda x: x**3,
        g_prime=lambda x: 3 * x**2,
        bracket=bracket,
        inverse=lambda y: np.cbrt(y),
    )


def sin_shift_phase():
    # g(x) = sin(x + 1/4), increasing on [-1, 1]
    return PhaseSpec(
        g=lambda x: np.sin(x + 0.25),
        g_prime=lambda x: np.cos(x + 0.25),
        bracket=(-1.0, 1.0),
    )


class TestMonotonicityCheck:
    def test_increasing_accepted(self):
        f, (lo, hi), omega = substitute(lambda x: x, sin_shift_phase(), 5.0)
        assert omega == 5.0
        assert lo == pytest.approx(-np.sin(0.75))
        assert hi == pytest.approx(np.sin(1.25))

    def test_decreasing_accepted_with_swapped_limits(self):
        phase = PhaseSpec(
            g=lambda x: -x, g_prime=lambda x: -1.0, bracket=(-1.0, 1.0)
        )
        _, (lo, hi), _ = substitute(lambda x: x, phase, 3.0)
        assert (lo, hi) == (-1.0, 1.0)

    def test_sign_change_rejected(self):
        phase = PhaseSpec(
            g=lambda x: x**2, g_prime=lambda x: 2 * x, bracket=(-1.0, 1.0)
        )
        with pytest.raises(NonMonotonePhaseError):
            substitute(lambda x: x, phase, 5.0)

    def test_wrong_sign_at_preimage_node_rejected(self):
        # g' < 0 only in a window around one Gauss-Lobatto node (n = 90)
        # that lies between two of the 64 probes, so only the check at
        # the preimages sees it
        n = 90
        node = np.cos(np.pi * 5 / n)
        probes = np.cos(np.pi * np.arange(64) / 63)
        assert np.min(np.abs(probes - node)) > 1e-3

        def g_prime(x):
            return np.where(np.abs(x - node) < 1e-6, -1.0, 1.0)

        phase = PhaseSpec(g=lambda x: x, g_prime=g_prime, bracket=(-1.0, 1.0))
        f, (lo, hi), w = substitute(lambda x: np.ones_like(x), phase, 5.0)
        with pytest.raises(NonMonotonePhaseError, match="at x = "):
            integrate_on_interval(f, w, lo, hi, n)

    def test_zero_derivative_at_probed_point_rejected(self):
        # g' vanishes at the endpoint x = 1, which the probe grid hits
        phase = PhaseSpec(
            g=lambda x: (x - 1.0) ** 2,
            g_prime=lambda x: 2 * (x - 1.0),
            bracket=(-1.0, 1.0),
        )
        with pytest.raises(NonMonotonePhaseError):
            substitute(lambda x: x, phase, 5.0)


def exp_decreasing_phase():
    return PhaseSpec(
        g=lambda x: np.exp(-x), g_prime=lambda x: -np.exp(-x), bracket=(0.0, 2.0)
    )


def _targets(phase, count=41):
    a, b = phase.bracket
    ga, gb = phase.g(np.array([a, b]))
    return np.linspace(min(ga, gb), max(ga, gb), count)


class TestNumericInverse:
    @pytest.mark.parametrize("y", [0.2, 0.9, -0.1, np.sin(1.25)])
    def test_sin_phase(self, y):
        x = numeric_inverse(sin_shift_phase(), y)
        assert abs(np.sin(x + 0.25) - y) <= 1e-14 * (1 + abs(y))

    def test_matches_analytic_inverse(self):
        phase = PhaseSpec(
            g=lambda x: x**3, g_prime=lambda x: 3 * x**2, bracket=(0.5, 2.0)
        )
        for y in (0.2, 1.0, 7.99):
            assert numeric_inverse(phase, y) == pytest.approx(y ** (1 / 3), abs=1e-13)

    def test_decreasing_phase(self):
        phase = PhaseSpec(
            g=lambda x: np.exp(-x), g_prime=lambda x: -np.exp(-x), bracket=(0.0, 2.0)
        )
        x = numeric_inverse(phase, 0.5)
        assert x == pytest.approx(np.log(2.0), abs=1e-13)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            numeric_inverse(sin_shift_phase(), 2.0)

    @pytest.mark.parametrize(
        "phase",
        [sin_shift_phase(), cubic_phase(), exp_decreasing_phase()],
        ids=["sin", "cube", "exp-decreasing"],
    )
    def test_array_matches_scalar(self, phase):
        ys = _targets(phase)
        xs = numeric_inverse(phase, ys)
        assert xs.shape == ys.shape
        np.testing.assert_array_equal(xs, [numeric_inverse(phase, y) for y in ys])
        assert np.all(np.abs(phase.g(xs) - ys) <= 1e-14 * (1 + np.abs(ys)))

    def test_array_shape_is_kept_and_scalar_gives_float(self):
        phase = sin_shift_phase()
        ys = _targets(phase, 6).reshape(2, 3)
        assert numeric_inverse(phase, ys).shape == (2, 3)
        assert type(numeric_inverse(phase, 0.2)) is float

    @pytest.mark.parametrize(
        "phase, targets, ends",
        [
            (cubic_phase(), [8.0, 0.125], [2.0, 0.5]),
            (exp_decreasing_phase(), [1.0, np.exp(-2.0)], [0.0, 2.0]),
        ],
        ids=["cube", "exp-decreasing"],
    )
    def test_targets_at_range_ends_give_bracket_ends(self, phase, targets, ends):
        # exact ends, not points ulps inside: Newton steps toward a root at
        # a bracket end overshoot it, and bisection only approaches it
        np.testing.assert_array_equal(numeric_inverse(phase, np.array(targets)), ends)

    def test_end_nodes_of_a_large_range_are_inverted(self):
        # mid +- half of [g(a), g(b)] lands 2.5e-10 below g(a) here, far
        # more than an absolute slack of 1e-12 allows
        a, b = 20.492930030626656, 166.85363974187578
        phase = PhaseSpec(g=lambda x: x**3, g_prime=lambda x: 3 * x**2, bracket=(a, b))
        lo, hi = phase.g(a), phase.g(b)
        ys = (hi - lo) / 2 * np.array([1.0, -1.0]) + (hi + lo) / 2
        assert ys[1] < lo - 1e-12
        np.testing.assert_array_equal(numeric_inverse(phase, ys), [b, a])

    def test_one_out_of_range_element_rejected(self):
        ys = _targets(sin_shift_phase(), 5)
        ys[3] = 2.0
        with pytest.raises(ValueError, match="outside the phase range"):
            numeric_inverse(sin_shift_phase(), ys)

    def test_jump_in_phase_does_not_converge(self):
        # monotone, but no x has g(x) = 0.25: the iteration closes in on 0
        phase = PhaseSpec(
            g=lambda x: x + 0.5 * (x > 0), g_prime=lambda x: 1.0, bracket=(-1.0, 1.0)
        )
        with pytest.raises(InversionError):
            numeric_inverse(phase, 0.25)
        with pytest.raises(InversionError):
            numeric_inverse(phase, np.array([-0.5, 0.25, 1.0]))


class TestSubstitute:
    def test_transformed_amplitude_values(self):
        # f/g' evaluated back at x = g^{-1}(y)
        f, _, _ = substitute(lambda x: x**2, cubic_phase(), 4.0)
        y = 1.728  # x = 1.2
        assert f(y) == pytest.approx((1.2**2) / (3 * 1.2**2), abs=1e-12)

    def test_scalar_and_array_evaluation_agree(self):
        f, (lo, hi), _ = substitute(lambda x: np.exp(x), sin_shift_phase(), 4.0)
        ys = np.linspace(lo + 1e-3, hi - 1e-3, 5)
        np.testing.assert_allclose(f(ys), [f(float(y)) for y in ys], atol=1e-13)

    def test_integral_invariance_increasing(self):
        # int f e^{i w g} dx equals the transformed linear-phase integral
        phase = cubic_phase()
        amp = lambda x: 1.0 / (x + 2)
        omega = 9.0
        f, (lo, hi), w = substitute(amp, phase, omega)
        # transformed amplitude has a branch point at y = 0 just outside
        # [1/8, 8], so convergence is slower than for entire amplitudes
        via_levin = integrate_on_interval(f, w, lo, hi, 150).value
        assert abs(via_levin - _brute(amp, phase, omega)) < 1e-11

    def test_integral_invariance_decreasing(self):
        phase = PhaseSpec(
            g=lambda x: np.exp(-x), g_prime=lambda x: -np.exp(-x), bracket=(0.0, 1.5)
        )
        amp = lambda x: np.cos(x)
        omega = 12.0
        f, (lo, hi), w = substitute(amp, phase, omega)
        via_levin = integrate_on_interval(f, w, lo, hi, 60).value
        assert abs(via_levin - _brute(amp, phase, omega)) < 1e-11

    def test_user_inverse_called_once_on_the_array(self):
        calls = []

        def inverse(y):
            calls.append(np.shape(y))
            return np.cbrt(y)

        phase = PhaseSpec(
            g=lambda x: x**3, g_prime=lambda x: 3 * x**2, bracket=(0.5, 2.0),
            inverse=inverse,
        )
        f, (lo, hi), _ = substitute(lambda x: x**2, phase, 4.0)
        ys = np.linspace(lo, hi, 7)
        np.testing.assert_allclose(f(ys), 1 / 3, rtol=1e-13)
        assert calls == [(7,)]

    @pytest.mark.parametrize("with_inverse", [False, True])
    def test_phase_calls_do_not_grow_with_n(self, with_inverse):
        # g and g' are evaluated on arrays: the number of calls is set by
        # the Newton iterations, not by the number of nodes
        def count(n):
            calls = [0]

            def counted(fn):
                def wrapper(x):
                    calls[0] += 1
                    return fn(x)

                return wrapper

            base = sin_shift_phase()
            phase = PhaseSpec(
                g=counted(base.g),
                g_prime=counted(base.g_prime),
                bracket=base.bracket,
                inverse=counted(lambda y: np.arcsin(y) - 0.25) if with_inverse else None,
            )
            f, (lo, hi), w = substitute(lambda x: 1.0 / (x**2 + 1), phase, 10.0)
            integrate_on_interval(f, w, lo, hi, n)
            return calls[0]

        assert count(90) == count(1000) < 100

    def test_sin_phase_reference_value(self):
        amp = lambda x: 1.0 / (x**2 + 1)
        f, (lo, hi), w = substitute(amp, sin_shift_phase(), 10.0)
        value = integrate_on_interval(f, w, lo, hi, 90).value
        expected = 0.00266714972608754 + 0.180595659138141j
        assert abs(value - expected) < 1e-10


def _brute(amp, phase, omega):
    """Adaptive quadrature of the full integrand in the original variable,
    independent of the substitution machinery (the oscillation is folded
    into the amplitude, so the linear-phase frequency is zero)."""
    from oscint import oscillatory_reference_quadrature

    a, b = phase.bracket
    return oscillatory_reference_quadrature(
        lambda x: amp(x) * np.exp(1j * omega * phase.g(x)), 0.0, a, b, tol=1e-13
    )
