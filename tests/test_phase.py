import re

import numpy as np
import pytest
from helpers import bits
from test_acceptance import TABLE_2

from oscint import (
    InversionError,
    NonMonotonePhaseError,
    PhaseSpec,
    integrate_on_interval,
    substitute,
)
from oscint.errors import InvalidInputError
from oscint.phase import ComplexPhaseError, numeric_inverse


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

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ((1.0, -1.0), r"need a < b, got \[1.0, -1.0\]"),
            ((1.0, 1.0), r"need a < b, got \[1.0, 1.0\]"),
            ((0.0, np.inf), "endpoints must be finite"),
            ((np.nan, 1.0), "endpoints must be finite"),
        ],
    )
    def test_invalid_bracket_rejected(self, bracket, message):
        # a reversed bracket is an input error, not a non-monotone phase
        with pytest.raises(ValueError, match="invalid interval: " + message):
            PhaseSpec(g=lambda x: x**3, g_prime=lambda x: 3 * x**2, bracket=bracket)

    @pytest.mark.parametrize("width", [1e-14, 1e-15])
    def test_narrow_bracket_probes_stay_in_it(self, width):
        # half*x + mid rounds below a here unless it is clipped into [a, b]
        probed = []

        def g_prime(x):
            probed.append(x.copy())
            return np.ones_like(x)

        phase = PhaseSpec(g=lambda x: x, g_prime=g_prime, bracket=(1.0, 1.0 + width))
        _, limits, _ = substitute(lambda x: np.ones_like(x), phase, 5.0)
        assert limits == (1.0, 1.0 + width)
        assert 1.0 <= probed[0].min() and probed[0].max() <= 1.0 + width

    def test_bracket_is_stored_as_python_floats(self):
        phase = cubic_phase((np.float32(0.5), np.int64(2)))
        assert phase.bracket == (0.5, 2.0)
        assert all(type(end) is float for end in phase.bracket)

    def test_zero_derivative_at_probed_point_rejected(self):
        # g' vanishes at the endpoint x = 1, which the probe grid hits
        phase = PhaseSpec(
            g=lambda x: (x - 1.0) ** 2,
            g_prime=lambda x: 2 * (x - 1.0),
            bracket=(-1.0, 1.0),
        )
        with pytest.raises(NonMonotonePhaseError):
            substitute(lambda x: x, phase, 5.0)


class TestComplexPhase:
    """A phase function with a nonzero imaginary part raises, naming itself."""

    def test_complex_g_raises_instead_of_dropping_its_imaginary_part(self):
        phase = PhaseSpec(
            g=lambda x: x + 0.5j * x, g_prime=lambda x: 1.0, bracket=(-1.0, 1.0)
        )
        with pytest.raises(ValueError, match=r"^g is complex at x = -1\.0;") as err:
            substitute(lambda x: np.ones_like(x), phase, 5.0)
        assert isinstance(err.value, ComplexPhaseError)
        assert (err.value.name, err.value.x) == ("g", -1.0)

    # a Gauss-Lobatto node (n = 90) between two probes, so that only the
    # transformed amplitude's own calls see the imaginary part
    NODE = float(np.cos(np.pi * 5 / 90))

    @staticmethod
    def _off_node(x, value, at_node):
        return np.where(np.abs(x - TestComplexPhase.NODE) < 1e-6, at_node, value)

    @pytest.mark.parametrize(
        "name,phase",
        [
            ("g'", PhaseSpec(
                g=lambda x: x,
                g_prime=lambda x: TestComplexPhase._off_node(x, 1.0, 1 + 1j),
                bracket=(-1.0, 1.0),
            )),
            ("inverse", PhaseSpec(
                g=lambda x: x,
                g_prime=lambda x: 1.0,
                bracket=(-1.0, 1.0),
                inverse=lambda y: TestComplexPhase._off_node(y, y, y + 1e-3j),
            )),
        ],
        ids=["g_prime", "inverse"],
    )
    def test_complex_value_off_the_probes_is_named_with_its_x(self, name, phase):
        f, (lo, hi), w = substitute(lambda x: np.ones_like(x), phase, 5.0)
        with pytest.raises(ComplexPhaseError) as err:
            integrate_on_interval(f, w, lo, hi, 90)
        assert (err.value.name, err.value.x) == (name, self.NODE)
        assert str(err.value).startswith(f"{name} is complex at x = {self.NODE!r};")

    def test_complex_dtype_with_zero_imaginary_part_is_real(self):
        real = sin_shift_phase()
        as_complex = PhaseSpec(
            g=lambda x: real.g(x).astype(complex),
            g_prime=lambda x: real.g_prime(x) + 0j,
            bracket=real.bracket,
        )
        amp = lambda x: 1.0 / (x**2 + 1)
        values = []
        for phase in (real, as_complex):
            f, (lo, hi), w = substitute(amp, phase, 10.0)
            values.append(integrate_on_interval(f, w, lo, hi, 90).value)
        assert values[0] == values[1]


# returns that do not broadcast to their argument's shape
WRONG_SHAPES = {"column": lambda x: x[:, None], "three": lambda x: np.ones(3)}
# returns that are not numbers, with the dtype their message names; a scalar
# string broadcasts, so its cast is what fails
NOT_NUMBERS = {
    "string": (lambda x: "a", "<U1"),
    "strings": (lambda x: np.full(x.shape, "a"), "<U1"),
    "objects": (lambda x: np.array([object()] * len(x)), "object"),
}


class TestWrongShapedOutput:
    """A wrong-shaped return raises InvalidInputError naming the function and
    both shapes, where numpy would raise a bare ValueError."""

    @pytest.mark.parametrize("kind", WRONG_SHAPES)
    @pytest.mark.parametrize("name", ["g", "g'"])
    def test_phase_function_at_the_probes(self, name, kind):
        wrong = WRONG_SHAPES[kind]
        real = sin_shift_phase()
        phase = PhaseSpec(
            g=wrong if name == "g" else real.g,
            g_prime=wrong if name == "g'" else real.g_prime,
            bracket=real.bracket,
        )
        shape = wrong(np.zeros(64)).shape
        for call in (
            lambda: substitute(np.exp, phase, 5.0),
            lambda: numeric_inverse(phase, 0.5),
        ):
            with pytest.raises(InvalidInputError) as err:
                call()
            assert str(err.value) == (
                f"phase function {name} returned shape {shape}, expected (64,)"
            )

    @pytest.mark.parametrize("kind", WRONG_SHAPES)
    def test_inverse_and_amplitude_at_the_nodes(self, kind):
        wrong = WRONG_SHAPES[kind]
        real = sin_shift_phase()
        shape = wrong(np.zeros(91)).shape
        with_inverse = PhaseSpec(real.g, real.g_prime, real.bracket, inverse=wrong)
        for name, amplitude, phase in (
            ("phase function inverse", np.exp, with_inverse),
            ("amplitude", wrong, real),
        ):
            f, (lo, hi), w = substitute(amplitude, phase, 5.0)
            with pytest.raises(InvalidInputError) as err:
                integrate_on_interval(f, w, lo, hi, 90)
            assert str(err.value) == f"{name} returned shape {shape}, expected (91,)"

    @pytest.mark.parametrize("kind", NOT_NUMBERS)
    @pytest.mark.parametrize("name", ["g", "g'"])
    def test_non_numbers_at_the_probes(self, name, kind):
        wrong, dtype = NOT_NUMBERS[kind]
        real = sin_shift_phase()
        phase = PhaseSpec(
            g=wrong if name == "g" else real.g,
            g_prime=wrong if name == "g'" else real.g_prime,
            bracket=real.bracket,
        )
        for call in (
            lambda: substitute(np.exp, phase, 5.0),
            lambda: numeric_inverse(phase, 0.5),
        ):
            with pytest.raises(InvalidInputError) as err:
                call()
            assert str(err.value) == (
                f"phase function {name} returned {dtype} values, not numbers"
            )

    @pytest.mark.parametrize("name", ["g", "g'"])
    def test_a_ragged_return_at_the_probes(self, name):
        ragged = lambda x: [1, [2, 3]]
        real = sin_shift_phase()
        phase = PhaseSpec(
            g=ragged if name == "g" else real.g,
            g_prime=ragged if name == "g'" else real.g_prime,
            bracket=real.bracket,
        )
        for call in (
            lambda: substitute(np.exp, phase, 5.0),
            lambda: numeric_inverse(phase, 0.5),
        ):
            with pytest.raises(InvalidInputError) as err:
                call()
            assert str(err.value) == (
                f"phase function {name} returned a ragged sequence, not numbers"
            )

    @pytest.mark.parametrize("kind", NOT_NUMBERS)
    def test_non_numbers_at_the_nodes(self, kind):
        wrong, dtype = NOT_NUMBERS[kind]
        real = sin_shift_phase()
        with_inverse = PhaseSpec(real.g, real.g_prime, real.bracket, inverse=wrong)
        for name, amplitude, phase in (
            ("phase function inverse", np.exp, with_inverse),
            ("amplitude", wrong, real),
        ):
            f, (lo, hi), w = substitute(amplitude, phase, 5.0)
            with pytest.raises(InvalidInputError) as err:
                integrate_on_interval(f, w, lo, hi, 90)
            assert str(err.value) == f"{name} returned {dtype} values, not numbers"

    def test_object_arrays_of_numbers_still_convert(self):
        real = sin_shift_phase()
        boxed = lambda fn: lambda x: np.array(list(fn(x)), dtype=object)
        phase = PhaseSpec(boxed(real.g), boxed(real.g_prime), real.bracket)
        f, limits, _ = substitute(np.exp, phase, 5.0)
        f_real, limits_real, _ = substitute(np.exp, real, 5.0)
        assert limits == limits_real
        y = np.linspace(*limits, 7)
        assert f(y).tolist() == f_real(y).tolist()
        # an object amplitude of real numbers is cast as its float64 twin is
        f, _, _ = substitute(boxed(np.exp), real, 5.0)
        f_float, _, _ = substitute(np.exp, real, 5.0)
        assert f(y).tobytes() == f_float(y).tobytes()

    def test_scalar_returns_still_broadcast(self):
        real = sin_shift_phase()
        one = PhaseSpec(g=lambda x: x, g_prime=lambda x: 1.0, bracket=(-1.0, 1.0))
        f, _, _ = substitute(lambda x: 2.0, one, 5.0)
        assert f(np.array([0.0, 0.5])).tolist() == [2.0, 2.0]
        scalar = PhaseSpec(real.g, real.g_prime, real.bracket, inverse=lambda y: 0.0)
        f, _, _ = substitute(np.exp, scalar, 5.0)
        assert f(0.1) == np.exp(0.0) / real.g_prime(0.0)


def exp_decreasing_phase():
    return PhaseSpec(
        g=lambda x: np.exp(-x), g_prime=lambda x: -np.exp(-x), bracket=(0.0, 2.0)
    )


def steep_phase():
    # a steep and a flat part: targets converge after different numbers of
    # iterations, and the converged ones must not move meanwhile
    return PhaseSpec(
        g=lambda x: np.exp(6 * x) + x,
        g_prime=lambda x: 6 * np.exp(6 * x) + 1,
        bracket=(-1.0, 1.0),
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
        [sin_shift_phase(), cubic_phase(), exp_decreasing_phase(), steep_phase()],
        ids=["sin", "cube", "exp-decreasing", "steep"],
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

    def test_unconverged_target_after_a_converged_one_is_named(self):
        # -0.5 and 0.9 converge and stay frozen; 0.25 never does
        phase = PhaseSpec(
            g=lambda x: x + 0.5 * (x > 0), g_prime=lambda x: 1.0, bracket=(-1.0, 1.0)
        )
        with pytest.raises(InversionError, match=r"converge to 0\.25 in"):
            numeric_inverse(phase, np.array([-0.5, 0.9, 0.25]))

    @pytest.mark.parametrize(
        "g",
        [
            lambda x: np.sin(40 * x),
            lambda x: x + 0.3 * np.sin(50 * x),
            lambda x: x + 0.02 * np.sin(300 * x),
            lambda x: np.tan(1.5 * x),
            # a dip between the probes near 0, which the table cannot see
            lambda x: x - 0.04 * np.exp(-((x / 0.005) ** 2)),
        ],
        ids=["sin40", "wiggle-coarse", "wiggle-fine", "tan", "dip"],
    )
    def test_wrong_derivative_gives_a_root_or_a_typed_error(self, g):
        # g' claims monotonicity that g does not have: every returned x must
        # still meet the stopping test, else the failure must be typed
        phase = PhaseSpec(g=g, g_prime=lambda x: 1.0, bracket=(-1.0, 1.0))
        ys = np.concatenate(
            [np.linspace(g(-1.0), g(1.0), 33), np.linspace(-0.05, 0.01, 25)]
        )
        try:
            xs = numeric_inverse(phase, ys)
        except (NonMonotonePhaseError, InversionError):
            return
        assert np.all(np.abs(g(xs) - ys) <= 1e-14 * (1 + np.abs(ys)))


class TestStationaryPoint:
    """g' vanishes strictly between the probes and the sampled preimages:
    the transformed amplitude is singular inside the interval, and the value
    comes back wrong with no error."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize(
        "g, g_prime, bracket",
        [
            pytest.param(lambda x: x**3, lambda x: 3 * x**2, (-1.0, 1.0), id="cube"),
            pytest.param(
                lambda x: x**3, lambda x: 3 * x**2, (-0.7, 1.1), id="cube-off-centre"
            ),
            pytest.param(
                lambda x: x - np.sin(x), lambda x: 1 - np.cos(x), (-1.0, 1.3),
                id="x-minus-sin",
            ),
            pytest.param(
                lambda x: (x - 0.013) ** 3, lambda x: 3 * (x - 0.013) ** 2,
                (-1.0, 1.0), id="shifted-cube",
            ),
        ],
    )
    def test_raises(self, g, g_prime, bracket, n):
        phase = PhaseSpec(g=g, g_prime=g_prime, bracket=bracket)
        with pytest.raises(ValueError):
            f, (lo, hi), w = substitute(lambda x: np.ones_like(x), phase, 50.0)
            integrate_on_interval(f, w, lo, hi, n)


class TestPole:
    """g' < 0 at every probe, but g jumps from -inf to +inf at x = 1."""

    phase = PhaseSpec(
        g=lambda x: 1 / (x - 1), g_prime=lambda x: -1 / (x - 1) ** 2, bracket=(0.5, 2.0)
    )

    def test_substitute_rejects_it(self):
        with pytest.raises(NonMonotonePhaseError, match="not of one sign"):
            substitute(lambda x: np.ones_like(x), self.phase, 10.0)

    def test_numeric_inverse_rejects_it_before_iterating(self):
        calls = []

        def g(x):
            calls.append(np.shape(x))
            return self.phase.g(x)

        phase = PhaseSpec(g=g, g_prime=self.phase.g_prime, bracket=self.phase.bracket)
        with pytest.raises(NonMonotonePhaseError, match="not of one sign"):
            numeric_inverse(phase, 0.98)
        assert calls == [(64,)]


class TestNonFiniteG:
    """g not finite at a probe is an input error that names the probe, not a
    non-monotone g."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("route", ["keyword", "substitute"])
    def test_first_non_finite_probe_is_named(self, bad, route):
        def g(x):
            return np.where(x < 0.5, x, bad)

        g_prime = lambda x: np.ones_like(x)
        probes = np.clip(0.5 * -np.cos(np.pi * np.arange(64) / 63) + 0.5, 0.0, 1.0)
        first = float(probes[probes >= 0.5][0])
        message = re.escape(f"phase function g is not finite at x = {first}") + "$"
        with pytest.raises(InvalidInputError, match=message):
            if route == "keyword":
                integrate_on_interval(np.cos, 5.0, 0.0, 1.0, 16, phase=(g, g_prime))
            else:
                substitute(np.cos, PhaseSpec(g, g_prime, (0.0, 1.0)), 5.0)


def _composed(amplitude, omega, phase, n):
    """``substitute`` and then the kernel, composed by hand."""
    f, (lo, hi), w = substitute(amplitude, phase, omega)
    return integrate_on_interval(f, w, lo, hi, n)


def _outcome(call):
    """What ``call()`` raised, as (type, message), or its value's bits and path."""
    try:
        result = call()
    except Exception as exc:  # compared between the two routes, whatever it is
        return type(exc), str(exc)
    return bits(result.value), result.path, result.n_used


class TestPhaseKeyword:
    """``integrate_on_interval(..., phase=(g, g_prime))`` is the substitution
    and the kernel in one call: the same bits and the same errors."""

    @pytest.mark.parametrize("omega", sorted(TABLE_2))
    def test_sin_phase_table_bit_for_bit(self, omega):
        amp = lambda x: 1.0 / (x**2 + 1)
        phase = sin_shift_phase()
        keyword = lambda: integrate_on_interval(
            amp, omega, -1.0, 1.0, 90, phase=(phase.g, phase.g_prime)
        )
        assert _outcome(keyword) == _outcome(lambda: _composed(amp, omega, phase, 90))

    def test_cube_phase_bit_for_bit(self):
        amp = lambda x: 1.0 / (x + 2)
        phase = PhaseSpec(lambda x: x**3, lambda x: 3 * x**2, (0.2, 1.0))
        keyword = lambda: integrate_on_interval(
            amp, 200.0, 0.2, 1.0, 150, phase=(phase.g, phase.g_prime)
        )
        assert _outcome(keyword) == _outcome(lambda: _composed(amp, 200.0, phase, 150))

    @pytest.mark.parametrize(
        "g, g_prime, bracket, error",
        [
            pytest.param(
                lambda x: x**2, lambda x: 2 * x, (-1.0, 1.0), NonMonotonePhaseError,
                id="non-monotone",
            ),
            pytest.param(
                lambda x: x + 0.5j * x, lambda x: 1.0, (-1.0, 1.0), ComplexPhaseError,
                id="complex",
            ),
            pytest.param(
                lambda x: x**3, lambda x: 3 * x**2, (1.0, -1.0), InvalidInputError,
                id="reversed-bracket",
            ),
            pytest.param(
                lambda x: x, lambda x: 1.0, (0.0, np.inf), InvalidInputError,
                id="infinite-bracket",
            ),
        ],
    )
    def test_errors_match_the_composition(self, g, g_prime, bracket, error):
        amp = lambda x: np.ones_like(x)
        keyword = _outcome(
            lambda: integrate_on_interval(amp, 5.0, *bracket, 16, phase=(g, g_prime))
        )
        assert keyword[0] is error
        assert keyword == _outcome(
            lambda: _composed(amp, 5.0, PhaseSpec(g, g_prime, bracket), 16)
        )

    @pytest.mark.parametrize(
        "phase",
        [np.sin, (np.sin,), (np.sin, np.cos, np.arcsin),
         PhaseSpec(np.sin, np.cos, (-1.0, 1.0))],
        ids=["g-alone", "one", "three", "phase-spec"],
    )
    def test_a_phase_that_is_not_a_pair_is_an_input_error(self, phase):
        message = r"^phase must be a pair \(g, g_prime\)$"
        with pytest.raises(InvalidInputError, match=message):
            integrate_on_interval(np.cos, 5.0, -1.0, 1.0, 16, phase=phase)

    @pytest.mark.parametrize(
        "omega, n, message",
        [
            (5.0, 1, "degree must be >= 2"),
            (5.0, 16.0, "degree must be an integer"),
            (np.inf, 16, "omega must be finite, got inf"),
            (np.nan, 16, "omega must be finite, got nan"),
        ],
    )
    def test_n_and_omega_are_checked_before_g_is_called(self, omega, n, message):
        calls = []

        def g(x):
            calls.append("g")
            return np.sin(x)

        def g_prime(x):
            calls.append("g'")
            return np.cos(x)

        with pytest.raises(InvalidInputError, match=message):
            integrate_on_interval(np.cos, omega, -1.0, 1.0, n, phase=(g, g_prime))
        assert calls == []


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

    @pytest.mark.parametrize("n", [90, 1000])
    @pytest.mark.parametrize(
        "phase",
        [sin_shift_phase(), cubic_phase(), exp_decreasing_phase()],
        ids=["sin", "cube", "exp-decreasing"],
    )
    def test_phase_call_budget(self, phase, n):
        # one g' and one g call for the probe table, Newton from the
        # interpolated start, one g' call at the preimages
        calls = [0]

        def counted(fn):
            def wrapper(x):
                calls[0] += 1
                return fn(x)

            return wrapper

        counted_phase = PhaseSpec(
            g=counted(phase.g), g_prime=counted(phase.g_prime), bracket=phase.bracket
        )
        f, (lo, hi), w = substitute(lambda x: 1.0 / (x**2 + 1), counted_phase, 10.0)
        integrate_on_interval(f, w, lo, hi, n)
        assert calls[0] <= 10

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
