import numpy as np
import pytest

from oscint import ParseError, parse_amplitude


def evaluate(src, x):
    return parse_amplitude(src)(np.asarray(x, dtype=float))


class TestLiterals:
    def test_integer(self):
        assert evaluate("3", 0.0) == 3

    def test_decimal_and_scientific(self):
        assert evaluate("2.5e-3", 0.0) == 2.5e-3
        assert evaluate(".5", 0.0) == 0.5
        assert evaluate("1E2", 0.0) == 100

    def test_constants(self):
        assert evaluate("pi", 0.0) == pytest.approx(np.pi)
        assert evaluate("i", 0.0) == 1j

    def test_variable(self):
        np.testing.assert_array_equal(evaluate("x", [1.0, -2.0]), [1, -2])


class TestOperators:
    def test_arithmetic(self):
        assert evaluate("1+2*3", 0.0) == 7
        assert evaluate("(1+2)*3", 0.0) == 9
        assert evaluate("7-4-1", 0.0) == 2  # left-associative
        assert evaluate("8/4/2", 0.0) == 1

    def test_power_right_associative(self):
        assert evaluate("2^3^2", 0.0) == 512

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate("-2^2", 0.0) == -4

    def test_signed_exponent(self):
        assert evaluate("2^-1", 0.0) == 0.5

    def test_unary_minus_chains(self):
        assert evaluate("--3", 0.0) == 3

    def test_long_chains_fold_left_to_right(self):
        # far past Python's recursion limit: each chain is one loop
        x = np.array([0.5, -1.25, 3.0])
        assert (evaluate("+".join(["x"] * 5001), x) == 5001 * x).all()
        assert (evaluate("x" + "-x" * 5000, x) == -4999 * x).all()
        assert evaluate("1" + "*2/2" * 3000, 0.0) == 1
        assert parse_amplitude("1-x+2").to_string() == "((1.0-x)+2.0)"
        assert parse_amplitude("x/2*3").to_string() == "((x/2.0)*3.0)"

    def test_complex_arithmetic(self):
        assert evaluate("i*i", 0.0) == -1
        assert evaluate("exp(i*pi)", 0.0) == pytest.approx(-1, abs=1e-15)


class TestFunctions:
    @pytest.mark.parametrize(
        "src,arg,expected",
        [
            ("sin(x)", 0.5, np.sin(0.5)),
            ("cos(x)", 0.5, np.cos(0.5)),
            ("exp(x)", 1.0, np.e),
            ("sqrt(x)", 4.0, 2.0),
            ("abs(x)", -3.0, 3.0),
            ("asin(x)", 0.5, np.arcsin(0.5)),
            ("atan(x)", 1.0, np.pi / 4),
            ("log(x)", np.e, 1.0),
        ],
    )
    def test_known_values(self, src, arg, expected):
        assert evaluate(src, arg) == pytest.approx(expected, abs=1e-15)

    def test_principal_branch_sqrt(self):
        # sqrt of a negative real goes to the positive imaginary axis
        expr = parse_amplitude("sqrt(x)")
        assert expr(np.array(-4.0, dtype=complex)) == pytest.approx(2j)

    def test_nested_calls(self):
        assert evaluate("log(exp(sin(x)))", 0.7) == pytest.approx(np.sin(0.7))

    def test_vectorized(self):
        x = np.linspace(-0.9, 0.9, 7)
        np.testing.assert_allclose(
            evaluate("1/(x+2)", x), 1 / (x + 2), atol=1e-15
        )


class TestAbsIsComplex:
    # every function evaluates to complex, abs too, also without x
    @pytest.mark.parametrize(
        "src,expected",
        [
            pytest.param("abs(x)", np.abs, id="abs(x)"),
            pytest.param("abs(x-3*i)", lambda x: np.abs(x - 3j), id="abs(x-3*i)"),
            pytest.param("abs(3)", lambda x: np.full_like(x, 3.0), id="abs(3)"),
            pytest.param("abs(-4*i)", lambda x: np.full_like(x, 4.0), id="abs(-4*i)"),
        ],
    )
    def test_dtype_and_values(self, src, expected):
        x = np.linspace(-2.0, 2.0, 9)
        out = parse_amplitude(src)(x)
        assert out.dtype == np.complex128 and out.shape == x.shape
        assert not out.imag.any()
        assert out.real.tobytes() == expected(x).tobytes()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "src",
        [
            "x",
            "1+2*3",
            "-x^2",
            "sin(x)/(x+2)",
            "exp(-(x-0.25)^2)",
            "1/(sqrt(1-x^2)*((asin(x)-0.25)^2+1))",
        ],
    )
    def test_to_string_reparses_to_same_function(self, src):
        first = parse_amplitude(src)
        second = parse_amplitude(first.to_string())
        x = np.linspace(-0.8, 0.8, 9)
        np.testing.assert_allclose(first(x), second(x), atol=0, rtol=0)
        assert second.to_string() == first.to_string()


class TestErrors:
    def test_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_amplitude("1 + $")
        assert err.value.offset == 4

    def test_unknown_identifier_lists_alternatives(self):
        with pytest.raises(ParseError) as err:
            parse_amplitude("foo(x)")
        assert "sin" in err.value.expected
        assert err.value.offset == 0

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as err:
            parse_amplitude("sin(x")
        assert err.value.expected == (")",)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_amplitude("1 2")
        assert err.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_amplitude("")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_amplitude("1 +")

    @pytest.mark.parametrize(
        "src", ["(" * 300 + "x" + ")" * 300, "-" * 2000 + "x", "sin(" * 300 + "x"]
    )
    def test_nesting_past_the_recursion_limit(self, src):
        with pytest.raises(ParseError) as err:
            parse_amplitude(src)
        assert err.value.expected == ("less nesting",)
        assert 0 < err.value.offset < len(src)


IDENTIFIERS = (
    "x", "pi", "i", "abs", "asin", "atan", "cos", "exp", "log", "sin", "sqrt"
)


class TestErrorContract:
    @pytest.mark.parametrize(
        "src,offset,expected",
        [
            ("1.2.3", 0, ("number",)),
            ("2e+", 1, ("operator", "end of input")),
            ("x**2", 2, ("number", "identifier", "(")),
            ("+x", 0, ("number", "identifier", "(")),
            ("sin x", 4, ("(",)),
            ("1/(x+2))", 7, ("operator", "end of input")),
            ("sin()", 4, ("number", "identifier", "(")),
            ("3x", 1, ("operator", "end of input")),
            ("²", 0, ("number",)),  # a superscript two is a digit, not a number
            ("x_1", 0, IDENTIFIERS),
            ("é", 0, IDENTIFIERS),
        ],
    )
    def test_offset_and_expected(self, src, offset, expected):
        with pytest.raises(ParseError) as err:
            parse_amplitude(src)
        assert (err.value.offset, err.value.expected) == (offset, expected)


def lit(p):
    """A literal as the grammar reads it: a negative one is a negated positive."""
    return complex(p) if p >= 0 else -complex(-p)


class TestWorkloadExpressionValues:
    """Each expression family the nonlinear-phase benchmark sends through the
    CLI evaluates bit for bit as its numpy complex twin."""

    x = np.concatenate([np.linspace(-1.0, 1.0, 33), np.linspace(0.9, 2.1, 17)])

    @pytest.mark.parametrize(
        "src,twin",
        [
            ("1/(x^2+{p})", lambda xc, p: (1 + 0j) / (xc ** (2 + 0j) + lit(p))),
            ("exp({p}*x)", lambda xc, p: np.exp(lit(p) * xc)),
            ("cos({p}*x)+2", lambda xc, p: np.cos(lit(p) * xc) + (2 + 0j)),
            ("x^2+{p}*x+1", lambda xc, p: xc ** (2 + 0j) + lit(p) * xc + (1 + 0j)),
            ("sin(x+{p})", lambda xc, p: np.sin(xc + lit(p))),
            ("cos(x+{p})", lambda xc, p: np.cos(xc + lit(p))),
            ("x^3", lambda xc, p: xc ** (3 + 0j)),
            ("3*x^2", lambda xc, p: (3 + 0j) * xc ** (2 + 0j)),
            # the phase g = exp(c*x) is the amplitude family exp(p*x) above
            ("{p}*exp({p}*x)", lambda xc, p: lit(p) * np.exp(lit(p) * xc)),
        ],
    )
    @pytest.mark.parametrize("p", [0.7, 1.9374512036, -0.83172645, 0.5618, -0.1734])
    def test_bit_for_bit(self, src, twin, p):
        got = parse_amplitude(src.format(p=repr(p)))(self.x)
        want = twin(self.x.astype(complex), p)
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestConstantExpressions:
    def test_returns_a_fresh_complex_array_of_the_input_shape(self):
        expr = parse_amplitude("3")
        x = np.linspace(-1.0, 1.0, 5)
        first, second = expr(x), expr(x)
        assert first.dtype == np.complex128 and first.shape == (5,)
        np.testing.assert_array_equal(first, np.full(5, 3 + 0j))
        first[0] = 7
        assert second[0] == 3

    @pytest.mark.parametrize("src", ["1/0", "0^-1", "(2*x-x-x)^-1"])
    def test_division_by_zero_is_not_an_exception(self, src):
        out = parse_amplitude(src)(np.zeros(3))
        assert out.shape == (3,)
        assert not np.isfinite(out).any()
