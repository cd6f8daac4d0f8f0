"""Command-line front end.

Subcommands: ``integrate`` for a single integral, ``converge`` for an
error-vs-n sweep emitted as CSV, and ``example`` to run an entry of the
built-in catalog. Each flag is checked once, by its argparse ``type`` or
``choices``. Exit codes: 0 success, 2 usage errors, 3 solver errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .expr import ParseError, parse_amplitude
from .moments import integrate_on_interval
from .oracle import (
    AccuracyNotReachedError,
    builtin_examples,
    get_example,
    oscillatory_reference_quadrature,
)
from .phase import InversionError, PhaseSpec, substitute

# every other solver error subclasses ValueError
_SOLVER_ERRORS = (ValueError, AccuracyNotReachedError, InversionError)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _degree(text: str) -> int:
    """Argument type of a degree: an integer of at least 2."""
    try:
        if int(text) >= 2:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")


def _finite_float(text: str) -> float:
    """Argument type of a finite real number."""
    try:
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _complex_pair(text: str) -> complex:
    """Argument type of a complex value written 're,im' with finite parts."""
    try:
        re_s, im_s = text.split(",")
        return complex(_finite_float(re_s), _finite_float(im_s))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be 're,im' with finite parts, got {text!r}"
        ) from None


def _expression(src: str):
    """Argument type of an expression in x."""
    try:
        return parse_amplitude(src)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"bad expression {src!r}: {exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="oscint",
        description="Oscillatory Fourier integrals by Chebyshev-Levin collocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ids = sorted(builtin_examples())

    p_int = sub.add_parser("integrate", help="compute a single integral")
    p_int.set_defaults(run=_cmd_integrate, parser=p_int)
    p_int.add_argument("--amplitude", type=_expression, required=True, help="f(x)")
    p_int.add_argument("--omega", type=_finite_float, required=True)
    p_int.add_argument("--n", type=_degree, required=True)
    p_int.add_argument("--a", type=_finite_float, default=-1.0)
    p_int.add_argument("--b", type=_finite_float, default=1.0)
    p_int.add_argument("--phase", type=_expression, help="g(x); must be monotone")
    p_int.add_argument("--phase-derivative", type=_expression, help="g'(x)")

    p_conv = sub.add_parser("converge", help="error-vs-n sweep as CSV")
    p_conv.set_defaults(run=_cmd_converge, parser=p_conv)
    src = p_conv.add_mutually_exclusive_group(required=True)
    src.add_argument("--amplitude", type=_expression, help="f(x)")
    src.add_argument("--example", type=int, choices=ids, help="built-in example id")
    p_conv.add_argument("--omega", type=_finite_float, required=True)
    p_conv.add_argument("--n-min", type=_degree, required=True)
    p_conv.add_argument("--n-max", type=_degree, required=True)
    p_conv.add_argument("--n-step", type=int, default=1)
    p_conv.add_argument("--exact", type=_complex_pair, help="reference as 're,im'")
    p_conv.add_argument("--alpha", type=_finite_float)

    p_ex = sub.add_parser("example", help="run a built-in catalog entry")
    p_ex.set_defaults(run=_cmd_example, parser=p_ex)
    p_ex.add_argument("example", metavar="id", type=int, choices=ids, help="example id")
    p_ex.add_argument("--omega", type=_finite_float, required=True)
    p_ex.add_argument("--alpha", type=_finite_float)
    p_ex.add_argument("--n", type=_degree, required=True)
    return parser


def _real_fn(expr, flag: str):
    """Wrap a phase expression as a real function; complex values raise."""
    def f(x):
        v = expr(x)
        complex_at = v.imag != 0
        if np.any(complex_at):
            raise ValueError(
                f"{flag} {expr.source!r} is complex at x = "
                f"{float(np.asarray(x)[complex_at][0])!r}; phases must be real"
            )
        return v.real

    return f


def _catalog_entry(args):
    """The catalog entry named by ``args.example``; ``--alpha`` needs its parameter."""
    spec = get_example(args.example)
    if args.alpha is not None and spec.default_alpha is None:
        args.parser.error(f"--alpha: example {spec.key} has no parameter")
    return spec


def _cmd_integrate(args) -> int:
    amplitude, a, b = args.amplitude, args.a, args.b
    if args.phase is not None:
        if args.phase_derivative is None:
            args.parser.error("--phase requires --phase-derivative")
        g = _real_fn(args.phase, "--phase")
        gp = _real_fn(args.phase_derivative, "--phase-derivative")
        spec = PhaseSpec(g=g, g_prime=gp, bracket=(a, b))
        amplitude, (a, b), _ = substitute(amplitude, spec, args.omega)
    result = integrate_on_interval(amplitude, args.omega, a, b, args.n)
    print(
        f"{_fmt(result.value.real)} {_fmt(result.value.imag)} "
        f"{result.path.value} {_fmt(result.residual_norm)} {result.n_used}"
    )
    return 0


def _cmd_converge(args) -> int:
    if args.n_max < args.n_min or args.n_step < 1:
        args.parser.error("invalid n range")
    amplitude, (a, b), exact = args.amplitude, (-1.0, 1.0), args.exact
    if args.example is not None:
        spec = _catalog_entry(args)
        amplitude, (a, b) = spec.amplitude(args.alpha), spec.interval
        if exact is None:
            exact = spec.exact_value(args.omega, args.alpha)
    if exact is None:
        exact = oscillatory_reference_quadrature(amplitude, args.omega, a, b, tol=1e-13)
    print("n,abs_error,real,imag,path")
    for n in range(args.n_min, args.n_max + 1, args.n_step):
        result = integrate_on_interval(amplitude, args.omega, a, b, n)
        print(
            f"{n},{_fmt(abs(result.value - exact))},{_fmt(result.value.real)},"
            f"{_fmt(result.value.imag)},{result.path.value}"
        )
    return 0


def _cmd_example(args) -> int:
    spec = _catalog_entry(args)
    a, b = spec.interval
    result = integrate_on_interval(spec.amplitude(args.alpha), args.omega, a, b, args.n)
    print(f"example {args.example}: {spec.description}")
    print(f"computed = {_fmt(result.value.real)} {_fmt(result.value.imag)}")
    exact = spec.exact_value(args.omega, args.alpha)
    if exact is not None:
        print(f"exact    = {_fmt(exact.real)} {_fmt(exact.imag)}")
        print(f"abs_error = {_fmt(abs(result.value - exact))}")
    else:
        print("exact    = (not tabulated)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _SOLVER_ERRORS as exc:
        print(f"oscint: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
