"""Command-line front end.

Subcommands: ``integrate`` for a single integral, ``converge`` for an
error-vs-n sweep emitted as CSV, and ``example`` to run an entry of the
built-in catalog. Exit codes: 0 success, 2 flag/parse errors, 3 solver
errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .expr import ParseError, parse_amplitude
from .levin import (
    AmplitudeSamplingError,
    SolverOverflowError,
    ZeroFrequencyError,
    integrate_on_interval,
)
from .banded import SingularMatrixError
from .oracle import (
    AccuracyNotReachedError,
    get_example,
    oscillatory_reference_quadrature,
)
from .phase import InversionError, NonMonotonePhaseError, PhaseSpec, substitute

_SOLVER_ERRORS = (
    ZeroFrequencyError,
    AmplitudeSamplingError,
    SingularMatrixError,
    SolverOverflowError,
    AccuracyNotReachedError,
    NonMonotonePhaseError,
    InversionError,
    ValueError,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="oscint",
        description="Oscillatory Fourier integrals by Chebyshev-Levin collocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="compute a single integral")
    p_int.add_argument("--amplitude", required=True, help="amplitude expression in x")
    p_int.add_argument("--omega", type=float, required=True)
    p_int.add_argument("--n", type=int, required=True)
    p_int.add_argument("--a", type=float, default=-1.0)
    p_int.add_argument("--b", type=float, default=1.0)
    p_int.add_argument("--phase", help="nonlinear phase g(x); must be monotone")
    p_int.add_argument("--phase-derivative", help="g'(x), required with --phase")

    p_conv = sub.add_parser("converge", help="error-vs-n sweep as CSV")
    src = p_conv.add_mutually_exclusive_group(required=True)
    src.add_argument("--amplitude", help="amplitude expression in x")
    src.add_argument("--example", type=int, help="built-in example id (1..7)")
    p_conv.add_argument("--omega", type=float, required=True)
    p_conv.add_argument("--n-min", type=int, required=True)
    p_conv.add_argument("--n-max", type=int, required=True)
    p_conv.add_argument("--n-step", type=int, default=1)
    p_conv.add_argument("--exact", help="reference value as 're,im'")
    p_conv.add_argument("--alpha", type=float)

    p_ex = sub.add_parser("example", help="run a built-in catalog entry")
    p_ex.add_argument("id", type=int, help="example id (1..7)")
    p_ex.add_argument("--omega", type=float, required=True)
    p_ex.add_argument("--alpha", type=float)
    p_ex.add_argument("--n", type=int, required=True)
    return parser


def _parse_expr(src: str, parser: argparse.ArgumentParser):
    try:
        return parse_amplitude(src)
    except ParseError as exc:
        parser.error(f"bad expression {src!r}: {exc}")


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


def _cmd_integrate(args, parser) -> int:
    amplitude = _parse_expr(args.amplitude, parser)
    a, b = args.a, args.b
    if args.phase is not None:
        if args.phase_derivative is None:
            parser.error("--phase requires --phase-derivative")
        g = _real_fn(_parse_expr(args.phase, parser), "--phase")
        gp = _real_fn(
            _parse_expr(args.phase_derivative, parser), "--phase-derivative"
        )
        spec = PhaseSpec(g=g, g_prime=gp, bracket=(a, b))
        amplitude, (a, b), _ = substitute(amplitude, spec, args.omega)
    if args.omega == 0:
        raise ZeroFrequencyError(
            "omega = 0 is not oscillatory; the Levin method is undefined there"
        )
    result = integrate_on_interval(amplitude, args.omega, a, b, args.n)
    print(
        f"{_fmt(result.value.real)} {_fmt(result.value.imag)} "
        f"{result.path.value} {_fmt(result.residual_norm)} {result.n_used}"
    )
    return 0


def _resolve_exact(args, amplitude, interval):
    if args.exact is not None:
        re_s, im_s = args.exact.split(",")
        return complex(float(re_s), float(im_s))
    if args.example is not None:
        spec = get_example(args.example)
        known = spec.exact_value(args.omega, args.alpha)
        if known is not None:
            return known
    return oscillatory_reference_quadrature(
        amplitude, args.omega, interval[0], interval[1], tol=1e-13
    )


def _cmd_converge(args, parser) -> int:
    if args.example is not None:
        spec = get_example(args.example)
        amplitude = spec.amplitude(args.alpha)
        interval = spec.interval
    else:
        amplitude = _parse_expr(args.amplitude, parser)
        interval = (-1.0, 1.0)
    if args.n_min < 2 or args.n_max < args.n_min or args.n_step < 1:
        parser.error("invalid n range")
    exact = _resolve_exact(args, amplitude, interval)
    print("n,abs_error,real,imag,path")
    for n in range(args.n_min, args.n_max + 1, args.n_step):
        result = integrate_on_interval(
            amplitude, args.omega, interval[0], interval[1], n
        )
        err = abs(result.value - exact)
        print(
            f"{n},{_fmt(err)},{_fmt(result.value.real)},"
            f"{_fmt(result.value.imag)},{result.path.value}"
        )
    return 0


def _cmd_example(args, parser) -> int:
    try:
        spec = get_example(args.id)
    except KeyError as exc:
        parser.error(str(exc))
    amplitude = spec.amplitude(args.alpha)
    a, b = spec.interval
    result = integrate_on_interval(amplitude, args.omega, a, b, args.n)
    print(f"example {args.id}: {spec.description}")
    print(f"computed = {_fmt(result.value.real)} {_fmt(result.value.imag)}")
    exact = spec.exact_value(args.omega, args.alpha)
    if exact is not None:
        print(f"exact    = {_fmt(exact.real)} {_fmt(exact.imag)}")
        print(f"abs_error = {_fmt(abs(result.value - exact))}")
    else:
        print("exact    = (not tabulated)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "integrate":
            return _cmd_integrate(args, parser)
        if args.command == "converge":
            return _cmd_converge(args, parser)
        return _cmd_example(args, parser)
    except _SOLVER_ERRORS as exc:
        print(f"oscint: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
