"""Command-line front end.

Subcommands: ``integrate`` for a single integral, ``converge`` for an
error-vs-n sweep emitted as CSV, and ``example`` to run an entry of the
built-in catalog. Each flag is checked once, by its argparse ``type`` or
``choices``. Exit codes: 0 success, 2 usage errors, 3 when oscint could not
compute what was asked, which is an :class:`~oscint.errors.OscintError`,
printed as one ``oscint: error:`` line. Any other exception is a defect and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import OscintError
from .expr import ParseError, parse_amplitude
from .moments import integrate_on_interval
from .oracle import builtin_examples, get_example, oscillatory_reference_quadrature
# substitute is not called here: the benchmark's tracer test reads the name
# ``oscint.cli.substitute``, and the binding keeps it
from .phase import ComplexPhaseError, substitute  # noqa: F401

# the flag that gives each phase function a ComplexPhaseError names
_PHASE_FLAGS = {"g": "--phase", "g'": "--phase-derivative"}


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


def _catalog_entry(args):
    """The catalog entry named by ``args.example``; ``--alpha`` needs its parameter."""
    spec = get_example(args.example)
    if args.alpha is not None and spec.default_alpha is None:
        args.parser.error(f"--alpha: example {spec.key} has no parameter")
    return spec


def _cmd_integrate(args) -> int:
    if args.phase is not None and args.phase_derivative is None:
        args.parser.error("--phase requires --phase-derivative")
    if args.phase_derivative is not None and args.phase is None:
        args.parser.error("--phase-derivative requires --phase")
    phase = None if args.phase is None else (args.phase, args.phase_derivative)
    result = integrate_on_interval(
        args.amplitude, args.omega, args.a, args.b, args.n, phase=phase
    )
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
    elif args.alpha is not None:
        args.parser.error("--alpha: --amplitude has no parameter")
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
    except OscintError as exc:
        if isinstance(exc, ComplexPhaseError):
            exc = ComplexPhaseError(_PHASE_FLAGS[exc.name], exc.x)
        print(f"oscint: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
