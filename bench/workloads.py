"""Seeded inputs, independent references and the public-API call of each workload.

A workload is an endless sequence of rounds. Round ``r`` of a workload is a
list of requests drawn from ``numpy.random.default_rng([seed, key, r])``, so
the same seed always gives the same inputs. Each round is stratified: the
input properties that set the cost of an integral (``n``, ``omega``, the
phase family) are spread over equal-probability strata and only jittered
inside them by the seed. Rounds are therefore alike in cost and a run's
figures depend little on which seed the run was given.

Round 0 supplies the warm-up and set-up request (its request of median
``n``, so that set-up cost does not swing with the seed); timed rounds start
at 1.

Frequencies avoid the band ``0.15 n <= |omega_eff| < n``, where the
normal-equations path loses digits erratically: relative errors from 1e-16
to 1e-2 were seen for neighbouring inputs
(``test_bench.test_normal_path_band_defect`` records it). Inside the band no
tolerance separates right from wrong results, so a workload that crossed it
could not check its outputs.

References never call the solver under test: closed forms for exponential
amplitudes, the tabulated sin-phase values of ``oscint.oracle.get_example(2)``,
and the oracle's reference quadrature of the substituted integrand, built
here with analytic inverses of the phase.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

A, B = -1.0, 1.0  # linear-phase workloads integrate over [-1, 1]


@dataclass(frozen=True)
class Request:
    """One integral. Linear phase when ``argv`` is None, else one CLI call."""

    omega: float
    n: int
    reference: Callable[[], complex] = field(repr=False)
    amplitude: Callable | None = field(default=None, repr=False)
    argv: tuple[str, ...] | None = None


def run_request(oscint, req: Request, amplitude: Callable | None = None):
    """Send one request through the public API; return (value, path name).

    ``oscint`` is the imported package. Functions are looked up on it at
    call time, so wrappers installed by the tracer are seen. ``amplitude``
    replaces ``req.amplitude`` (the tracer passes a wrapped callable).
    """
    if req.argv is None:
        result = oscint.integrate_on_interval(
            amplitude or req.amplitude, req.omega, A, B, req.n
        )
        return result.value, result.path.value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = oscint.cli.main(list(req.argv))
    if code != 0:
        raise RuntimeError(f"oscint integrate exited with code {code}")
    re_s, im_s, path = out.getvalue().split()[:3]
    return complex(float(re_s), float(im_s)), path


# ---------------------------------------------------------------- sampling


def _strata(rng, k: int, lo: float, hi: float, log: bool = True) -> np.ndarray:
    """k values, one uniform draw in each of k equal strata of [lo, hi], shuffled."""
    u = (np.arange(k) + rng.random(k)) / k
    if log:
        v = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    else:
        v = lo + u * (hi - lo)
    return rng.permutation(v)


BAND = (0.15, 1.0)  # |omega_eff| / n where the normal path is inaccurate


def _off_band(u, n, lo: float, hi: float):
    """Map u in [0, 1) log-uniformly onto [lo, hi] minus [0.15 n, n)."""
    L, H = np.log(lo), np.log(hi)
    a = np.clip(np.log(BAND[0] * n), L, H)
    b = np.clip(np.log(BAND[1] * n), L, H)
    t = u * ((a - L) + (H - b))
    return np.exp(np.where(t < a - L, L + t, b + t - (a - L)))


def _exp_alpha(rng) -> complex:
    """Exponent of exp(alpha*x): |Re| in [0.5, 1.5], Im in [-1.5, 1.5].

    |alpha| <= 2.2 keeps the amplitude resolved to rounding level at n = 16,
    and |Re alpha| >= 0.5 keeps the integral away from zero, so relative
    error is well defined.
    """
    re = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    return complex(re, rng.uniform(-1.5, 1.5))


def _exp_request(alpha: complex, omega: float, n: int, amplitude) -> Request:
    def reference() -> complex:
        z = alpha + 1j * omega
        return complex(2.0 * np.sinh(z) / z)

    return Request(omega=float(omega), n=int(n), reference=reference, amplitude=amplitude)


def _exp_amplitude(alpha: complex):
    return lambda x: np.exp(alpha * x)


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    key: int  # stream id in the seed sequence; fixed per workload
    tol: float  # relative-error tolerance of one integral
    predicted_top: tuple[str, ...]  # spans predicted to hold the largest self time
    make_round: Callable = field(repr=False)

    def round(self, seed: int, r: int) -> list[Request]:
        rng = np.random.default_rng([seed & (2**64 - 1), self.key, r])
        return self.make_round(rng)

    def first(self, seed: int) -> Request:
        """The set-up and warm-up request: round 0's request of median n."""
        reqs = sorted(self.round(seed, 0), key=lambda req: req.n)
        return reqs[len(reqs) // 2]


def _sweep_round(rng) -> list[Request]:
    # 32 (amplitude, n) pairs, each evaluated at 8 frequencies in a row, as
    # a frequency sweep would. The 8 requests share one amplitude object.
    reqs = []
    for n in _strata(rng, 32, 16, 256):
        n = round(n)
        alpha = _exp_alpha(rng)
        f = _exp_amplitude(alpha)
        for omega in _off_band(_strata(rng, 8, 0.0, 1.0, log=False), n, 1.0, 1e5):
            reqs.append(_exp_request(alpha, omega, n, f))
    return reqs


def _large_n_direct_round(rng) -> list[Request]:
    ns = _strata(rng, 8, 1e4, 1e5)
    ratios = _strata(rng, 8, 2.0, 50.0, log=False)
    reqs = []
    for n, ratio in zip(ns, ratios):
        alpha = _exp_alpha(rng)
        reqs.append(_exp_request(alpha, round(n) * ratio, round(n), _exp_amplitude(alpha)))
    return reqs


def _large_n_normal_round(rng) -> list[Request]:
    ns = _strata(rng, 8, 2e3, 2e4)
    omegas = _strata(rng, 8, 1.0, 10.0, log=False)
    reqs = []
    for n, omega in zip(ns, omegas):
        alpha = _exp_alpha(rng)
        reqs.append(_exp_request(alpha, omega, round(n), _exp_amplitude(alpha)))
    return reqs


# Nonlinear phase. Amplitudes are (expression template, numpy twin); the
# expression goes to the CLI, the twin to the reference.
_AMPLITUDES = (
    ("1/(x^2+{p})", (0.5, 2.0), lambda p: lambda x: 1.0 / (x**2 + p)),
    ("exp({p}*x)", (-1.0, 1.0), lambda p: lambda x: np.exp(p * x)),
    ("cos({p}*x)+2", (0.5, 3.0), lambda p: lambda x: np.cos(p * x) + 2.0),
    ("x^2+{p}*x+1", (-1.0, 1.0), lambda p: lambda x: x**2 + p * x + 1.0),
)


def _phase_sin(rng):
    """g = sin(x+s) on [-1, 1]; |s| <= 0.2 keeps g' >= cos(1.2) > 0."""
    s = rng.uniform(-0.2, 0.2)
    return (f"sin(x+{s!r})", f"cos(x+{s!r})", -1.0, 1.0,
            lambda y: np.arcsin(y) - s, lambda x: np.cos(x + s),
            lambda x: np.sin(x + s))


def _phase_cube(rng):
    """g = x^3 on [a, b] inside [0.9, 2.1], away from the stationary point 0."""
    a, b = rng.uniform(0.9, 1.1), rng.uniform(1.9, 2.1)
    return ("x^3", "3*x^2", a, b, np.cbrt, lambda x: 3.0 * x**2, lambda x: x**3)


def _phase_exp(rng):
    """g = exp(c*x) on [-1, 1] with c in [0.5, 1]."""
    c = rng.uniform(0.5, 1.0)
    return (f"exp({c!r}*x)", f"{c!r}*exp({c!r}*x)", -1.0, 1.0,
            lambda y: np.log(y) / c, lambda x: c * np.exp(c * x),
            lambda x: np.exp(c * x))


def _cli_argv(amplitude: str, phase: str, dphase: str, a, b, omega, n) -> tuple[str, ...]:
    return ("integrate", "--amplitude", amplitude, "--omega", repr(float(omega)),
            "--n", str(int(n)), "--a", repr(float(a)), "--b", repr(float(b)),
            "--phase", phase, "--phase-derivative", dphase)


def _table_request(rng) -> Request:
    """The sin-phase integral of criterion 2 at a tabulated frequency.

    The table's omega of 30, 50 and 100 fall in the inaccurate band at
    n >= 90, so only the lower entries are used.
    """
    from_table = (0.1, 1.0, 3.0, 10.0)
    omega = from_table[rng.integers(len(from_table))]
    n = int(rng.integers(90, 151))  # as criterion 2: below 90 the amplitude is under-resolved

    def reference() -> complex:
        from oscint.oracle import get_example

        return complex(get_example(2).exact_value(omega))

    argv = _cli_argv("1/(x^2+1)", "sin(x+0.25)", "cos(x+0.25)", -1.0, 1.0, omega, n)
    return Request(omega=omega, n=n, reference=reference, argv=argv)


def _substituted_request(rng, family, slot: int, u: float, n: int) -> Request:
    phase, dphase, a, b, inverse, g_prime, g = family(rng)
    # the solver sees omega_eff = omega * (g(b) - g(a)) / 2 after substitution
    omega = float(_off_band(u, n, 1.0, 1e3)) * 2.0 / (g(b) - g(a))
    template, (lo, hi), twin = _AMPLITUDES[slot % len(_AMPLITUDES)]
    p = rng.uniform(lo, hi)
    f = twin(p)

    def reference() -> complex:
        from oscint.oracle import oscillatory_reference_quadrature

        def h(y):
            x = inverse(y)
            return f(x) / g_prime(x)

        return complex(oscillatory_reference_quadrature(h, omega, g(a), g(b), tol=1e-14))

    argv = _cli_argv(template.format(p=repr(p)), phase, dphase, a, b, omega, n)
    return Request(omega=float(omega), n=int(n), reference=reference, argv=argv)


def _nonlinear_round(rng) -> list[Request]:
    families = (_phase_sin, _phase_cube, _phase_exp)
    us = _strata(rng, 7, 0.0, 1.0, log=False)
    ns = _strata(rng, 7, 60, 151, log=False)
    reqs = [_table_request(rng)]
    for slot, (u, n) in enumerate(zip(us, ns)):
        reqs.append(_substituted_request(rng, families[slot % 3], slot, u, int(n)))
    return [reqs[i] for i in rng.permutation(len(reqs))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 1, 1e-9, ("banded.banded_lu_partial_pivot",), _sweep_round),
        Workload("large_n_direct", 2, 1e-7,
                 ("banded.upper_triangular_backsolve",), _large_n_direct_round),
        Workload("large_n_normal", 3, 1e-10,
                 ("banded.banded_lu_partial_pivot",), _large_n_normal_round),
        Workload("nonlinear_phase", 4, 1e-8,
                 ("expr.eval", "phase.numeric_inverse"), _nonlinear_round),
    )
}
