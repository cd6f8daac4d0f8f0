"""Reduction of monotone nonlinear-phase integrals to linear phase.

For ``int_a^b f(x) exp(i*omega*g(x)) dx`` with g strictly monotone, the
substitution y = g(x) gives a linear-phase integral of the transformed
amplitude f(g^{-1}(y)) / g'(g^{-1}(y)) over [g(a), g(b)].
``integrate_on_interval(f, omega, a, b, n, phase=(g, g_prime))``
(:mod:`oscint.moments`) runs :func:`substitute` and then the kernel; a caller
with a closed-form inverse of g composes the two itself.

Monotonicity is probed, not proven. At the probes and at every sampled
preimage node, g' is held to one rule, sign * g' > 0, with the sign g' has
at the bracket's left end (:func:`_slope`): a value that breaks it raises
``NonMonotonePhaseError("phase derivative is <v> at x = <x>, not of one sign
on [a, b]")``, or ``InvalidInputError`` ("phase function g' is not finite at
x = ...") where it is NaN. An infinite g' has a sign and passes. An error is
also raised for g not finite at a probe or out of order between two probes,
for a complex value of g, g' or the inverse, and for a NaN part of one
("not finite", not complex). A closed-form inverse's values are clipped into
the bracket, as the numeric inversion's lie in it. A zero of g' strictly
between the probes and the preimages, such as the stationary point x = 0 of
g = x^3 on [-1, 1], is not detected: the transformed amplitude is singular
inside the interval, and the value comes back wrong with no error raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, OscintError
from .moments import _cast_samples, _interval

__all__ = [
    "PhaseSpec",
    "NonMonotonePhaseError",
    "ComplexPhaseError",
    "InversionError",
    "substitute",
    "numeric_inverse",
]

_MAX_INVERSE_ITERATIONS = 200
# Chebyshev points of [-1, 1] in ascending order, both ends exact
_PROBES = -np.cos(np.pi * np.arange(64) / 63)


class NonMonotonePhaseError(OscintError, ValueError):
    """Phase derivative changes sign (or vanishes) inside the bracket."""


class ComplexPhaseError(OscintError, ValueError):
    """g, g' or the inverse has a value with a nonzero imaginary part.

    ``name`` is which of them (``"g"``, ``"g'"`` or ``"inverse"``), ``x``
    the first argument at which it is complex.
    """

    def __init__(self, name: str, x: float):
        super().__init__(name, x)
        self.name, self.x = name, x

    def __str__(self):
        return f"{self.name} is complex at x = {self.x!r}; phases must be real"


class InversionError(OscintError, RuntimeError):
    """Numeric inversion of the phase failed to converge."""


@dataclass(frozen=True)
class PhaseSpec:
    """Monotone phase g with derivative g' on the bracket [a, b].

    ``g``, ``g_prime`` and ``inverse`` are called on float arrays, must
    work elementwise and are sampled as the amplitude is
    (:func:`oscint.moments._cast_samples`: a scalar return such as
    ``lambda x: -1.0`` is broadcast). Their values must be real: a complex
    dtype is accepted, but a value with a nonzero imaginary part raises
    :class:`ComplexPhaseError`, or ``InvalidInputError`` ("not finite") if
    either of its parts is NaN. ``inverse`` is optional, and its values are
    clipped into the bracket; when it is absent, :func:`numeric_inverse` is
    used. Monotonicity is probed, not proven: :func:`substitute` tabulates
    g' and g once each at 64 Chebyshev points of the bracket (its ends
    included), requires g to be finite there and ordered in the sign of g',
    and holds g' to one rule, sign * g' > 0, at those points and again at
    every preimage node the transformed amplitude samples; an infinite g'
    passes, a NaN g' is "not finite". A zero of g' strictly between those
    points (a stationary point) is not detected: the integral comes back
    wrong and no error is raised. The bracket's ends are converted to floats
    and must be finite, with a < b, or
    ``InvalidInputError("invalid interval: ...")`` is raised; ``bracket``
    holds that float pair. Every probe lies in the bracket.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]
    bracket: tuple[float, float]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        # the probes of a reversed bracket would report it as a non-monotone g
        object.__setattr__(self, "bracket", _interval(*self.bracket)[:2])


class _ProbeTable(NamedTuple):
    """g at the probes of the bracket, oriented so that g increases."""

    sign: float  # sign of g' on the bracket
    x: np.ndarray  # probes, from the preimage of min g to that of max g
    g: np.ndarray  # g at ``x``, non-decreasing


def _not_finite(name: str, x: float) -> InvalidInputError:
    """The error for g, g' or the inverse (``name``) not finite at ``x``."""
    return InvalidInputError(f"phase function {name} is not finite at x = {x}")


def _values(fn: Callable, x: np.ndarray, name: str) -> np.ndarray:
    """``fn(x)`` under the one sampling contract, as "phase function <name>"
    (:func:`oscint.moments._cast_samples`), then real: a value with a nonzero
    imaginary part raises :class:`ComplexPhaseError` naming ``name`` and the
    first such x, where taking the real part would drop it, or
    :func:`_not_finite` there if either of its parts is NaN. The check runs
    only where the imaginary part is not all zero.
    """
    v = _cast_samples(fn, x, f"phase function {name}")
    if v.dtype.kind == "c":
        if v.imag.any():
            k = int(np.argmax(v.imag != 0))
            # 0*log(0) is nan+nanj in complex arithmetic: not finite, not complex
            error = _not_finite if np.isnan(v[k]) else ComplexPhaseError
            raise error(name, float(x[k]))
        return v.real
    return v


def _slope(phase: PhaseSpec, x: np.ndarray, sign: float | None = None):
    """``(sign, g'(x))`` with g' sampled by :func:`_values` and checked to be
    of one sign: ``sign`` (+1.0 or -1.0) where it is given, else that of g'
    at ``x[0]``. The rule is ``sign * g' > 0``, so an infinite g' passes. At
    the first x that breaks it, a NaN g' raises :class:`InvalidInputError`
    ("phase function g' is not finite at x = ...") and any other value
    :class:`NonMonotonePhaseError` naming the value and its x.
    """
    dv = _values(phase.g_prime, x, "g'")
    if sign is None:
        sign = 1.0 if dv[0] > 0 else -1.0
    ok = sign * dv > 0
    if not ok.all():
        k = int(np.argmin(ok))  # the first x that breaks the rule
        if np.isnan(dv[k]):
            raise _not_finite("g'", float(x[k]))
        a, b = phase.bracket
        raise NonMonotonePhaseError(
            f"phase derivative is {dv[k]} at x = {x[k]}, not of one sign on [{a}, {b}]"
        )
    return sign, dv


def _probe_table(phase: PhaseSpec) -> _ProbeTable:
    """Tabulate g' and g once each at the probes; raise unless g is monotone there.

    g' must pass :func:`_slope` with the sign of its first value, and g be
    finite (``InvalidInputError`` at the first probe where it is not) and
    non-strictly ordered in that sign, which is also what
    :func:`numpy.interp` needs of the table.
    """
    a, b, half, mid = _interval(*phase.bracket)
    x = np.clip(half * _PROBES + mid, a, b)
    x[0], x[-1] = a, b
    sign, _ = _slope(phase, x)
    gv = _values(phase.g, x, "g")
    bad = ~np.isfinite(gv)
    if bad.any():
        raise _not_finite("g", float(x[np.argmax(bad)]))
    if sign < 0:
        x, gv = x[::-1], gv[::-1]
    rising = np.diff(gv) >= 0
    if not rising.all():
        k = int(np.argmin(rising))
        raise NonMonotonePhaseError(
            f"phase derivative and the slope of g between the probes "
            f"x = {x[k]} and {x[k + 1]} are not of one sign on [{a}, {b}]"
        )
    return _ProbeTable(sign, x, gv)


def numeric_inverse(
    phase: PhaseSpec, y: float | np.ndarray, *, _table: _ProbeTable | None = None
) -> float | np.ndarray:
    """Solve g(x) = y on the bracket by bisection refined with Newton steps.

    ``y`` is a scalar (a float is returned) or an array (an array of the
    same shape is returned). g' and g are tabulated at 64 Chebyshev
    probes of the bracket, and each target starts from the linear
    interpolant of that table. All targets are then iterated together
    over numpy arrays, each with its own bracket, until every one has
    |g(x) - y| <= 1e-14 * (1 + |y|); a converged target keeps its x.
    ``_table`` is the table :func:`substitute` has already built; it is
    not for callers.

    Targets within 1e-12 * (1 + max|g|) of the range of g are clipped to
    it. A target equal to an end of the range after that clip returns that
    end of the bracket: the interpolant is exact there, and the start
    passes the first convergence test.
    Raises :class:`InvalidInputError` if any target lies further outside the range
    or g or g' is not finite at a probe (g' NaN; an infinite g' passes),
    :class:`NonMonotonePhaseError` if g' is not of one sign at the
    probes or g is not ordered in that sign there, and
    :class:`InversionError` if any target has not converged after 200
    iterations.
    """
    table = _probe_table(phase) if _table is None else _table
    lo, hi = table.x[0], table.x[-1]  # g(lo) <= g(hi)
    glo, ghi = table.g[0], table.g[-1]
    target = np.asarray(y, dtype=float)
    # integrate_on_interval clips its nodes into [g(a), g(b)]; a direct
    # caller's targets mapped onto it can land ulps of max|g| past its ends
    slack = 1e-12 * (1 + max(abs(glo), abs(ghi)))
    outside = ~((glo - slack <= target) & (target <= ghi + slack))
    if np.any(outside):
        raise InvalidInputError(
            f"target {target[outside][0]} outside the phase range [{glo}, {ghi}]"
        )
    ys = np.clip(target.ravel(), glo, ghi)
    tol = 1e-14 * (1 + np.abs(ys))
    x = np.interp(ys, table.g, table.x)
    lo = np.full(ys.shape, lo)
    hi = np.full(ys.shape, hi)
    done = np.zeros(ys.shape, dtype=bool)
    for _ in range(_MAX_INVERSE_ITERATIONS):
        gx = _values(phase.g, x, "g")
        done |= np.abs(gx - ys) <= tol
        if done.all():
            return float(x[0]) if target.ndim == 0 else x.reshape(target.shape)
        below = gx < ys
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        # Newton step, falling back to bisection if it leaves the bracket;
        # converged targets keep their x
        dg = _values(phase.g_prime, x, "g'")
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - (gx - ys) / dg
        newton = (dg != 0) & (np.minimum(lo, hi) < xn) & (xn < np.maximum(lo, hi))
        x = np.where(done, x, np.where(newton, xn, 0.5 * (lo + hi)))
    raise InversionError(
        f"phase inversion did not converge to {ys[~done][0]} in "
        f"{_MAX_INVERSE_ITERATIONS} iterations"
    )


def substitute(
    amplitude: Callable,
    phase: PhaseSpec,
    omega: float,
) -> tuple[Callable, tuple[float, float], float]:
    """Transform (f, g, omega) into an equivalent linear-phase problem.

    Returns the transformed amplitude, the new integration limits
    (ascending; the orientation sign is absorbed into the amplitude),
    and the unchanged frequency. Monotonicity is probed once, here: g'
    and g are tabulated at the 64 probes of :class:`PhaseSpec`, and the
    table's end values are the new limits. Each call of the transformed
    amplitude inverts all its points in one :func:`numeric_inverse`
    call, which starts from that table, or in one ``phase.inverse`` call,
    whose values are clipped into the bracket as the numeric inversion's
    lie in it. It then holds g' at every preimage to the probes' rule
    (:func:`_slope`): :class:`NonMonotonePhaseError` if g' there is zero or
    of the wrong sign, ``InvalidInputError`` if it is NaN; an infinite g'
    passes and that point's value is 0. A zero of g' strictly between
    the probes and the preimages is not detected: the transformed amplitude
    is singular there, and no error is raised. Its values are real where
    the amplitude's are. The amplitude at the preimages, like g, g' and the
    inverse, is sampled under the one contract of
    :func:`oscint.moments._cast_samples`.
    """
    table = _probe_table(phase)

    def transformed(y):
        y = np.asarray(y, dtype=float)
        ys = np.atleast_1d(y)
        if phase.inverse is None:
            x = numeric_inverse(phase, ys, _table=table)
        else:
            # a closed form can round an ulp past an end of the bracket
            x = np.clip(_values(phase.inverse, ys, "inverse"), *phase.bracket)
        sign, dg = _slope(phase, x, table.sign)
        out = sign * _cast_samples(amplitude, x) / dg
        return out[0] if y.ndim == 0 else out

    return transformed, (float(table.g[0]), float(table.g[-1])), omega
