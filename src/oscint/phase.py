"""Reduction of monotone nonlinear-phase integrals to linear phase.

For ``int_a^b f(x) exp(i*omega*g(x)) dx`` with g strictly monotone, the
substitution y = g(x) gives a linear-phase integral of the transformed
amplitude f(g^{-1}(y)) / g'(g^{-1}(y)) over [g(a), g(b)]. Stationary
phase points (g' = 0) are excluded by the monotonicity precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PhaseSpec",
    "NonMonotonePhaseError",
    "InversionError",
    "substitute",
    "numeric_inverse",
]

_MONOTONICITY_PROBES = 64
_MAX_INVERSE_ITERATIONS = 200


class NonMonotonePhaseError(ValueError):
    """Phase derivative changes sign (or vanishes) inside the bracket."""


class InversionError(RuntimeError):
    """Numeric inversion of the phase failed to converge."""


@dataclass(frozen=True)
class PhaseSpec:
    """Monotone phase g with derivative g' on the bracket [a, b].

    ``g``, ``g_prime`` and ``inverse`` are called on float arrays and
    must work elementwise; a scalar return (e.g. ``lambda x: -1.0``) is
    broadcast to the argument's shape. ``inverse`` is optional; when
    absent, :func:`numeric_inverse` is used. Monotonicity is probed, not
    proven: :func:`substitute` evaluates g' once at 64 Chebyshev points
    of the bracket, and the transformed amplitude checks the sign of g'
    again at every preimage node it samples.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]
    bracket: tuple[float, float]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None


def _values(fn: Callable, x: np.ndarray) -> np.ndarray:
    """``fn(x)`` as a float array of ``x``'s shape (scalar returns broadcast)."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)


def _probe_points(a: float, b: float, count: int = _MONOTONICITY_PROBES) -> np.ndarray:
    t = np.cos(np.pi * np.arange(count) / (count - 1))
    return (b - a) / 2 * t + (b + a) / 2


def _check_monotone(phase: PhaseSpec) -> float:
    """Return the constant sign of g' on the bracket, or raise."""
    a, b = phase.bracket
    dv = _values(phase.g_prime, _probe_points(a, b))
    if np.any(dv == 0) or not (np.all(dv > 0) or np.all(dv < 0)):
        raise NonMonotonePhaseError(
            f"phase derivative is not of one sign on [{a}, {b}]"
        )
    return 1.0 if dv[0] > 0 else -1.0


def numeric_inverse(
    phase: PhaseSpec, y: float | np.ndarray, *, sign: float | None = None
) -> float | np.ndarray:
    """Solve g(x) = y on the bracket by bisection refined with Newton steps.

    ``y`` is a scalar (a float is returned) or an array (an array of the
    same shape is returned). All targets are iterated together over numpy
    arrays, each with its own bracket; a target leaves the iteration once
    |g(x) - y| <= 1e-14 * (1 + |y|). ``sign`` is the sign of g' on the
    bracket when the caller has already probed it (as :func:`substitute`
    does); by default it is probed here.

    Targets within 1e-12 * (1 + max|g|) of the range of g are clipped to
    it; a target at an end of the range returns that end of the bracket.
    Raises ``ValueError`` if any target lies further outside the range,
    :class:`NonMonotonePhaseError` if the probe finds g' not of one sign,
    and :class:`InversionError` if any target has not converged after
    200 iterations.
    """
    a, b = phase.bracket
    if sign is None:
        sign = _check_monotone(phase)
    lo, hi = (a, b) if sign > 0 else (b, a)  # g(lo) <= g(hi)
    glo, ghi = (float(v) for v in _values(phase.g, np.array([lo, hi])))
    target = np.asarray(y, dtype=float)
    low, high = min(glo, ghi), max(glo, ghi)
    # nodes mapped onto [g(a), g(b)] can land ulps of max|g| past its ends
    slack = 1e-12 * (1 + max(abs(glo), abs(ghi)))
    outside = ~((low - slack <= target) & (target <= high + slack))
    if np.any(outside):
        raise ValueError(
            f"target {target[outside][0]} outside the phase range [{glo}, {ghi}]"
        )
    ys = np.clip(target.ravel(), low, high)
    tol = 1e-14 * (1 + np.abs(ys))
    lo = np.full(ys.shape, lo)
    hi = np.full(ys.shape, hi)
    x = 0.5 * (lo + hi)
    # a target at an end of the range has its root at an end of the bracket,
    # which Newton steps overshoot and bisection only approaches
    x = np.where(np.abs(glo - ys) <= tol, lo, np.where(np.abs(ghi - ys) <= tol, hi, x))
    out = np.empty(ys.shape)
    active = np.arange(ys.size)  # positions in ``out`` of unconverged targets
    for _ in range(_MAX_INVERSE_ITERATIONS):
        gx = _values(phase.g, x)
        done = np.abs(gx - ys) <= tol
        out[active[done]] = x[done]
        if done.all():
            return float(out[0]) if target.ndim == 0 else out.reshape(target.shape)
        keep = ~done
        active, x, gx, ys, tol, lo, hi = (
            v[keep] for v in (active, x, gx, ys, tol, lo, hi)
        )
        below = gx < ys
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        # Newton step, falling back to bisection if it leaves the bracket
        dg = _values(phase.g_prime, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - (gx - ys) / dg
        newton = (dg != 0) & (np.minimum(lo, hi) < xn) & (xn < np.maximum(lo, hi))
        x = np.where(newton, xn, 0.5 * (lo + hi))
    raise InversionError(
        f"phase inversion did not converge to {ys[0]} in "
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
    and the unchanged frequency. Monotonicity is probed once, here. Each
    call of the transformed amplitude inverts all its points in one
    :func:`numeric_inverse` (or ``phase.inverse``) call and raises
    :class:`NonMonotonePhaseError` if g' at any preimage is zero or of
    the wrong sign. Its values are real where the amplitude's are.
    """
    a, b = phase.bracket
    sign = _check_monotone(phase)
    ga, gb = _values(phase.g, np.array([a, b]))
    lo, hi = (ga, gb) if ga < gb else (gb, ga)

    def transformed(y):
        y = np.asarray(y, dtype=float)
        ys = np.atleast_1d(y)
        if phase.inverse is None:
            x = numeric_inverse(phase, ys, sign=sign)
        else:
            x = _values(phase.inverse, ys)
        dg = _values(phase.g_prime, x)
        wrong = ~(sign * dg > 0)
        if np.any(wrong):
            raise NonMonotonePhaseError(
                f"phase derivative is {dg[wrong][0]} at x = {x[wrong][0]}, "
                f"not of the sign it has on the probes of [{a}, {b}]"
            )
        out = sign * np.asarray(amplitude(x)) / dg
        return out[0] if y.ndim == 0 else out

    return transformed, (float(lo), float(hi)), omega
