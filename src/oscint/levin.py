"""Levin collocation solver for linear-phase oscillatory integrals.

Reduces ``int_{-1}^{1} f(x) exp(i*omega*x) dx`` to a banded complex
linear system for the Chebyshev coefficients of the slowly varying
antiderivative p, then evaluates ``p(1)e^{i w} - p(-1)e^{-i w}``.

Two solve paths: direct back-substitution on the bandwidth-2 upper
triangular system by LAPACK ``ztbtrs`` when |omega| > n, and Hermitian
normal equations by LAPACK's pivoted band LU (``zgbtrf``/``zgbtrs``)
with one refinement pass otherwise (back-substitution can amplify
rounding errors once n exceeds |omega|; see :func:`assemble_G`).
Below a negligible effective frequency, :func:`integrate_on_interval`
falls back to the reference quadrature and reports
:attr:`SolvePath.QUADRATURE`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .banded import (
    BandedComplexMatrix,
    banded_lu_partial_pivot,
    lu_solve,
    normal_system,
    upper_triangular_backsolve,
)
from .chebyshev import (
    ChebyshevGrid,
    SpectralCoefficients,
    endpoint_values,
    forward_coefficients,
    gauss_lobatto_nodes,
)

__all__ = [
    "Amplitude",
    "AmplitudeSamplingError",
    "IntegralProblem",
    "IntegralResult",
    "SolvePath",
    "SolverOverflowError",
    "ZeroFrequencyError",
    "assemble_G",
    "assemble_rhs",
    "solve_coefficients",
    "integrate_standard",
    "integrate_on_interval",
]

Amplitude = Callable[[np.ndarray], np.ndarray]


class ZeroFrequencyError(ValueError):
    """The Levin system is undefined at omega = 0 (the diagonal vanishes).

    Use an ordinary quadrature, e.g.
    :func:`oscint.oracle.oscillatory_reference_quadrature`, instead.
    """


class AmplitudeSamplingError(ValueError):
    """Amplitude returned a non-finite value at a collocation node."""

    def __init__(self, node: float):
        super().__init__(f"amplitude is not finite at node x = {node!r}")
        self.node = node


class SolverOverflowError(ValueError):
    """The banded solve produced non-finite Chebyshev coefficients.

    Forcing the direct path with n far above |omega| makes the
    back-substitution grow geometrically until it overflows.
    """


class SolvePath(enum.Enum):
    DIRECT_TRIANGULAR = "direct_triangular"
    NORMAL_EQUATIONS = "normal_equations"
    QUADRATURE = "quadrature"


def _check_degree(n: int) -> None:
    try:
        operator.index(n)
    except TypeError:
        raise ValueError(f"degree must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")


@dataclass(frozen=True)
class IntegralProblem:
    """Standard-form problem: amplitude f on [-1, 1], frequency omega, degree n."""

    amplitude: Amplitude
    omega: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if self.omega == 0:
            raise ZeroFrequencyError(
                "omega = 0: the integrand does not oscillate; "
                "use a non-oscillatory quadrature"
            )
        _check_degree(self.n)


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    path: SolvePath
    n_used: int
    residual_norm: float


def assemble_G(omega: float, n: int) -> BandedComplexMatrix:
    """Banded matrix G of the preconditioned collocation system.

    The upper triangular coefficient-space system (spectral
    differentiation plus i*omega on the diagonal) is compressed to
    bandwidth 2 by subtracting from each equation the one two rows
    down; row 0 subtracts half of row 2 to absorb its endpoint weight.
    The result: diagonal i*omega, first superdiagonal (1, 4, 6, ...,
    2n), second superdiagonal -i*omega except -i*omega/2 in row 0.

    Equivalently, truncated to (n+1) x (n+1),

        G = diag(1/2, 1, ..., 1) . 2 (D + i*omega*S0),

    the ultraspherical discretization of p' + i*omega*p (Olver &
    Townsend, SIAM Rev. 55(3), 2013). D maps Chebyshev-T coefficients
    to C^(1) coefficients of the derivative (D[k, k+1] = k + 1); S0
    converts T to C^(1) (row 0 is (1, 0, -1/2), rows k >= 1 are
    (1/2, 0, -1/2) from column k). :func:`assemble_rhs` applies the
    same diag(1/2, 1, ..., 1) . 2 S0 to the amplitude's coefficients.
    Back-substitution divides by the diagonal i*omega while the first
    superdiagonal grows like 2k, so it amplifies rounding errors once n
    exceeds |omega|: hence the |omega| > n split between the paths.
    """
    if omega == 0:
        raise ZeroFrequencyError(
            "omega = 0: the Levin system has a zero diagonal; "
            "use a non-oscillatory quadrature"
        )
    _check_degree(n)
    iw = 1j * omega
    G = BandedComplexMatrix(n + 1, kl=0, ku=2)
    G.set_band(0, np.full(n + 1, iw))
    sup1 = 2.0 * np.arange(1, n + 1, dtype=float).astype(complex)
    sup1[0] = 1.0
    G.set_band(1, sup1)
    sup2 = np.full(n - 1, -iw)
    sup2[0] = -iw / 2
    G.set_band(2, sup2)
    return G


def _sample_amplitude(problem: IntegralProblem, grid: ChebyshevGrid) -> np.ndarray:
    fv = np.asarray(problem.amplitude(grid.nodes), dtype=complex)
    if fv.shape != grid.nodes.shape:
        fv = np.broadcast_to(fv, grid.nodes.shape).astype(complex)
    bad = ~np.isfinite(fv)
    if bad.any():
        raise AmplitudeSamplingError(float(grid.nodes[int(np.argmax(bad))]))
    return fv


def assemble_rhs(problem: IntegralProblem, grid: ChebyshevGrid) -> np.ndarray:
    """Right-hand side matching :func:`assemble_G`.

    Chebyshev interpolation coefficients of the sampled amplitude,
    combined by the same row operations that band-compress the matrix:
    ``diag(1/2, 1, ..., 1) . 2 S0`` applied to the coefficients.
    """
    if grid.n != problem.n:
        raise ValueError("grid degree does not match problem degree")
    c = forward_coefficients(_sample_amplitude(problem, grid), grid)
    n = grid.n
    rhs = c.copy()
    rhs[0] -= c[2] / 2
    rhs[1 : n - 1] -= c[3 : n + 1]
    return rhs


def solve_coefficients(
    problem: IntegralProblem,
    force_path: SolvePath | None = None,
) -> tuple[SpectralCoefficients, SolvePath, float]:
    """Antiderivative coefficients, the solve path taken, and the residual.

    Path selection: direct back-substitution when |omega| > n, normal
    equations otherwise. The residual is the infinity norm of
    G c - rhs for the banded system in both cases, so the paths are
    directly comparable. ``force_path`` overrides the selection (used
    for cross-path consistency checks). Raises
    :class:`SolverOverflowError` when the solve yields non-finite
    coefficients.
    """
    if force_path is SolvePath.QUADRATURE:
        raise ValueError("the quadrature fallback solves no banded system")
    grid = gauss_lobatto_nodes(problem.n)
    G = assemble_G(problem.omega, problem.n)
    rhs = assemble_rhs(problem, grid)
    if force_path is not None:
        path = force_path
    elif abs(problem.omega) > problem.n:
        path = SolvePath.DIRECT_TRIANGULAR
    else:
        path = SolvePath.NORMAL_EQUATIONS
    if path is SolvePath.DIRECT_TRIANGULAR:
        c = upper_triangular_backsolve(G, rhs)
    else:
        H, y = normal_system(G, rhs)
        factors = banded_lu_partial_pivot(H)
        c = lu_solve(factors, y)
        # One refinement pass against the banded system: the normal
        # equations square the conditioning, and where that still
        # leaves headroom (kappa(H)*eps < 1) a single corrected solve
        # recovers coefficient accuracy at the original kappa(G) level.
        c = c + lu_solve(factors, G.rmatvec(rhs - G.matvec(c)))
    if not np.all(np.isfinite(c)):
        raise SolverOverflowError(
            f"{path.value} solve overflowed at n/|omega| = "
            f"{problem.n / abs(problem.omega):.3g}"
        )
    residual = float(np.max(np.abs(G.matvec(c) - rhs)))
    return SpectralCoefficients(c=c), path, residual


def integrate_standard(
    problem: IntegralProblem,
    force_path: SolvePath | None = None,
) -> IntegralResult:
    """Compute ``int_{-1}^{1} f(x) exp(i*omega*x) dx``."""
    coeffs, path, residual = solve_coefficients(problem, force_path)
    p_plus, p_minus = endpoint_values(coeffs)
    w = problem.omega
    value = p_plus * np.exp(1j * w) - p_minus * np.exp(-1j * w)
    return IntegralResult(
        value=complex(value), path=path, n_used=problem.n, residual_norm=residual
    )


# Effective frequencies below this are not oscillatory at all; the Levin
# diagonal would be numerically zero, so hand off to the reference quadrature.
_MIN_EFFECTIVE_OMEGA = 1e-14


def integrate_on_interval(
    amplitude: Amplitude,
    omega: float,
    a: float,
    b: float,
    n: int,
    force_path: SolvePath | None = None,
) -> IntegralResult:
    """Compute ``int_a^b f(x) exp(i*omega*x) dx``.

    The interval is mapped onto [-1, 1]; the effective frequency
    becomes omega*(b-a)/2 and the constant phase shift
    exp(i*omega*(b+a)/2) multiplies the result. Below a negligible
    effective frequency no banded system is solved: the result comes
    from the reference quadrature, with path ``QUADRATURE`` and a NaN
    residual.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    _check_degree(n)
    half = (b - a) / 2
    mid = (b + a) / 2
    omega_eff = omega * half
    if abs(omega_eff) < _MIN_EFFECTIVE_OMEGA:
        from .oracle import oscillatory_reference_quadrature

        value = oscillatory_reference_quadrature(amplitude, omega, a, b, tol=1e-13)
        return IntegralResult(
            value=value, path=SolvePath.QUADRATURE, n_used=n, residual_norm=float("nan")
        )

    def mapped(t):
        return amplitude(half * t + mid)

    inner = integrate_standard(
        IntegralProblem(amplitude=mapped, omega=omega_eff, n=n), force_path
    )
    value = half * np.exp(1j * omega * mid) * inner.value
    return IntegralResult(
        value=complex(value),
        path=inner.path,
        n_used=n,
        residual_norm=inner.residual_norm,
    )
