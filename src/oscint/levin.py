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
solves no system: it sums the Clenshaw-Curtis weights against the
Chebyshev coefficients of the same n+1 samples and reports
:attr:`SolvePath.QUADRATURE`.
"""

from __future__ import annotations

import enum
import math
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
    check_degree,
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

    :func:`integrate_on_interval` accepts omega = 0: it integrates the
    amplitude's interpolant by Clenshaw-Curtis instead.
    """


class AmplitudeSamplingError(ValueError):
    """Amplitude returned a non-finite value at a collocation node.

    ``node`` is where the caller's amplitude was sampled: a point of
    [a, b] for :func:`integrate_on_interval`.
    """

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
        check_degree(self.n, 2)


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
    check_degree(n, 2)
    iw = 1j * omega
    G = BandedComplexMatrix(n + 1, kl=0, ku=2)
    # band storage: row 2 - k holds band k from column k on
    ab = G.ab
    ab[2] = iw
    ab[1, 1] = 1.0
    ab[1, 2:] = 2.0 * np.arange(2, n + 1, dtype=float)
    ab[0, 2] = -iw / 2
    ab[0, 3:] = -iw
    return G


def _sample_amplitude(amplitude: Amplitude, nodes: np.ndarray) -> np.ndarray:
    """Amplitude at the nodes: float64 if its values are real, else complex128.

    Real samples stay real so that :func:`forward_coefficients` takes one
    real DCT instead of a complex transform. A non-finite sample raises
    :class:`AmplitudeSamplingError` naming its node.
    """
    fv = np.asarray(amplitude(nodes))
    dtype = float if fv.dtype.kind in "biuf" else complex
    if fv.shape != nodes.shape:
        fv = np.broadcast_to(fv, nodes.shape).astype(dtype)
    else:
        fv = fv.astype(dtype, copy=False)
    if not np.isfinite(fv).all():
        bad = ~np.isfinite(fv)
        raise AmplitudeSamplingError(float(nodes[int(np.argmax(bad))]))
    return fv


def assemble_rhs(problem: IntegralProblem, grid: ChebyshevGrid) -> np.ndarray:
    """Right-hand side matching :func:`assemble_G`.

    Chebyshev interpolation coefficients of the sampled amplitude,
    combined by the same row operations that band-compress the matrix:
    ``diag(1/2, 1, ..., 1) . 2 S0`` applied to the coefficients.
    """
    if grid.n != problem.n:
        raise ValueError("grid degree does not match problem degree")
    c = forward_coefficients(_sample_amplitude(problem.amplitude, grid.nodes), grid)
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
    try:
        coeffs = SpectralCoefficients(c=c)
    except ValueError:  # the only check a length-(n+1) vector can fail
        raise SolverOverflowError(
            f"{path.value} solve overflowed at n/|omega| = "
            f"{problem.n / abs(problem.omega):.3g}"
        ) from None
    residual = float(np.abs(G.matvec(c) - rhs).max())
    return coeffs, path, residual


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
# diagonal would be numerically zero, so integrate the interpolant instead.
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
    effective frequency (|omega*(b-a)/2| < 1e-14) no banded system is
    solved: the result is the Clenshaw-Curtis sum over the same n+1
    Gauss-Lobatto samples, i.e. the exact integral of their degree-n
    interpolant, with path ``QUADRATURE`` and a NaN residual. As on the
    other paths, ``n`` bounds how much of the amplitude is resolved.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    check_degree(n, 2)
    half = (b - a) / 2
    mid = (b + a) / 2
    omega_eff = omega * half
    if abs(omega_eff) < _MIN_EFFECTIVE_OMEGA:
        grid = gauss_lobatto_nodes(n)
        samples = _sample_amplitude(amplitude, half * grid.nodes + mid)
        c = forward_coefficients(samples, grid)
        # int_{-1}^{1} T_k = 2/(1-k^2) for even k, 0 for odd k
        k = np.arange(0, n + 1, 2)
        value = half * np.exp(1j * omega * mid) * np.sum(c[::2] * (2.0 / (1 - k**2)))
        return IntegralResult(
            value=complex(value),
            path=SolvePath.QUADRATURE,
            n_used=n,
            residual_norm=float("nan"),
        )

    def mapped(t):
        return amplitude(half * t + mid)

    try:
        inner = integrate_standard(
            IntegralProblem(amplitude=mapped, omega=omega_eff, n=n), force_path
        )
    except AmplitudeSamplingError as err:
        # the solver sampled at t in [-1, 1]; name the caller's x instead
        raise AmplitudeSamplingError(half * err.node + mid) from None
    value = half * np.exp(1j * omega * mid) * inner.value
    return IntegralResult(
        value=complex(value),
        path=inner.path,
        n_used=n,
        residual_norm=inner.residual_norm,
    )
