"""The paper's Levin collocation solver, kept as the reference.

:func:`integrate_standard` computes ``int_{-1}^{1} f(x) exp(i*omega*x) dx``
as the paper does: a banded complex system for the Chebyshev coefficients of
the antiderivative p, solved by LAPACK ``ztbtrs`` back-substitution when
|omega| > n and by Hermitian normal equations with a pivoted band LU
(``zgbtrf``/``zgbtrs``) otherwise (see :func:`assemble_G`). The acceptance
criteria test it. The production kernel, :func:`integrate_on_interval`,
solves no Levin system and lives in :mod:`oscint.moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .banded import (
    BandedComplexMatrix,
    banded_lu_partial_pivot,
    lu_solve,
    normal_system,
    upper_triangular_backsolve,
)
from .chebyshev import (
    SpectralCoefficients,
    check_degree,
    endpoint_values,
    forward_coefficients,
    gauss_lobatto_nodes,
)
from .moments import Amplitude, IntegralResult, SolvePath, _sample_amplitude

# The benchmark's tracer wraps the kernel under this module's name, as
# ``oscint.levin.integrate_on_interval``; the binding keeps that target.
from .moments import integrate_on_interval  # noqa: F401

__all__ = [
    "IntegralProblem",
    "SolverOverflowError",
    "ZeroFrequencyError",
    "assemble_G",
    "assemble_rhs",
    "solve_coefficients",
    "integrate_standard",
]


class ZeroFrequencyError(ValueError):
    """The Levin system is undefined at omega = 0 (the diagonal vanishes).

    :func:`integrate_on_interval` accepts omega = 0, a case of its
    Chebyshev-moment route (there the Clenshaw-Curtis rule).
    """


class SolverOverflowError(ValueError):
    """The banded solve produced non-finite Chebyshev coefficients.

    Forcing the direct path with n far above |omega| makes the
    back-substitution grow geometrically until it overflows.
    """


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


def assemble_rhs(problem: IntegralProblem) -> np.ndarray:
    """Right-hand side matching :func:`assemble_G`.

    Chebyshev interpolation coefficients of the amplitude sampled on the
    degree-``problem.n`` Gauss-Lobatto grid, combined by the same row
    operations that band-compress the matrix: ``diag(1/2, 1, ..., 1) . 2 S0``
    applied to the coefficients.
    """
    n = problem.n
    samples = _sample_amplitude(problem.amplitude, gauss_lobatto_nodes(n))
    c = forward_coefficients(samples)
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
    G = assemble_G(problem.omega, problem.n)
    rhs = assemble_rhs(problem)
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
