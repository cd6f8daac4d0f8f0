"""Oscillatory Fourier integrals by Chebyshev-Levin spectral collocation.

Computes ``int_a^b f(x) exp(i*omega*g(x)) dx`` by collocating the
slowly varying antiderivative on a Gauss-Lobatto grid, reducing the
problem to a banded complex linear system solved in O(n) time.
"""

from .banded import SingularMatrixError
from .chebyshev import (
    ChebyshevGrid,
    SpectralCoefficients,
    endpoint_values,
    forward_coefficients,
    gauss_lobatto_nodes,
)
from .expr import AmplitudeExpr, ParseError, parse_amplitude
from .levin import (
    AmplitudeSamplingError,
    IntegralProblem,
    IntegralResult,
    SolvePath,
    SolverOverflowError,
    ZeroFrequencyError,
    assemble_G,
    assemble_rhs,
    integrate_on_interval,
    integrate_standard,
    solve_coefficients,
)
from .oracle import (
    AccuracyNotReachedError,
    ExampleSpec,
    builtin_examples,
    dense_collocation_solve,
    get_example,
    oscillatory_reference_quadrature,
)
from .phase import (
    InversionError,
    NonMonotonePhaseError,
    PhaseSpec,
    numeric_inverse,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyNotReachedError",
    "AmplitudeExpr",
    "AmplitudeSamplingError",
    "ChebyshevGrid",
    "ExampleSpec",
    "IntegralProblem",
    "IntegralResult",
    "InversionError",
    "NonMonotonePhaseError",
    "ParseError",
    "PhaseSpec",
    "SingularMatrixError",
    "SolvePath",
    "SolverOverflowError",
    "SpectralCoefficients",
    "ZeroFrequencyError",
    "assemble_G",
    "assemble_rhs",
    "builtin_examples",
    "dense_collocation_solve",
    "endpoint_values",
    "forward_coefficients",
    "gauss_lobatto_nodes",
    "get_example",
    "integrate_on_interval",
    "integrate_standard",
    "numeric_inverse",
    "oscillatory_reference_quadrature",
    "parse_amplitude",
    "solve_coefficients",
    "substitute",
]
