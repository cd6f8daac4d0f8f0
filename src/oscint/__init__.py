"""Oscillatory Fourier integrals by Chebyshev-Levin spectral collocation.

Computes ``int_a^b f(x) exp(i*omega*g(x)) dx`` by collocating the
slowly varying antiderivative on a Gauss-Lobatto grid, reducing the
problem to a banded complex linear system solved in O(n) time.
"""

from .banded import (
    BandedComplexMatrix,
    LUFactors,
    SingularMatrixError,
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
    physical_diff_matrix,
    spectral_diff_matrix,
    transform_matrix,
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
    "BandedComplexMatrix",
    "ChebyshevGrid",
    "ExampleSpec",
    "IntegralProblem",
    "IntegralResult",
    "InversionError",
    "LUFactors",
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
    "banded_lu_partial_pivot",
    "builtin_examples",
    "dense_collocation_solve",
    "endpoint_values",
    "forward_coefficients",
    "gauss_lobatto_nodes",
    "get_example",
    "integrate_on_interval",
    "integrate_standard",
    "lu_solve",
    "normal_system",
    "numeric_inverse",
    "oscillatory_reference_quadrature",
    "parse_amplitude",
    "physical_diff_matrix",
    "solve_coefficients",
    "spectral_diff_matrix",
    "substitute",
    "transform_matrix",
    "upper_triangular_backsolve",
]
