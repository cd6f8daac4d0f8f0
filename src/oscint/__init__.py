"""Oscillatory Fourier integrals by Chebyshev-Levin spectral collocation.

Computes ``int_a^b f(x) exp(i*omega*g(x)) dx`` by collocating the
slowly varying antiderivative on a Gauss-Lobatto grid, reducing the
problem to a banded complex linear system solved in O(n) time.
"""

from .banded import SingularMatrixError
from .expr import AmplitudeExpr, ParseError, parse_amplitude
from .levin import (
    AmplitudeSamplingError,
    IntegralProblem,
    IntegralResult,
    SolvePath,
    SolverOverflowError,
    ZeroFrequencyError,
    integrate_on_interval,
    integrate_standard,
)
from .oracle import (
    AccuracyNotReachedError,
    ExampleSpec,
    builtin_examples,
    get_example,
    oscillatory_reference_quadrature,
)
from .phase import InversionError, NonMonotonePhaseError, PhaseSpec, substitute

__version__ = "0.1.0"

__all__ = [
    "AccuracyNotReachedError",
    "AmplitudeExpr",
    "AmplitudeSamplingError",
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
    "ZeroFrequencyError",
    "builtin_examples",
    "get_example",
    "integrate_on_interval",
    "integrate_standard",
    "oscillatory_reference_quadrature",
    "parse_amplitude",
    "substitute",
]
