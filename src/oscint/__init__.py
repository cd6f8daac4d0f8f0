"""Oscillatory Fourier integrals by Chebyshev-Levin spectral collocation.

Computes ``int_a^b f(x) exp(i*omega*g(x)) dx``. The Levin collocation
polynomial on the Gauss-Lobatto grid integrates to the Chebyshev
coefficients of the amplitude's samples against the moments of
exp(i*omega*x): :func:`integrate_on_interval` (:mod:`oscint.moments`)
sums them after one real LAPACK solve for the moments.
:func:`integrate_standard` (:mod:`oscint.levin`) is the paper's solver,
kept as the reference: it solves the banded complex Levin system for the
antiderivative's coefficients in O(n) time.
"""

from .expr import AmplitudeExpr, ParseError, parse_amplitude
from .levin import (
    IntegralProblem,
    SolverOverflowError,
    ZeroFrequencyError,
    integrate_standard,
)
from .moments import (
    AmplitudeSamplingError,
    IntegralResult,
    SingularMatrixError,
    SolvePath,
    integrate_on_interval,
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
