"""The public API, and the solver modules' independence from the oracles."""

import ast
import importlib
from pathlib import Path

import pytest

import oscint

PUBLIC = {
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
}

# internals kept out of ``oscint.__all__``, by the module that defines them
INTERNAL = {
    "assemble_G": "oscint.levin",
    "assemble_rhs": "oscint.levin",
    "solve_coefficients": "oscint.levin",
    "forward_coefficients": "oscint.chebyshev",
    "endpoint_values": "oscint.chebyshev",
    "gauss_lobatto_nodes": "oscint.chebyshev",
    "ChebyshevGrid": "oscint.chebyshev",
    "SpectralCoefficients": "oscint.chebyshev",
    "numeric_inverse": "oscint.phase",
    "dense_collocation_solve": "oscint.oracle",
}


def test_public_names():
    assert len(oscint.__all__) == len(PUBLIC) == 21
    assert set(oscint.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(oscint, name) is not None


@pytest.mark.parametrize("name", sorted(INTERNAL))
def test_internal_names_importable_from_their_module(name):
    assert name not in oscint.__all__
    module = importlib.import_module(INTERNAL[name])
    assert name in module.__all__
    assert callable(getattr(module, name))


def _imported_modules(path: Path):
    """Every module named by an import statement anywhere in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            # ``from . import oracle`` names the module as an imported name
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["levin", "chebyshev", "banded", "phase"])
def test_solver_modules_do_not_import_the_oracle(module):
    path = Path(oscint.__file__).with_name(f"{module}.py")
    imported = [m for m in _imported_modules(path) if "oracle" in m.split(".")]
    assert imported == []
