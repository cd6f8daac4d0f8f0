"""The public API, the solver modules' independence from the oracles, and the
names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
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


@pytest.mark.parametrize("module", ["moments", "levin", "chebyshev", "banded", "phase"])
def test_solver_modules_do_not_import_the_oracle(module):
    path = Path(oscint.__file__).with_name(f"{module}.py")
    imported = [m for m in _imported_modules(path) if "oracle" in m.split(".")]
    assert imported == []


def test_kernel_does_not_import_the_reference_solver():
    # the production kernel stands on numpy, scipy and the Chebyshev layer
    path = Path(oscint.__file__).with_name("moments.py")
    imported = [
        m for m in _imported_modules(path) if {"banded", "levin"} & set(m.split("."))
    ]
    assert imported == []


def test_one_singular_matrix_error():
    # raised by the moment recurrence and by the band solvers alike
    assert oscint.SingularMatrixError is oscint.banded.SingularMatrixError


def _bench_span_targets():
    """``TARGETS`` of ``bench/spans.py``, loaded from its file as it stands."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


SPAN_TARGETS = _bench_span_targets()


@pytest.mark.parametrize("name", sorted(SPAN_TARGETS))
def test_bench_span_target_resolves(name):
    module_name, path = SPAN_TARGETS[name]
    owner_name, _, attr = path.rpartition(".")
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    # looked up as the tracer does: in the owner's own namespace
    assert callable(vars(owner).get(attr))


def test_levin_calls_the_traced_lu_solve():
    # the tracer replaces every oscint reference to the one function object
    assert oscint.levin.lu_solve is oscint.banded.lu_solve
