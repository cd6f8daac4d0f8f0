"""The public API, the solver modules' independence from the oracles, and the
names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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
    "OscintError",
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
    "numeric_inverse": "oscint.phase",
    "dense_collocation_solve": "oscint.oracle",
}


def test_public_names():
    assert len(oscint.__all__) == len(PUBLIC) == 22
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


def test_no_module_imports_scipy_fft():
    # every Chebyshev transform runs on numpy.fft: one FFT library; and the
    # moment route is chosen by the sign of sin 2w, not by Bessel functions
    package = Path(oscint.__file__).parent
    imported = [
        (path.name, m)
        for path in sorted(package.glob("*.py"))
        for m in _imported_modules(path)
        if m.split(".")[:2] in (["scipy", "fft"], ["scipy", "special"])
    ]
    assert imported == []


def test_import_does_not_load_scipy_special():
    # in a fresh interpreter: this one has loaded it for the tests
    src = str(Path(oscint.__file__).parents[1])
    script = "import oscint, sys; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


# every error class defined in oscint, with the builtin base it keeps
ERRORS = {
    "OscintError": Exception,
    "InvalidInputError": ValueError,
    "AccuracyNotReachedError": RuntimeError,
    "SingularMatrixError": ValueError,
    "AmplitudeSamplingError": ValueError,
    "ZeroFrequencyError": ValueError,
    "SolverOverflowError": ValueError,
    "NonMonotonePhaseError": ValueError,
    "ComplexPhaseError": ValueError,
    "InversionError": RuntimeError,
    "ParseError": ValueError,
}


def _raised_name(node: ast.Raise):
    """The name a ``raise`` statement raises, called or not; None if it has none."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None)


def test_one_error_family():
    package = Path(oscint.__file__).parent
    modules = [
        importlib.import_module(f"oscint.{module.name}")
        for module in pkgutil.iter_modules(oscint.__path__)
    ]
    defined = {
        name: obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert set(defined) == set(ERRORS)
    for name, cls in defined.items():
        builtin = [base for base in cls.__mro__ if base.__module__ == "builtins"]
        assert issubclass(cls, oscint.OscintError) and builtin[0] is ERRORS[name], name
    # a bare builtin raise is left only after banded.py's zero-pivot checks,
    # where LAPACK's info can report only a defect in how oscint calls it
    bare = [
        (path.name, "failed with info" in ast.unparse(node))
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and _raised_name(node) in {"ValueError", "RuntimeError"}
    ]
    assert bare == [("banded.py", True)] * 3
    # a leaf, so that every module can raise from it
    assert list(_imported_modules(package / "errors.py")) == []
    assert (
        oscint.AccuracyNotReachedError
        is oscint.oracle.AccuracyNotReachedError
        is oscint.errors.AccuracyNotReachedError
    )


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
