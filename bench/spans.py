"""Outside-in tracing of oscint: wraps public functions at run time.

Nothing under ``src/`` changes. Each target is found by name; every
reference to the same function object in a loaded ``oscint`` module
(the namespaces of its callers, e.g. ``oscint.levin.banded_lu_partial_pivot``
and ``oscint.cli.substitute``) is replaced by a wrapper that records a
span. Methods are wrapped on their class. A target that does not exist at
the commit being measured is reported as absent.

Spans nest: each wrapper charges its duration to its parent, so a span's
self time is its duration minus its children's. Spans are aggregated in
memory per name (self time, calls); nothing is written while tracing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path). Two-part paths are methods.
TARGETS = {
    "banded.banded_lu_partial_pivot": ("oscint.banded", "banded_lu_partial_pivot"),
    "banded.lu_solve": ("oscint.banded", "lu_solve"),
    "banded.normal_system": ("oscint.banded", "normal_system"),
    "banded.upper_triangular_backsolve": ("oscint.banded", "upper_triangular_backsolve"),
    "banded.matvec": ("oscint.banded", "BandedComplexMatrix.matvec"),
    "chebyshev.forward_coefficients": ("oscint.chebyshev", "forward_coefficients"),
    "chebyshev.gauss_lobatto_nodes": ("oscint.chebyshev", "gauss_lobatto_nodes"),
    "chebyshev.endpoint_values": ("oscint.chebyshev", "endpoint_values"),
    "levin.assemble_G": ("oscint.levin", "assemble_G"),
    "levin.assemble_rhs": ("oscint.levin", "assemble_rhs"),
    "levin.solve_coefficients": ("oscint.levin", "solve_coefficients"),
    "levin.integrate_standard": ("oscint.levin", "integrate_standard"),
    "levin.integrate_on_interval": ("oscint.levin", "integrate_on_interval"),
    "phase.substitute": ("oscint.phase", "substitute"),
    "phase.numeric_inverse": ("oscint.phase", "numeric_inverse"),
    "expr.parse_amplitude": ("oscint.expr", "parse_amplitude"),
    "expr.eval": ("oscint.expr", "AmplitudeExpr.__call__"),
    "cli.main": ("oscint.cli", "main"),
    "oracle.oscillatory_reference_quadrature": (
        "oscint.oracle", "oscillatory_reference_quadrature"),
    "oracle.dense_collocation_solve": ("oscint.oracle", "dense_collocation_solve"),
}

AMPLITUDE = "levin.amplitude"  # the amplitude callable the solver samples
ROOT = "bench.harness"  # one span per request; its self time is the harness's own


class Tracer:
    """Installs span wrappers on oscint and aggregates self time per span."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.points = 0  # amplitude samples requested
        self.absent = []
        self._stack = [0.0]  # child time of each open span; [0] is outside all
        self._undo = []
        self._root = self.span(ROOT, _call)

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span ``name`` nested in the open one."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                stack[-1] += dur

        return wrapper

    def amplitude(self, fn):
        """Wrap an amplitude callable: a span plus a count of sample points."""
        def sampled(x):
            self.points += getattr(x, "size", 1)
            return fn(x)

        return self.span(AMPLITUDE, sampled)

    def request(self, fn, *args):
        """Run ``fn(*args)`` as one request, under the root span."""
        return self._root(fn, *args)

    @property
    def traced_s(self) -> float:
        """Total duration of all requests run under the root span."""
        return self._stack[0]

    def _substitute(self, fn):
        # The transformed amplitude substitute() returns is what the solver
        # samples on the nonlinear-phase path.
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, tuple) and out and callable(out[0]):
                out = (self.amplitude(out[0]),) + out[1:]
            return out

        return self.span("phase.substitute", functools.wraps(fn)(wrapper))

    def install(self):
        self.absent = []
        for name, (module_name, path) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # vars(), not getattr(): a class without __call__ still has type's
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = (self._substitute(original) if name == "phase.substitute"
                       else self.span(name, original))
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                for mod in _oscint_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _call(fn, *args):
    return fn(*args)


def _oscint_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "oscint" or name.startswith("oscint."))]
