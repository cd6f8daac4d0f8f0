"""Ground-truth engines: dense collocation solve, oscillation-aware
reference quadrature, the dense transform and differentiation matrices
they are built from, and the built-in example catalog.

These are deliberately simple and may be orders of magnitude slower
than the banded solver; they exist to validate it and to supply exact
values for convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .chebyshev import ChebyshevGrid, SpectralCoefficients, gauss_lobatto_nodes
from .levin import IntegralProblem

__all__ = [
    "AccuracyNotReachedError",
    "ExampleSpec",
    "dense_collocation_solve",
    "oscillatory_reference_quadrature",
    "builtin_examples",
    "get_example",
    "transform_matrix",
    "physical_diff_matrix",
    "spectral_diff_matrix",
]

_MAX_ORACLE_DEGREE = 256
_MAX_PANELS = 2**20
_PANEL_ORDER = 32


class AccuracyNotReachedError(RuntimeError):
    """Quadrature refinement budget exhausted; carries the best estimate."""

    def __init__(self, estimate: complex, error_estimate: float):
        super().__init__(
            f"panel budget exceeded; best estimate {estimate} "
            f"(error ~ {error_estimate:.3e})"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate


def transform_matrix(grid: ChebyshevGrid) -> np.ndarray:
    """Matrix T with T[j, k] = T_k(x_j), by the three-term recurrence.

    Maps a coefficient vector to the vector of series values on the
    grid. Dense; intended for moderate n and for oracle checks.
    """
    n = grid.n
    T = np.empty((n + 1, n + 1))
    T[:, 0] = 1.0
    T[:, 1] = grid.nodes
    for k in range(1, n):
        T[:, k + 1] = 2.0 * grid.nodes * T[:, k] - T[:, k - 1]
    return T


def physical_diff_matrix(grid: ChebyshevGrid) -> np.ndarray:
    """Differentiation matrix acting on function samples at the nodes.

    Off-diagonal entries (r_k/r_j)(-1)^(k+j)/(x_k - x_j) with endpoint
    weights r_0 = r_n = 2; the diagonal is the negative row sum, which
    forces exact differentiation of constants.
    """
    n = grid.n
    x = grid.nodes
    r = np.ones(n + 1)
    r[0] = r[n] = 2.0
    sign = (-1.0) ** np.arange(n + 1)
    # (x_k - x_j) with ones on the diagonal to avoid dividing by zero
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    D = (r[:, None] / r[None, :]) * (sign[:, None] * sign[None, :]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def spectral_diff_matrix(n: int) -> np.ndarray:
    """Differentiation matrix B acting on Chebyshev coefficients.

    B[i, j] = 2j/r_i for j > i with i + j odd, zero otherwise, where
    r_0 = 2 and r_i = 1 for i > 0. Strictly upper triangular and dense.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    i, j = np.indices((n + 1, n + 1))
    B = np.where((j > i) & ((i + j) % 2 == 1), 2.0 * j, 0.0)
    B[0] /= 2  # row 0 carries the half weight r_0 = 2
    return B


def dense_collocation_solve(problem: IntegralProblem) -> SpectralCoefficients:
    """Solve the full dense collocation system T (B + i*omega*E) c = f.

    Independent of the banded pipeline: the matrix is formed explicitly
    and handed to a dense pivoted LU.
    """
    n = problem.n
    if n > _MAX_ORACLE_DEGREE:
        raise ValueError(f"dense oracle is limited to n <= {_MAX_ORACLE_DEGREE}")
    grid = gauss_lobatto_nodes(n)
    T = transform_matrix(grid)
    B = spectral_diff_matrix(n)
    A = T @ (B + 1j * problem.omega * np.eye(n + 1))
    f = np.asarray(problem.amplitude(grid.nodes), dtype=complex)
    f = np.broadcast_to(f, grid.nodes.shape).astype(complex)
    return SpectralCoefficients(c=np.linalg.solve(A, f))


@lru_cache(maxsize=8)
def _clenshaw_curtis_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the (m+1)-point Clenshaw-Curtis rule on [-1, 1]."""
    grid = gauss_lobatto_nodes(m)
    T = transform_matrix(grid)
    # weight on sample k: sum_j (moment of T_j) * (coefficient map)_{jk}
    gamma = np.full(m + 1, 2.0 / m)
    gamma[0] = gamma[m] = 1.0 / m
    halves = np.ones(m + 1)
    halves[0] = halves[m] = 0.5
    j = np.arange(m + 1)
    moments = np.where(j % 2 == 0, 2.0 / (1.0 - j.astype(float) ** 2 + (j % 2)), 0.0)
    moments[j % 2 == 1] = 0.0
    weights = (T * moments[None, :] * gamma[None, :]).sum(axis=1) * halves
    return grid.nodes, weights


def _panel_sum(
    amplitude: Callable,
    omega: float,
    a: float,
    b: float,
    panels: int,
) -> complex:
    x_ref, w_ref = _clenshaw_curtis_rule(_PANEL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    X = centers[:, None] + half * x_ref[None, :]
    F = np.asarray(amplitude(X.ravel()), dtype=complex)
    F = np.broadcast_to(F, X.ravel().shape).reshape(X.shape)
    F = F * np.exp(1j * omega * X)
    return complex(half * np.sum(F @ w_ref))


def oscillatory_reference_quadrature(
    amplitude: Callable,
    omega: float,
    a: float,
    b: float,
    tol: float = 1e-13,
) -> complex:
    """Composite Clenshaw-Curtis reference value of the oscillatory integral.

    The initial panel width is at most pi/(4|omega|) so every panel
    resolves the oscillation; panel count doubles until two successive
    refinements agree within ``tol``. Raises ``ValueError`` naming the
    argument when ``a``, ``b`` or ``omega`` is not finite.
    """
    for name, value in (("a", a), ("b", b), ("omega", omega)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    if tol < 1e-14:
        raise ValueError("tolerance below 1e-14 is not attainable in doubles")
    width = b - a
    panels = max(4, int(np.ceil(width * 4 * abs(omega) / np.pi)))
    previous = None
    value = complex("nan")
    last_diff = float("inf")
    while panels <= _MAX_PANELS:
        value = _panel_sum(amplitude, omega, a, b, panels)
        if previous is not None:
            last_diff = abs(value - previous)
            if last_diff < tol:
                return value
        previous = value
        panels *= 2
    raise AccuracyNotReachedError(value, last_diff)


@dataclass(frozen=True)
class ExampleSpec:
    """One entry of the built-in example catalog."""

    key: int
    description: str
    interval: tuple[float, float]
    default_alpha: float | None
    _amplitude: Callable  # alpha -> vectorized amplitude callable
    _exact: Callable  # (omega, alpha) -> complex | None

    def amplitude(self, alpha: float | None = None) -> Callable:
        a = self.default_alpha if alpha is None else alpha
        return self._amplitude(a)

    def exact_value(self, omega: float, alpha: float | None = None) -> complex | None:
        a = self.default_alpha if alpha is None else alpha
        return self._exact(omega, a)


_TABLE_1 = {
    1.0: 0.9113301035062809891 - 0.1775799622517861791j,
    10.0: -0.07854759997855625023 - 0.04871911238563061052j,
    50.0: -0.00665013790168713 + 0.0129677770647216j,
    100.0: -0.00667389328931381 + 0.00580336592710437j,
}

_TABLE_2 = {
    0.1: 1.5687504317409 + 0.0337582105322438j,
    1.0: 1.3745907842843 + 0.305184104407599j,
    3.0: 0.311077689499021 + 0.339612459676631j,
    10.0: 0.00266714972608754 + 0.180595659138141j,
    30.0: 0.00706973992290492 + 0.0455774930833239j,
    50.0: -0.00620005944852318 + 0.0155933115982172j,
    100.0: 0.00460104072965418 - 0.00790563176002816j,
}

_EXAMPLE_7_VALUES = {
    20.0: -0.00377795409950960 + 0.0j,
    1000.0: -2.33519886790130e-7 + 0.0j,
}


def _example2_amplitude(_alpha):
    def f(y):
        return 1.0 / (np.sqrt(1.0 - y**2) * ((np.arcsin(y) - 0.25) ** 2 + 1.0))

    return f


def _example3_exact(omega, alpha):
    z = alpha + 1j * omega
    return complex(2.0 * np.exp(-alpha) * np.sinh(z) / z)


def builtin_examples() -> dict[int, ExampleSpec]:
    """Catalog of the seven reference integrands."""
    sin34, sin54 = np.sin(0.75), np.sin(1.25)
    return {
        1: ExampleSpec(
            1,
            "rational amplitude 1/(x+2)",
            (-1.0, 1.0),
            None,
            lambda _a: (lambda x: 1.0 / (x + 2.0)),
            lambda w, _a: _TABLE_1.get(float(w)),
        ),
        2: ExampleSpec(
            2,
            "sin-phase integral after the substitution y = sin(x + 1/4)",
            (float(-sin34), float(sin54)),
            None,
            _example2_amplitude,
            lambda w, _a: _TABLE_2.get(float(w)),
        ),
        3: ExampleSpec(
            3,
            "exponential amplitude exp(alpha*(x-1))",
            (-1.0, 1.0),
            16.0,
            lambda a: (lambda x: np.exp(a * (x - 1.0))),
            lambda w, a: _example3_exact(w, a),
        ),
        4: ExampleSpec(
            4,
            "oscillatory amplitude exp(i*2*pi*alpha*x)",
            (-1.0, 1.0),
            10.0,
            lambda a: (lambda x: np.exp(1j * 2 * np.pi * a * x)),
            lambda w, a: None,
        ),
        5: ExampleSpec(
            5,
            "Chebyshev generating function (1-alpha^2)/(1-2*alpha*x+alpha^2)",
            (-1.0, 1.0),
            0.8,
            lambda a: (lambda x: (1.0 - a**2) / (1.0 - 2.0 * a * x + a**2)),
            lambda w, a: None,
        ),
        6: ExampleSpec(
            6,
            "bell-shaped amplitude 1/(x^2+alpha^2)",
            (-1.0, 1.0),
            0.25,
            lambda a: (lambda x: 1.0 / (x**2 + a**2)),
            lambda w, a: None,
        ),
        7: ExampleSpec(
            7,
            "endpoint-singular amplitude (1-x^2)^(3/2)",
            (-1.0, 1.0),
            None,
            lambda _a: (lambda x: (1.0 - x**2) ** 1.5),
            lambda w, _a: _EXAMPLE_7_VALUES.get(float(w)),
        ),
    }


def get_example(key: int) -> ExampleSpec:
    catalog = builtin_examples()
    if key not in catalog:
        raise KeyError(f"unknown example id {key}; available: 1..7")
    return catalog[key]
