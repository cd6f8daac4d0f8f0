"""Chebyshev machinery on Gauss-Lobatto grids.

Nodes, the forward coefficient transform (a DCT), and endpoint
evaluation of Chebyshev series. Everything here is real except that
coefficient vectors are allowed to be complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

__all__ = [
    "ChebyshevGrid",
    "SpectralCoefficients",
    "gauss_lobatto_nodes",
    "forward_coefficients",
    "endpoint_values",
]


@dataclass(frozen=True)
class ChebyshevGrid:
    """Gauss-Lobatto grid of degree ``n``: nodes cos(pi*k/n), descending."""

    n: int
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"grid degree must be >= 1, got {self.n}")
        if len(self.nodes) != self.n + 1:
            raise ValueError("node count does not match degree")


@dataclass(frozen=True)
class SpectralCoefficients:
    """Chebyshev coefficients c_0..c_n of a degree-n series."""

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.c) < 1:
            raise ValueError("empty coefficient vector")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("non-finite Chebyshev coefficient")

    @property
    def n(self) -> int:
        return len(self.c) - 1


def gauss_lobatto_nodes(n: int) -> ChebyshevGrid:
    """Gauss-Lobatto nodes x_k = cos(pi*k/n), k = 0..n, descending.

    The endpoints (and the midpoint for even n) are assigned exactly so
    that the symmetry x_k = -x_{n-k} holds without trigonometric
    round-off.
    """
    if n < 1:
        raise ValueError(f"grid degree must be >= 1, got {n}")
    x = np.cos(np.pi * np.arange(n + 1) / n)
    x[0] = 1.0
    if n % 2 == 0:
        x[n // 2] = 0.0
    # mirror the upper half so x_k = -x_{n-k} holds to the last bit
    half = (n + 1) // 2
    x[n + 1 - half :] = -x[:half][::-1]
    x.flags.writeable = False
    return ChebyshevGrid(n=n, nodes=x)


def forward_coefficients(f_values: np.ndarray, grid: ChebyshevGrid) -> np.ndarray:
    """Chebyshev interpolation coefficients from samples at the nodes.

    Returns c with sum_k c_k T_k(x_j) = f(x_j) at every node, computed
    through the half-weighted endpoint sum of discrete orthogonality
    (a type-I DCT).
    """
    f_values = np.asarray(f_values)
    n = grid.n
    if len(f_values) != n + 1:
        raise ValueError(
            f"expected {n + 1} samples for degree {n}, got {len(f_values)}"
        )
    if np.iscomplexobj(f_values):
        raw = dct(f_values.real, type=1) + 1j * dct(f_values.imag, type=1)
    else:
        raw = dct(f_values, type=1).astype(complex)
    # raw_j = 2 * sum'' T_j(x_k) f(x_k); normalize by discrete norms
    c = raw / n
    c[0] /= 2.0
    c[n] /= 2.0
    return c


def endpoint_values(coeffs: SpectralCoefficients) -> tuple[complex, complex]:
    """Values (p(1), p(-1)) of the series with the given coefficients."""
    c = coeffs.c
    p_plus = complex(np.sum(c))
    p_minus = complex(np.sum(c[::2]) - np.sum(c[1::2]))
    return p_plus, p_minus
