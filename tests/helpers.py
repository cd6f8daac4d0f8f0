"""Helpers and closed-form references shared by several test modules.

The references use ``scipy.special``, which ``import oscint`` does not load;
they live here, not in ``oscint.oracle``, so that it stays that way.
"""

import numpy as np
from scipy.special import exp1, jv

from oscint.moments import _real_moments


def bits(z):
    """The exact bytes of a complex value, so that -0.0 and 0.0 differ."""
    return np.complex128(z).tobytes()


def i_pow(n):
    """i^k, k = 0..n, exactly."""
    return np.resize([1, 1j, -1, -1j], n + 1)


def chebyshev_moments(omega, n):
    """Moments ``M_k = int_{-1}^{1} T_k(x) exp(i*omega*x) dx = i^k m_k``, k = 0..n."""
    return i_pow(n) * _real_moments(omega, n)


def example_1_exact(omega):
    """Catalog example 1, ``int_{-1}^{1} exp(i*omega*x) / (x + 2) dx``, omega != 0.

    With t = x + 2 it is exp(-2i*omega) int_1^3 exp(i*omega*t) / t dt, and
    int_c^inf exp(-s*t) / t dt = E1(s*c) gives
    exp(-2i*omega) (E1(-i*omega) - E1(-3i*omega)).
    """
    return complex(np.exp(-2j * omega) * (exp1(-1j * omega) - exp1(-3j * omega)))


def example_7_exact(omega):
    """Catalog example 7, ``int_{-1}^{1} (1 - x^2)^{3/2} exp(i*omega*x) dx``,
    omega != 0: 3*pi*J_2(omega)/omega^2 (Poisson's integral, DLMF 10.9.4)."""
    return complex(3 * np.pi * jv(2, omega) / omega**2)
