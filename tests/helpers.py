"""Helpers and closed-form references shared by several test modules.

The references use ``scipy.special``, which ``import oscint`` does not load;
they live here, not in ``oscint.oracle``, so that it stays that way. So do
the dense views that only tests read: a band matrix as a dense array and the
differentiation matrix on function samples.
"""

import numpy as np
from scipy.special import exp1, jv

from oscint.moments import _real_moments


def bits(z):
    """The exact bytes of a complex value, so that -0.0 and 0.0 differ."""
    return np.complex128(z).tobytes()


def to_dense(M):
    """The :class:`oscint.banded.BandedComplexMatrix` ``M`` as a dense array.

    Entry (i, j) is read from ``M.ab[ku + i - j, j]``; band slots that map
    outside the matrix are not read.
    """
    dense = np.zeros((M.dim, M.dim), dtype=complex)
    r, j = np.indices(M.ab.shape)
    i = j + r - M.ku
    inside = (0 <= i) & (i < M.dim)
    dense[i[inside], j[inside]] = M.ab[inside]
    return dense


def physical_diff_matrix(nodes):
    """Differentiation matrix acting on function samples at the nodes.

    Off-diagonal entries (r_k/r_j)(-1)^(k+j)/(x_k - x_j) with endpoint
    weights r_0 = r_n = 2; the diagonal is the negative row sum, which
    forces exact differentiation of constants.
    """
    n = len(nodes) - 1
    r = np.ones(n + 1)
    r[0] = r[n] = 2.0
    sign = (-1.0) ** np.arange(n + 1)
    # (x_k - x_j) with ones on the diagonal to avoid dividing by zero
    dx = nodes[:, None] - nodes[None, :] + np.eye(n + 1)
    D = (r[:, None] / r[None, :]) * (sign[:, None] * sign[None, :]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


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


def example_4_exact(omega, alpha=10.0):
    """Catalog example 4, ``int_{-1}^{1} exp(i*2*pi*alpha*x) exp(i*omega*x) dx``,
    omega + 2*pi*alpha != 0: 2 sin(omega + c) / (omega + c) with c = 2*pi*alpha
    formed as the catalog's amplitude forms it. The sine is expanded so that
    omega is kept apart from c: sin(fl(omega + c)) would lose eps*|omega|.
    """
    c = 2 * np.pi * alpha
    return complex(2 * (np.sin(omega) * np.cos(c) + np.cos(omega) * np.sin(c)) / (omega + c))


def example_5_exact(omega, alpha=0.8):
    """Catalog example 5, ``int_{-1}^{1} (1 - a^2) / (1 - 2*a*x + a^2) exp(i*omega*x) dx``
    with a = alpha in (0, 1) and omega > 0.

    The amplitude is k / (p - x) with the real pole p = (1 + a^2)/(2a) > 1 and
    k = (1 - a^2)/(2a); t = p - x gives k exp(i*omega*p) int_{p-1}^{p+1}
    exp(-i*omega*t) / t dt = k exp(i*omega*p) (E1(i*omega*(p-1)) - E1(i*omega*(p+1))).
    """
    p = (1 + alpha**2) / (2 * alpha)
    k = (1 - alpha**2) / (2 * alpha)
    return complex(
        k * np.exp(1j * omega * p) * (exp1(1j * omega * (p - 1)) - exp1(1j * omega * (p + 1)))
    )


def example_7_exact(omega):
    """Catalog example 7, ``int_{-1}^{1} (1 - x^2)^{3/2} exp(i*omega*x) dx``,
    omega != 0: 3*pi*J_2(omega)/omega^2 (Poisson's integral, DLMF 10.9.4)."""
    return complex(3 * np.pi * jv(2, omega) / omega**2)
