"""Levin collocation solver for linear-phase oscillatory integrals.

:func:`integrate_standard` is the paper's Levin solver, kept as the
reference that the acceptance criteria test: a banded complex system for
the Chebyshev coefficients of the antiderivative p of
``int_{-1}^{1} f(x) exp(i*omega*x) dx``, solved by LAPACK ``ztbtrs``
back-substitution when |omega| > n and by Hermitian normal equations with
a pivoted band LU (``zgbtrf``/``zgbtrs``) otherwise (see :func:`assemble_G`).

:func:`integrate_on_interval` solves no Levin system. The collocation
polynomial solves p' + i*omega*p = f_n exactly, so at every frequency its
value is ``c . M(omega, n)``: the Chebyshev coefficients of the amplitude's
interpolant f_n against the moments of exp(i*omega*x)
(:func:`_chebyshev_moments`), one real LAPACK solve per call whose
omega-independent row sequences are read from a module-level table
(:func:`_moment_rows`). Discrete orthogonality lets that sum run from
either side. Below degree ``_NODE_WEIGHTS_FROM_N`` the transform acts on the
samples, one memoised complex FFT of length 2n (or one real DCT), so a sweep
over omega at one amplitude transforms once. From there on it acts on the
real moments: node weights W = (1/n) diag(h) DCT-I(M), one complex FFT of
length n (:func:`oscint.chebyshev._node_weights`), and the value is
``samples . W``.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special
from scipy.linalg.lapack import dgtsv, dtbtrs

from .banded import (
    BandedComplexMatrix,
    SingularMatrixError,
    banded_lu_partial_pivot,
    lu_solve,
    normal_system,
    upper_triangular_backsolve,
)
from .chebyshev import (
    SpectralCoefficients,
    _grid,
    _node_weights,
    check_degree,
    endpoint_values,
    forward_coefficients,
    gauss_lobatto_nodes,
)

__all__ = [
    "Amplitude",
    "AmplitudeSamplingError",
    "IntegralProblem",
    "IntegralResult",
    "SolvePath",
    "SolverOverflowError",
    "ZeroFrequencyError",
    "assemble_G",
    "assemble_rhs",
    "solve_coefficients",
    "integrate_standard",
    "integrate_on_interval",
]

Amplitude = Callable[[np.ndarray], np.ndarray]

# From this degree on, integrate_on_interval sums the samples against node
# weights instead of transforming them. Per call, with a fresh amplitude, the
# node-weight route took a median 0.76x the c . M route's time over random
# n in [1024, 2048) and 0.92x over [512, 1024) (2-CPU x86-64 host); the
# smaller gain does not pay for the transform memo's hits on frequency
# sweeps, which only the c . M route has.
_NODE_WEIGHTS_FROM_N = 1024


class ZeroFrequencyError(ValueError):
    """The Levin system is undefined at omega = 0 (the diagonal vanishes).

    :func:`integrate_on_interval` accepts omega = 0, a case of its
    Chebyshev-moment route (there the Clenshaw-Curtis rule).
    """


class AmplitudeSamplingError(ValueError):
    """Amplitude returned a non-finite value at a collocation node.

    ``node`` is where the caller's amplitude was sampled: a point of
    [a, b] for :func:`integrate_on_interval`.
    """

    def __init__(self, node: float):
        super().__init__(f"amplitude is not finite at node x = {node!r}")
        self.node = node


class SolverOverflowError(ValueError):
    """The banded solve produced non-finite Chebyshev coefficients.

    Forcing the direct path with n far above |omega| makes the
    back-substitution grow geometrically until it overflows.
    """


class SolvePath(enum.Enum):
    DIRECT_TRIANGULAR = "direct_triangular"
    NORMAL_EQUATIONS = "normal_equations"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class IntegralProblem:
    """Standard-form problem: amplitude f on [-1, 1], frequency omega, degree n."""

    amplitude: Amplitude
    omega: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if self.omega == 0:
            raise ZeroFrequencyError(
                "omega = 0: the integrand does not oscillate; "
                "use a non-oscillatory quadrature"
            )
        check_degree(self.n, 2)


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    path: SolvePath
    n_used: int
    residual_norm: float


def assemble_G(omega: float, n: int) -> BandedComplexMatrix:
    """Banded matrix G of the preconditioned collocation system.

    The upper triangular coefficient-space system (spectral
    differentiation plus i*omega on the diagonal) is compressed to
    bandwidth 2 by subtracting from each equation the one two rows
    down; row 0 subtracts half of row 2 to absorb its endpoint weight.
    The result: diagonal i*omega, first superdiagonal (1, 4, 6, ...,
    2n), second superdiagonal -i*omega except -i*omega/2 in row 0.

    Equivalently, truncated to (n+1) x (n+1),

        G = diag(1/2, 1, ..., 1) . 2 (D + i*omega*S0),

    the ultraspherical discretization of p' + i*omega*p (Olver &
    Townsend, SIAM Rev. 55(3), 2013). D maps Chebyshev-T coefficients
    to C^(1) coefficients of the derivative (D[k, k+1] = k + 1); S0
    converts T to C^(1) (row 0 is (1, 0, -1/2), rows k >= 1 are
    (1/2, 0, -1/2) from column k). :func:`assemble_rhs` applies the
    same diag(1/2, 1, ..., 1) . 2 S0 to the amplitude's coefficients.
    Back-substitution divides by the diagonal i*omega while the first
    superdiagonal grows like 2k, so it amplifies rounding errors once n
    exceeds |omega|: hence the |omega| > n split between the paths.
    """
    if omega == 0:
        raise ZeroFrequencyError(
            "omega = 0: the Levin system has a zero diagonal; "
            "use a non-oscillatory quadrature"
        )
    check_degree(n, 2)
    iw = 1j * omega
    G = BandedComplexMatrix(n + 1, kl=0, ku=2)
    # band storage: row 2 - k holds band k from column k on
    ab = G.ab
    ab[2] = iw
    ab[1, 1] = 1.0
    ab[1, 2:] = 2.0 * np.arange(2, n + 1, dtype=float)
    ab[0, 2] = -iw / 2
    ab[0, 3:] = -iw
    return G


def _sample_amplitude(amplitude: Amplitude, nodes: np.ndarray) -> np.ndarray:
    """Amplitude at the nodes: float64 if its values are real, else complex128.

    Real samples stay real so that :func:`forward_coefficients` takes one
    real DCT instead of a complex transform. A non-finite sample raises
    :class:`AmplitudeSamplingError` naming its node.

    The check is one pass, the sum of |f|^2 (``np.vdot``), which is finite
    exactly when every sample is, unless it overflows: only then are the
    samples scanned one by one, so samples of size 1e200 are accepted
    without a warning.
    """
    fv = np.asarray(amplitude(nodes))
    dtype = float if fv.dtype.kind in "biuf" else complex
    if fv.shape != nodes.shape:
        fv = np.broadcast_to(fv, nodes.shape).astype(dtype)
    else:
        fv = fv.astype(dtype, copy=False)
    if not cmath.isfinite(np.vdot(fv, fv)):
        bad = ~np.isfinite(fv)
        if bad.any():
            raise AmplitudeSamplingError(float(nodes[int(np.argmax(bad))]))
    return fv


def assemble_rhs(problem: IntegralProblem) -> np.ndarray:
    """Right-hand side matching :func:`assemble_G`.

    Chebyshev interpolation coefficients of the amplitude sampled on the
    degree-``problem.n`` Gauss-Lobatto grid, combined by the same row
    operations that band-compress the matrix: ``diag(1/2, 1, ..., 1) . 2 S0``
    applied to the coefficients.
    """
    n = problem.n
    samples = _sample_amplitude(problem.amplitude, gauss_lobatto_nodes(n))
    c = forward_coefficients(samples)
    rhs = c.copy()
    rhs[0] -= c[2] / 2
    rhs[1 : n - 1] -= c[3 : n + 1]
    return rhs


def solve_coefficients(
    problem: IntegralProblem,
    force_path: SolvePath | None = None,
) -> tuple[SpectralCoefficients, SolvePath, float]:
    """Antiderivative coefficients, the solve path taken, and the residual.

    Path selection: direct back-substitution when |omega| > n, normal
    equations otherwise. The residual is the infinity norm of
    G c - rhs for the banded system in both cases, so the paths are
    directly comparable. ``force_path`` overrides the selection (used
    for cross-path consistency checks). Raises
    :class:`SolverOverflowError` when the solve yields non-finite
    coefficients.
    """
    if force_path is SolvePath.QUADRATURE:
        raise ValueError("the quadrature fallback solves no banded system")
    G = assemble_G(problem.omega, problem.n)
    rhs = assemble_rhs(problem)
    if force_path is not None:
        path = force_path
    elif abs(problem.omega) > problem.n:
        path = SolvePath.DIRECT_TRIANGULAR
    else:
        path = SolvePath.NORMAL_EQUATIONS
    if path is SolvePath.DIRECT_TRIANGULAR:
        c = upper_triangular_backsolve(G, rhs)
    else:
        H, y = normal_system(G, rhs)
        factors = banded_lu_partial_pivot(H)
        c = lu_solve(factors, y)
        # One refinement pass against the banded system: the normal
        # equations square the conditioning, and where that still
        # leaves headroom (kappa(H)*eps < 1) a single corrected solve
        # recovers coefficient accuracy at the original kappa(G) level.
        c = c + lu_solve(factors, G.rmatvec(rhs - G.matvec(c)))
    try:
        coeffs = SpectralCoefficients(c=c)
    except ValueError:  # the only check a length-(n+1) vector can fail
        raise SolverOverflowError(
            f"{path.value} solve overflowed at n/|omega| = "
            f"{problem.n / abs(problem.omega):.3g}"
        ) from None
    residual = float(np.abs(G.matvec(c) - rhs).max())
    return coeffs, path, residual


def integrate_standard(
    problem: IntegralProblem,
    force_path: SolvePath | None = None,
) -> IntegralResult:
    """Compute ``int_{-1}^{1} f(x) exp(i*omega*x) dx``."""
    coeffs, path, residual = solve_coefficients(problem, force_path)
    p_plus, p_minus = endpoint_values(coeffs)
    w = problem.omega
    value = p_plus * np.exp(1j * w) - p_minus * np.exp(-1j * w)
    return IntegralResult(
        value=complex(value), path=path, n_used=problem.n, residual_norm=residual
    )


class _MomentRows(NamedTuple):
    """The omega-independent sequences of the moment rows k = 1..N.

    Entry j of ``diagonal`` and ``rhs`` belongs to row k = j + 1; entry j of
    ``below`` and ``above`` to the sub- and superdiagonal between unknowns
    m_{j+1} and m_{j+2}, as LAPACK ``dgtsv`` takes them; ``i_pow`` is i^k for
    k = 0..N.

    ``band`` is the forward route's lower band in LAPACK ``dtbtrs`` storage,
    Fortran-ordered, before its middle row is divided by -w: rows 0, 1 and 2
    of column j hold ``above[j]``, ``diagonal[j + 1]`` and ``below[j + 1]``,
    so that a call's band is a copy of its first N - 1 columns. Its last
    entry, ``band[2, -1]``, would be ``below[N]`` and is 0. LAPACK never
    reads ``ab[1, -1]`` or ``ab[2, -2:]`` of a band, so a prefix of a longer
    table solves as the band built for its own N does.
    """

    diagonal: np.ndarray  # 2(k^2 - 1), except 4 in row 1
    below: np.ndarray  # row k's coefficient of m_{k-1}, over -w: k + 1
    above: np.ndarray  # row k's coefficient of m_{k+1}, over -w: k - 1, 1 in row 1
    rhs: np.ndarray  # row k's entry of (2 sin w, 4 cos w, 4 sin w, -4 cos w, -4 sin w)
    i_pow: np.ndarray  # i^k, k = 0..N
    band: np.ndarray  # (above, diagonal, below) as the forward route solves them


def _build_moment_rows(N: int) -> _MomentRows:
    k = np.arange(1.0, N + 1)
    diagonal = k * k
    diagonal -= 1
    diagonal *= 2
    diagonal[0] = 4.0
    below = k[1:] + 1
    above = k[:-1] - 1
    above[0] = 1.0
    band = np.zeros((3, N - 1), order="F")
    band[0] = above
    band[1] = diagonal[1:]
    band[2, :-1] = below[1:]
    # -2 B_k / i^k is 2 sin w in row 1 and repeats with period 4 from row 2
    rhs = np.zeros(N, dtype=np.intp)
    rhs[1:] = np.arange(N - 1) % 4 + 1
    i_pow = np.resize([1, 1j, -1, -1j], N + 1)
    rows = _MomentRows(diagonal, below, above, rhs, i_pow, band)
    for sequence in rows:
        sequence.flags.writeable = False
    return rows


_moment_rows_table = _build_moment_rows(2)
_moment_rows_growth = threading.Lock()


def _moment_rows(N: int) -> _MomentRows:
    """The row table with at least N rows, grown to exactly N if it is shorter.

    The table is replaced as a whole, never written into, so a caller reads
    one consistent tuple; the lock only keeps concurrent growth from
    replacing a longer table by a shorter one.
    """
    global _moment_rows_table
    rows = _moment_rows_table
    if len(rows.diagonal) < N:
        with _moment_rows_growth:
            if len(_moment_rows_table.diagonal) < N:
                _moment_rows_table = _build_moment_rows(N)
            rows = _moment_rows_table
    return rows


def _chebyshev_moments(omega: float, n: int) -> np.ndarray:
    """Moments ``M_k = int_{-1}^{1} T_k(x) exp(i*omega*x) dx``, k = 0..n.

    The complex form of :func:`_real_moments`: M_k = i^k m_k.
    """
    m = _real_moments(omega, n)
    # the table that call read holds at least n + 1 powers, and it is only
    # ever replaced by a longer one
    return m * _moment_rows_table.i_pow[: n + 1]


def _real_moments(omega: float, n: int) -> np.ndarray:
    """Real moments ``m_k = M_k / i^k``, k = 0..n, of :func:`_chebyshev_moments`.

    M_0 = 2 sin(w)/w is pinned. Integrating T_1 = T_2'/4 and, for k >= 2,
    T_k = (T_{k+1}'/(k+1) - T_{k-1}'/(k-1))/2 by parts gives the rows

        4 M_1 + i*w M_2 = 2i sin w,
        2(k^2 - 1) M_k + i*w*(k-1) M_{k+1} - i*w*(k+1) M_{k-1} = -2 B_k,

    with B_k = 2 cos w for even k and 2i sin w for odd k. In m_k = M_k / i^k
    they are real. Where |w| > n, every k <= n lies below |w|, where the
    rows are stable forwards: M_1 = 2i (sin w - w cos w)/w^2 is pinned too,
    and one real lower-banded LAPACK ``dtbtrs`` gives M_2..M_n.

    Elsewhere they are one boundary-value problem with M_{N+1} = 0 (Olver,
    J. Res. NBS 71B, 1967), N = max(n, 1.5|w|) + 40, which suppresses the
    growing solution past |w| before it reaches k <= n: one real tridiagonal
    ``dgtsv``, whose rows decouple into the Clenshaw-Curtis weights
    2/(1-k^2) at w = 0. The decaying homogeneous solution m_k = k J_k(w)
    satisfies row 1 where J_0(w) = 0, making the system singular there. So
    where |J_1(w)| > |J_0(w)|, M_1 is pinned instead and rows 2..N are
    solved, singular only where J_1(w) = 0; the zeros of J_0 and J_1 interlace.

    Nothing in the rows but w depends on the call: their sequences are read
    as prefixes of a module-level table of read-only arrays
    (:func:`_moment_rows`). A call forms the five values of its period-4
    right-hand side from Python floats, already divided by -w on the
    forward route, and writes them into the moment vector it returns with
    one ``take``. The forward route then copies the table's band, already in
    ``dtbtrs`` storage, and divides its middle row by -w; the other scales
    the sub- and superdiagonal by -w and copies the diagonal. The one solve
    runs in the moment vector. The table stores nothing that depends on w.
    """
    w = float(omega)
    forward = abs(w) > n
    N = n if forward else max(n, math.ceil(1.5 * abs(w))) + 40
    rows = _moment_rows(N)
    cos_w, sin_w = math.cos(w), math.sin(w)
    m = np.empty(N + 2)  # row N's right-hand side goes to m[N + 1] when forward
    m[0] = 2.0 * sin_w / w if w else 2.0
    if forward:
        # rows divided by -w so that no entry overflows; row k gives m_{k+1},
        # so its right-hand side is written to m[k + 1]
        m[1] = (m[0] - 2 * cos_w) / w
        s = -w
        rhs = np.array(
            (2 * sin_w / s, 4 * cos_w / s, 4 * sin_w / s, -4 * cos_w / s, -4 * sin_w / s)
        )
        # mode "wrap" (the indices are in range) lets take write straight to out
        rhs.take(rows.rhs[:N], out=m[2:], mode="wrap")
        m[2] -= 4.0 / s * m[1]  # the known M_1 terms of rows 1 and 2
        m[3] -= 3.0 * m[1]
        # lower band storage, Fortran-ordered so that f2py passes it as is
        ab = rows.band[:, : N - 1].copy(order="F")
        ab[1] /= s
        # the diagonal, above, has no zero, so the solve cannot fail
        m[2 : N + 1], _ = dtbtrs(ab, m[2 : N + 1], "L", overwrite_b=1)
    else:
        rhs = np.array((2 * sin_w, 4 * cos_w, 4 * sin_w, -4 * cos_w, -4 * sin_w))
        rhs.take(rows.rhs[:N], out=m[1 : N + 1], mode="wrap")
        first = 0  # index of the first row solved, k = first + 1
        if abs(special.j1(w)) > abs(special.j0(w)):  # |w| > 1.43: M_1 does not cancel
            m1 = 2.0 * (sin_w - w * cos_w) / (w * w)
            m[2] += 3 * w * m1  # row 2's known M_1 term
            m[1] = m1
            first = 1
        # dgtsv overwrites all four arrays, read-only or not: the diagonal is
        # passed as a copy
        *_, m[first + 1 : N + 1], info = dgtsv(
            rows.below[first : N - 1] * -w,
            rows.diagonal[first:N].copy(),
            rows.above[first : N - 1] * -w,
            m[first + 1 : N + 1],
            1, 1, 1, 1,
        )
        if info:
            row = first + info
            raise SingularMatrixError(f"zero pivot in moment recurrence row {row}", row)
    return m[: n + 1]


def integrate_on_interval(
    amplitude: Amplitude,
    omega: float,
    a: float,
    b: float,
    n: int,
) -> IntegralResult:
    """Compute ``int_a^b f(x) exp(i*omega*x) dx``.

    The interval is mapped onto [-1, 1]; the effective frequency
    becomes w = omega*(b-a)/2 and the constant phase shift
    exp(i*omega*(b+a)/2) multiplies the result. The value is
    ``c . M(w, n)``, the Chebyshev coefficients of the amplitude's samples
    on the n+1 Gauss-Lobatto nodes against the moments of T_k: the Levin
    value, which is the Filon-Clenshaw-Curtis rule of Dominguez, Graham &
    Smyshlyaev (IMA J. Numer. Anal. 31(4), 2011). Below degree
    ``_NODE_WEIGHTS_FROM_N`` it is summed that way, through the memoised
    :func:`forward_coefficients`; from there on it is summed as
    ``samples . W(w, n)`` with the node weights of
    :func:`oscint.chebyshev._node_weights`, whose one transform, a complex
    FFT of length n, acts on the real moments. The path
    says how the moments were computed: ``DIRECT_TRIANGULAR`` where
    |w| > n and ``QUADRATURE`` elsewhere, w = 0 included. No system in c is
    solved, so the residual is NaN. ``n`` bounds how much of the amplitude
    is resolved.

    On [-1, 1] the amplitude is called with the memoised, read-only node
    array of :func:`oscint.chebyshev.gauss_lobatto_nodes` itself, as in
    :func:`integrate_standard`; elsewhere with a fresh array of mapped nodes.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    check_degree(n, 2)
    half = (b - a) / 2
    mid = (b + a) / 2
    if not math.isfinite(mid):  # a + b overflows; every other mid keeps its bits
        mid = a / 2 + b / 2
    omega_eff = omega * half
    if not math.isfinite(omega_eff):
        raise ValueError(f"omega must be finite, got {omega}*(b-a)/2 = {omega_eff}")
    if not math.isfinite(omega * mid):
        raise ValueError(f"omega*(a+b)/2 overflows: omega = {omega}, mid = {mid}")
    nodes = _grid(operator.index(n))
    # on [-1, 1] the map is the identity to the bit: the nodes hold no -0.0
    x = nodes if half == 1.0 and mid == 0.0 else half * nodes + mid
    samples = _sample_amplitude(amplitude, x)
    if n < _NODE_WEIGHTS_FROM_N:
        value = forward_coefficients(samples) @ _chebyshev_moments(omega_eff, n)
    else:
        value = samples @ _node_weights(_real_moments(omega_eff, n), nodes)
    # at mid = 0, half times the phase factor is exactly half + 0j, and numpy
    # multiplies half * value as that complex number
    scale = half if mid == 0.0 else half * np.exp(1j * omega * mid)
    path = SolvePath.DIRECT_TRIANGULAR if abs(omega_eff) > n else SolvePath.QUADRATURE
    return IntegralResult(
        value=complex(scale * value),
        path=path,
        n_used=n,
        residual_norm=float("nan"),
    )
