"""The production kernel: Filon-Clenshaw-Curtis values from Chebyshev moments.

:func:`integrate_on_interval` solves no Levin system. The collocation
polynomial solves p' + i*omega*p = f_n exactly, so at every frequency its
value is ``c . M(omega, n)``: the Chebyshev coefficients of the amplitude's
interpolant f_n against the moments M_k = i^k m_k of exp(i*omega*x), whose
real parts m_k (:func:`_real_moments`) cost one real LAPACK solve per call
whose omega-independent row sequences are read from a module-level table
(:func:`_moment_rows`). Discrete orthogonality lets that sum run from
either side, and the kernel is a composition of one stage per side. Below
degree ``_NODE_WEIGHTS_FROM_N``, :func:`_coefficients` gives the
coefficients already multiplied by i^k, memoised for the last samples, and
the value is ``(c * i^k) . m``. From there on, :func:`_node_weight_sum`
sums the samples against node weights built from the real moments, which a
worker thread computes while the caller's thread samples. Either way the
amplitude is called on the caller's thread only, and the values are those
of the serial order, bit for bit.

The sampling contract for every function a caller supplies
(:func:`_cast_samples`), the amplitude's finiteness check
(:func:`_sample_amplitude`) and the result types live here too; the paper's
reference solver in :mod:`oscint.levin`, the oracles and :mod:`oscint.phase`
share them. A nonlinear phase, ``phase=(g, g_prime)``, is reduced to linear
phase by :func:`oscint.phase.substitute` before the kernel runs.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv, dtbtrs

from .chebyshev import _grid, _node_weights, check_degree, forward_coefficients
from .errors import InvalidInputError, OscintError

__all__ = [
    "Amplitude",
    "AmplitudeSamplingError",
    "IntegralResult",
    "SingularMatrixError",
    "SolvePath",
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

_NAN = float("nan")  # the residual of a call that solves no system in c

# i^k, k < _NODE_WEIGHTS_FROM_N: only the c . M route rotates coefficients
_I_POW = np.resize([1, 1j, -1, -1j], _NODE_WEIGHTS_FROM_N)
_I_POW.flags.writeable = False

# the c . M route's last transform, as (key, c * i^k): see _coefficients
_last_transform = None


def _start_worker() -> None:
    """Give the node-weight route a fresh executor of one worker thread.

    The executor starts its thread on the first submit, so importing oscint
    starts none. A forked child has no worker thread, and its copy of the
    parent's executor may hold a lock taken at the fork: it starts its own.
    """
    global _worker
    _worker = ThreadPoolExecutor(1, "oscint-weights")


_start_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_worker)


class SingularMatrixError(OscintError, ValueError):
    """Raised when elimination meets a zero pivot; ``index`` names it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class AmplitudeSamplingError(OscintError, ValueError):
    """Amplitude returned a non-finite value at a collocation node.

    ``node`` is where the caller's amplitude was sampled: a point of
    [a, b] for :func:`integrate_on_interval`.
    """

    def __init__(self, node: float):
        super().__init__(f"amplitude is not finite at node x = {node!r}")
        self.node = node


class SolvePath(enum.Enum):
    DIRECT_TRIANGULAR = "direct_triangular"
    NORMAL_EQUATIONS = "normal_equations"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    path: SolvePath
    n_used: int
    residual_norm: float


def _sample_amplitude(amplitude: Amplitude, nodes: np.ndarray) -> np.ndarray:
    """Amplitude at the nodes, cast (:func:`_cast_samples`) and checked
    (:func:`_check_finite`): a non-finite sample raises
    :class:`AmplitudeSamplingError` naming its node.
    """
    samples = _cast_samples(amplitude, nodes)
    _check_finite(samples, nodes)
    return samples


def _cast_samples(fn: Callable, x: np.ndarray, name: str = "amplitude") -> np.ndarray:
    """``fn(x)`` as float64 if its values are real, else complex128.

    This is the one sampling contract for every function a caller supplies:
    the amplitude here, in :mod:`oscint.levin` and in the oracles, and a
    phase's g, g' and inverse (:func:`oscint.phase._values`). A return of
    another shape is broadcast to ``x``'s (a scalar, say) into a fresh
    array, or raises :class:`InvalidInputError` ("<name> returned shape ...,
    expected ...") where it cannot be. Values that cannot be cast, such as
    strings or objects that are not numbers, raise :class:`InvalidInputError`
    ("<name> returned <dtype> values, not numbers"), and a ragged sequence
    such as ``[1, [2, 3]]`` raises it as "<name> returned a ragged sequence,
    not numbers"; a ``ValueError`` that ``fn`` raises itself propagates. An
    object array is re-read by value first, so one of real numbers is cast
    to float64, as the same numbers returned as float64 are, and one with a
    complex number to complex128. A float64 or complex128 return of ``x``'s
    shape is returned as it is. Real samples stay real so that
    :func:`forward_coefficients` takes one real FFT instead of a complex one.
    The values are not checked.
    """
    fv = fn(x)
    try:
        fv = np.asarray(fv)
        if fv.dtype.kind == "O":
            fv = np.asarray(fv.tolist())
    except ValueError:
        raise InvalidInputError(
            f"{name} returned a ragged sequence, not numbers"
        ) from None
    broadcast = fv.shape != x.shape
    if broadcast:
        try:
            fv = np.broadcast_to(fv, x.shape)
        except ValueError:
            raise InvalidInputError(
                f"{name} returned shape {fv.shape}, expected {x.shape}"
            ) from None
    try:
        return fv.astype(float if fv.dtype.kind in "biuf" else complex, copy=broadcast)
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"{name} returned {fv.dtype} values, not numbers"
        ) from None


def _check_finite(samples: np.ndarray, nodes: np.ndarray) -> None:
    """Raise :class:`AmplitudeSamplingError` at the first non-finite sample.

    The check is one pass, the sum of |f|^2 (``np.vdot``), which is finite
    exactly when every sample is, unless it overflows: only then are the
    samples scanned one by one, so samples of size 1e200 are accepted
    without a warning.
    """
    if not cmath.isfinite(np.vdot(samples, samples)):
        bad = ~np.isfinite(samples)
        if bad.any():
            raise AmplitudeSamplingError(float(nodes[int(np.argmax(bad))]))


def _interval(a: float, b: float) -> tuple[float, float, float, float]:
    """The interval contract: ``(a, b, half, mid)`` with ``a`` and ``b`` as
    Python floats, so that float32 ends are computed in double precision.

    Raises ``InvalidInputError("invalid interval: ...")`` unless both ends are
    finite and a < b. ``half`` and ``mid`` are taken by halves: halving is
    exact above the subnormal range, so they are (b - a)/2 and (a + b)/2 to
    the bit there, and neither overflows where b - a or a + b would. A point
    placed on [a, b] is ``half*x + mid`` for x in [-1, 1], clipped into
    [a, b], since it can round an ulp past an end.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInputError(
            f"invalid interval: endpoints must be finite, got [{a}, {b}]"
        )
    if not a < b:
        raise InvalidInputError(f"invalid interval: need a < b, got [{a}, {b}]")
    return a, b, b / 2 - a / 2, a / 2 + b / 2


class _MomentRows(NamedTuple):
    """The omega-independent sequences of the moment rows k = 1..N.

    ``band`` holds the tridiagonal rows before their off-diagonals are
    scaled by -w, in the package's one band layout, entry (i, j) at
    ``ab[ku + i - j, j]`` with kl = ku = 1 (:mod:`oscint.banded`): column k
    holds row k - 1's m_k term, row k's diagonal and row k + 1's m_k term.
    Both routes slice it. The forward route's lower band for ``dtbtrs`` is
    columns 2..N as they stand; LAPACK never reads ``ab[1, -1]`` or
    ``ab[2, -2:]`` of a band, so a prefix of a longer table solves as the
    band built for its own N does.
    ``gather`` indexes a call's eight head and period-4 values (k for k < 4,
    then 4 + k % 4). The rows are real; the factors i^k that turn m_k into
    M_k are applied to the coefficients instead, only below degree
    ``_NODE_WEIGHTS_FROM_N`` (``_I_POW``), so the table does not hold them.
    """

    band: np.ndarray  # k - 2, 2(k^2 - 1), k + 2; row 1's entries are 1 and 4
    gather: np.ndarray  # index of moment k's starting value: k, then 4 + k % 4


def _build_moment_rows(N: int) -> _MomentRows:
    k = np.arange(N + 1.0)
    # Fortran-ordered, so that the forward route's band is a plain copy
    band = np.array((k - 2, 2 * (k * k - 1), k + 2), order="F")
    band[0, 2] = 1.0
    band[1, 1] = 4.0
    # the right-hand side -2 B_k / i^k repeats with period 4 from row 2
    gather = np.arange(N + 1)
    gather[4:] = 4 + gather[4:] % 4
    rows = _MomentRows(band, gather)
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
    if len(rows.gather) <= N:
        with _moment_rows_growth:
            if len(_moment_rows_table.gather) <= N:
                _moment_rows_table = _build_moment_rows(N)
            rows = _moment_rows_table
    return rows


def _real_moments(omega: float, n: int) -> np.ndarray:
    """Real moments ``m_k = M_k / i^k``, k = 0..n, of the Chebyshev moments
    ``M_k = int_{-1}^{1} T_k(x) exp(i*omega*x) dx``.

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
    where sin 2|w| < 0, that is where w sin w cos w < 0, M_1 is pinned
    instead and rows 2..N are solved, singular only where J_1(w) = 0. The
    zeros of J_0 lie near (m - 1/4)pi, where sin 2|w| = -1, and those of J_1
    near (m + 1/4)pi, where sin 2|w| = 1 (DLMF 10.17(i)): on (0, 600] each
    formulation is used at least 0.69 from its own singular points, a margin
    that tends to pi/4. Near w = 0 the product is positive, so M_1, whose
    closed form divides by w^2, is not pinned there.

    Nothing in the rows but w depends on the call: both routes slice one
    read-only band table (:func:`_moment_rows`). A call forms eight values
    from Python floats: m_0, then m_1 or row 1's right-hand side, the next
    two head entries with the known M_1 terms of their rows applied, and the
    four values of the period-4 right-hand side, already divided by -w on
    the forward route. One gather through the table's ``gather`` indices
    builds the whole moment vector from them, and the one solve overwrites
    its unknowns in place.
    """
    w = float(omega)
    forward = abs(w) > n
    N = n if forward else max(n, math.ceil(1.5 * abs(w))) + 40
    rows = _moment_rows(N)
    cos_w, sin_w = math.cos(w), math.sin(w)
    m0 = 2.0 * sin_w / w if w else 2.0
    if forward:
        # rows divided by -w so that no entry overflows; row k gives m_{k+1},
        # so its right-hand side is m[k + 1]'s starting value
        m1 = (m0 - 2 * cos_w) / w
        s = -w
        head = (m0, m1, 2 * sin_w / s - 4.0 / s * m1, 4 * cos_w / s - 3.0 * m1)
        tail = (4 * sin_w / s, -4 * cos_w / s, -4 * sin_w / s, 4 * cos_w / s)
        m = np.array(head + tail)[rows.gather[: N + 1]]
        # lower band storage, Fortran-ordered so that f2py passes it as is
        ab = rows.band[:, 2 : N + 1].copy(order="F")
        ab[1] /= s
        # the triangular diagonal, band row 0, has no zero: the solve cannot fail
        dtbtrs(ab, m[2:], "L", "N", "N", 1)  # overwrite_b
    else:
        tail = (-4 * cos_w, -4 * sin_w, 4 * cos_w, 4 * sin_w)
        first = 1  # k of the first row solved, and of its diagonal unknown
        if w * sin_w * cos_w < 0:  # sin 2|w| < 0, which it never is near w = 0
            m1 = 2.0 * (sin_w - w * cos_w) / (w * w)
            head = (m0, m1, 4 * cos_w + 3 * w * m1, 4 * sin_w)
            first = 2
        else:
            head = (m0, 2 * sin_w, 4 * cos_w, 4 * sin_w)
        m = np.array(head + tail)[rows.gather[: N + 1]]
        # C-ordered, so that f2py passes both off-diagonals as they are
        off = np.multiply(rows.band[::2, first : N + 1], -w, order="C")
        # dgtsv overwrites all four arrays, read-only or not: the diagonal is
        # passed as a copy
        *_, info = dgtsv(
            off[1, :-1], rows.band[1, first : N + 1].copy(), off[0, 1:], m[first:],
            1, 1, 1, 1,
        )
        if info:
            row = first + info - 1
            raise SingularMatrixError(f"zero pivot in moment recurrence row {row}", row)
    return m[: n + 1]


def _coefficients(amplitude: Amplitude, x: np.ndarray, n: int) -> np.ndarray:
    """``forward_coefficients(samples) * i^k``, k = 0..n, of the amplitude's
    samples at ``x``, read-only: the c . M route's coefficients.

    One FFT of length 2n (real for real samples), kept for the last samples
    in ``_last_transform`` as (key, coefficients) with key = (dtype, exact
    sample bytes). A sweep over omega at one amplitude and n therefore
    transforms, rotates and checks its samples once, and each further
    frequency pays for the sampling, the key and the moment solve. Samples
    are float64 or complex128 (:func:`_cast_samples`), whose bytes are their
    values: -0.0 and 0.0, or real and complex samples of equal value, are
    different keys. The key is taken after sampling, so an integral nested in
    the amplitude cannot replace the entry under the outer call. Only samples
    that passed :func:`_check_finite` are stored, so a hit skips the check
    and returns the stored array itself.
    """
    global _last_transform
    samples = _cast_samples(amplitude, x)
    key = (samples.dtype, samples.tobytes())
    last = _last_transform
    if last is None or last[0] != key:
        _check_finite(samples, x)
        rotated = forward_coefficients(samples) * _I_POW[: n + 1]
        rotated.flags.writeable = False
        last = _last_transform = (key, rotated)
    return last[1]


def _node_weight_sum(amplitude: Amplitude, x: np.ndarray, nodes: np.ndarray,
                     omega_eff: float) -> complex:
    """``samples . W(omega_eff, n)``, n = len(nodes) - 1: the amplitude's
    samples at ``x`` (:func:`_sample_amplitude`) against the node weights
    W = (1/n) diag(h) DCT-I(M) of :func:`oscint.chebyshev._node_weights`,
    one complex FFT of length n that acts on the real moments.

    The moments and weights never read the samples, so the module's one
    worker thread (``_worker``) computes them while this thread samples and
    checks the amplitude, which is called on the caller's thread only;
    LAPACK and numpy's FFT release the GIL. A job the worker has not
    started, queued behind another call's, is cancelled and run inline, so
    no call waits on another's, and at interpreter shutdown, where no thread
    may start, the job runs inline. The value is that of the serial order,
    bit for bit.
    """
    # the worker computes the weights while this thread samples
    weights = lambda: _node_weights(_real_moments(omega_eff, len(nodes) - 1), nodes)
    try:
        job = _worker.submit(weights)
    except RuntimeError:  # interpreter shutdown: no thread may start
        job = None
    try:
        samples = _sample_amplitude(amplitude, x)
    finally:
        # a job not started yet, queued behind another call's, is run
        # here instead, so no call waits on another's; a started one is
        # awaited, also before the amplitude's error is raised
        inline = job is None or job.cancel()
        if not inline:
            wait((job,))
    return samples @ (weights() if inline else job.result())


def integrate_on_interval(
    amplitude: Amplitude,
    omega: float,
    a: float,
    b: float,
    n: int,
    *,
    phase: tuple[Callable, Callable] | None = None,
) -> IntegralResult:
    """Compute ``int_a^b f(x) exp(i*omega*g(x)) dx``: g(x) = x unless
    ``phase=(g, g_prime)`` gives a monotone g (last paragraph).

    The interval is mapped onto [-1, 1]; the effective frequency
    becomes w = omega*(b-a)/2 and the constant phase shift
    exp(i*omega*(b+a)/2) multiplies the result. The value is
    ``c . M(w, n)``, the Chebyshev coefficients of the amplitude's samples
    on the n+1 Gauss-Lobatto nodes against the moments of T_k: the Levin
    value, which is the Filon-Clenshaw-Curtis rule of Dominguez, Graham &
    Smyshlyaev (IMA J. Numer. Anal. 31(4), 2011). Below degree
    ``_NODE_WEIGHTS_FROM_N`` it is summed from the coefficients, as
    ``(c * i^k) . m`` with the real moments m (:func:`_coefficients`, which
    transforms samples that repeat the last ones bit for bit only once);
    from there on from the samples, against node weights
    (:func:`_node_weight_sum`). The path says how the moments were
    computed: ``DIRECT_TRIANGULAR`` where |w| > n and ``QUADRATURE``
    elsewhere, w = 0 included. No system in c is solved, so the residual is
    NaN. ``n`` bounds how much of the amplitude is resolved.

    The amplitude is called once, on the calling thread; from degree
    ``_NODE_WEIGHTS_FROM_N`` on, the moments and node weights are computed
    meanwhile on the module's one worker thread, or inline where it has not
    started them. On [-1, 1] the amplitude is called with the memoised,
    read-only node array of :func:`oscint.chebyshev.gauss_lobatto_nodes`
    itself, as in :func:`integrate_standard`; elsewhere with a fresh array of
    mapped nodes, ``half*x + mid`` clipped into [a, b], so every sample lies
    in [a, b]. A non-finite sample raises :class:`AmplitudeSamplingError`
    naming its node, and a return that breaks the sampling contract
    (:func:`_cast_samples`: of a shape that does not broadcast to the
    nodes', or not numbers) raises :class:`InvalidInputError`.
    ``omega``, ``a`` and ``b`` are converted to Python floats, so that
    float32 inputs are computed in double precision; the ends must be finite,
    with a < b (:func:`_interval`), or :class:`InvalidInputError` is raised before any
    sample is taken.

    ``phase=(g, g_prime)`` gives a strictly monotone phase g and its
    derivative, and [a, b] is the bracket: the call is
    :func:`oscint.phase.substitute` of ``PhaseSpec(g, g_prime, (a, b))``,
    whose checks and errors it raises, and then the linear-phase integral
    above of the transformed amplitude on [g(a), g(b)], bit for bit the
    value of that composition. A ``phase`` that is not a pair raises
    ``InvalidInputError("phase must be a pair (g, g_prime)")``; the pair,
    the bracket, ``n`` and the finiteness of ``omega`` are checked before g
    is first called. A caller with a closed-form inverse of g composes
    :func:`~oscint.phase.substitute` and this call itself.
    """
    omega = float(omega)  # numpy >= 2 keeps float32 * float in float32 (NEP 50)
    check_degree(n, 2)
    if phase is not None:
        # imported here: oscint.phase imports _cast_samples and _interval from
        # this module
        from .phase import PhaseSpec, substitute

        try:
            g, g_prime = phase
        except (TypeError, ValueError):
            raise InvalidInputError("phase must be a pair (g, g_prime)") from None
        if not math.isfinite(omega):
            raise InvalidInputError(f"omega must be finite, got {omega}")
        spec = PhaseSpec(g, g_prime, (a, b))  # checks the bracket
        amplitude, (a, b), _ = substitute(amplitude, spec, omega)
    a, b, half, mid = _interval(a, b)
    omega_eff = omega * half
    if not math.isfinite(omega_eff):
        raise InvalidInputError(
            f"omega must be finite, got {omega}*(b-a)/2 = {omega_eff}"
        )
    if not math.isfinite(omega * mid):
        raise InvalidInputError(
            f"omega*(a+b)/2 overflows: omega = {omega}, mid = {mid}"
        )
    nodes = _grid(operator.index(n))
    # on [-1, 1] the map is the identity to the bit: the nodes hold no -0.0
    x = nodes if half == 1.0 and mid == 0.0 else np.clip(half * nodes + mid, a, b)
    if n < _NODE_WEIGHTS_FROM_N:
        value = np.dot(_coefficients(amplitude, x, n), _real_moments(omega_eff, n))
    else:
        value = _node_weight_sum(amplitude, x, nodes, omega_eff)
    # at mid = 0, half times the phase factor is exactly half + 0j, and numpy
    # multiplies half * value as that complex number
    scale = half if mid == 0.0 else half * np.exp(1j * omega * mid)
    path = SolvePath.DIRECT_TRIANGULAR if abs(omega_eff) > n else SolvePath.QUADRATURE
    # positional: a frozen dataclass takes twice as long to build by keyword
    return IntegralResult(complex(scale * value), path, n, _NAN)
