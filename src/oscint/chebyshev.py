"""Chebyshev machinery on Gauss-Lobatto grids.

Nodes, the forward coefficient transform, and endpoint evaluation of
Chebyshev series. Everything here is real except that samples and
coefficient vectors are allowed to be complex.

The forward transform is at most one ``numpy.fft`` call: the type-I DCT
of the samples is the first n+1 outputs of the FFT of their even extension
``[f_0, ..., f_n, f_{n-1}, ..., f_1]``, a complex ``fft`` for complex
samples and a real ``rfft`` for real ones, whose DCT is the real part of
its n+1 outputs. It keeps no state: every call returns a fresh, writable
complex128 array.

The transpose of the same transform maps moments M_k = i^k m_k with real m
onto node weights W, with ``f . W = forward_coefficients(f) . M`` for every
sample vector f (``_node_weights``). Since m is real, that is a real type-I
DCT, packed into one complex FFT of length n: half the length of the
sample-side transform of complex samples. W depends on the moments, not on
the samples, so a sweep over omega at one amplitude builds it at every
omega.

Where the largest prime factor p of n has p < n and p*p > n, pocketfft
weighs a Bluestein convolution of length >= 2n for the whole transform,
which runs about 8-10 times as long as an FFT of a nearby smooth length.
There ``_fft`` splits the node weights' FFT at p (the four-step form of
Cooley-Tukey), so that Bluestein runs only on lines of length p, with one
plan of that length for all of them. Every other length, primes included,
is ``numpy.fft.fft`` unchanged. The twiddle factors multiply every output,
so their sines come from ``np.sin``: sines formed as sqrt((1 - x)(1 + x))
of the nodes, as ``_node_weights`` forms its own, lose digits near
x = +-1 and cost the transform about two digits.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "gauss_lobatto_nodes",
    "forward_coefficients",
    "endpoint_values",
]


def check_degree(n: int, lowest: int = 1) -> None:
    """Raise :class:`InvalidInputError` (a ``ValueError``) unless ``n`` is an
    integer >= ``lowest``.

    Numpy integers are accepted; floats such as 30.0 are not.
    """
    try:
        operator.index(n)
    except TypeError:
        raise InvalidInputError(f"degree must be an integer, got {n!r}") from None
    if n < lowest:
        raise InvalidInputError(f"degree must be >= {lowest}, got {n}")


def gauss_lobatto_nodes(n: int) -> np.ndarray:
    """Gauss-Lobatto nodes x_k = cos(pi*k/n), k = 0..n, descending.

    The endpoints (and the midpoint for even n) are assigned exactly so
    that the symmetry x_k = -x_{n-k} holds without trigonometric
    round-off. Raises :class:`InvalidInputError` unless ``n`` is an integer >= 1.

    The nodes of the last four degrees are memoised, so repeated calls
    with one ``n`` return the same read-only array.
    """
    # validate before the lookup: 30.0 hashes like 30 and would hit the memo
    check_degree(n)
    return _grid(operator.index(n))


@functools.lru_cache(maxsize=4)
def _grid(n: int) -> np.ndarray:
    # cosines of the first n//2 + 1 indices only; the upper half is their
    # mirror, so x_k = -x_{n-k} holds to the last bit
    half = (n + 1) // 2
    x = np.empty(n + 1)
    np.cos(np.pi * np.arange(n + 1 - half) / n, out=x[: n + 1 - half])
    x[0] = 1.0
    if n % 2 == 0:
        x[n // 2] = 0.0
    x[n + 1 - half :] = -x[:half][::-1]
    x.flags.writeable = False
    # a view of a read-only array cannot be made writeable again, so no
    # caller can alter the memoised nodes
    return x.view()


def forward_coefficients(f_values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from samples at the nodes of degree len - 1.

    Returns c with sum_k c_k T_k(x_j) = f(x_j) at every node, computed
    through the half-weighted endpoint sum of discrete orthogonality
    (a type-I DCT): the first n+1 outputs of the FFT of the even extension
    ``[f_0, ..., f_n, f_{n-1}, ..., f_1]`` (length 2n). Complex samples
    take one ``numpy.fft.fft``, real samples one ``numpy.fft.rfft``, of
    whose outputs the real parts are the DCT. Either way c is complex; for
    real samples its imaginary parts are exactly zero. Samples of any
    other dtype are first cast to float64, or to complex128 if complex, so
    the coefficients are always complex128 and in double precision.

    Every call transforms: the result is a fresh array the caller owns.
    Fewer than two samples raise :class:`InvalidInputError`.
    """
    f_values = np.asarray(f_values)
    n = len(f_values) - 1
    check_degree(n)
    if f_values.dtype.char not in "dD":  # float64 or complex128, either byte order
        f_values = f_values.astype(complex if np.iscomplexobj(f_values) else float)
    extension = np.concatenate((f_values, f_values[n - 1 : 0 : -1]))
    if np.iscomplexobj(f_values):
        raw = np.fft.fft(extension)[: n + 1]
    else:
        raw = np.fft.rfft(extension).real.astype(complex)
    # raw_j = 2 * sum'' T_j(x_k) f(x_k); normalize by discrete norms
    c = raw / n
    c[0] /= 2.0
    c[n] /= 2.0
    return c


def _node_weights(m: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Weights W with ``f . W == forward_coefficients(f) . M`` at the ``nodes`` x_j.

    ``M_k = i^k m_k`` (k = 0..n) are moments with real ``m``, such as those
    of exp(i*w*x) against T_k. Since c = (1/n) diag(h) C f and C, the
    type-I DCT matrix, is symmetric, W = (1/n) diag(h) C M with
    h_0 = h_n = 1/2 and h_j = 1 otherwise: the transform moves from the
    samples onto the moments. In r_k = (-1)^(k//2) m_k the real part of M is
    r at even k and its imaginary part r at odd k, so C M is the DCT of the
    even-k entries of r plus i times that of the odd-k ones. Both come from
    one complex FFT of length n: the even extension
    ``[r_0, ..., r_n, r_{n-1}, ..., r_1]`` read as n complex numbers, whose
    FFT Z splits into the transforms of its even and odd entries through
    Z_j and R_j = Z_{n-j} (Z_n = Z_0):

        W_j = h_j/(2n) ((Re Z_j + Re R_j)
                        + i (x_j (Im Z_j + Im R_j) - sin(pi j/n) (Re Z_j - Re R_j))).

    The FFT is ``numpy.fft.fft``, split by ``_fft`` where n has a large
    prime factor. It keeps no plan once it returns, so a call at a fresh n
    leaves no memory behind.
    """
    n = len(nodes) - 1
    extension = np.empty(2 * n)
    r = extension[: n + 1]
    r[:] = m
    r[2::4] *= -1
    r[3::4] *= -1
    extension[n + 1 :] = r[n - 1 : 0 : -1]
    z = _fft(extension.view(np.complex128), nodes)
    z = np.append(z, z[0])
    # sin(pi*j/n) from the nodes, which is cheaper than np.sin, whose sines
    # give integrals no more accurate. It is formed on the first n//2 + 1
    # nodes and mirrored: since x_{n-j} = -x_j exactly, (1 - x)(1 + x) takes
    # the same factors there.
    lower = n // 2 + 1
    sines = np.empty(n + 1)
    head = sines[:lower]
    np.subtract(1.0, nodes[:lower], out=head)
    head *= 1.0 + nodes[:lower]
    np.sqrt(head, out=head)
    sines[lower:] = head[n - lower :: -1]
    W = np.empty(n + 1, dtype=complex)
    z_re, z_im = z.real, z.imag
    np.add(z_re, z_re[::-1], out=W.real)
    np.add(z_im, z_im[::-1], out=W.imag)
    W.imag *= nodes
    odd = z_re - z_re[::-1]
    odd *= sines
    W.imag -= odd
    W *= 0.5 / n
    W[0] *= 0.5
    W[n] *= 0.5
    return W


def _largest_prime_factor(n: int) -> int:
    # what is left after dividing out every factor d with d*d <= the rest
    d = 2
    while d * d <= n:
        if n % d:
            d += 1
        else:
            n //= d
    return n


def _fft(z: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``numpy.fft.fft(z)``, split at a large prime factor of n = len(z).

    ``nodes`` are the Gauss-Lobatto nodes of degree n. Where the largest
    prime factor p of n has p < n and p*p > n, the condition under which
    pocketfft weighs a Bluestein convolution of length >= 2n, this is the
    four-step FFT of z read as a (p, n/p) array: length-p transforms of its
    columns, one plan of length p for all n/p of them; the
    twiddles exp(-2 pi i k l/n); length-n/p transforms of its rows; the
    transpose. Every other length is ``numpy.fft.fft(z)`` itself.

    The twiddles' cosines cos(2 pi t/n) are the nodes x_{2t}, reflected to
    x_{2n-2t} past t = n/2, and their sines come from one ``np.sin`` table
    of sin(pi j/n), j <= n/2, mirrored: both are correct to an ulp or so.
    Sines formed as sqrt((1 - x)(1 + x)) lose digits near x = +-1 and
    cost about two digits of the transform.
    """
    n = len(z)
    p = _largest_prime_factor(n)
    if p == n or p * p <= n:
        return np.fft.fft(z)
    q = n // p
    half = n // 2 + 1
    sines = np.empty(n + 1)
    np.sin(np.pi * np.arange(half) / n, out=sines[:half])
    sines[half:] = sines[n - half :: -1]
    # exp(-2 pi i t/n) for t < n, from its values at t <= n/2
    twiddles = np.empty(n, dtype=complex)
    twiddles.real[:half] = nodes[::2]
    np.negative(sines[::2], out=twiddles.imag[:half])
    twiddles[half:] = twiddles[n - half : 0 : -1].conj()
    columns = np.fft.fft(z.reshape(p, q), axis=0)
    columns *= twiddles[np.outer(np.arange(p), np.arange(q))]
    return np.fft.fft(columns, axis=1).T.ravel()


def endpoint_values(c: np.ndarray) -> tuple[complex, complex]:
    """Values (p(1), p(-1)) of the series with coefficients ``c``."""
    p_plus = complex(c.sum())
    p_minus = complex(c[::2].sum() - c[1::2].sum())
    return p_plus, p_minus
