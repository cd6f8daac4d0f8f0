"""Chebyshev machinery on Gauss-Lobatto grids.

Nodes, the forward coefficient transform, and endpoint evaluation of
Chebyshev series. Everything here is real except that samples and
coefficient vectors are allowed to be complex.

The forward transform is at most one fast transform per call: a real
type-I DCT (``scipy.fft.dct``) for real samples, and for complex samples
one complex FFT (``scipy.fft.fft``) of the even extension
``[f_0, ..., f_n, f_{n-1}, ..., f_1]``, whose first n+1 outputs are
the type-I DCT. For the many n with a large prime factor, pocketfft
runs every transform of such a length as a Bluestein convolution, so
one complex transform costs about what one real DCT does, where
transforming the real and imaginary parts separately would cost two.
A call whose samples repeat the previous call's bit for bit takes no
transform: the last result is memoised.

The transpose of the same transform maps moments M_k = i^k m_k with real m
onto node weights W, with ``f . W = forward_coefficients(f) . M`` for every
sample vector f (``_node_weights``). Since m is real, that is a real type-I
DCT, packed into one complex FFT of length n: half the length of the
sample-side transform of complex samples. W depends on the moments, not on
the samples, so a sweep over omega at one amplitude builds it at every
omega; it is not memoised.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, fft

__all__ = [
    "SpectralCoefficients",
    "gauss_lobatto_nodes",
    "forward_coefficients",
    "endpoint_values",
]


@dataclass(frozen=True)
class SpectralCoefficients:
    """Chebyshev coefficients c_0..c_n of a degree-n series."""

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.c) < 1:
            raise ValueError("empty coefficient vector")
        if not np.isfinite(self.c).all():
            raise ValueError("non-finite Chebyshev coefficient")


def check_degree(n: int, lowest: int = 1) -> None:
    """Raise ``ValueError`` unless ``n`` is an integer >= ``lowest``.

    Numpy integers are accepted; floats such as 30.0 are not.
    """
    try:
        operator.index(n)
    except TypeError:
        raise ValueError(f"degree must be an integer, got {n!r}") from None
    if n < lowest:
        raise ValueError(f"degree must be >= {lowest}, got {n}")


def gauss_lobatto_nodes(n: int) -> np.ndarray:
    """Gauss-Lobatto nodes x_k = cos(pi*k/n), k = 0..n, descending.

    The endpoints (and the midpoint for even n) are assigned exactly so
    that the symmetry x_k = -x_{n-k} holds without trigonometric
    round-off. Raises ``ValueError`` unless ``n`` is an integer >= 1.

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


# The last transform of float64 or complex128 samples, as (key, coefficients)
# with key = (dtype, shape, exact sample bytes); one entry, so a sweep over
# omega at one amplitude and n transforms its samples once. Only those two
# dtypes are keyed: they are what the solver passes, and their bytes are
# their values (an object array's bytes are pointers).
_last_transform = None


def forward_coefficients(f_values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from samples at the nodes of degree len - 1.

    Returns c with sum_k c_k T_k(x_j) = f(x_j) at every node, computed
    through the half-weighted endpoint sum of discrete orthogonality
    (a type-I DCT). Real samples take one real ``dct(type=1)``; complex
    samples take one complex ``fft`` of their even extension
    ``[f_0, ..., f_n, f_{n-1}, ..., f_1]`` (length 2n), of which the
    first n+1 outputs are the DCT. Either way c is complex.

    The coefficients of the last float64 or complex128 samples are
    memoised, keyed on their dtype, shape and exact bytes (held in a
    private copy, so mutating the samples later cannot cause a false
    hit). A repeat of bitwise-equal samples returns the same
    coefficients without a transform; -0.0 and 0.0, or real and complex
    samples of equal value, are different keys. The returned array is
    read-only, on a miss as on a hit: it is a view of a read-only array,
    so its flag cannot be flipped back. Copy it to modify it. Fewer than
    two samples raise ``ValueError``.
    """
    global _last_transform
    f_values = np.asarray(f_values)
    n = len(f_values) - 1
    check_degree(n)
    key = None
    if f_values.dtype.char in "dD":  # float64 or complex128, either byte order
        key = (f_values.dtype, f_values.shape, f_values.tobytes())
        last = _last_transform
        if last is not None and last[0] == key:
            return last[1]
    if np.iscomplexobj(f_values):
        extension = np.concatenate((f_values, f_values[n - 1 : 0 : -1]))
        raw = fft(extension, overwrite_x=True)[: n + 1]
    else:
        raw = dct(f_values, type=1).astype(complex)
    # raw_j = 2 * sum'' T_j(x_k) f(x_k); normalize by discrete norms
    c = raw / n
    c[0] /= 2.0
    c[n] /= 2.0
    c.flags.writeable = False
    c = c.view()
    if key is not None:
        _last_transform = (key, c)
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
    """
    n = len(nodes) - 1
    extension = np.empty(2 * n)
    r = extension[: n + 1]
    r[:] = m
    r[2::4] *= -1
    r[3::4] *= -1
    extension[n + 1 :] = r[n - 1 : 0 : -1]
    z = fft(extension.view(np.complex128), overwrite_x=True)
    z = np.append(z, z[0])
    # sin(pi*j/n) from the nodes: the pair (x_j, sines_j) is a unit vector to
    # rounding, which is what the rotation below needs, and is cheaper than
    # sin. It is formed on the first n//2 + 1 nodes and mirrored: since
    # x_{n-j} = -x_j exactly, (1 - x)(1 + x) takes the same factors there.
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


def endpoint_values(coeffs: SpectralCoefficients) -> tuple[complex, complex]:
    """Values (p(1), p(-1)) of the series with the given coefficients."""
    c = coeffs.c
    p_plus = complex(c.sum())
    p_minus = complex(c[::2].sum() - c[1::2].sum())
    return p_plus, p_minus
