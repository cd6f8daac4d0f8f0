"""The per-call set-up of ``integrate_on_interval``, held to straightforward code.

The nodes are formed from half as many cosines, the samples are checked for
finiteness in one pass, the map onto [-1, 1] is skipped where it is the
identity and the phase factor where it is 1. None of that may change a bit of
a returned value: the oracle below samples and sums as the code first did,
and every value is compared with it bit for bit. The moments themselves are
held to their own oracle in ``test_moment_rows.py``.
"""

import math

import numpy as np
import pytest
from helpers import bits, i_pow

import oscint.moments as moments
from oscint import AmplitudeSamplingError, SolvePath, integrate_on_interval
from oscint.chebyshev import (
    _fft,
    _grid,
    _largest_prime_factor,
    forward_coefficients,
    gauss_lobatto_nodes,
)


def full_cosine_grid(n):
    """The nodes as first written: a cosine at every index, then the mirror."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    x[0] = 1.0
    if n % 2 == 0:
        x[n // 2] = 0.0
    half = (n + 1) // 2
    x[n + 1 - half :] = -x[:half][::-1]
    return x


def straightforward_samples(amplitude, x):
    """Sampling as first written: an elementwise finite check on every call."""
    fv = np.asarray(amplitude(x))
    dtype = float if fv.dtype.kind in "biuf" else complex
    if fv.shape != x.shape:
        fv = np.broadcast_to(fv, x.shape).astype(dtype)
    else:
        fv = fv.astype(dtype, copy=False)
    if not np.isfinite(fv).all():
        bad = ~np.isfinite(fv)
        raise AmplitudeSamplingError(float(x[int(np.argmax(bad))]))
    return fv


def straightforward_node_weights(m, nodes):
    """Node weights as first written: sin(pi j/n) formed at every node."""
    n = len(nodes) - 1
    extension = np.empty(2 * n)
    r = extension[: n + 1]
    r[:] = m
    r[2::4] *= -1
    r[3::4] *= -1
    extension[n + 1 :] = r[n - 1 : 0 : -1]
    # the FFT the code under test calls: at lengths with a large prime
    # factor it is split at that factor (``test_chebyshev.py`` holds the
    # split to numpy's FFT)
    z = _fft(extension.view(np.complex128), nodes)
    z = np.append(z, z[0])
    sines = 1.0 - nodes
    sines *= 1.0 + nodes
    np.sqrt(sines, out=sines)
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


def straightforward_integral(amplitude, omega, a, b, n):
    """``integrate_on_interval``'s value as first written, for valid input."""
    half = (b - a) / 2
    mid = (b + a) / 2
    omega_eff = omega * half
    nodes = full_cosine_grid(n)
    samples = straightforward_samples(amplitude, half * nodes + mid)
    m = moments._real_moments(omega_eff, n)
    if n < moments._NODE_WEIGHTS_FROM_N:
        # M_k = i^k m_k: the factors i^k are applied to the coefficients
        value = (forward_coefficients(samples) * i_pow(n)) @ m
    else:
        value = samples @ straightforward_node_weights(m, nodes)
    return complex(half * np.exp(1j * omega * mid) * value)


def test_grid_is_the_full_cosine_construction():
    # odd and even n, both sides of the node-weight threshold, and the
    # largest degrees of the benchmark, the last one prime
    for n in [*range(1, 300), 1023, 1024, 31623, 100000, 99991]:
        assert _grid.__wrapped__(n).tobytes() == full_cosine_grid(n).tobytes(), n


INTERVALS = [(-1.0, 1.0), (0.0, 2.0), (-3.0, 3.0), (-0.5, 0.25), (10.0, 10.5)]


def seeded_calls(seed, count):
    """(alpha, omega, a, b, n) over both moment routes, both summation routes,
    omega = 0, real and complex amplitudes and identity and other intervals."""
    rng = np.random.default_rng(seed)
    calls = []
    for _ in range(count):
        n = int(rng.choice([rng.integers(2, 300), rng.integers(1000, 2500)]))
        a, b = INTERVALS[rng.integers(len(INTERVALS))]
        ratio = rng.choice([0.0, rng.uniform(0, 1), rng.uniform(1, 4)])  # |w_eff| / n
        omega = rng.choice([-1.0, 1.0]) * ratio * n / ((b - a) / 2)
        alpha = rng.uniform(-1.5, 1.5)
        if rng.random() < 0.5:
            alpha = complex(alpha, rng.uniform(-1.5, 1.5))
        calls.append((alpha, float(omega), a, b, n))
    return calls


def test_values_bit_identical_to_the_straightforward_set_up():
    calls = seeded_calls(170, 400)
    seen = set()
    node_weight_degrees = set()
    for alpha, omega, a, b, n in calls:
        f = lambda x, alpha=alpha: np.exp(alpha * x)
        result = integrate_on_interval(f, omega, a, b, n)
        assert bits(result.value) == bits(straightforward_integral(f, omega, a, b, n))
        seen.add(
            (
                result.path,
                n >= moments._NODE_WEIGHTS_FROM_N,
                omega == 0,
                isinstance(alpha, complex),
                (a, b) == (-1.0, 1.0),
            )
        )
        if n >= moments._NODE_WEIGHTS_FROM_N:
            p = _largest_prime_factor(n)
            node_weight_degrees.add(p < n and p * p > n)
    # every route, frequency class, dtype and interval kind was reached
    for position, values in enumerate(
        [
            {SolvePath.DIRECT_TRIANGULAR, SolvePath.QUADRATURE},
            {False, True},
            {False, True},
            {False, True},
            {False, True},
        ]
    ):
        assert {key[position] for key in seen} == values
    # the node weights' FFT ran both split (such as 1202 = 2*601) and whole
    assert node_weight_degrees == {False, True}


def test_rotated_coefficients_sum_within_rounding_of_c_dot_m():
    # (c * i^k) . m and c . (i^k m) add the same exact products in another
    # order: a complex c's real part sums c_k^re m_k over even k and
    # c_k^im m_k over odd k in one pass instead of two. A recursive sum of
    # n + 1 terms errs by at most n eps times the sum of their moduli in
    # each of the two orders.
    eps = np.finfo(float).eps
    worst = 0.0
    for alpha, omega, a, b, n in seeded_calls(171, 300):
        if n >= moments._NODE_WEIGHTS_FROM_N:
            continue
        half = (b - a) / 2
        samples = np.exp(alpha * (half * full_cosine_grid(n) + (b + a) / 2))
        c = forward_coefficients(samples)
        m = moments._real_moments(omega * half, n)
        old = c @ (m * i_pow(n))
        new = (c * i_pow(n)) @ m
        size = np.sum(np.abs(c * m))
        assert abs(new - old) <= 2 * (n + 1) * eps * size
        worst = max(worst, abs(new - old) / size)
    assert worst > 0  # the two orders do differ


@pytest.mark.parametrize(
    "amplitude",
    [np.zeros_like, lambda x: x - 1j, lambda x: np.full(x.shape, complex(-0.0, -1.0))],
    ids=["zero", "x-i", "-0-i"],
)
@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (-3.0, 3.0), (0.0, 2.0)])
@pytest.mark.parametrize("omega", [0.0, 3.0, -100.0])
@pytest.mark.parametrize("n", [16, 1024])
def test_zero_parts_bit_identical(amplitude, a, b, omega, n):
    # values with a zero real or imaginary part keep the sign of that zero
    result = integrate_on_interval(amplitude, omega, a, b, n)
    assert bits(result.value) == bits(straightforward_integral(amplitude, omega, a, b, n))


@pytest.mark.parametrize("n", [64, 1500])
@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 2.0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("after_hit", [False, True], ids=["memo-miss", "after-memo-hit"])
def test_non_finite_sample_names_the_mapped_node(n, a, b, bad, dtype, after_hit):
    j = n // 3
    alpha = 0.5 if dtype is float else 0.5 + 0.25j

    def good(x):
        return np.exp(alpha * x)

    def broken(x):
        v = np.exp(alpha * x)
        v[j] = bad if dtype is float else complex(1.0, bad)
        return v

    omega = 5.0
    if after_hit:
        first = integrate_on_interval(good, omega, a, b, n)
        # the same samples again: below degree 1024 a transform-memo hit
        assert bits(integrate_on_interval(good, 2 * omega, a, b, n).value) == bits(
            straightforward_integral(good, 2 * omega, a, b, n)
        )
    with pytest.raises(AmplitudeSamplingError) as err:
        integrate_on_interval(broken, omega, a, b, n)
    x = float((b - a) / 2 * gauss_lobatto_nodes(n)[j] + (b + a) / 2)
    assert err.value.node == x
    assert f"x = {x!r}" in str(err.value)
    if after_hit:
        # the failed call left nothing behind
        assert bits(integrate_on_interval(good, omega, a, b, n).value) == bits(first.value)


@pytest.mark.parametrize("n", [64, 1500])
@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 2.0)])
@pytest.mark.parametrize("alpha", [0.5, 0.5 - 0.75j])
@pytest.mark.parametrize("omega", [3.0, 5e3])
def test_samples_whose_squares_overflow_are_accepted(n, a, b, alpha, omega):
    # |f|^2 = 1e400 overflows the one-pass check; the elementwise scan that
    # follows finds every sample finite. The suite turns warnings into errors.
    size = 1e200
    samples = size * np.exp(alpha * gauss_lobatto_nodes(n))
    assert not math.isfinite(abs(np.vdot(samples, samples)))
    big = integrate_on_interval(lambda x: size * np.exp(alpha * x), omega, a, b, n)
    unit = integrate_on_interval(lambda x: np.exp(alpha * x), omega, a, b, n)
    assert np.isfinite(big.value)
    assert abs(big.value - size * unit.value) <= 1e-13 * abs(size * unit.value)
