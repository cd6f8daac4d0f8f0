"""The moment rows' omega-independent table and the per-call moment solve.

``moments._real_moments`` reads the sequences of its rows as prefixes of a
module-level table and does only the omega-dependent work per call. These
tests hold it to the straightforward construction it replaced, bit for bit.
"""

import math
import sys
import threading

import numpy as np
import pytest
from scipy import special
from scipy.linalg.lapack import dgtsv, dtbtrs

import oscint.moments as moments
from oscint import SingularMatrixError, SolvePath, integrate_on_interval


def straightforward_real_moments(omega, n):
    """The moment solve as first written: every sequence rebuilt per call."""
    w = float(omega)
    forward = abs(w) > n
    N = n if forward else max(n, math.ceil(1.5 * abs(w))) + 40
    cos_w, sin_w = math.cos(w), math.sin(w)
    diagonal = np.arange(1.0, N + 1)
    diagonal *= diagonal
    diagonal -= 1
    diagonal *= 2
    diagonal[0] = 4.0
    below = np.arange(3.0, N + 2)
    above = np.arange(0.0, N - 1)
    above[0] = 1.0
    rhs = np.empty(N)
    rhs[0] = 2 * sin_w
    rhs[1::4], rhs[2::4] = 4 * cos_w, 4 * sin_w
    rhs[3::4], rhs[4::4] = -4 * cos_w, -4 * sin_w
    m = np.empty(N + 1)
    m[0] = 2.0 * sin_w / w if w else 2.0
    if forward:
        m[1] = (m[0] - 2 * cos_w) / w
        rhs /= -w
        diagonal /= -w
        rhs[0] -= diagonal[0] * m[1]
        rhs[1] -= below[0] * m[1]
        ab = np.stack((above, diagonal[1:], np.append(below[1:], 0.0)))
        m[2:], _ = dtbtrs(ab, rhs[: N - 1], "L")
    else:
        below *= -w
        above *= -w
        first = 0
        if abs(special.j1(w)) > abs(special.j0(w)):
            m[1] = 2.0 * (sin_w - w * cos_w) / (w * w)
            rhs[1] += 3 * w * m[1]
            first = 1
        *_, m[first + 1 :], info = dgtsv(
            below[first:], diagonal[first:], above[first:], rhs[first:], 1, 1, 1, 1
        )
        if info:
            row = first + info
            raise SingularMatrixError(f"zero pivot in moment recurrence row {row}", row)
    return m[: n + 1]


def straightforward_chebyshev_moments(omega, n):
    M = straightforward_real_moments(omega, n).astype(complex)
    M[1::2] *= 1j
    M[2::4] *= -1
    M[3::4] *= -1
    return M


def truncation(omega, n):
    return n if abs(omega) > n else max(n, math.ceil(1.5 * abs(omega))) + 40


def seeded_calls(seed, count):
    """(omega, n) whose truncation grows, shrinks and crosses |omega| = n."""
    rng = np.random.default_rng(seed)
    calls = [
        (w, n)
        for n in (2, 3, 1023, 1024)
        for w in (0.0, 1e-20, -1e-20, 1.7e308, -1.7e308, float(n), -float(n) - 0.5)
    ]
    for _ in range(count):
        n = int(rng.integers(2, 3000))
        ratio = rng.choice([rng.uniform(0, 1), rng.uniform(1, 3)])  # |omega| / n
        w = rng.choice([-1.0, 1.0]) * n * ratio
        calls.append((w, n))
    rng.shuffle(calls)
    return calls


@pytest.fixture
def small_table(monkeypatch):
    """Start from a two-row table, so that the calls under test grow it."""
    monkeypatch.setattr(moments, "_moment_rows_table", moments._build_moment_rows(2))


def test_bit_identical_to_the_straightforward_solve(small_table):
    grown = 2
    for omega, n in seeded_calls(140, 300):
        m = moments._real_moments(omega, n)
        assert m.tobytes() == straightforward_real_moments(omega, n).tobytes()
        M = moments._chebyshev_moments(omega, n)
        np.testing.assert_array_equal(M, straightforward_chebyshev_moments(omega, n))
        # the table is grown to exactly the largest truncation asked for
        grown = max(grown, truncation(omega, n))
        assert len(moments._moment_rows_table.diagonal) == grown


@pytest.mark.parametrize("n", [2, 3, 40, 1023, 1024, 2500])
@pytest.mark.parametrize("ratio", [0.0, 0.3, 1.0, 1.01, -7.0])  # omega / n
def test_integrals_bit_identical_on_both_routes(monkeypatch, small_table, n, ratio):
    f = lambda x: np.exp((0.9 - 0.6j) * x)
    omega = ratio * n
    result = integrate_on_interval(f, omega, -1.0, 1.0, n)
    monkeypatch.setattr(moments, "_real_moments", straightforward_real_moments)
    monkeypatch.setattr(moments, "_chebyshev_moments", straightforward_chebyshev_moments)
    expected = integrate_on_interval(f, omega, -1.0, 1.0, n)
    assert result.value == expected.value
    assert result.path is expected.path is (
        SolvePath.DIRECT_TRIANGULAR if abs(ratio) > 1 else SolvePath.QUADRATURE
    )


def test_table_is_read_only_and_returned_moments_are_fresh(small_table):
    for omega, n in [(5.0, 300), (900.0, 300), (0.0, 2), (2e4, 3000)]:
        m = moments._real_moments(omega, n)
        M = moments._chebyshev_moments(omega, n)
        m[:] = 7.0
        M[:] = 7.0
        assert moments._real_moments(omega, n).tobytes() == (
            straightforward_real_moments(omega, n).tobytes()
        )
    table = moments._moment_rows_table
    for sequence in table:
        assert not sequence.flags.writeable
        with pytest.raises(ValueError):
            sequence[0] = 0
    # no solve wrote into it (f2py ignores the read-only flag)
    fresh = moments._build_moment_rows(len(table.diagonal))
    for sequence, expected in zip(table, fresh):
        assert sequence.tobytes() == expected.tobytes()


def test_concurrent_growth_matches_serial(monkeypatch):
    # both threads keep asking for a longer table than the last one built
    calls = [
        [(w, n) for n in range(2 + offset, 1500, 37) for w in (0.4 * n, 3.0 * n)]
        for offset in (0, 18)
    ]
    serial = [[moments._real_moments(w, n).tobytes() for w, n in c] for c in calls]
    monkeypatch.setattr(moments, "_moment_rows_table", moments._build_moment_rows(2))
    results = [[], []]
    start = threading.Barrier(2, timeout=30)

    def run(i):
        start.wait()
        results[i] = [moments._real_moments(w, n).tobytes() for w, n in calls[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
    assert len(moments._moment_rows_table.diagonal) == max(
        truncation(w, n) for c in calls for w, n in c
    )


def test_forward_band_is_fortran_ordered(monkeypatch):
    # a C-ordered band would make f2py copy it, transposed, on every call
    calls = []

    def fortran_only(ab, *args, **kwargs):
        assert ab.flags.f_contiguous
        calls.append(ab.shape)
        return dtbtrs(ab, *args, **kwargs)

    monkeypatch.setattr(moments, "dtbtrs", fortran_only)
    f = lambda x: np.exp(0.5 * x)
    for n in (2, 64, moments._NODE_WEIGHTS_FROM_N):
        result = integrate_on_interval(f, 3.0 * n, -1.0, 1.0, n)
        assert result.path is SolvePath.DIRECT_TRIANGULAR
    assert calls == [(3, 1), (3, 63), (3, moments._NODE_WEIGHTS_FROM_N - 1)]
