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
from helpers import chebyshev_moments
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
        if w * sin_w * cos_w < 0:  # sin 2|w| < 0
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


# both sides of the boundary-value route's switch, sin 2|w| = 0: the three
# first lie where |J_1(w)| > |J_0(w)| but M_1 is not pinned
SWITCH_FREQUENCIES = (1.45, 1.5, 1.56) + tuple(
    k * math.pi / 2 + d for k in range(1, 9) for d in (-0.01, 0.01)
)


def seeded_calls(seed, count):
    """(omega, n) whose truncation grows, shrinks and crosses |omega| = n."""
    rng = np.random.default_rng(seed)
    calls = [
        (w, n)
        for n in (2, 3, 1023, 1024)
        for w in (0.0, 1e-20, -1e-20, 1.7e308, -1.7e308, float(n), -float(n) - 0.5)
    ]
    calls += [
        (s * w, n) for n in (16, 1024) for s in (1, -1) for w in SWITCH_FREQUENCIES
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
        M = chebyshev_moments(omega, n)
        np.testing.assert_array_equal(M, straightforward_chebyshev_moments(omega, n))
        # the table is grown to exactly the largest truncation asked for
        grown = max(grown, truncation(omega, n))
        assert moments._moment_rows_table.band.shape[1] - 1 == grown


def test_switch_frequencies_take_both_bottom_rows(monkeypatch):
    # M_1 is pinned, and row 1 left out of the solve, exactly where sin 2|w| < 0
    solved = []

    def record(dl, d, du, b, *args):
        solved.append(len(d))
        return dgtsv(dl, d, du, b, *args)

    monkeypatch.setattr(moments, "dgtsv", record)
    omegas = [s * w for s in (1, -1) for w in SWITCH_FREQUENCIES]
    for w in omegas:
        moments._real_moments(w, 16)
    pinned = [truncation(w, 16) - rows for w, rows in zip(omegas, solved)]
    assert pinned == [int(math.sin(2 * abs(w)) < 0) for w in omegas]
    assert pinned[:3] == [0, 0, 0] and 0 < sum(pinned) < len(pinned)


@pytest.mark.parametrize("n", [2, 3, 40, 1023, 1024, 2500])
@pytest.mark.parametrize("ratio", [0.0, 0.3, 1.0, 1.01, -7.0])  # omega / n
def test_integrals_bit_identical_on_both_routes(monkeypatch, small_table, n, ratio):
    f = lambda x: np.exp((0.9 - 0.6j) * x)
    omega = ratio * n
    result = integrate_on_interval(f, omega, -1.0, 1.0, n)
    monkeypatch.setattr(moments, "_real_moments", straightforward_real_moments)
    expected = integrate_on_interval(f, omega, -1.0, 1.0, n)
    assert result.value == expected.value
    assert result.path is expected.path is (
        SolvePath.DIRECT_TRIANGULAR if abs(ratio) > 1 else SolvePath.QUADRATURE
    )


def test_table_is_read_only_and_returned_moments_are_fresh(small_table):
    for omega, n in [(5.0, 300), (900.0, 300), (0.0, 2), (2e4, 3000)]:
        m = moments._real_moments(omega, n)
        m[:] = 7.0
        assert moments._real_moments(omega, n).tobytes() == (
            straightforward_real_moments(omega, n).tobytes()
        )
    table = moments._moment_rows_table
    for sequence in table:
        assert not sequence.flags.writeable
        with pytest.raises(ValueError):
            sequence[0] = 0
    # no solve wrote into it (f2py ignores the read-only flag)
    fresh = moments._build_moment_rows(table.band.shape[1] - 1)
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
    assert moments._moment_rows_table.band.shape[1] - 1 == max(
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


def test_boundary_route_passes_contiguous_arrays(monkeypatch):
    # a strided off-diagonal or diagonal would make f2py copy it on every call
    calls = []

    def contiguous_only(dl, d, du, b, *args):
        assert all(a.flags.c_contiguous for a in (dl, d, du, b))
        calls.append(len(d))
        return dgtsv(dl, d, du, b, *args)

    monkeypatch.setattr(moments, "dgtsv", contiguous_only)
    f = lambda x: np.exp(0.5 * x)
    # sin 2w > 0 at w = 0.5: all N rows are solved; sin 10 < 0, so at w = 5
    # row 1 is dropped
    for n, omega in [(2, 0.5), (64, 0.5), (64, 5.0), (moments._NODE_WEIGHTS_FROM_N, 5.0)]:
        result = integrate_on_interval(f, omega, -1.0, 1.0, n)
        assert result.path is SolvePath.QUADRATURE
    assert calls == [42, 104, 103, moments._NODE_WEIGHTS_FROM_N + 39]


def test_table_holds_four_doubles_per_row():
    # the band's three rows and the gather index: i^k is not stored per row
    for N in (2, 3, 1000):
        table = moments._build_moment_rows(N)
        assert sum(sequence.nbytes for sequence in table) == 4 * 8 * (N + 1)


def test_i_pow_is_read_only_and_serves_every_c_dot_m_degree():
    assert not moments._I_POW.flags.writeable
    assert len(moments._I_POW) == moments._NODE_WEIGHTS_FROM_N
    expected = [1j ** (k % 4) for k in range(len(moments._I_POW))]
    assert moments._I_POW.tobytes() == np.array(expected).tobytes()
