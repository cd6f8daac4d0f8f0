"""Machine-speed calibration for the benchmark's timings.

Shared hosts change speed. On the 2-CPU host this benchmark was built on,
the kernel below took 3.5 ms in fast phases and 5-6 ms in slow ones, and a
phase lasted 5-30 s, longer than a round. Unscaled, that made the spread of
a timing over ten runs 10-40 % of its median. The worker therefore times
``calibrate()``, which does not touch oscint, before and after each round,
and timings are reported at the reference speed where it takes
``REFERENCE_S``. Scaled, the same spreads were 3-10 %.

The kernel is the geometric mean of two parts that slow down differently
under contention, as oscint's stages do: complex arithmetic on Python
scalars plus small FFTs, and a back-substitution over long Python lists plus
numpy passes over large arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 3.5e-3  # calibrate() in the host's fast phase

_FFT_INPUT = np.linspace(0.0, 1.0, 4097)
_M = 40000
_RHS = [complex(i % 7, 1.0) for i in range(_M)]
_DIAG = [complex(1.0, 2.0)] * _M
_WIDE = np.linspace(0.0, 1.0, 100000) + 0j


def _scalar_part() -> None:
    z, w = 0j, 1.0001 + 0.0001j
    for _ in range(8000):
        z = z * w + 1.0
    for _ in range(10):
        np.fft.rfft(_FFT_INPUT)


def _memory_part() -> None:
    x = [0j] * _M
    x[_M - 1] = _RHS[_M - 1] / _DIAG[_M - 1]
    for i in range(_M - 2, -1, -1):
        x[i] = (_RHS[i] - 0.5 * x[i + 1]) / _DIAG[i]
    for _ in range(3):
        np.abs(_WIDE * _WIDE + _WIDE)


def calibrate() -> float:
    """Seconds taken by the calibration kernel (geometric mean of its two parts)."""
    parts = []
    for part in (_scalar_part, _memory_part):
        t0 = time.perf_counter()
        part()
        parts.append(time.perf_counter() - t0)
    return math.sqrt(parts[0] * parts[1])


def scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two calibrations to reference speed."""
    return REFERENCE_S / math.sqrt(before * after)
