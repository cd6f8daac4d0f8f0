"""Complex banded matrices and the two solvers used by the Levin pipeline.

Storage is diagonal-major: each band is a contiguous vector, so the
pivoted band LU touches only O(1) memory per in-band entry, and the
triangular back-substitution copies the bands into LAPACK band storage
for ``ztbtrs``. Out-of-band entries are unrepresentable.

An optional :class:`OpCounter` instruments the band LU and its solve
with a count of complex multiply-adds and divisions, used by the
performance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "BandedComplexMatrix",
    "LUFactors",
    "OpCounter",
    "SingularMatrixError",
    "upper_triangular_backsolve",
    "banded_lu_partial_pivot",
    "lu_solve",
    "normal_system",
]

# Absolute pivot threshold: diagonals here carry |i*omega|, so only a true
# zero (or denormal garbage) should trip the singularity guard.
PIVOT_TOL = 1e-300


class SingularMatrixError(ValueError):
    """Raised when elimination meets a zero pivot; ``index`` names it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass
class OpCounter:
    """Tally of complex floating-point work done by a solver."""

    madds: int = 0
    divs: int = 0

    @property
    def total(self) -> int:
        return self.madds + self.divs


class BandedComplexMatrix:
    """Square complex matrix with lower/upper bandwidths (kl, ku).

    Band k (-kl <= k <= ku) is a vector of length dim - |k| running
    from the top-left: for k >= 0 element t is entry (t, t+k), for
    k < 0 it is entry (t+|k|, t).
    """

    def __init__(self, dim: int, kl: int, ku: int, *, hermitian: bool = False):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not (0 <= kl < dim and 0 <= ku < dim):
            raise ValueError(f"bandwidths kl={kl}, ku={ku} invalid for dim {dim}")
        self.dim = dim
        self.kl = kl
        self.ku = ku
        self.hermitian = hermitian
        self._bands = {
            k: np.zeros(dim - abs(k), dtype=complex)
            for k in range(-kl, ku + 1)
        }

    @classmethod
    def zeros(cls, dim: int, kl: int, ku: int) -> "BandedComplexMatrix":
        return cls(dim, kl, ku)

    @classmethod
    def from_dense(cls, M: np.ndarray, kl: int, ku: int) -> "BandedComplexMatrix":
        M = np.asarray(M)
        out = cls(M.shape[0], kl, ku)
        for k in range(-kl, ku + 1):
            out.set_band(k, np.diagonal(M, k))
        return out

    def band(self, k: int) -> np.ndarray:
        return self._bands[k]

    def set_band(self, k: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=complex)
        if len(values) != self.dim - abs(k):
            raise ValueError(f"band {k} must have length {self.dim - abs(k)}")
        self._bands[k] = values.copy()

    def entry(self, i: int, j: int) -> complex:
        k = j - i
        if -self.kl <= k <= self.ku:
            return complex(self._bands[k][min(i, j)])
        return 0j

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if len(x) != self.dim:
            raise ValueError("vector length does not match matrix dimension")
        y = np.zeros(self.dim, dtype=complex)
        for k, band in self._bands.items():
            if k >= 0:
                y[: self.dim - k] += band * x[k:]
            else:
                y[-k:] += band * x[: self.dim + k]
        return y

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for k, band in self._bands.items():
            i = np.arange(len(band))
            if k >= 0:
                M[i, i + k] = band
            else:
                M[i - k, i] = band
        return M


def upper_triangular_backsolve(M: BandedComplexMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for upper-banded M (kl = 0) by LAPACK ``ztbtrs``.

    The ku + 1 bands are copied into LAPACK upper band storage, so the
    backward pass touches only in-band entries: O(ku * dim) work.
    """
    if M.kl != 0:
        raise ValueError("matrix must be upper triangular (kl = 0)")
    dim, ku = M.dim, M.ku
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != dim:
        raise ValueError("right-hand side length does not match dimension")
    small = np.abs(M.band(0)) < PIVOT_TOL
    if small.any():
        i = int(np.argmax(small))
        raise SingularMatrixError(f"zero diagonal entry in row {i}", index=i)
    ab = np.zeros((ku + 1, dim), dtype=complex)
    for k in range(ku + 1):
        ab[ku - k, k:] = M.band(k)
    x, info = lapack.ztbtrs(ab, rhs[:, None])
    if info != 0:
        raise ValueError(f"ztbtrs failed with info = {info}")
    return x[:, 0]


@dataclass
class LUFactors:
    """Row-pivoted band LU, with fill-in confined to kl + ku superdiagonals.

    ``rows[ofs][j]`` holds the factored entry (j + ofs - ku - kl, j):
    offsets 0..kl+ku are the rows of U, offsets above that hold the L
    multipliers in elimination order. ``pivots[k]`` is the row swapped
    into position k at step k.
    """

    dim: int
    kl: int
    ku: int
    rows: list = field(repr=False)
    pivots: list = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Recompute M x from the factors (reconstruction check)."""
        dim, kl, kw = self.dim, self.kl, self.kl + self.ku
        t = list(np.asarray(x, dtype=complex))
        # t = U x
        u = [0j] * dim
        for i in range(dim):
            s = 0j
            for j in range(i, min(i + kw, dim - 1) + 1):
                s += self.rows[kw + i - j][j] * t[j]
            u[i] = s
        t = u
        # undo the eliminations: M = (P_0^T L_0^-1 ... P_{n-1}^T L_{n-1}^-1) U
        for k in range(dim - 1, -1, -1):
            for r in range(min(k + kl, dim - 1), k, -1):
                t[r] += self.rows[kw + r - k][k] * t[k]
            p = self.pivots[k]
            if p != k:
                t[k], t[p] = t[p], t[k]
        return np.asarray(t, dtype=complex)


def banded_lu_partial_pivot(
    M: BandedComplexMatrix,
    counter: OpCounter | None = None,
) -> LUFactors:
    """LU factorization of a banded matrix with partial (row) pivoting.

    Row interchanges are limited to the kl rows below the diagonal, so
    fill-in stays within kl + ku superdiagonals and the factorization
    costs O((kl + ku)^2 dim).
    """
    dim, kl, ku = M.dim, M.kl, M.ku
    kw = kl + ku  # upper bandwidth after fill
    # rows[ofs][j] = entry(j + ofs - kw, j); list-of-lists for speed
    rows = [[0j] * dim for _ in range(kw + kl + 1)]
    for k in range(-kl, ku + 1):
        band = M.band(k)
        for t in range(len(band)):
            i, j = (t, t + k) if k >= 0 else (t - k, t)
            rows[kw + i - j][j] = complex(band[t])
    pivots = [0] * dim
    madds = 0
    divs = 0
    for k in range(dim):
        rmax = min(k + kl, dim - 1)
        # pivot search in column k
        p = k
        best = abs(rows[kw][k])
        for r in range(k + 1, rmax + 1):
            a = abs(rows[kw + r - k][k])
            if a > best:
                best = a
                p = r
        if best < PIVOT_TOL:
            raise SingularMatrixError(f"pivot column {k} is zero", index=k)
        pivots[k] = p
        jmax = min(k + kw, dim - 1)
        if p != k:
            for j in range(k, jmax + 1):
                a, b = kw + k - j, kw + p - j
                rows[a][j], rows[b][j] = rows[b][j], rows[a][j]
        piv = rows[kw][k]
        for r in range(k + 1, rmax + 1):
            m = rows[kw + r - k][k] / piv
            divs += 1
            rows[kw + r - k][k] = m
            if m != 0j:
                for j in range(k + 1, jmax + 1):
                    rows[kw + r - j][j] -= m * rows[kw + k - j][j]
                    madds += 1
    if counter is not None:
        counter.madds += madds
        counter.divs += divs
    return LUFactors(dim=dim, kl=kl, ku=ku, rows=rows, pivots=pivots)


def lu_solve(
    factors: LUFactors,
    rhs: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Solve M x = rhs from a prior :func:`banded_lu_partial_pivot`."""
    dim, kl = factors.dim, factors.kl
    kw = factors.kl + factors.ku
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != dim:
        raise ValueError("right-hand side length does not match dimension")
    rows = factors.rows
    y = rhs.tolist()
    madds = 0
    for k in range(dim):
        p = factors.pivots[k]
        if p != k:
            y[k], y[p] = y[p], y[k]
        yk = y[k]
        if yk != 0j:
            for r in range(k + 1, min(k + kl, dim - 1) + 1):
                y[r] -= rows[kw + r - k][k] * yk
                madds += 1
    x = [0j] * dim
    for i in range(dim - 1, -1, -1):
        s = y[i]
        for j in range(i + 1, min(i + kw, dim - 1) + 1):
            s -= rows[kw + i - j][j] * x[j]
            madds += 1
        x[i] = s / rows[kw][i]
    if counter is not None:
        counter.madds += madds
        counter.divs += dim
    return np.asarray(x, dtype=complex)


def normal_system(
    G: BandedComplexMatrix,
    rhs: np.ndarray,
) -> tuple[BandedComplexMatrix, np.ndarray]:
    """Hermitian normal equations (G^H G, G^H rhs) for upper-banded G.

    G must have kl = 0, ku = 2; the product is assembled entrywise from
    the three bands, giving a pentadiagonal Hermitian matrix with real
    nonnegative diagonal.
    """
    if G.kl != 0 or G.ku != 2:
        raise ValueError("normal_system expects an upper-banded matrix with ku = 2")
    dim = G.dim
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != dim:
        raise ValueError("right-hand side length does not match dimension")
    d = G.band(0)
    s1 = G.band(1)
    s2 = G.band(2)

    h0 = np.abs(d) ** 2
    h0[1:] += np.abs(s1) ** 2
    h0[2:] += np.abs(s2) ** 2
    h1 = np.conj(d[:-1]) * s1
    h1[1:] += np.conj(s1[:-1]) * s2
    h2 = np.conj(d[:-2]) * s2

    H = BandedComplexMatrix(dim, kl=2, ku=2, hermitian=True)
    H.set_band(0, h0.astype(complex))
    H.set_band(1, h1)
    H.set_band(2, h2)
    H.set_band(-1, np.conj(h1))
    H.set_band(-2, np.conj(h2))

    y = np.conj(d) * rhs
    y[1:] += np.conj(s1) * rhs[:-1]
    y[2:] += np.conj(s2) * rhs[:-2]
    return H, y
