"""Complex banded matrices and the two solvers used by the Levin pipeline.

Storage is diagonal-major: each band is a contiguous vector. Both solvers
copy the bands into LAPACK band storage: the triangular back-substitution
for ``ztbtrs``, the pivoted band LU and its solve for ``zgbtrf`` and
``zgbtrs``. Out-of-band entries are unrepresentable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "BandedComplexMatrix",
    "LUFactors",
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


class BandedComplexMatrix:
    """Square complex matrix with lower/upper bandwidths (kl, ku).

    Band k (-kl <= k <= ku) is a vector of length dim - |k| running
    from the top-left: for k >= 0 element t is entry (t, t+k), for
    k < 0 it is entry (t+|k|, t).
    """

    def __init__(self, dim: int, kl: int, ku: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not (0 <= kl < dim and 0 <= ku < dim):
            raise ValueError(f"bandwidths kl={kl}, ku={ku} invalid for dim {dim}")
        self.dim = dim
        self.kl = kl
        self.ku = ku
        self._bands = {
            k: np.zeros(dim - abs(k), dtype=complex)
            for k in range(-kl, ku + 1)
        }

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


def _band_storage(M: BandedComplexMatrix, fill: int = 0) -> np.ndarray:
    """M's bands in LAPACK band storage, below ``fill`` zero rows.

    Row fill + ku - k holds band k, aligned by column.
    """
    ab = np.zeros((fill + M.kl + M.ku + 1, M.dim), dtype=complex)
    for k in range(-M.kl, M.ku + 1):
        ab[fill + M.ku - k, max(k, 0) : M.dim + min(k, 0)] = M.band(k)
    return ab


def upper_triangular_backsolve(M: BandedComplexMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for upper-banded M (kl = 0) by LAPACK ``ztbtrs``.

    The ku + 1 bands are copied into LAPACK upper band storage, so the
    backward pass touches only in-band entries: O(ku * dim) work.
    """
    if M.kl != 0:
        raise ValueError("matrix must be upper triangular (kl = 0)")
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != M.dim:
        raise ValueError("right-hand side length does not match dimension")
    small = np.abs(M.band(0)) < PIVOT_TOL
    if small.any():
        i = int(np.argmax(small))
        raise SingularMatrixError(f"zero diagonal entry in row {i}", index=i)
    x, info = lapack.ztbtrs(_band_storage(M), rhs[:, None])
    if info != 0:
        raise ValueError(f"ztbtrs failed with info = {info}")
    return x[:, 0]


@dataclass
class LUFactors:
    """Row-pivoted band LU from LAPACK ``zgbtrf``.

    ``rows`` is LAPACK general band storage: ``rows[ofs][j]`` holds the
    factored entry (j + ofs - ku - kl, j). Offsets 0..kl+ku are the rows
    of U, whose fill-in stays within kl + ku superdiagonals; offsets
    above that hold the L multipliers. ``pivots`` is LAPACK's ``ipiv`` as
    scipy returns it, 0-based: ``pivots[k]`` is the row swapped into
    position k at step k.
    """

    dim: int
    kl: int
    ku: int
    rows: np.ndarray = field(repr=False)
    pivots: np.ndarray = field(repr=False)


def banded_lu_partial_pivot(M: BandedComplexMatrix) -> LUFactors:
    """LU factorization of a banded matrix with partial (row) pivoting.

    Row interchanges are limited to the kl rows below the diagonal, so
    fill-in stays within kl + ku superdiagonals and the factorization
    (LAPACK ``zgbtrf``) costs O((kl + ku)^2 dim).
    """
    dim, kl, ku = M.dim, M.kl, M.ku
    rows, pivots, info = lapack.zgbtrf(_band_storage(M, fill=kl), kl, ku)
    if info < 0:
        raise ValueError(f"zgbtrf failed with info = {info}")
    small = np.abs(rows[kl + ku]) < PIVOT_TOL
    if small.any():
        k = int(np.argmax(small))
        raise SingularMatrixError(f"pivot column {k} is zero", index=k)
    return LUFactors(dim=dim, kl=kl, ku=ku, rows=rows, pivots=pivots)


def lu_solve(factors: LUFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs from a prior :func:`banded_lu_partial_pivot` (``zgbtrs``)."""
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != factors.dim:
        raise ValueError("right-hand side length does not match dimension")
    x, info = lapack.zgbtrs(
        factors.rows, factors.kl, factors.ku, rhs[:, None], factors.pivots
    )
    if info != 0:
        raise ValueError(f"zgbtrs failed with info = {info}")
    return x[:, 0]


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

    H = BandedComplexMatrix(dim, kl=2, ku=2)
    H.set_band(0, h0.astype(complex))
    H.set_band(1, h1)
    H.set_band(2, h2)
    H.set_band(-1, np.conj(h1))
    H.set_band(-2, np.conj(h2))

    y = np.conj(d) * rhs
    y[1:] += np.conj(s1) * rhs[:-1]
    y[2:] += np.conj(s2) * rhs[:-2]
    return H, y
