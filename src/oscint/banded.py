"""Complex banded matrices and the two solvers used by the Levin pipeline.

A matrix is stored once, in LAPACK general band storage, and that array
goes to LAPACK without rearranging its bands: to ``ztbtrs`` for the
triangular back-substitution (kl = 0 is exactly its upper band storage)
and to ``zgbtrf`` for the pivoted band LU, solved by ``zgbtrs``. The
array is Fortran-ordered, the layout LAPACK reads, so scipy's f2py
wrappers take it without a transposed copy. Out-of-band entries are
unrepresentable.
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

    ``ab`` is LAPACK general band storage, shape (2*kl + ku + 1, dim):
    entry (i, j) sits at ``ab[kl + ku + i - j, j]``, so row kl + ku - k
    holds band k aligned by column. The top kl rows stay zero; they
    are the room ``zgbtrf`` needs for its fill-in.

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
        self.ab = np.zeros((2 * kl + ku + 1, dim), dtype=complex, order="F")
        # (k, lo, hi) per band k: columns lo <= j < hi hold entry (j - k, j)
        self._columns = [(k, max(k, 0), dim + min(k, 0)) for k in range(-kl, ku + 1)]

    def band(self, k: int) -> np.ndarray:
        """Band k as a writable view into ``ab``."""
        if not -self.kl <= k <= self.ku:
            raise ValueError(f"band {k} is outside kl={self.kl}, ku={self.ku}")
        return self.ab[self.kl + self.ku - k, max(k, 0) : self.dim + min(k, 0)]

    def set_band(self, k: int, values: np.ndarray) -> None:
        band = self.band(k)
        if len(values) != len(band):
            raise ValueError(f"band {k} must have length {len(band)}")
        band[:] = values

    def _vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if len(x) != self.dim:
            raise ValueError("vector length does not match matrix dimension")
        return x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product M x."""
        x = self._vector(x)
        y = np.zeros(self.dim, dtype=complex)
        top = self.kl + self.ku
        for k, lo, hi in self._columns:
            y[lo - k : hi - k] += self.ab[top - k, lo:hi] * x[lo:hi]
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The product M^H x."""
        x = self._vector(x)
        y = np.zeros(self.dim, dtype=complex)
        top = self.kl + self.ku
        for k, lo, hi in self._columns:
            y[lo:hi] += np.conj(self.ab[top - k, lo:hi]) * x[lo - k : hi - k]
        return y

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for k, lo, hi in self._columns:
            j = np.arange(lo, hi)
            M[j - k, j] = self.band(k)
        return M


def upper_triangular_backsolve(M: BandedComplexMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for upper-banded M (kl = 0) by LAPACK ``ztbtrs``.

    ``M.ab`` is already LAPACK upper band storage, so the backward pass
    touches only in-band entries: O(ku * dim) work.
    """
    if M.kl != 0:
        raise ValueError("matrix must be upper triangular (kl = 0)")
    rhs = np.asarray(rhs, dtype=complex)
    if len(rhs) != M.dim:
        raise ValueError("right-hand side length does not match dimension")
    small = np.abs(M.ab[M.ku]) < PIVOT_TOL
    if small.any():
        i = int(np.argmax(small))
        raise SingularMatrixError(f"zero diagonal entry in row {i}", index=i)
    x, info = lapack.ztbtrs(M.ab, rhs[:, None])
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
    (LAPACK ``zgbtrf`` on ``M.ab``, which it does not overwrite) costs
    O((kl + ku)^2 dim).
    """
    dim, kl, ku = M.dim, M.kl, M.ku
    rows, pivots, info = lapack.zgbtrf(M.ab, kl, ku)
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
    y = G.rmatvec(rhs)
    d = G.ab[2]
    s1 = G.ab[1, 1:]
    s2 = G.ab[0, 2:]

    h0 = np.abs(d) ** 2
    h0[1:] += np.abs(s1) ** 2
    h0[2:] += np.abs(s2) ** 2

    # bands k = 2, 1, 0, -1, -2 of H are rows 2..6 of its band storage;
    # rows 0 and 1 stay zero for zgbtrf's fill-in
    H = BandedComplexMatrix(G.dim, kl=2, ku=2)
    ab = H.ab
    h1 = ab[3, 1:]
    np.multiply(np.conj(d[:-1]), s1, out=h1)
    h1[1:] += np.conj(s1[:-1]) * s2
    np.multiply(np.conj(d[:-2]), s2, out=ab[2, 2:])
    ab[4] = h0
    np.conj(h1, out=ab[5, :-1])
    np.conj(ab[2, 2:], out=ab[6, :-2])
    return H, y
