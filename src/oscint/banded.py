"""The two band matrices of the reference Levin solver and their solvers.

:func:`oscint.levin.integrate_standard` builds the upper-banded matrix G
(kl = 0, ku = 2) and, on its normal-equations path, the Hermitian matrix
H = G^H G (kl = ku = 2). Each is stored once, in LAPACK general band
storage, and that array goes to LAPACK without rearranging its bands: G to
``ztbtrs`` for the triangular back-substitution (kl = 0 is exactly its
upper band storage), H to ``zgbtrf`` for the pivoted band LU, solved by
``zgbtrs``. The array is Fortran-ordered, the layout LAPACK reads, so
scipy's f2py wrappers take it without a transposed copy.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .moments import SingularMatrixError

__all__ = [
    "BandedComplexMatrix",
    "SingularMatrixError",
    "upper_triangular_backsolve",
    "banded_lu_partial_pivot",
    "lu_solve",
    "normal_system",
]

# Absolute pivot threshold: diagonals here carry |i*omega|, so only a true
# zero (or denormal garbage) should trip the singularity guard.
PIVOT_TOL = 1e-300


class BandedComplexMatrix:
    """Square complex matrix with lower/upper bandwidths (kl, ku).

    ``ab`` is LAPACK general band storage, shape (2*kl + ku + 1, dim):
    entry (i, j) sits at ``ab[kl + ku + i - j, j]``, so row kl + ku - k
    holds band k aligned by column. The top kl rows stay zero; they
    are the room ``zgbtrf`` needs for its fill-in.
    """

    def __init__(self, dim: int, kl: int, ku: int):
        self.dim = dim
        self.kl = kl
        self.ku = ku
        self.ab = np.zeros((2 * kl + ku + 1, dim), dtype=complex, order="F")
        # (k, lo, hi) per band k: columns lo <= j < hi hold entry (j - k, j)
        self._columns = [(k, max(k, 0), dim + min(k, 0)) for k in range(-kl, ku + 1)]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product M x."""
        x = np.asarray(x, dtype=complex)
        y = np.zeros(self.dim, dtype=complex)
        top = self.kl + self.ku
        for k, lo, hi in self._columns:
            y[lo - k : hi - k] += self.ab[top - k, lo:hi] * x[lo:hi]
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The product M^H x."""
        x = np.asarray(x, dtype=complex)
        y = np.zeros(self.dim, dtype=complex)
        top = self.kl + self.ku
        for k, lo, hi in self._columns:
            y[lo:hi] += np.conj(self.ab[top - k, lo:hi]) * x[lo - k : hi - k]
        return y

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        top = self.kl + self.ku
        for k, lo, hi in self._columns:
            j = np.arange(lo, hi)
            M[j - k, j] = self.ab[top - k, lo:hi]
        return M


def upper_triangular_backsolve(G: BandedComplexMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs for upper-banded G (kl = 0) by LAPACK ``ztbtrs``.

    ``G.ab`` is already LAPACK upper band storage, so the backward pass
    touches only in-band entries: O(ku * dim) work.
    """
    small = np.abs(G.ab[G.ku]) < PIVOT_TOL
    if small.any():
        i = int(np.argmax(small))
        raise SingularMatrixError(f"zero diagonal entry in row {i}", index=i)
    x, info = lapack.ztbtrs(G.ab, np.asarray(rhs, dtype=complex)[:, None])
    if info != 0:
        raise ValueError(f"ztbtrs failed with info = {info}")
    return x[:, 0]


def banded_lu_partial_pivot(H: BandedComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization of H (kl = ku = 2) with partial (row) pivoting.

    Returns LAPACK ``zgbtrf``'s ``(rows, pivots)``: ``rows`` is general band
    storage holding U in its first kl + ku + 1 rows, whose fill-in stays
    within kl + ku superdiagonals, and the L multipliers below; ``pivots``
    is ``ipiv`` as scipy returns it, 0-based. Row interchanges are limited
    to the kl rows below the diagonal, so the factorization (which does not
    overwrite ``H.ab``) costs O((kl + ku)^2 dim).
    """
    rows, pivots, info = lapack.zgbtrf(H.ab, 2, 2)
    if info < 0:
        raise ValueError(f"zgbtrf failed with info = {info}")
    small = np.abs(rows[4]) < PIVOT_TOL  # U's diagonal: row kl + ku
    if small.any():
        k = int(np.argmax(small))
        raise SingularMatrixError(f"pivot column {k} is zero", index=k)
    return rows, pivots


def lu_solve(factors: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs from a prior :func:`banded_lu_partial_pivot` (``zgbtrs``)."""
    rows, pivots = factors
    x, info = lapack.zgbtrs(rows, 2, 2, np.asarray(rhs, dtype=complex)[:, None], pivots)
    if info != 0:
        raise ValueError(f"zgbtrs failed with info = {info}")
    return x[:, 0]


def normal_system(
    G: BandedComplexMatrix,
    rhs: np.ndarray,
) -> tuple[BandedComplexMatrix, np.ndarray]:
    """Hermitian normal equations (G^H G, G^H rhs) for G with kl = 0, ku = 2.

    The product is assembled entrywise from the three bands, giving a
    pentadiagonal Hermitian matrix with real nonnegative diagonal.
    """
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
