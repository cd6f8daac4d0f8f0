"""The two band matrices of the reference Levin solver and their solvers.

:func:`oscint.levin.integrate_standard` builds the upper-banded matrix G
(kl = 0, ku = 2) and, on its normal-equations path, the Hermitian matrix
H = G^H G (kl = ku = 2). Both have one band layout, the one BLAS ``zgbmv``
and :func:`scipy.linalg.solve_banded` read: entry (i, j) at
``ab[ku + i - j, j]``. ``zgbmv`` multiplies by M and M^H; G goes to
``ztbtrs`` for the triangular back-substitution as it stands (for kl = 0
this is its upper band storage), and the pivoted band LU of H (``zgbtrf``,
solved by ``zgbtrs``) adds the kl fill rows that ``zgbtrf`` needs to its own
copy. The array is Fortran-ordered, the layout BLAS and LAPACK read, so
scipy's f2py wrappers take it without a transposed copy.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

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

    ``ab`` is band storage, shape (kl + ku + 1, dim): entry (i, j) sits at
    ``ab[ku + i - j, j]``, so row ku - k holds band k aligned by column.
    """

    def __init__(self, dim: int, kl: int, ku: int):
        self.dim = dim
        self.kl = kl
        self.ku = ku
        self.ab = np.zeros((kl + ku + 1, dim), dtype=complex, order="F")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product M x."""
        return blas.zgbmv(self.dim, self.dim, self.kl, self.ku, 1, self.ab, x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The product M^H x."""
        return blas.zgbmv(self.dim, self.dim, self.kl, self.ku, 1, self.ab, x, trans=2)


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

    Returns LAPACK ``zgbtrf``'s ``(rows, pivots)``: ``rows`` is ``H.ab``
    below kl zero rows, the room for U's fill-in, factored in place: U in
    its first kl + ku + 1 rows, whose fill-in stays within kl + ku
    superdiagonals, and the L multipliers below; ``pivots`` is ``ipiv`` as
    scipy returns it, 0-based. Row interchanges are limited to the kl rows
    below the diagonal, so the factorization (which leaves ``H.ab`` as it
    is) costs O((kl + ku)^2 dim).
    """
    rows = np.zeros((7, H.dim), dtype=complex, order="F")
    rows[2:] = H.ab
    rows, pivots, info = lapack.zgbtrf(rows, 2, 2, overwrite_ab=1)
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

    # bands k = 2, 1, 0, -1, -2 of H are rows 0..4 of its band storage
    H = BandedComplexMatrix(G.dim, kl=2, ku=2)
    ab = H.ab
    h1 = ab[1, 1:]
    np.multiply(np.conj(d[:-1]), s1, out=h1)
    h1[1:] += np.conj(s1[:-1]) * s2
    np.multiply(np.conj(d[:-2]), s2, out=ab[0, 2:])
    ab[2] = h0
    np.conj(h1, out=ab[3, :-1])
    np.conj(ab[0, 2:], out=ab[4, :-2])
    return H, y
