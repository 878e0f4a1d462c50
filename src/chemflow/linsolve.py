"""Sparse CSR storage and direct solves for the per-step linear systems.

Thin wrappers over scipy.sparse / SuperLU that pin down the behaviours the
rest of the code relies on: canonical CSR storage, duplicate summing, an
explicit error on (near-)singular systems instead of silent garbage, and a
recomputed residual in every solve report.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularSystemError(RuntimeError):
    """The factorization failed or the solution does not meet the residual bound."""


# residual acceptance: ||b - Ax|| <= RTOL * (||A||_F ||x|| + ||b||)
RTOL = 1e-10


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable CSR matrix (canonical form: sorted indices, summed duplicates)."""

    csr: sp.csr_matrix

    @staticmethod
    def from_scipy(a):
        a = sp.csr_matrix(a)
        a.sum_duplicates()
        a.sort_indices()
        return SparseMatrix(csr=a)

    @property
    def shape(self):
        return self.csr.shape

    @property
    def row_offsets(self):
        return self.csr.indptr

    @property
    def col_indices(self):
        return self.csr.indices

    @property
    def values(self):
        return self.csr.data

    def matvec(self, x):
        return self.csr @ np.asarray(x, dtype=float)

    def __matmul__(self, x):
        return self.matvec(x)

    def __add__(self, other):
        return SparseMatrix.from_scipy(self.csr + other.csr)

    def __sub__(self, other):
        return SparseMatrix.from_scipy(self.csr - other.csr)

    def scaled(self, alpha):
        return SparseMatrix.from_scipy(self.csr * float(alpha))

    def transpose(self):
        return SparseMatrix.from_scipy(self.csr.T)

    @property
    def T(self):
        return self.transpose()

    def frobenius(self):
        return float(np.sqrt((self.csr.data**2).sum()))

    def to_dense(self):
        return self.csr.toarray()


def from_triplets(shape, entries):
    """Build a SparseMatrix from (row, col, value) entries; duplicates are summed.

    Parameters
    ----------
    shape : (int, int)
    entries : iterable of (row, col, value), or a (rows, cols, values) triple
        of equal-length arrays.

    Raises
    ------
    ValueError
        If any index lies outside ``shape``.
    """
    if isinstance(entries, tuple) and len(entries) == 3 and np.ndim(entries[0]) == 1:
        rows, cols, vals = (np.asarray(a) for a in entries)
    else:
        entries = list(entries)
        if entries:
            rows, cols, vals = map(np.asarray, zip(*entries))
        else:
            rows = cols = np.empty(0, dtype=int)
            vals = np.empty(0)
    if len(rows) and (
        rows.min() < 0 or rows.max() >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]
    ):
        raise ValueError(f"triplet index out of range for shape {shape}")
    coo = sp.coo_matrix((vals.astype(float), (rows, cols)), shape=shape)
    return SparseMatrix.from_scipy(coo)


@dataclass(frozen=True)
class SolveReport:
    residual_norm: float
    factor_time: float
    solve_time: float


class Factorization:
    """LU factorization of a square SparseMatrix, reusable across solves."""

    def __init__(self, a):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self._a = a
        self._fro = a.frobenius()
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(sp.csc_matrix(a.csr))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        self.factor_time = time.perf_counter() - t0

    def solve(self, b):
        """Solve A x = b, held to the residual bound (see ``checked_solve``)."""
        x, res_norm, solve_time = checked_solve(b, self._lu.solve, self._a.matvec, self._fro)
        return x, SolveReport(
            residual_norm=res_norm,
            factor_time=self.factor_time,
            solve_time=solve_time,
        )


def checked_solve(b, solve, apply, fro):
    """Solve A x = b with an approximate inverse, then verify the residual.

    ``solve(b)`` applies the approximate inverse, ``apply(x)`` computes
    A x and ``fro`` is ||A||_F.  Returns (x, residual norm, seconds spent
    in the first ``solve``).

    Raises
    ------
    SingularSystemError
        If x is not finite, or if the recomputed residual exceeds
        RTOL * (||A||_F ||x|| + ||b||) even after one step of iterative
        refinement.
    """
    b = np.asarray(b, dtype=float)
    t0 = time.perf_counter()
    x = solve(b)
    solve_time = time.perf_counter() - t0
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solution contains non-finite entries")
    residual = b - apply(x)
    res_norm = float(np.linalg.norm(residual))
    bound = RTOL * (fro * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
    if res_norm > bound:
        # one refinement pass before declaring the system unusable
        x = x + solve(residual)
        residual = b - apply(x)
        res_norm = float(np.linalg.norm(residual))
        bound = RTOL * (fro * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
        if res_norm > bound:
            raise SingularSystemError(
                f"residual {res_norm:.3e} exceeds tolerance {bound:.3e}"
            )
    return x, res_norm, solve_time


def solve(a, b):
    """Factorize and solve in one call; see Factorization.solve."""
    return Factorization(a).solve(b)


def write_matrix_market(a, path):
    """Export a matrix in Matrix Market coordinate format (1-based indices)."""
    coo = sp.coo_matrix(a.csr)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
