"""Sparse CSR storage and direct solves for the per-step linear systems.

Matrices are plain ``scipy.sparse.csr_matrix``.  This module pins down the
behaviours the rest of the code relies on: canonical CSR storage with
duplicates summed, through a ``ScatterPlan`` built once per entry list, an
explicit error on (near-)singular systems instead of silent garbage, and a
recomputed residual in every solve report.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularSystemError(RuntimeError):
    """The factorization failed or the solution does not meet the residual bound."""


# residual acceptance: ||b - Ax|| <= RTOL * (||A||_F ||x|| + ||b||)
RTOL = 1e-10


class ScatterPlan:
    """CSR pattern of a fixed list of (row, col) entries, and the slot each
    entry sums into.

    Built once per index list; every matrix with those entries then costs
    one ``np.bincount`` over its values.  The pattern is canonical (sorted
    column indices, no duplicates) and stores every listed position, also
    where the values sum to 0.

    Raises
    ------
    ValueError
        If any index lies outside ``shape``.
    """

    def __init__(self, shape, rows, cols):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        n_rows, n_cols = shape
        if len(rows) and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise ValueError(f"entry index out of range for shape {shape}")
        keys, self.slots = np.unique(rows * n_cols + cols, return_inverse=True)
        self.shape = (n_rows, n_cols)
        self.nnz = len(keys)
        index = np.int32 if max(self.nnz, n_rows, n_cols) < np.iinfo(np.int32).max else np.int64
        self.indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols).astype(index)
        self.indices = (keys % n_cols).astype(index)
        self._keys = keys

    @functools.cached_property
    def transpose_slots(self):
        """Slot of entry (j, i) for each slot (i, j) of a square pattern.

        Raises
        ------
        ValueError
            If the pattern is not structurally symmetric.
        """
        n = self.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        t_keys = self.indices.astype(np.int64) * n + rows
        perm = np.searchsorted(self._keys, t_keys)
        if self.shape[1] != n or np.any(self._keys[np.minimum(perm, self.nnz - 1)] != t_keys):
            raise ValueError("scatter pattern is not structurally symmetric")
        return perm

    def data(self, values):
        """Sum of the values, listed in the order of the entries, per slot."""
        return np.bincount(self.slots, weights=np.ravel(values), minlength=self.nnz)

    def csr(self, data):
        """The CSR matrix of the pattern holding ``data``."""
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)

    def matrix(self, values):
        """Canonical CSR matrix summing the values of all entries."""
        return self.csr(self.data(values))


@dataclass(frozen=True)
class SolveReport:
    residual_norm: float
    factor_time: float
    solve_time: float


class Factorization:
    """LU factorization of a square scipy sparse matrix, reusable across solves."""

    def __init__(self, a):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self._a = sp.csr_matrix(a)
        self._fro = float(np.linalg.norm(self._a.data))
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(self._a.tocsc())
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        self.factor_time = time.perf_counter() - t0

    def solve(self, b):
        """Solve A x = b, held to the residual bound (see ``checked_solve``)."""
        x, res_norm, solve_time = checked_solve(b, self._lu.solve, self._a.dot, self._fro)
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

