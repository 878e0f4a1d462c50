"""Sparse CSR storage and direct solves for the per-step linear systems.

Matrices are plain ``scipy.sparse.csr_matrix``.  This module pins down the
behaviours the rest of the code relies on: canonical CSR storage with
duplicates summed, through a ``ScatterPlan`` built once per entry list, an
explicit error on (near-)singular systems instead of silent garbage, and a
recomputed residual in every solve report, also of one refined through the
LU of a nearby matrix (``refined_solve``).
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularSystemError(RuntimeError):
    """The factorization failed or the solution does not meet the residual bound."""


# residual acceptance: ||b - Ax|| <= RTOL * (||A||_F ||x|| + ||b||)
RTOL = 1e-10
MAX_REFINE_PASSES = 20  # passes through a nearby LU before a fresh LU takes over


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
        t_keys = self.indices.astype(np.int64) * n + entry_rows(self)
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


def entry_rows(a):
    """Row of each stored entry of a CSR matrix or ``ScatterPlan``."""
    return np.repeat(np.arange(len(a.indptr) - 1, dtype=np.int64), np.diff(a.indptr))


def pruned(a):
    """A copy of the sparse matrix ``a`` without its stored zeros."""
    a = a.copy()
    a.eliminate_zeros()
    return a


class PatternSum:
    """``base`` plus a transport on the CSR pattern of ``pattern``, a leading
    block of ``base`` whose positions ``base`` all stores, written in place
    into one kept ``matrix``: the slots are found once, and a call builds no
    sparse matrix.  A pattern or a transport that does not fit raises ValueError."""

    def __init__(self, base, pattern):
        self.matrix, self.pattern = base.copy(), pattern
        keys, want = (entry_rows(m) * base.shape[1] + m.indices for m in (base, pattern))
        self._slots = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[self._slots] != want):
            raise ValueError("the operator does not store every position of the pattern")
        self._base = base.data[self._slots]

    def __call__(self, t):
        """The kept matrix, holding ``base + t``."""
        p = self.pattern
        if t.shape != p.shape or not (
                np.array_equal(t.indptr, p.indptr) and np.array_equal(t.indices, p.indices)):
            raise ValueError("transport matrix is off the pattern of its layout")
        self.matrix.data[self._slots] = self._base + t.data
        return self.matrix


@dataclass(frozen=True)
class SolveReport:
    """``kind``: ``lu`` if the solve paid for its LU, ``cached-lu`` if it reused one,
    ``lu-fallback`` if refinement against a cached one failed.  ``factor_time``
    counts the LUs the solve paid for, ``iterations`` its passes through an LU."""

    residual_norm: float
    factor_time: float
    solve_time: float
    kind: str
    iterations: int


def refined_solve(b, inverse, apply, fro, paid, fresh_inverse=None):
    """Solve A x = b through the LU ``inverse``, held to ``checked_solve``;
    returns (x, SolveReport).  ``apply`` computes A x, ``fro`` is ||A||_F,
    ``paid`` the factor time of the LU if this solve pays for it, else None.
    With ``fresh_inverse``, the LU is of a matrix close to A and passes are
    refined against A while each halves the residual (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 12); if the residual turns
    non-finite or stops shrinking above the RTOL bound, or if the contraction
    of the last pass would leave it above the bound after MAX_REFINE_PASSES
    passes, the exact ``fresh_inverse()`` takes over at once.
    """
    t0, passes, fresh_time = time.perf_counter(), [0], 0.0
    kind = "cached-lu" if paid is None else "lu"

    def counted(rhs):
        passes[0] += 1
        return inverse(rhs)

    def refined(rhs):
        x, n, prev, b_norm = counted(rhs), 1, math.inf, float(np.linalg.norm(rhs))
        while True:
            residual = rhs - apply(x)
            res = float(np.linalg.norm(residual))
            bound = RTOL * (fro * float(np.linalg.norm(x)) + b_norm)
            if res <= bound and (res >= 0.5 * prev or n == MAX_REFINE_PASSES):
                return x
            # give up once this pass's contraction, kept up to the pass cap,
            # would still leave the residual above the bound
            if not res < prev or res * (res / prev) ** (MAX_REFINE_PASSES - n) > bound:
                raise SingularSystemError(f"refinement left residual {res:.3e} after {n} passes")
            x, n, prev = x + counted(residual), n + 1, res

    try:
        x, res_norm = checked_solve(b, counted if fresh_inverse is None else refined, apply, fro)
    except SingularSystemError:
        if fresh_inverse is None:
            raise
        t1 = time.perf_counter()
        inverse, kind = fresh_inverse(), "lu-fallback"
        fresh_time = time.perf_counter() - t1
        x, res_norm = checked_solve(b, counted, apply, fro)
    solve_time = time.perf_counter() - t0 - fresh_time
    return x, SolveReport(res_norm, (paid or 0.0) + fresh_time, solve_time, kind, passes[0])


class Factorization:
    """LU factorization of a square scipy sparse matrix, reusable across solves:
    SuperLU's COLAMD ordering with partial pivoting, or, for a ``quasi_definite``
    matrix (symmetric quasi-definite after a diagonal row scaling, so every
    symmetric ordering has nonzero pivots), a symmetric minimum-degree ordering
    without pivoting, which fills less."""

    def __init__(self, a, quasi_definite=False):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self.matrix = sp.csr_matrix(a)
        self._fro = float(np.linalg.norm(self.matrix.data))
        ordering = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}) if quasi_definite else {}
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(self.matrix.tocsc(), **ordering)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        self.factor_time = self._unpaid = time.perf_counter() - t0

    def lu_solve(self, b):
        """LU^-1 b, unchecked: for a caller that checks the residual of a larger system."""
        return self._lu.solve(b)

    def solve(self, b, a=None):
        """Solve A x = b, or a x = b through this LU of a matrix close to the
        CSR matrix ``a`` (``refined_solve``; a fresh LU factors ``a`` without
        its stored zeros); only the first solve reports the factor time."""
        paid, self._unpaid = self._unpaid, None
        if a is None:
            return refined_solve(b, self._lu.solve, self.matrix.dot, self._fro, paid)
        fresh = lambda: Factorization(pruned(a))._lu.solve
        return refined_solve(b, self._lu.solve, a.dot, np.linalg.norm(a.data), paid, fresh)


def checked_solve(b, solve, apply, fro):
    """Solve A x = b with an approximate inverse, then verify the residual.

    ``solve(b)`` applies the approximate inverse, ``apply(x)`` computes
    A x and ``fro`` is ||A||_F.  Returns (x, residual norm).

    Raises
    ------
    SingularSystemError
        If x is not finite, or if the recomputed residual exceeds
        RTOL * (||A||_F ||x|| + ||b||) even after one step of iterative
        refinement.
    """
    b = np.asarray(b, dtype=float)
    x = solve(b)
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
    return x, res_norm


def solve(a, b):
    """Factorize and solve in one call; see Factorization.solve."""
    return Factorization(a).solve(b)

