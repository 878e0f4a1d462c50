"""Sparse CSR storage and direct solves for the per-step linear systems.

Matrices are plain ``scipy.sparse.csr_matrix``.  This module pins down the
behaviours the rest of the code relies on: canonical CSR storage with
duplicates summed, through a ``ScatterPlan`` built once per entry list, an
explicit error on (near-)singular systems instead of silent garbage, one
elimination of constrained dofs (``eliminated``), one solver of operators
that change by a transport each step through the LU of the first one
(``KeptLU``), and one checked refinement loop for every solve
(``refined_solve``).  Its one stopping rule accepts x once the residual
meets the RTOL bound and every row is at its rounding floor, the
Oettli-Prager componentwise backward error
max_i |b - Ax|_i / (|A||x| + |b|)_i <= FLOOR * eps; its report carries the
residual it accepted, also of a solve through the LU of a nearby matrix.
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
# rounding floor: componentwise backward error accepted, in units of eps
FLOOR = 64
_FLOOR_EPS = FLOOR * np.finfo(float).eps


class ScatterPlan:
    """CSR pattern of a fixed list of (row, col) entries, and the slot each
    entry sums into.

    Built once per index list, by one sort of the entries; every matrix with
    those entries then costs one ``np.bincount`` over its values.  The
    pattern is canonical (sorted column indices, no duplicates) and stores
    every listed position, also where the values sum to 0.  A plan whose
    pattern and slots are known without sorting (one derived from another
    by index arithmetic) is made by ``from_pattern``.

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
        keys, slots = np.unique(rows * n_cols + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
        self._store((n_rows, n_cols), indptr, keys % n_cols, slots)

    @classmethod
    def from_pattern(cls, shape, indptr, indices, slots):
        """The plan of a canonical CSR pattern (``indptr``, ``indices``) and the
        slot of each entry (``slots``, int64), as the sort of ``__init__``
        finds them for the entry list they come from; they are not checked."""
        plan = cls.__new__(cls)
        plan._store(shape, indptr, indices, slots)
        return plan

    def _store(self, shape, indptr, indices, slots):
        self.shape = tuple(shape)
        self.nnz = len(indices)
        index = np.int32 if max(self.nnz, *self.shape) < np.iinfo(np.int32).max else np.int64
        self.indptr = indptr.astype(index)
        self.indices = indices.astype(index)
        self.slots = slots

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


def abs_matrix(a):
    """|a| of the CSR matrix ``a``, on the index arrays of ``a``."""
    return sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)


def pruned(a):
    """A copy of the sparse matrix ``a`` without its stored zeros."""
    a = a.copy()
    a.eliminate_zeros()
    return a


def _touching(a, dofs):
    """Row of each stored entry of the CSR matrix ``a``, and whether the entry
    lies in a row or a column of ``dofs`` (an integer array)."""
    rows, hit = entry_rows(a), np.zeros(a.shape[0], dtype=bool)
    hit[dofs] = True
    return rows, hit[rows] | hit[a.indices]


def eliminated(a, dofs):
    """A copy of the square CSR matrix ``a`` with the rows and columns of
    ``dofs`` zeroed and their diagonal set to 1, on the pattern of ``a``: the
    symmetric elimination of dofs held at 0.

    Raises
    ------
    ValueError
        If ``a`` stores no diagonal entry for one of ``dofs``.
    """
    a = a.tocsr(copy=True)
    rows, touched = _touching(a, dofs)
    a.data[touched] = 0.0
    diagonal = touched & (rows == a.indices)
    if not np.array_equal(rows[diagonal], np.unique(dofs)):
        raise ValueError("an eliminated dof has no stored diagonal entry")
    a.data[diagonal] = 1.0
    return a


class PatternSum:
    """``base`` plus a transport given as data on ``pattern`` (a ``ScatterPlan``
    or a CSR matrix), a leading block of ``base`` whose positions ``base`` all
    stores, written in place into one kept ``matrix``: the slots are found
    once, and a call builds no sparse matrix.  Transport entries in the rows
    and columns of ``eliminated`` are dropped.  ``abs_matrix`` holds |matrix|
    on the index arrays of ``matrix``, refreshed by each call.  A pattern that
    does not fit, or data of another length than the pattern's, raises
    ValueError."""

    def __init__(self, base, pattern, eliminated=np.empty(0, dtype=np.int64)):
        self.matrix, self.nnz = base.copy(), pattern.nnz
        keys, want = (entry_rows(m) * base.shape[1] + m.indices for m in (base, pattern))
        slots = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[slots] != want):
            raise ValueError("the operator does not store every position of the pattern")
        self._kept = ~_touching(pattern, eliminated)[1]
        self._slots = slots[self._kept]
        self._base = base.data[self._slots]
        self.abs_matrix = abs_matrix(self.matrix)

    def __call__(self, data):
        """The kept matrix, holding ``base`` plus the transport ``data``."""
        if np.shape(data) != (self.nnz,):
            raise ValueError(f"transport data has shape {np.shape(data)}, expected ({self.nnz},)")
        self.matrix.data[self._slots] = self._base + data[self._kept]
        np.abs(self.matrix.data, out=self.abs_matrix.data)
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


def _norm(v):
    """||v||_2 of a real vector, as ``np.linalg.norm`` computes it, without its
    argument checks, which cost more than the product on the step's sizes."""
    return math.sqrt(v.dot(v))


def refined_solve(b, inverse, a, abs_a, paid, fresh_inverse=None):
    """Solve A x = b through the LU ``inverse``; returns (x, SolveReport).

    ``a`` is the CSR matrix A, ``abs_a`` |A| on the same index arrays, ``paid``
    the factor time of the LU if this solve pays for it, else None.  Every pass
    applies the LU once and A once.  x is accepted once ||b - A x|| <= RTOL *
    (||A||_F ||x|| + ||b||) and each row is at its rounding floor, |b - A x|_i
    <= FLOOR * eps * (|A||x| + |b|)_i (Oettli and Prager, *Numer. Math.* 6,
    1964; refinement in working precision reaches it, Skeel, *Math. Comp.* 35,
    1980; Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 12).
    The floor is taken from the first x of each LU that meets the bound, so
    |A| is applied once per LU.  An LU of A itself gets one refinement pass
    at most.  With ``fresh_inverse``, the LU is of a matrix close to A, and a
    pass that no longer halves the residual also ends the refinement; if the
    residual turns non-finite or stops shrinking above the bound, or if the
    contraction of the last pass would leave it above the bound after
    MAX_REFINE_PASSES passes, the exact ``fresh_inverse()`` takes over at once.

    Raises
    ------
    SingularSystemError
        If an exact LU leaves the residual above the bound or non-finite.
    """
    t0, fresh_time = time.perf_counter(), 0.0
    kind = "cached-lu" if paid is None else "lu"
    b = np.asarray(b, dtype=float)
    fro, b_norm = _norm(a.data), _norm(b)
    cap = 2 if fresh_inverse is None else MAX_REFINE_PASSES
    x, n, passes, prev, floor = inverse(b), 1, 1, math.inf, None
    while True:
        residual = b - a.dot(x)
        res = _norm(residual)
        bound = RTOL * (fro * _norm(x) + b_norm)
        if res <= bound:
            if floor is None:
                floor = _FLOOR_EPS * (abs_a.dot(np.abs(x)) + np.abs(b))
            if n == cap or res >= 0.5 * prev or np.all(np.abs(residual) <= floor):
                break
        if fresh_inverse is None:
            if n == cap or not math.isfinite(res):
                raise SingularSystemError(
                    f"residual {res:.3e} exceeds tolerance {bound:.3e} after {n} passes")
        elif not res < prev or res * (res / prev) ** (MAX_REFINE_PASSES - n) > bound:
            t1 = time.perf_counter()
            inverse, fresh_inverse, kind = fresh_inverse(), None, "lu-fallback"
            fresh_time = time.perf_counter() - t1
            cap, prev, floor = 2, math.inf, None
            x, n, passes = inverse(b), 1, passes + 1
            continue
        x, n, passes, prev = x + inverse(residual), n + 1, passes + 1, res
    solve_time = time.perf_counter() - t0 - fresh_time
    return x, SolveReport(res, (paid or 0.0) + fresh_time, solve_time, kind, passes)


class Factorization:
    """LU factorization of a square scipy sparse matrix, reusable across solves:
    SuperLU's COLAMD ordering with partial pivoting, or, for a ``quasi_definite``
    matrix, a symmetric minimum-degree ordering without pivoting, which fills
    less.  The criterion is that a diagonal row scaling gives the matrix a
    positive definite symmetric part: every symmetric permutation keeps that
    property, so every symmetric ordering has nonzero pivots (Golub and Van
    Loan, *Linear Algebra Appl.* 28, 1979).  A symmetric positive definite
    matrix meets it unscaled, and a symmetric quasi-definite one [[A, B^T],
    [B, -C]] (Vanderbei, *SIAM J. Optim.* 5, 1995) with its second block of
    rows negated."""

    def __init__(self, a, quasi_definite=False):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self.matrix = sp.csr_matrix(a)
        ordering = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}) if quasi_definite else {}
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(self.matrix.tocsc(), **ordering)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        self.factor_time = self._unpaid = time.perf_counter() - t0

    @functools.cached_property
    def abs_matrix(self):
        """|A| on the index arrays of ``matrix``, built at its first use."""
        return abs_matrix(self.matrix)

    def lu_solve(self, b):
        """LU^-1 b, unchecked: for a caller that checks the residual itself."""
        return self._lu.solve(b)

    def solve(self, b):
        """(x, SolveReport) of A x = b (``refined_solve``); the first reports the LU."""
        paid, self._unpaid = self._unpaid, None
        return refined_solve(b, self._lu.solve, self.matrix, self.abs_matrix, paid)


def _pruned_lu(a, quasi_definite=False):
    """``Factorization`` of the CSR matrix ``a`` without its stored zeros."""
    return Factorization(pruned(a), quasi_definite)


class KeptLU:
    """Solver of (base + N) x = b, the transport N given as data on ``pattern``
    (``operator``, a ``PatternSum``), through the LU ``lu`` of its first
    operator, that of ``transport``: ``factor(a, quasi_definite)``, an object
    whose ``lu_solve`` applies an LU of ``a`` unchecked (by default a
    ``Factorization`` of ``a`` without its stored zeros).  Each ``solve``
    refines against its own operator through ``lu``, and a fresh ``factor(a)``
    takes over if that fails (``refined_solve``).  The first solve reports the
    time of the first sum and its LU as its factor time."""

    def __init__(self, base, pattern, transport, factor=_pruned_lu, quasi_definite=False,
                 eliminated=np.empty(0, dtype=np.int64)):
        self.operator, self._factor = PatternSum(base, pattern, eliminated), factor
        t0 = time.perf_counter()
        self.lu = factor(self.operator(transport), quasi_definite)
        self._unpaid = time.perf_counter() - t0

    def solve(self, b, transport):
        """(x, SolveReport) of (base + N) x = b for N with the data ``transport``."""
        a = self.operator(transport)
        paid, self._unpaid = self._unpaid, None
        fresh = lambda: self._factor(a).lu_solve
        return refined_solve(b, self.lu.lu_solve, a, self.operator.abs_matrix, paid, fresh)
