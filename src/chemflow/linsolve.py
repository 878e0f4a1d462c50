"""Sparse CSR storage and direct solves for the per-step linear systems.

Matrices are plain ``scipy.sparse.csr_matrix``.  This module pins down the
behaviours the rest of the code relies on: canonical CSR storage with
duplicates summed, through a ``ScatterPlan`` built once per entry list, an
explicit error on (near-)singular systems instead of silent garbage, one
way to apply constraints: each unknown held at 0 an identity row and
column of the system's ``id_matrix``, one way to factor: the unknowns of
a system in an order its caller gives (``Selection``, sliced from its
id matrix, in a node ordering of the mesh, ``graph_order``, expanded to
the system), without reordering or pivoting (``Factorization``), one
solver of every system, whose operator may change by a transport each
step, through the LU of the first one (``KeptLU``), and one checked
refinement loop for every solve (``refined_solve``).  Its one stopping
rule accepts x once the residual meets the RTOL bound and every row is at
its rounding floor, the Oettli-Prager componentwise backward error
max_i |b - Ax|_i / (|A||x| + |b|)_i <= FLOOR * eps; its report carries the
residual it accepted, also of a solve through the LU of a nearby matrix.
"""

import contextlib
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
# SuperLU's supernode relaxation and panel width: its defaults factor the
# scheme's node-ordered systems 1.3-3x slower, from 10x10 to 80x40 meshes
_RELAX, _PANEL = 2, 4


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
        index = index_dtype(max(self.nnz, *self.shape))
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


def index_dtype(bound):
    """int32 if every index up to ``bound`` fits in it, else int64."""
    return np.int32 if bound < np.iinfo(np.int32).max else np.int64


def entry_rows(a=None, indptr=None):
    """Row of each stored entry of a CSR matrix or ``ScatterPlan`` ``a``, or of
    the pattern with ``indptr``."""
    indptr = a.indptr if indptr is None else indptr
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def abs_matrix(a):
    """|a| of the CSR matrix ``a``, on the index arrays of ``a``."""
    return sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)


def graph_order(plan):
    """The rows of the square pattern of ``plan`` (a ``ScatterPlan`` or CSR
    matrix with a stored diagonal) in SuperLU's multiple minimum degree
    order of its graph, (n,): the order SuperLU picks for the graph
    Laplacian plus the identity, which an incomplete LU that keeps no fill
    returns as fast as any call.  Minimum degree fills near-optimally on
    2-D meshes (George, *SIAM J. Numer. Anal.* 10, 1973), and an order of a
    mesh's node graph orders the unknowns of every space on its nodes
    (Ashcraft, *SIAM J. Sci. Comput.* 16, 1995)."""
    rows, degree = entry_rows(plan), np.diff(plan.indptr)
    data = np.where(rows == plan.indices, degree[rows].astype(float), -1.0)
    laplacian = sp.csc_matrix((data, plan.indices, plan.indptr), shape=plan.shape)
    lu = spla.spilu(laplacian, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0, fill_factor=1.0)
    return np.argsort(lu.perm_c)


def id_matrix(shape, parts, pinned=(), one=None):
    """The id matrix of the entries listed in ``parts``, each (rows, cols,
    take): a CSR matrix of ``shape`` whose entry (rows[k], cols[k]) holds
    take[k] + 1, the 1-based index of the source entry it gathers (int64,
    so that no entry is a stored 0).  No position may be listed twice.

    Each unknown of ``pinned`` (unique), held at 0, is an identity row and
    column: the listed entries in its row or column are dropped, and its
    diagonal gathers source entry ``one``, which holds 1."""
    rows, cols, take = (np.concatenate(x) for x in zip(*parts))
    if len(pinned):
        hit = np.zeros(shape[0], dtype=bool)
        hit[pinned] = True
        free = ~(hit[rows] | hit[cols])
        rows, cols = (np.concatenate([x[free], pinned]) for x in (rows, cols))
        take = np.concatenate([take[free], np.full(len(pinned), one)])
    # one counting sort (COO to CSR): 2-3x faster than csr_matrix((data, (rows, cols))) on sigma's 80x40 ids
    return sp.coo_matrix((take.astype(np.int64) + 1, (rows, cols)), shape=shape).tocsr()


def entry_ids(a):
    """The id matrix (``id_matrix``) of the CSR matrix ``a`` as its own
    source: its pattern, entry k gathering ``a.data[k]``."""
    return sp.csr_matrix((np.arange(1, a.nnz + 1), a.indices, a.indptr), shape=a.shape)


class Selection:
    """The kept unknowns of a square system in factoring order and the CSR
    pattern of its kept matrix, each entry gathered from one entry of a
    source vector.

    Made from an id matrix (``id_matrix``) and ``kept``, the system's
    unknown at each position (None: all of them, in their own order): the
    kept matrix's pattern (``indptr``, ``indices``) is that of
    ``ids[kept][:, kept]``, its indices sorted, and its entry k holds
    ``source[take[k]]``, so the kept matrix of each source costs one gather
    (``matrix``).
    """

    def __init__(self, ids, kept=None):
        ids = (ids if kept is None else ids[kept][:, kept]).sorted_indices()
        index = index_dtype(max(ids.nnz, int(ids.data.max(initial=0))))
        self.kept, self.take = kept, (ids.data - 1).astype(index)
        self.indptr, self.indices = ids.indptr.astype(index), ids.indices.astype(index)

    def slots(self, n_source):
        """The entry of the kept matrix that each of the first ``n_source``
        source entries fills, -1 where none (the last, for an entry taken
        twice)."""
        slots = np.full(n_source, -1, dtype=self.take.dtype)
        taken = self.take < n_source
        slots[self.take[taken]] = np.flatnonzero(taken)
        return slots

    def matrix(self, source):
        """The kept matrix holding the entries of ``source``."""
        n = len(self.indptr) - 1
        return sp.csr_matrix((source[self.take], self.indices.copy(), self.indptr.copy()), shape=(n, n))


class PatternSum:
    """A kept ``matrix`` plus a transport given as data, its entry k written
    in place into slot ``slots[k]`` of the matrix (dropped where -1): the
    slots are known from the matrix's construction, and a call builds no
    sparse matrix.  ``abs_matrix`` holds |matrix| on the index arrays of
    ``matrix``, refreshed by each call that writes a transport.  Data of
    another length than ``slots`` raises ValueError."""

    def __init__(self, matrix, slots):
        self.matrix, self.nnz = matrix, len(slots)
        self._kept = slots >= 0
        self._slots = slots[self._kept]
        self._base = matrix.data[self._slots]
        self.abs_matrix = abs_matrix(matrix)

    def __call__(self, data):
        """The kept matrix, holding its base plus the transport ``data``."""
        if np.shape(data) != (self.nnz,):
            raise ValueError(f"transport data has shape {np.shape(data)}, expected ({self.nnz},)")
        if self.nnz:  # an empty transport leaves the matrix as it is
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
            if n == cap or res >= 0.5 * prev or (np.abs(residual) <= floor).all():
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
    """LU factorization of a square sparse matrix, as given.

    There is one way to factor: SuperLU takes the unknowns in the order
    given (``permc_spec="NATURAL"``) and each diagonal entry as its pivot
    (``diag_pivot_thresh=0``), so its row and column permutations are the
    identity.  The order is the caller's, and fills little: the mesh's node
    order (``graph_order``) expanded to the system, sliced by a
    ``Selection``.  Every system of the scheme has nonzero pivots in it: a
    matrix that a diagonal row scaling gives a positive definite symmetric
    part keeps that property under every symmetric permutation (Golub and
    Van Loan, *Linear Algebra Appl.* 28, 1979), and so does each leading
    block of it; a bordered system's border comes just before its last
    node, so the unknowns before it are such a block, the border's pivot
    is minus a Schur complement w^T B^-1 w of it, nonzero, and the last
    pivot is nonzero because the system is.  The velocity/pressure system
    takes its diagonal bubble block first: eliminating it leaves the
    condensation, whose pressure rows scaled by 1/rho give it a positive
    definite symmetric part once one pressure is left out.  The CSR arrays of
    ``matrix``, read as CSC, are those of its transpose, which SuperLU
    factors without a copy; ``lu_solve`` solves with the transpose of that.
    """

    def __init__(self, a):
        self.matrix = a = sp.csr_matrix(a)
        try:  # SuperLU raises ValueError for a matrix that is not square
            self._lu = spla.splu(sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape),
                                 permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=_RELAX,
                                 panel_size=_PANEL, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        for made in _RECORDERS:
            made.append(self)

    @property
    def fill(self):
        """Nonzeros of L plus U."""
        return self._lu.L.nnz + self._lu.U.nnz

    @property
    def pivoted(self):
        """Whether SuperLU interchanged rows (it does only at a zero pivot)."""
        return not np.array_equal(self._lu.perm_r, np.arange(self.matrix.shape[0]))

    def lu_solve(self, b):
        """LU^-1 b, unchecked: for a caller that checks the residual itself."""
        return self._lu.solve(b, trans="T")


_RECORDERS = []  # the lists of ``recorded_lus`` contexts now open


@contextlib.contextmanager
def recorded_lus():
    """A list that collects every ``Factorization`` built while the context is open."""
    made = []
    _RECORDERS.append(made)
    try:
        yield made
    finally:
        _RECORDERS.remove(made)


class KeptLU:
    """Solver of (base + N) x = b, the transport N given as data written into
    the slots ``slots`` of the kept ``matrix`` (``operator``, a
    ``PatternSum``), through the ``Factorization`` ``lu`` of its first
    operator, that of ``transport``, whose ``matrix`` is the kept operator,
    which each solve overwrites.  ``matrix`` holds the system's unknowns in
    the order ``kept``, a permutation of them, so each ``solve`` permutes b
    and x once.  Each ``solve`` refines against its
    own operator through ``lu``, and a fresh ``Factorization`` takes over if
    that fails (``refined_solve``).  The first solve reports the time of the
    first sum and its LU as its factor time."""

    def __init__(self, matrix, slots, transport, kept):
        self.operator, self.kept = PatternSum(matrix, slots), kept
        self._at = np.argsort(kept)  # of each unknown, in ``kept``
        t0 = time.perf_counter()
        self.lu = Factorization(self.operator(transport))
        self._unpaid = time.perf_counter() - t0

    def solve(self, b, transport):
        """(x, SolveReport) of (base + N) x = b for N with the data ``transport``."""
        a = self.operator(transport)
        paid, self._unpaid = self._unpaid, None
        fresh = lambda: Factorization(a).lu_solve
        x, report = refined_solve(np.asarray(b, dtype=float)[self.kept], self.lu.lu_solve, a,
                                  self.operator.abs_matrix, paid, fresh)
        return x[self._at], report
