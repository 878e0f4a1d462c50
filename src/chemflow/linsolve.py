"""Sparse CSR storage and direct solves for the per-step linear systems.

Matrices are plain ``scipy.sparse.csr_matrix``.  This module pins down the
behaviours the rest of the code relies on: canonical CSR storage with
duplicates summed, through a ``ScatterPlan`` built once per entry list, an
explicit error on (near-)singular systems instead of silent garbage, one
elimination of constrained dofs (``eliminated``), one way to factor: the
kept unknowns of a system in an order its caller gives (``Selection``, a
node ordering of the mesh, ``graph_order``, expanded to the system),
without reordering or pivoting (``Factorization``), one solver of operators
that change by a transport each step through the LU of the first one
(``KeptLU``), and one checked refinement loop for every solve
(``refined_solve``).  Its one stopping rule accepts x once the residual
meets the RTOL bound and every row is at its rounding floor, the
Oettli-Prager componentwise backward error
max_i |b - Ax|_i / (|A||x| + |b|)_i <= FLOOR * eps; its report carries the
residual it accepted, also of a solve through the LU of a nearby matrix.
"""

import contextlib
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
    rows, hit = entry_rows(a), np.zeros(a.shape[0], dtype=bool)
    hit[dofs] = True
    touched = hit[rows] | hit[a.indices]
    a.data[touched] = 0.0
    diagonal = touched & (rows == a.indices)
    if not np.array_equal(rows[diagonal], np.unique(dofs)):
        raise ValueError("an eliminated dof has no stored diagonal entry")
    a.data[diagonal] = 1.0
    return a


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


def ordered_pattern(plan, order):
    """The square pattern of ``plan`` (a ``ScatterPlan`` or CSR matrix) with
    its rows and columns in ``order`` (``order[k]``: the row placed k-th):
    (indptr, indices, entry), ``entry`` the index in ``plan``'s pattern of
    each entry.  The rows come out sorted, each row's few entries sorted in
    one padded (rows, widest row) array: no sort of the whole pattern."""
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    starts, length = plan.indptr[order].astype(np.int64), np.diff(plan.indptr)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    rows = np.repeat(np.arange(n), length)
    within = np.arange(indptr[-1]) - indptr[rows]
    padded = np.full((n, int(length.max(initial=0))), n, dtype=np.int64)
    padded[rows, within] = rank[plan.indices[starts[rows] + within]]
    sorter = np.argsort(padded, axis=1, kind="stable")
    entry = (starts[:, None] + sorter)[np.arange(padded.shape[1]) < length[:, None]]
    return indptr, rank[plan.indices[entry]], entry


def stacked_pattern(n, parts):
    """The CSR pattern of ``n`` rows whose row r holds the entries of
    ``parts[0]`` in row r, then those of ``parts[1]``, and so on:
    (indptr, indices, take).  A part is (rows, cols, take), its entries
    listed by row (rows nondecreasing); a row comes out sorted if each
    part's columns in it are sorted and lie below the next part's."""
    counts = [np.bincount(rows, minlength=n) for rows, _, _ in parts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.sum(counts, axis=0), out=indptr[1:])
    indices, take = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1], dtype=np.int64)
    filled = indptr[:-1].copy()
    for (rows, cols, source), count in zip(parts, counts):
        first = np.cumsum(count) - count  # where each row's entries start in the part
        at = filled[rows] + np.arange(len(rows)) - first[rows]
        indices[at], take[at] = cols, source
        filled += count
    return indptr, indices, take


def block_pattern(indptr, indices, dof_rank, allowed):
    """A pattern over nodes (``indptr``, ``indices``, rows sorted) expanded to
    their unknowns: (indptr, indices, cell).  Unknown a of node i is
    ``dof_rank[i, a]`` (-1: not kept; the kept ones increase with (i, a)),
    and entry (i, j) holds the block entries (a, b) that ``allowed[a, b]``
    admits.  ``cell`` is (entry * w + a) * w + b of each kept entry, w =
    ``dof_rank.shape[1]``.  The candidates are laid out (i, a, j, b) in one
    array padded to the widest row, so the kept ones, read in order, come
    out with their rows sorted."""
    (n, w), ptr = dof_rank.shape, np.asarray(indptr, dtype=np.int64)
    rows, length = entry_rows(indptr=ptr), np.diff(ptr)
    within = np.arange(len(indices)) - ptr[rows]
    entry = np.full((n, int(length.max(initial=0))), -1, dtype=np.int64)
    entry[rows, within] = np.arange(len(indices))
    ranks = np.append(dof_rank, np.full((1, w), -1), axis=0)  # a padding entry reads row -1
    cols = ranks[indices[entry] if len(indices) else entry][:, None, :, :]
    cols = np.where(entry[:, None, :, None] >= 0, cols, -1)
    ok = (dof_rank[:, :, None, None] >= 0) & (cols >= 0) & allowed[None, :, None, :]
    cell = (entry[:, None, :, None] * w + np.arange(w)[:, None, None]) * w + np.arange(w)
    out = np.zeros(n * w + 1, dtype=np.int64)
    np.cumsum(ok.sum(axis=(2, 3)).ravel(), out=out[1:])
    return out[np.append(dof_rank.ravel() >= 0, True)], np.broadcast_to(cols, ok.shape)[ok], cell[ok]


class Selection:
    """The kept unknowns of a square system in factoring order and the CSR
    pattern of its kept matrix, each entry gathered from one entry of a
    source vector.

    ``kept[i]`` is the system's unknown at position i (None: all of them, in
    their own order).  The kept matrix's pattern is (``indptr``,
    ``indices``), and its entry k holds ``source[take[k]]``; both are built
    once by index arithmetic (``ordered_pattern``, ``stacked_pattern``,
    ``block_pattern``), so the kept matrix of each source costs one gather
    (``matrix``).  ``slots[j]`` is the entry that source entry j fills, -1
    where none (the last, for an entry taken twice), found at first use.
    """

    def __init__(self, kept, indptr, indices, take, n_source):
        index = index_dtype(max(len(take), n_source))
        self.kept, self.take, self._n_source = kept, take.astype(index), n_source
        self.indptr, self.indices = indptr.astype(index), indices.astype(index)

    @functools.cached_property
    def slots(self):
        slots = np.full(self._n_source, -1, dtype=self.take.dtype)
        slots[self.take] = np.arange(len(self.take))
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
    ``matrix``, refreshed by each call.  Data of another length than
    ``slots`` raises ValueError."""

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
    """LU factorization of a square sparse system, reusable across solves.

    There is one way to factor: SuperLU takes the kept unknowns in the order
    given (``permc_spec="NATURAL"``) and each diagonal entry as its pivot
    (``diag_pivot_thresh=0``), so its row and column permutations are the
    identity.  The order is the caller's, and fills little: the mesh's node
    order (``graph_order``) expanded to the system.  Every system of the
    scheme has nonzero pivots in it: a matrix that a diagonal row scaling
    gives a positive definite symmetric part keeps that property under
    every symmetric permutation (Golub and Van Loan, *Linear Algebra Appl.*
    28, 1979), and the bordered density operator's border comes just before
    its last node.  ``order`` is a ``Selection`` gathering the kept matrix
    from ``a.data``, or None to factor ``a`` as it stands; unknowns outside
    it are held at 0.  The kept matrix's CSR arrays, read as CSC, are those
    of its transpose, which SuperLU factors without a copy; ``lu_solve``
    solves with the transpose of that.
    """

    def __init__(self, a, order=None):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self.n, self.kept = n, None if order is None else order.kept
        self.matrix = sp.csr_matrix(a) if order is None else order.matrix(a.data)
        kept = self.matrix
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(sp.csc_matrix((kept.data, kept.indices, kept.indptr), shape=kept.shape),
                                 permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=_RELAX,
                                 panel_size=_PANEL, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularSystemError(str(exc)) from exc
        self.factor_time = self._unpaid = time.perf_counter() - t0
        for made in _RECORDERS:
            made.append(self)

    @functools.cached_property
    def abs_matrix(self):
        """|A| on the index arrays of ``matrix``, built at its first use."""
        return abs_matrix(self.matrix)

    @property
    def fill(self):
        """Nonzeros of L plus U."""
        return self._lu.L.nnz + self._lu.U.nnz

    @property
    def pivoted(self):
        """Whether SuperLU interchanged rows (it does only at a zero pivot)."""
        return not np.array_equal(self._lu.perm_r, np.arange(self.matrix.shape[0]))

    def lu_solve(self, b):
        """LU^-1 b of the kept system, unchecked: for a caller that checks the residual itself."""
        return self._lu.solve(b, trans="T")

    def solve(self, b):
        """(x, SolveReport) of A x = b (``refined_solve`` on the kept system);
        the first reports the LU."""
        paid, self._unpaid = self._unpaid, None
        if self.kept is None:
            return refined_solve(b, self.lu_solve, self.matrix, self.abs_matrix, paid)
        x, report = refined_solve(np.asarray(b, dtype=float)[self.kept], self.lu_solve,
                                  self.matrix, self.abs_matrix, paid)
        full = np.zeros(self.n)
        full[self.kept] = x
        return full, report


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
    ``PatternSum``), through the LU ``lu`` of its first operator, that of
    ``transport``: ``factor(a)``, an object whose ``lu_solve`` applies an LU
    of ``a`` unchecked (by default a ``Factorization``, whose ``matrix`` is
    then the kept operator, which each solve overwrites).  ``matrix`` holds
    the system's unknowns ``kept`` in order (None: in their own order), so
    each ``solve`` permutes b and x once.  Each ``solve`` refines against its
    own operator through ``lu``, and a fresh ``factor(a)`` takes over if that
    fails (``refined_solve``).  The first solve reports the time of the first
    sum and its LU as its factor time."""

    def __init__(self, matrix, slots, transport, kept=None, factor=Factorization):
        self.operator, self.kept, self._factor = PatternSum(matrix, slots), kept, factor
        t0 = time.perf_counter()
        self.lu = factor(self.operator(transport))
        self._unpaid = time.perf_counter() - t0

    def solve(self, b, transport):
        """(x, SolveReport) of (base + N) x = b for N with the data ``transport``."""
        a = self.operator(transport)
        paid, self._unpaid = self._unpaid, None
        fresh = lambda: self._factor(a).lu_solve
        if self.kept is None:
            return refined_solve(b, self.lu.lu_solve, a, self.operator.abs_matrix, paid, fresh)
        x, report = refined_solve(np.asarray(b, dtype=float)[self.kept], self.lu.lu_solve, a,
                                  self.operator.abs_matrix, paid, fresh)
        full = np.empty(len(b))
        full[self.kept] = x
        return full, report
