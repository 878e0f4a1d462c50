import numpy as np
import pytest
import scipy.sparse as sp

from chemflow import linsolve
from chemflow.linsolve import (
    Factorization,
    abs_matrix,
    entry_rows,
    refined_solve,
    ScatterPlan,
    SingularSystemError,
)
from oracles import componentwise_backward_error, sorted_pattern


def from_triplets(shape, rows, cols, vals):
    return ScatterPlan(shape, rows, cols).matrix(np.asarray(vals, dtype=float))


class TestFromTriplets:
    """CSR matrices summed from (row, col, value) entries through a ScatterPlan."""

    def test_duplicates_summed(self):
        a = from_triplets((2, 2), [0, 0], [0, 0], [1.0, 2.0])
        assert a.toarray()[0, 0] == 3.0
        assert a.nnz == 1

    def test_empty(self):
        a = from_triplets((3, 3), [], [], [])
        assert np.all(a @ np.ones(3) == 0.0)

    def test_out_of_range(self):
        for rows, cols in (([2], [0]), ([0], [-1]), ([0], [2])):
            with pytest.raises(ValueError, match="out of range"):
                ScatterPlan((2, 2), rows, cols)

    @pytest.mark.parametrize("n", [20, 50])
    def test_random_matches_dense(self, n):
        rng = np.random.default_rng(n)
        nnz = 15 * n
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        a = from_triplets((n, n), rows, cols, vals)
        for _ in range(3):
            x = rng.standard_normal(n)
            assert np.abs(a @ x - dense @ x).max() <= 1e-13 * max(1.0, np.abs(dense @ x).max())

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 10, 50)
        cols = rng.integers(0, 10, 50)
        vals = rng.standard_normal(50)
        a = from_triplets((10, 10), rows, cols, vals)
        perm = rng.permutation(50)
        b = from_triplets((10, 10), rows[perm], cols[perm], vals[perm])
        assert np.allclose(a.toarray(), b.toarray(), atol=1e-15)

    def test_csr_invariants(self):
        rng = np.random.default_rng(2)
        a = from_triplets(
            (15, 15), rng.integers(0, 15, 100), rng.integers(0, 15, 100), rng.standard_normal(100)
        )
        indptr, indices = a.indptr, a.indices
        for i in range(15):
            row = indices[indptr[i] : indptr[i + 1]]
            assert np.all(np.diff(row) > 0)  # strictly increasing, no duplicates


class TestScatterPlan:
    def test_reuse_sums_each_set_of_values(self):
        rng = np.random.default_rng(3)
        rows, cols = rng.integers(0, 8, 40), rng.integers(0, 6, 40)
        plan = ScatterPlan((8, 6), rows, cols)
        for _ in range(3):
            vals = rng.standard_normal(40)
            dense = np.zeros((8, 6))
            np.add.at(dense, (rows, cols), vals)
            assert np.abs(plan.matrix(vals).toarray() - dense).max() <= 1e-14

    def test_matrices_share_no_index_arrays(self):
        plan = ScatterPlan((3, 3), [0, 1, 2], [1, 2, 0])
        a = plan.matrix(np.zeros(3))
        a.eliminate_zeros()
        assert plan.matrix(np.ones(3)).nnz == 3

    def test_pattern_keeps_zero_sums(self):
        a = from_triplets((2, 2), [0, 0, 1], [1, 1, 0], [1.0, -1.0, 2.0])
        assert a.nnz == 2 and a[0, 1] == 0.0


class TestSolve:
    def test_identity(self):
        eye = sp.csr_matrix(np.eye(4))
        b = np.array([1.0, -2.0, 3.5, 0.0])
        x, report = Factorization(eye).solve(b)
        assert np.array_equal(x, b)
        assert report.residual_norm == 0.0

    def test_two_by_two(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x, _ = Factorization(a).solve(np.array([3.0, 3.0]))
        assert x == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(13)
        n = 50
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x, report = Factorization(sp.csr_matrix(spd)).solve(b)
        assert np.allclose(x, np.linalg.solve(spd, b), atol=1e-10)
        assert report.residual_norm <= 1e-10 * (
            np.linalg.norm(spd, "fro") * np.linalg.norm(x) + np.linalg.norm(b)
        )

    def test_singular_raises(self):
        a = sp.csr_matrix(np.ones((2, 2)))
        with pytest.raises(SingularSystemError):
            Factorization(a).solve(np.array([1.0, 2.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        n = 40
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        a = sp.csr_matrix(dense)
        b = rng.standard_normal(n)
        x1, _ = Factorization(a).solve(b)
        x2, _ = Factorization(a).solve(b)
        assert np.array_equal(x1, x2)

    def test_factorization_reuse(self):
        rng = np.random.default_rng(19)
        n = 30
        a = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
        fact = Factorization(a)
        for _ in range(3):
            b = rng.standard_normal(n)
            x, report = fact.solve(b)
            assert np.allclose(a @ x, b, atol=1e-9)
            assert report.factor_time >= 0 and report.solve_time >= 0

    def test_rectangular_rejected(self):
        a = from_triplets((2, 3), [0], [0], [1.0])
        with pytest.raises(ValueError):
            Factorization(a)


class TestElimination:
    def test_rows_and_columns_zeroed_on_the_pattern(self):
        a = from_triplets((3, 3), [0, 0, 1, 2, 2], [0, 1, 2, 0, 2], [1.0, 4.0, 2.0, 5.0, 3.0])
        out = linsolve.eliminated(a, np.array([0, 2]))
        assert np.array_equal(out.toarray(), [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(out.indices, a.indices) and a[0, 1] == 4.0  # a is left as it was
        # no eliminated dofs: an empty index array leaves the matrix as it is
        assert np.array_equal(linsolve.eliminated(a, np.empty(0, dtype=int)).data, a.data)

    def test_missing_diagonal_rejected(self):
        a = from_triplets((3, 3), [0, 0, 1, 2, 2], [0, 1, 2, 0, 2], [1.0, 4.0, 2.0, 5.0, 3.0])
        with pytest.raises(ValueError, match="no stored diagonal"):
            linsolve.eliminated(a, np.array([0, 1]))


class TestPatternSum:
    def test_abs_matrix_follows_each_call_on_the_same_index_arrays(self):
        # |A| is kept as one data array on the kept matrix's pattern and
        # refreshed in place, so a call allocates no matrix; a transport
        # entry whose slot is -1 is dropped
        rng = np.random.default_rng(29)
        base = from_triplets((6, 6), *rng.integers(0, 6, (2, 30)), rng.standard_normal(30))
        slots = np.arange(0, base.nnz, 2)
        slots[1] = -1
        op = linsolve.PatternSum(base.copy(), slots)
        kept = op.abs_matrix
        for _ in range(3):
            data = rng.standard_normal(len(slots))
            m = op(data)
            expected = base.data.copy()
            expected[slots[slots >= 0]] += data[slots >= 0]
            assert np.array_equal(m.data, expected)
            assert op.abs_matrix is kept and op.abs_matrix.data is kept.data
            assert np.array_equal(op.abs_matrix.data, np.abs(m.data))
            for name in ("indices", "indptr"):
                kept_index, index = getattr(op.abs_matrix, name), getattr(m, name)
                assert np.array_equal(kept_index, index) and np.shares_memory(kept_index, index)


def kept_lu(a, pattern, transport):
    """``linsolve.KeptLU`` of a copy of the CSR matrix ``a``, its transport
    data on the positions of ``pattern`` (all of them stored in ``a``)."""
    keys = [entry_rows(m) * m.shape[1] + m.indices for m in (a, pattern)]
    return linsolve.KeptLU(a.copy(), np.searchsorted(*keys), transport)


class TestRefinement:
    """Solves through the LU of a nearby matrix, refined against the true one."""

    @staticmethod
    def system(n=40, seed=23):
        rng = np.random.default_rng(seed)
        a = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
        skew = rng.standard_normal((n, n))
        return a, sp.csr_matrix(skew - skew.T), rng.standard_normal(n)

    @staticmethod
    def iterates(inverse):
        """``inverse``, recording each x the refinement forms from its outputs."""
        xs = []

        def recording(r):
            d = inverse(r)
            xs.append(d if not xs else xs[-1] + d)
            return d

        return recording, xs

    def test_reused_factorization_reports_no_factor_time(self):
        a, _, b = self.system()
        fact = Factorization(a)
        reports = [fact.solve(b)[1] for _ in range(3)]
        assert [r.kind for r in reports] == ["lu", "cached-lu", "cached-lu"]
        assert [r.factor_time for r in reports] == [fact.factor_time, 0.0, 0.0]
        assert all(r.iterations == 1 for r in reports)

    def test_refines_against_a_nearby_matrix(self):
        a, skew, b = self.system()
        near = a + 0.05 * skew
        kept = kept_lu(a, skew, np.zeros(skew.nnz))  # the LU of a itself
        for kind in ("lu", "cached-lu"):
            x, report = kept.solve(b, 0.05 * skew.data)
            assert report.kind == kind and (report.factor_time > 0.0) == (kind == "lu")
            assert 2 <= report.iterations < linsolve.MAX_REFINE_PASSES
            assert np.allclose(x, np.linalg.solve(near.toarray(), b), rtol=1e-12, atol=0)
            assert report.residual_norm == pytest.approx(np.linalg.norm(b - near @ x), abs=1e-12)

    def test_nearby_solve_stops_at_its_rounding_floor(self):
        # the first x whose componentwise backward error is at the floor is
        # accepted, however much the residual still shrinks per pass
        a, skew, b = self.system()
        near = a + 0.05 * skew
        inverse, xs = self.iterates(Factorization(a).lu_solve)
        fresh = lambda: Factorization(near).lu_solve
        x, report = refined_solve(b, inverse, near, abs_matrix(near), None, fresh)
        omegas = [componentwise_backward_error(near, y, b) for y in xs]
        floor = linsolve.FLOOR * np.finfo(float).eps
        assert report.kind == "cached-lu" and report.iterations == len(xs) >= 3
        assert np.array_equal(x, xs[-1])
        assert omegas[-1] <= floor < min(omegas[:-1])

    def test_exact_lu_above_the_floor_takes_one_more_pass(self):
        # x meets the RTOL bound after one pass, but not the floor
        a, _, b = self.system()
        lu = Factorization(a).lu_solve
        inverse, xs = self.iterates(lambda r: (1.0 + 1e-12) * lu(r))
        x, report = refined_solve(b, inverse, a, abs_matrix(a), None)
        floor = linsolve.FLOOR * np.finfo(float).eps
        first = componentwise_backward_error(a, xs[0], b)
        assert np.linalg.norm(b - a @ xs[0]) <= linsolve.RTOL * (
            np.linalg.norm(a.data) * np.linalg.norm(xs[0]) + np.linalg.norm(b))
        assert first > floor
        assert report.iterations == 2 and componentwise_backward_error(a, x, b) <= floor

    def test_fallback_does_not_stop_on_the_cached_residual(self):
        # the cached LU leaves a residual of 3e-10 |b| above the bound of
        # about 2e-10 |b|, then doubles it; the fresh LU's first x meets the
        # bound at 1.9e-10 |b|, within half of the cached residual, but not the
        # floor, so it takes its one refinement pass
        b = np.linspace(1.0, 2.0, 5)
        identity = sp.identity(5, format="csr")
        scales = iter([1.0 + 3e-10, -1.0])
        x, report = refined_solve(b, lambda r: next(scales) * r, identity, identity, None,
                                  lambda: (lambda r: (1.0 + 1.9e-10) * r))
        assert report.kind == "lu-fallback" and report.iterations == 2 + 2
        assert componentwise_backward_error(identity, x, b) <= linsolve.FLOOR * np.finfo(float).eps

    def test_falls_back_to_a_fresh_lu(self):
        a, skew, b = self.system()
        far = a + 40.0 * skew  # the refinement diverges
        kept = kept_lu(a, skew, np.zeros(skew.nnz))
        kept.solve(b, np.zeros(skew.nnz))
        x, report = kept.solve(b, 40.0 * skew.data)
        assert report.kind == "lu-fallback"
        assert report.factor_time > 0.0 and report.iterations >= 2
        assert np.allclose(x, np.linalg.solve(far.toarray(), b), rtol=1e-12, atol=0)
        bound = linsolve.RTOL * (np.linalg.norm(far.data) * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(b - far @ x) <= bound

    def test_fresh_lu_factors_the_operator_on_its_pattern(self, monkeypatch):
        # the fresh LU factors the step's operator itself, in the kept order,
        # its stored zeros included: the pattern, and so the order, is fixed
        a, skew, b = self.system()
        far = a + 40.0 * skew  # on the pattern of a, which stores every entry
        far.data[1::7] = 0.0
        kept = kept_lu(a, a, np.zeros(a.nnz))
        factored = []
        original = Factorization.__init__

        def recording(self, m, *args):
            factored.append(m.copy())
            original(self, m, *args)

        monkeypatch.setattr(Factorization, "__init__", recording)
        x, report = kept.solve(b, far.data - a.data)
        assert report.kind == "lu-fallback"
        assert np.array_equal(far.indices, a.indices) and factored[0].nnz == far.nnz
        assert np.array_equal(factored[0].data, a.data + (far.data - a.data))
        # without pivoting, this skew-dominated matrix leaves the smallest
        # entries of x some 1e-11 off the dense solve; x meets the solver's
        # componentwise backward error floor, and agrees in norm
        assert componentwise_backward_error(factored[0], x, b) <= linsolve.FLOOR * np.finfo(float).eps
        ref = np.linalg.solve(factored[0].toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["exact", "exact-refined", "nearby", "fallback"])
    def test_one_product_per_pass(self, monkeypatch, case):
        # each pass applies the LU once and A once, and the solve applies |A|
        # once, for its floor; the residual of the accepted x is the one the
        # loop computed, not a product more
        a, skew, b = self.system()
        target = a + {"nearby": 0.05, "fallback": 40.0}.get(case, 0.0) * skew
        abs_target = abs_matrix(target)
        lu = Factorization(a).lu_solve
        inverse = (lambda r: (1.0 + 1e-8) * lu(r)) if case == "exact-refined" else lu
        products, dot = [], sp.csr_matrix.dot

        def recording(m, x):
            products.append("A" if m is target else "|A|" if m is abs_target else "other")
            return dot(m, x)

        fresh = (lambda: Factorization(target).lu_solve) if case in ("nearby", "fallback") else None
        monkeypatch.setattr(sp.csr_matrix, "dot", recording)
        x, report = refined_solve(b, inverse, target, abs_target, None, fresh)
        monkeypatch.undo()
        assert products.count("A") == report.iterations and products.count("|A|") == 1
        assert len(products) == report.iterations + 1
        assert report.iterations == {"exact": 1, "exact-refined": 2}.get(case, report.iterations)
        assert (report.kind == "lu-fallback") == (case == "fallback")
        assert report.residual_norm == np.linalg.norm(b - target @ x)

    @pytest.mark.parametrize("scale,passes,fell_back", [
        (1.0, 1, False),  # a zero residual stops at once, also through a nearby LU
        (0.9, None, False),  # converging: stops at the rounding floor
        (2.5, 2 + 1, True),  # the residual grows from the second pass
        (0.3, 2 + 1, True),  # too slow for the pass cap: falls back after two passes
    ])
    def test_refinement_stops_or_falls_back(self, scale, passes, fell_back):
        # A = I, and each pass leaves 1 - scale of the error; the fresh LU is
        # exact, so its first residual is 0.  With A = I the floor bounds the
        # error: |x - b| <= FLOOR * eps * (|x| + |b|)
        b = np.linspace(1.0, 2.0, 5)
        identity = sp.identity(5, format="csr")
        x, report = refined_solve(b, lambda r: scale * r, identity, identity, None,
                                  lambda: (lambda r: r))
        assert componentwise_backward_error(identity, x, b) <= linsolve.FLOOR * np.finfo(float).eps
        assert (report.kind == "lu-fallback") == fell_back
        if passes is None:
            assert report.iterations < linsolve.MAX_REFINE_PASSES
        else:
            assert report.iterations == passes


class TestOneFactorizationPath:
    """Every LU factors its kept unknowns in the order given, without
    reordering or pivoting."""

    def test_natural_order_without_pivots(self):
        rng = np.random.default_rng(41)
        a = sp.csr_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
        fact = Factorization(a)
        identity = np.arange(30)
        assert np.array_equal(fact._lu.perm_r, identity) and np.array_equal(fact._lu.perm_c, identity)
        assert not fact.pivoted and fact.fill >= a.nnz
        b = rng.standard_normal(30)
        assert np.allclose(fact.solve(b)[0], np.linalg.solve(a.toarray(), b), rtol=1e-12, atol=0)

    def test_selection_factors_the_kept_unknowns_and_holds_the_others_at_0(self):
        rng = np.random.default_rng(43)
        dense = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        a = sp.csr_matrix(dense)
        kept = np.array([5, 0, 7, 2, 3])
        pattern = sorted_pattern(8, entry_rows(a), a.indices, np.arange(a.nnz), kept)
        fact = Factorization(a, linsolve.Selection(kept, *pattern, a.nnz))
        assert fact.matrix.shape == (5, 5)
        assert np.array_equal(fact.matrix.toarray(), dense[np.ix_(kept, kept)])
        b = rng.standard_normal(8)
        x, _ = fact.solve(b)
        assert np.all(x[[1, 4, 6]] == 0.0)
        assert np.allclose(x[kept], np.linalg.solve(dense[np.ix_(kept, kept)], b[kept]), rtol=1e-12, atol=0)

    def test_singular_system_raises_without_a_warning(self):
        # pytest turns warnings into errors: the unpivoted path raises the
        # package's error at SuperLU's zero pivot (a tiny pivot is caught by
        # the residual check: TestNodeOrder in test_scheme)
        for dense in (np.ones((3, 3)), [[1.0, 2.0], [2.0, 4.0]]):
            with pytest.raises(SingularSystemError):
                Factorization(sp.csr_matrix(dense))

    def test_graph_order_is_superlu_minimum_degree(self):
        import scipy.sparse.linalg as spla

        from chemflow.mesh import build_rect_mesh

        for k in ((1, 1), (3, 2), (12, 6)):
            plan = build_rect_mesh(2.0, 1.0, *k).p1_plan
            order = linsolve.graph_order(plan)
            assert np.array_equal(np.sort(order), np.arange(plan.shape[0]))
            graph = sp.csc_matrix((np.ones(plan.nnz), plan.indices, plan.indptr), shape=plan.shape)
            laplacian = sp.diags(np.asarray(graph.sum(axis=0)).ravel()) - graph + sp.identity(plan.shape[0])
            full = spla.splu(sp.csc_matrix(laplacian) + 2 * sp.identity(plan.shape[0], format="csc"),
                             permc_spec="MMD_AT_PLUS_A")
            assert np.array_equal(order, np.argsort(full.perm_c))


class TestPatternsByIndexArithmetic:
    @staticmethod
    def node_graph(seed, n=12):
        rng = np.random.default_rng(seed)
        r, c = rng.integers(0, n, (2, 40))
        plan = ScatterPlan((n, n), np.concatenate([r, c, np.arange(n)]), np.concatenate([c, r, np.arange(n)]))
        return plan, rng.permutation(n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ordered_pattern_matches_a_sort(self, seed):
        plan, order = self.node_graph(seed)
        rows = entry_rows(plan)
        indptr, indices, entry = linsolve.ordered_pattern(plan, order)
        ref = sorted_pattern(plan.shape[0], rows, plan.indices, np.arange(plan.nnz), order)
        for got, want in zip((indptr, indices, entry), ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_pattern_matches_a_sort(self, seed):
        plan, order = self.node_graph(seed)
        indptr, indices, entry = linsolve.ordered_pattern(plan, order)
        n, w = plan.shape[0], 3
        rng = np.random.default_rng(seed + 10)
        keep = rng.random((n, w)) < 0.8
        dof_rank = np.where(keep, np.cumsum(keep).reshape(n, w) - 1, -1)
        allowed = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=bool)
        ptr, cols, cell = linsolve.block_pattern(indptr, indices, dof_rank, allowed)
        # every candidate (node entry, a, b) as an entry of the unknowns' matrix
        e = np.repeat(np.arange(len(indices)), w * w)
        a, b = (np.tile(ab, len(indices)) for ab in np.divmod(np.arange(w * w), w))
        r, c = dof_rank[entry_rows(indptr=indptr)[e], a], dof_rank[indices[e], b]
        ok = (r >= 0) & (c >= 0) & allowed[a, b]
        flat = np.arange(len(e))
        kept_count = int(keep.sum())
        ref = sorted_pattern(kept_count, r[ok], c[ok], flat[ok], np.arange(kept_count))
        for got, want in zip((ptr, cols, cell), ref):
            assert np.array_equal(got, want)

    def test_stacked_pattern_matches_a_sort(self):
        rng = np.random.default_rng(5)
        parts, lists, offset = [], [], 0
        for width in (4, 3, 2):  # part p's columns lie in [10 p, 10 p + width)
            rows = np.sort(rng.integers(0, 6, 15))
            cols = np.empty(15, dtype=np.int64)
            for r in range(6):  # distinct, sorted columns within a row
                at = np.flatnonzero(rows == r)
                cols[at] = 10 * len(parts) + np.sort(rng.choice(8, len(at), replace=False))
            parts.append((rows, cols, offset + np.arange(15)))
            offset += 15
        indptr, indices, take = linsolve.stacked_pattern(6, parts)
        rows, cols, src = (np.concatenate(x) for x in zip(*parts))
        ref = sorted_pattern(40, rows, cols, src, np.arange(40))
        assert np.array_equal(indptr, ref[0][:7]) and np.array_equal(indices, ref[1])
        assert np.array_equal(take, ref[2])
