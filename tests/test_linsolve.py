import numpy as np
import pytest
import scipy.sparse as sp

from chemflow import linsolve
from chemflow.linsolve import (
    Factorization,
    refined_solve,
    ScatterPlan,
    SingularSystemError,
    solve,
)


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

    def test_transpose_slots(self):
        rng = np.random.default_rng(4)
        rows, cols = rng.integers(0, 9, 30), rng.integers(0, 9, 30)
        plan = ScatterPlan((9, 9), np.concatenate([rows, cols]), np.concatenate([cols, rows]))
        data = rng.standard_normal(plan.nnz)
        a = plan.csr(data)
        assert np.array_equal(plan.csr(data[plan.transpose_slots]).toarray(), a.toarray().T)

    def test_transpose_slots_need_a_symmetric_pattern(self):
        with pytest.raises(ValueError, match="not structurally symmetric"):
            ScatterPlan((2, 2), [0], [1]).transpose_slots


class TestSolve:
    def test_identity(self):
        eye = sp.csr_matrix(np.eye(4))
        b = np.array([1.0, -2.0, 3.5, 0.0])
        x, report = solve(eye, b)
        assert np.array_equal(x, b)
        assert report.residual_norm == 0.0

    def test_two_by_two(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x, _ = solve(a, np.array([3.0, 3.0]))
        assert x == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_random_spd_matches_dense(self):
        rng = np.random.default_rng(13)
        n = 50
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x, report = solve(sp.csr_matrix(spd), b)
        assert np.allclose(x, np.linalg.solve(spd, b), atol=1e-10)
        assert report.residual_norm <= 1e-10 * (
            np.linalg.norm(spd, "fro") * np.linalg.norm(x) + np.linalg.norm(b)
        )

    def test_singular_raises(self):
        a = sp.csr_matrix(np.ones((2, 2)))
        with pytest.raises(SingularSystemError):
            solve(a, np.array([1.0, 2.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        n = 40
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        a = sp.csr_matrix(dense)
        b = rng.standard_normal(n)
        x1, _ = solve(a, b)
        x2, _ = solve(a, b)
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


class TestRefinement:
    """Solves through the LU of a nearby matrix, refined against the true one."""

    @staticmethod
    def system(n=40, seed=23):
        rng = np.random.default_rng(seed)
        a = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
        skew = rng.standard_normal((n, n))
        return a, sp.csr_matrix(skew - skew.T), rng.standard_normal(n)

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
        fact = Factorization(a)
        for kind in ("lu", "cached-lu"):
            x, report = fact.solve(b, near)
            assert report.kind == kind
            assert 2 <= report.iterations < linsolve.MAX_REFINE_PASSES
            assert np.allclose(x, np.linalg.solve(near.toarray(), b), rtol=1e-12, atol=0)
            assert report.residual_norm == pytest.approx(np.linalg.norm(b - near @ x), abs=1e-12)

    def test_falls_back_to_a_fresh_lu(self):
        a, skew, b = self.system()
        far = a + 40.0 * skew  # the refinement diverges
        fact = Factorization(a)
        fact.solve(b)
        x, report = fact.solve(b, far)
        assert report.kind == "lu-fallback"
        assert report.factor_time > 0.0 and report.iterations >= 2
        assert np.allclose(x, np.linalg.solve(far.toarray(), b), rtol=1e-12, atol=0)
        bound = linsolve.RTOL * (np.linalg.norm(far.data) * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(b - far @ x) <= bound

    def test_fresh_lu_factors_without_stored_zeros(self, monkeypatch):
        a, skew, b = self.system()
        far = a + 40.0 * skew
        far.data[1::7] = 0.0  # stored zeros the fresh LU must not see
        fact = Factorization(a)
        factored = []
        original = Factorization.__init__

        def recording(self, m):
            factored.append(m)
            original(self, m)

        monkeypatch.setattr(Factorization, "__init__", recording)
        x, report = fact.solve(b, far)
        assert report.kind == "lu-fallback"
        assert factored[0].nnz == far.count_nonzero() < far.nnz
        assert np.allclose(x, np.linalg.solve(far.toarray(), b), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["exact", "exact-refined", "nearby", "fallback"])
    def test_one_product_per_pass(self, case):
        # each pass applies the LU once and A once; the residual of the
        # accepted x is the one the loop computed, not a product more
        a, skew, b = self.system()
        target = a + {"nearby": 0.05, "fallback": 40.0}.get(case, 0.0) * skew
        lu = Factorization(a).lu_solve
        inverse = (lambda r: (1.0 + 1e-8) * lu(r)) if case == "exact-refined" else lu
        products = []

        def apply(x):
            products.append(x)
            return target @ x

        fresh = (lambda: Factorization(target).lu_solve) if case in ("nearby", "fallback") else None
        x, report = refined_solve(b, inverse, apply, np.linalg.norm(target.data), None, fresh)
        assert len(products) == report.iterations
        assert report.iterations == {"exact": 1, "exact-refined": 2}.get(case, report.iterations)
        assert (report.kind == "lu-fallback") == (case == "fallback")
        assert report.residual_norm == np.linalg.norm(b - target @ x)

    @pytest.mark.parametrize("scale,passes,fell_back", [
        (0.9, None, False),  # converging: stops at the rounding floor
        (2.5, 2 + 1, True),  # the residual grows from the second pass
        (0.3, 2 + 1, True),  # too slow for the pass cap: falls back after two passes
    ])
    def test_refinement_stops_or_falls_back(self, scale, passes, fell_back):
        # A = I, and each pass leaves 1 - scale of the error
        b = np.linspace(1.0, 2.0, 5)
        identity = lambda r: r
        x, report = refined_solve(b, lambda r: scale * r, identity, 1.0, None, lambda: identity)
        assert np.abs(x - b).max() <= 1e-15 * np.abs(b).max()
        assert (report.kind == "lu-fallback") == fell_back
        if passes is None:
            assert report.iterations < linsolve.MAX_REFINE_PASSES
        else:
            assert report.iterations == passes
