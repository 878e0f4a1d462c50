import numpy as np
import pytest
import scipy.sparse as sp

from chemflow.linsolve import Factorization, SingularSystemError, from_triplets, solve


class TestFromTriplets:
    def test_duplicates_summed(self):
        a = from_triplets((2, 2), [(0, 0, 1.0), (0, 0, 2.0)])
        assert a.toarray()[0, 0] == 3.0
        assert a.nnz == 1

    def test_empty(self):
        a = from_triplets((3, 3), [])
        assert np.all(a @ np.ones(3) == 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_triplets((2, 2), [(2, 0, 1.0)])

    @pytest.mark.parametrize("n", [20, 50])
    def test_random_matches_dense(self, n):
        rng = np.random.default_rng(n)
        nnz = 15 * n
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        vals = rng.standard_normal(nnz)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        a = from_triplets((n, n), (rows, cols, vals))
        for _ in range(3):
            x = rng.standard_normal(n)
            assert np.abs(a @ x - dense @ x).max() <= 1e-13 * max(1.0, np.abs(dense @ x).max())

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 10, 50)
        cols = rng.integers(0, 10, 50)
        vals = rng.standard_normal(50)
        a = from_triplets((10, 10), (rows, cols, vals))
        perm = rng.permutation(50)
        b = from_triplets((10, 10), (rows[perm], cols[perm], vals[perm]))
        assert np.allclose(a.toarray(), b.toarray(), atol=1e-15)

    def test_csr_invariants(self):
        rng = np.random.default_rng(2)
        a = from_triplets(
            (15, 15),
            (rng.integers(0, 15, 100), rng.integers(0, 15, 100), rng.standard_normal(100)),
        )
        indptr, indices = a.indptr, a.indices
        for i in range(15):
            row = indices[indptr[i] : indptr[i + 1]]
            assert np.all(np.diff(row) > 0)  # strictly increasing, no duplicates


class TestSolve:
    def test_identity(self):
        eye = sp.csr_matrix(np.eye(4))
        b = np.array([1.0, -2.0, 3.5, 0.0])
        x, report = solve(eye, b)
        assert np.array_equal(x, b)
        assert report.residual_norm == 0.0

    def test_two_by_two(self):
        a = from_triplets((2, 2), [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)])
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
        a = from_triplets((2, 2), [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
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
        a = from_triplets((2, 3), [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            Factorization(a)

