import numpy as np
import pytest

from chemflow.mesh import build_rect_mesh, classify_boundary
from chemflow.spaces import (
    PRESSURE_P1,
    SCALAR_P1,
    VECTOR_P1_SIGMA,
    VELOCITY_MINI,
    build_layout,
)
from oracles import element_geometry, eval_basis


class TestLayoutCounts:
    def test_mini_unit_mesh(self):
        lay = build_layout(build_rect_mesh(1, 1, 1, 1), VELOCITY_MINI)
        assert lay.n_dofs == 12  # 2 * (4 nodes + 2 bubbles)
        assert len(lay.constrained_dofs) == 8  # every node is a boundary node

    def test_sigma_two_by_two(self):
        lay = build_layout(build_rect_mesh(1, 1, 2, 2), VECTOR_P1_SIGMA)
        assert lay.n_dofs == 18
        assert len(lay.constrained_dofs) == 12  # 4 corners * 2 + 4 side nodes * 1

    def test_scalar_mean_constraint(self):
        mesh = build_rect_mesh(1, 1, 3, 3)
        lay = build_layout(mesh, SCALAR_P1, zero_mean=True)
        assert lay.n_dofs == mesh.n_nodes
        assert lay.mean_constraint
        assert not build_layout(mesh, SCALAR_P1).mean_constraint
        assert build_layout(mesh, PRESSURE_P1).mean_constraint

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_layout(build_rect_mesh(1, 1, 1, 1), "p2")

    def test_deterministic_numbering(self):
        mesh = build_rect_mesh(2, 1, 4, 3)
        a = build_layout(mesh, VELOCITY_MINI)
        b = build_layout(mesh, VELOCITY_MINI)
        assert np.array_equal(a.element_dofs, b.element_dofs)
        assert np.array_equal(a.constrained_dofs, b.constrained_dofs)


class TestVertexValues:
    @pytest.mark.parametrize("kind", [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI, PRESSURE_P1])
    def test_equals_the_component_slices(self, kind):
        mesh = build_rect_mesh(2, 1, 3, 2)
        lay = build_layout(mesh, kind)
        x = np.random.default_rng(3).standard_normal(lay.n_dofs)
        nn, ns = mesh.n_nodes, lay.n_scalar
        if kind in (SCALAR_P1, PRESSURE_P1):
            expected = x[:nn]
        elif kind == VECTOR_P1_SIGMA:
            expected = np.column_stack([x[:nn], x[nn : 2 * nn]])
        else:
            expected = np.column_stack([x[:nn], x[ns : ns + nn]])
        assert np.array_equal(lay.vertex_values(x), expected)

    @pytest.mark.parametrize("kind", [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI, PRESSURE_P1])
    def test_from_vertex_values_is_the_inverse(self, kind):
        # from vertex values to coefficients and back; a coefficient vector
        # that is 0 at the bubbles and the pinned dofs comes back bit for bit
        mesh = build_rect_mesh(2, 1, 3, 2)
        lay = build_layout(mesh, kind)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(lay.n_dofs)
        x[lay.nodal_and_bubble_dofs()[1]] = 0.0
        x[lay.constrained_dofs] = 0.0
        assert np.array_equal(lay.from_vertex_values(lay.vertex_values(x)), x)
        values = rng.standard_normal(lay.vertex_values(x).shape)
        expected = np.zeros(lay.n_dofs)  # component-major, each component's nodes first
        for comp in range(lay.components):
            start = comp * lay.n_scalar
            expected[start : start + mesh.n_nodes] = values.reshape(mesh.n_nodes, -1)[:, comp]
        expected[lay.constrained_dofs] = 0.0
        assert np.array_equal(lay.from_vertex_values(values), expected)


class TestBasisEvaluation:
    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 1, 1)
        self.geom = element_geometry(self.mesh, 0)

    def test_p1_at_barycenter(self):
        vals = eval_basis(SCALAR_P1, self.geom, [1 / 3, 1 / 3, 1 / 3])
        assert [v.value for v in vals] == pytest.approx([1 / 3] * 3)

    def test_bubble_at_barycenter(self):
        vals = eval_basis(VELOCITY_MINI, self.geom, [1 / 3, 1 / 3, 1 / 3])
        assert len(vals) == 4
        assert vals[3].value == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("bary", [[0, 0.4, 0.6], [0.5, 0.5, 0], [0.3, 0, 0.7]])
    def test_bubble_vanishes_on_edges(self, bary):
        vals = eval_basis(VELOCITY_MINI, self.geom, bary)
        assert vals[3].value == pytest.approx(0.0, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = rng.dirichlet(np.ones(3))
            vals = eval_basis(SCALAR_P1, self.geom, b)
            assert sum(v.value for v in vals) == pytest.approx(1.0, abs=1e-14)
            grad_sum = sum(v.gradient for v in vals)
            assert np.allclose(grad_sum, 0.0, atol=1e-13)

    def test_p1_values_are_barycentric(self):
        b = [0.2, 0.3, 0.5]
        vals = eval_basis(SCALAR_P1, self.geom, b)
        assert [v.value for v in vals] == pytest.approx(b)

    def test_bubble_gradient(self):
        # 27 (l2 l3 g1 + l1 l3 g2 + l1 l2 g3) against a finite difference
        b = np.array([0.2, 0.3, 0.5])
        vals = eval_basis(VELOCITY_MINI, self.geom, b)
        verts = self.geom.vertices
        p = b @ verts
        eps = 1e-6

        def bubble_at(q):
            # barycentric coordinates by solving the affine system
            mat = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            st = np.linalg.solve(mat, q - verts[0])
            lam = np.array([1 - st.sum(), st[0], st[1]])
            return 27 * lam.prod()

        fd = np.array(
            [
                (bubble_at(p + [eps, 0]) - bubble_at(p - [eps, 0])) / (2 * eps),
                (bubble_at(p + [0, eps]) - bubble_at(p - [0, eps])) / (2 * eps),
            ]
        )
        assert np.allclose(vals[3].gradient, fd, atol=1e-8)


class TestConstraintSets:
    def test_sigma_normal_trace(self):
        mesh = build_rect_mesh(2, 1, 5, 4)
        lay = build_layout(mesh, VECTOR_P1_SIGMA)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(lay.n_dofs)
        coeffs[lay.constrained_dofs] = 0.0
        corners, sides, _ = classify_boundary(mesh)
        nn = mesh.n_nodes
        for node in np.concatenate([sides["left"], sides["right"], corners]):
            assert coeffs[node] == 0.0  # x component on vertical sides
        for node in np.concatenate([sides["bottom"], sides["top"], corners]):
            assert coeffs[nn + node] == 0.0  # y component on horizontal sides
        # tangential components on the open sides stay free
        assert np.any(coeffs[nn + sides["left"]] != 0.0)
        assert np.any(coeffs[sides["bottom"]] != 0.0)

    def test_velocity_dirichlet(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        lay = build_layout(mesh, VELOCITY_MINI)
        _, _, boundary = classify_boundary(mesh)
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(lay.n_dofs)
        coeffs[lay.constrained_dofs] = 0.0
        ns = lay.n_scalar
        assert np.all(coeffs[boundary] == 0.0)
        assert np.all(coeffs[ns + boundary] == 0.0)
        # bubbles are never constrained
        bubble_dofs = np.concatenate(
            [mesh.n_nodes + np.arange(mesh.n_triangles), ns + mesh.n_nodes + np.arange(mesh.n_triangles)]
        )
        assert not set(bubble_dofs) & set(lay.constrained_dofs)
