import numpy as np
import pytest

from chemflow import assembly as asm
from chemflow import manufactured
from chemflow.mesh import Mesh, build_rect_mesh, element_geometry
from chemflow.quadrature import triangle_rule
from chemflow.spaces import (
    SCALAR_P1,
    VECTOR_P1_SIGMA,
    VELOCITY_MINI,
    build_layout,
    eval_basis,
)


def single_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]), boundary_edges=[], h=np.sqrt(2))


def oracle_convection_dense(mesh, layout, vel_fn, degree=8):
    """Dense ((v . grad) phi_j, phi_i) assembled element by element through
    the scalar eval_basis interface; independent of the vectorized path."""
    rule = triangle_rule(degree)
    c = np.zeros((layout.n_dofs, layout.n_dofs))
    nl = layout.scalar_local_size
    for e in range(mesh.n_triangles):
        geom = element_geometry(mesh, e)
        for q, lam in enumerate(rule.points):
            x, y = lam @ geom.vertices
            v = np.asarray(vel_fn(x, y))
            basis = eval_basis(layout.kind, geom, lam)
            w = rule.weights[q] * geom.area
            for comp in range(layout.components):
                dofs = layout.element_dofs[e, comp * nl : (comp + 1) * nl]
                for i, bi in enumerate(basis):
                    for j, bj in enumerate(basis):
                        c[dofs[i], dofs[j]] += w * (v @ bj.gradient) * bi.value
    return c


class TestMassStiffness:
    def test_reference_mass(self):
        lay = build_layout(single_triangle_mesh(), SCALAR_P1)
        m = asm.assemble_mass(lay).toarray()
        area = 0.5
        assert np.allclose(m, area / 12 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), atol=1e-15)

    def test_mass_sums_to_domain_area(self):
        lay = build_layout(build_rect_mesh(2, 1, 7, 5), SCALAR_P1)
        m = asm.assemble_mass(lay)
        assert m.toarray().sum() == pytest.approx(2.0, rel=1e-13)

    def test_mass_spd(self):
        lay = build_layout(build_rect_mesh(1, 1, 4, 4), SCALAR_P1)
        m = asm.assemble_mass(lay)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(lay.n_dofs)
            assert x @ (m @ x) > 0.0

    def test_reference_stiffness(self):
        lay = build_layout(single_triangle_mesh(), SCALAR_P1)
        k = asm.assemble_stiffness(lay, 1.0).toarray()
        assert np.allclose(k, 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-14)

    def test_stiffness_kernel_and_symmetry(self):
        lay = build_layout(build_rect_mesh(1, 1, 6, 6), SCALAR_P1)
        k = asm.assemble_stiffness(lay, 3.7)
        assert np.abs(k @ np.ones(lay.n_dofs)).max() <= 1e-13
        dense = k.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-14

    def test_mini_mass_spd(self):
        lay = build_layout(build_rect_mesh(1, 1, 3, 3), VELOCITY_MINI)
        m = asm.assemble_mass(lay)
        vals = np.linalg.eigvalsh(m.toarray())
        assert vals.min() > 0.0


class TestDivRot:
    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 10, 10)
        self.lay = build_layout(self.mesh, VECTOR_P1_SIGMA)
        self.Dc = 5.0
        self.form = asm.assemble_divrot(self.lay, self.Dc)

    def test_constant_field_in_kernel(self):
        const = np.concatenate([np.full(self.mesh.n_nodes, 2.0), np.full(self.mesh.n_nodes, -3.0)])
        assert np.abs(self.form @ const).max() <= 1e-12

    def test_linear_divergence_field(self):
        x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
        sig = np.concatenate([x, y])  # div = 2, rot = 0
        assert sig @ (self.form @ sig) == pytest.approx(4 * self.Dc, rel=1e-12)

    def test_rotation_field(self):
        x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
        sig = np.concatenate([-y, x])  # rot = 2, div = 0
        assert sig @ (self.form @ sig) == pytest.approx(4 * self.Dc, rel=1e-12)

    def test_symmetric_psd(self):
        dense = self.form.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-13
        assert np.linalg.eigvalsh(dense).min() >= -1e-11

    def test_quadratic_form_equals_div_rot_norms(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(self.lay.n_dofs)
        coeffs[self.lay.constrained_dofs] = 0.0
        # elementwise-constant div/rot of the P1 field, squared and summed
        from chemflow.mesh import all_element_geometry

        areas, grads = all_element_geometry(self.mesh)
        tri = self.mesh.triangles
        cx = coeffs[: self.mesh.n_nodes][tri]
        cy = coeffs[self.mesh.n_nodes :][tri]
        div = np.einsum("ei,ei->e", cx, grads[:, :, 0]) + np.einsum("ei,ei->e", cy, grads[:, :, 1])
        rot = np.einsum("ei,ei->e", cy, grads[:, :, 0]) - np.einsum("ei,ei->e", cx, grads[:, :, 1])
        expected = self.Dc * float(areas @ (div**2 + rot**2))
        assert coeffs @ (self.form @ coeffs) == pytest.approx(expected, rel=1e-12)


class TestSkewForms:
    def test_zero_velocity(self):
        mesh = build_rect_mesh(1, 1, 3, 3)
        lu = build_layout(mesh, VELOCITY_MINI)
        lc = build_layout(mesh, SCALAR_P1)
        vel = asm.DiscreteField(lu, np.zeros(lu.n_dofs))
        assert np.linalg.norm(asm.assemble_skew(lc, vel).data) == 0.0
        assert np.linalg.norm(asm.assemble_skew(lu, vel).data) == 0.0

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_quadratic_form_vanishes(self, which):
        mesh = build_rect_mesh(1, 1, 10, 10)
        lu = build_layout(mesh, VELOCITY_MINI)
        lc = build_layout(mesh, SCALAR_P1)
        rng = np.random.default_rng(23)
        ctx = asm.AssemblyContext(mesh)
        vel = asm.DiscreteField(lu, rng.standard_normal(lu.n_dofs))
        n = asm.assemble_skew(lc if which == "A" else lu, vel, ctx)
        for _ in range(20):
            x = rng.standard_normal(n.shape[0])
            assert abs(x @ (n @ x)) <= 1e-12 * np.linalg.norm(n.data) * (x @ x)

    def test_symmetric_part_norm(self):
        mesh = build_rect_mesh(1, 1, 5, 5)
        lu = build_layout(mesh, VELOCITY_MINI)
        lc = build_layout(mesh, SCALAR_P1)
        rng = np.random.default_rng(8)
        vel = asm.DiscreteField(lu, rng.standard_normal(lu.n_dofs))
        for layout in (lc, lu):
            dense = asm.assemble_skew(layout, vel).toarray()
            sym = 0.5 * (dense + dense.T)
            assert np.linalg.norm(sym) <= 1e-12 * np.linalg.norm(dense)

    def test_A_equals_convection_for_divergence_free_velocity(self):
        # for the exact solenoidal velocity with zero trace, the
        # half-difference form reduces to the one-sided convection form up
        # to the quadrature error of the non-polynomial velocity
        sol = manufactured.test2_solution()
        mesh = build_rect_mesh(1, 1, 8, 8)
        lc = build_layout(mesh, SCALAR_P1)
        vel = asm.AnalyticField(lambda x, y: sol.u(x, y, 0.0), components=2)
        n_mat = asm.assemble_skew(lc, vel).toarray()
        oracle = oracle_convection_dense(mesh, lc, lambda x, y: sol.u(x, y, 0.0))
        assert np.abs(n_mat - oracle).max() <= 1e-10

    def test_B_matches_half_difference_oracle(self):
        mesh = build_rect_mesh(1, 1, 2, 2)
        lu = build_layout(mesh, VELOCITY_MINI)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(lu.n_dofs)
        vel = asm.DiscreteField(lu, coeffs)

        def vel_fn(x, y):
            # pointwise evaluation via a one-point context
            arr = np.array([[x, y]])
            # evaluate by locating the element containing (x, y)
            for e in range(mesh.n_triangles):
                geom = element_geometry(mesh, e)
                mat = np.column_stack([geom.vertices[1] - geom.vertices[0], geom.vertices[2] - geom.vertices[0]])
                st = np.linalg.solve(mat, arr[0] - geom.vertices[0])
                lam = np.array([1 - st.sum(), st[0], st[1]])
                if np.all(lam >= -1e-12):
                    basis = eval_basis(VELOCITY_MINI, geom, lam)
                    nl = lu.scalar_local_size
                    vals = np.array([b.value for b in basis])
                    ux = vals @ coeffs[lu.element_dofs[e, :nl]]
                    uy = vals @ coeffs[lu.element_dofs[e, nl:]]
                    return np.array([ux, uy])
            raise AssertionError("point not located")

        c = oracle_convection_dense(mesh, lu, vel_fn)
        n_oracle = 0.5 * (c - c.T)
        n_mat = asm.assemble_skew(lu, vel).toarray()
        assert np.abs(n_mat - n_oracle).max() <= 1e-10


class TestLoadVectors:
    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 4, 4)
        self.ctx = asm.AssemblyContext(self.mesh)
        self.lc = build_layout(self.mesh, SCALAR_P1)
        self.ln = build_layout(self.mesh, SCALAR_P1, zero_mean=True)
        self.ls = build_layout(self.mesh, VECTOR_P1_SIGMA)
        self.lu = build_layout(self.mesh, VELOCITY_MINI)
        self.zero_scalar = asm.DiscreteField(self.lc, np.zeros(self.lc.n_dofs))
        self.zero_sigma = asm.DiscreteField(self.ls, np.zeros(self.ls.n_dofs))
        self.zero_u = asm.DiscreteField(self.lu, np.zeros(self.lu.n_dofs))

    def basis_integrals_mini(self):
        out = np.zeros(self.lu.n_dofs)
        from chemflow.mesh import all_element_geometry

        areas, _ = all_element_geometry(self.mesh)
        nl = self.lu.scalar_local_size
        for comp in range(2):
            dofs = self.lu.element_dofs[:, comp * 4 : (comp + 1) * 4]
            np.add.at(out, dofs[:, :3].ravel(), np.repeat(areas / 3.0, 3))
            np.add.at(out, dofs[:, 3].ravel(), 27.0 * areas / 60.0)
        return out

    def test_chemo_rhs_zero_sigma(self):
        b = asm.assemble_chemo_rhs(self.ln, self.zero_scalar, self.zero_sigma, 2.0, 3.0, self.ctx)
        assert np.all(b == 0.0)

    def test_chemo_rhs_constant_sigma_zero_sum(self):
        const_sigma = asm.constant_vector_field((0.7, -0.3))
        chi, alpha0 = 2.0, 3.0
        b = asm.assemble_chemo_rhs(self.ln, self.zero_scalar, const_sigma, chi, alpha0, self.ctx)
        # gradients of a partition of unity sum to zero
        assert abs(b.sum()) <= 1e-13 * np.abs(b).max()

    def test_chemo_rhs_one_element_oracle(self):
        mesh = single_triangle_mesh()
        ln = build_layout(mesh, SCALAR_P1, zero_mean=True)
        ctx = asm.AssemblyContext(mesh)
        n_field = asm.AnalyticField(lambda x, y: x + 0.5 * y)
        s_field = asm.AnalyticField(
            lambda x, y: np.stack(np.broadcast_arrays(x * y, 1.0 - x), axis=-1), components=2
        )
        chi, alpha0 = 1.7, 0.9
        b = asm.assemble_chemo_rhs(ln, n_field, s_field, chi, alpha0, ctx)
        geom = element_geometry(mesh, 0)
        rule = triangle_rule(8)
        expected = np.zeros(3)
        for q, lam in enumerate(rule.points):
            x, y = lam @ geom.vertices
            basis = eval_basis(SCALAR_P1, geom, lam)
            sig = np.array([x * y, 1.0 - x])
            for i, bi in enumerate(basis):
                expected[i] += (
                    rule.weights[q] * geom.area * chi * (x + 0.5 * y + alpha0) * (sig @ bi.gradient)
                )
        assert np.allclose(b, expected, atol=1e-14)

    def test_sigma_rhs_zero_fields(self):
        b = asm.assemble_sigma_rhs(
            self.ls, self.zero_u, self.zero_sigma, self.zero_scalar, self.zero_scalar, 1.0, 0.0, self.ctx
        )
        assert np.all(b == 0.0)

    def test_sigma_rhs_constant_concentration(self):
        gamma, alpha0, cbar = 2.0, 3.0, 1.5
        c_field = asm.AnalyticField(lambda x, y: np.full(np.shape(x), cbar))
        b = asm.assemble_sigma_rhs(
            self.ls, self.zero_u, self.zero_sigma, self.zero_scalar, c_field, gamma, alpha0, self.ctx
        )
        from chemflow.mesh import all_element_geometry

        areas, grads = all_element_geometry(self.mesh)
        expected = np.zeros(self.ls.n_dofs)
        for comp in range(2):
            dofs = self.ls.element_dofs[:, comp * 3 : (comp + 1) * 3]
            np.add.at(
                expected, dofs.ravel(), (gamma * alpha0 * cbar * areas[:, None] * grads[:, :, comp]).ravel()
            )
        assert np.allclose(b, expected, atol=1e-13)

    def test_consumption_rhs_zero_concentration(self):
        b = asm.assemble_consumption_rhs(self.lc, self.zero_scalar, self.zero_scalar, 2.0, 3.0, self.ctx)
        assert np.all(b == 0.0)

    def test_consumption_rhs_reduces_to_mass_action(self):
        gamma, alpha0 = 2.0, 3.0
        ones = asm.AnalyticField(lambda x, y: np.ones_like(x))
        b = asm.assemble_consumption_rhs(self.lc, self.zero_scalar, ones, gamma, alpha0, self.ctx)
        m = asm.assemble_mass(self.lc)
        assert np.allclose(b, -gamma * alpha0 * (m @ np.ones(self.lc.n_dofs)), atol=1e-13)

    def test_buoyancy_zero_gravity(self):
        b = asm.assemble_buoyancy_rhs(
            self.lu, self.zero_scalar, asm.constant_vector_field((0.0, 0.0)), 1.0, 5.0, self.ctx
        )
        assert np.all(b == 0.0)

    def test_buoyancy_constant_gravity(self):
        rho, alpha0 = 2.0, 3.0
        b = asm.assemble_buoyancy_rhs(
            self.lu, self.zero_scalar, asm.constant_vector_field((0.0, -1000.0)), rho, alpha0, self.ctx
        )
        w = self.basis_integrals_mini()
        ns = self.lu.n_scalar
        expected = np.zeros(self.lu.n_dofs)
        expected[ns:] = -1000.0 * alpha0 / rho * w[ns:]
        assert np.allclose(b, expected, atol=1e-12)
        assert np.all(b[:ns] == 0.0)

    def test_discrete_field_reproduces_linears(self):
        x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
        coeffs = 2.0 * x - 0.7 * y + 0.3
        f = asm.DiscreteField(self.lc, coeffs)
        vals = f.values(self.ctx)
        px, py = self.ctx.points[..., 0], self.ctx.points[..., 1]
        assert np.allclose(vals, 2.0 * px - 0.7 * py + 0.3, atol=1e-13)
        grads = f.gradients(self.ctx)
        assert np.allclose(grads[..., 0], 2.0, atol=1e-12)
        assert np.allclose(grads[..., 1], -0.7, atol=1e-12)



class TestScatterIdentities:
    """Loads from the vector scatter against matrices from the matrix
    scatter, on every layout kind; both sides are exact, so they agree to
    rounding."""

    KINDS = [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI]

    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 5, 4)
        self.ctx = asm.AssemblyContext(self.mesh)

    def interpolate(self, layout, nodal):
        """Coefficients of nodal values (n_nodes, comps), bubbles zero."""
        coeffs = np.zeros(layout.n_dofs)
        for comp in range(layout.components):
            start = comp * layout.n_scalar
            coeffs[start : start + self.mesh.n_nodes] = nodal[:, comp]
        return coeffs

    @staticmethod
    def assert_close(b, expected):
        assert np.abs(b - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_of_one_is_mass_times_one(self, kind):
        lay = build_layout(self.mesh, kind)
        m = asm.assemble_mass(lay, self.ctx)
        for unit in np.eye(lay.components):
            one = asm.AnalyticField(
                lambda x, y, u=unit: np.multiply.outer(np.ones_like(x), u), components=lay.components
            )
            expected = m @ self.interpolate(lay, np.tile(unit, (self.mesh.n_nodes, 1)))
            self.assert_close(asm.assemble_load(lay, one, self.ctx), expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_load_of_linear_is_stiffness_times_interpolant(self, kind):
        lay = build_layout(self.mesh, kind)
        k = asm.assemble_stiffness(lay, 1.0, self.ctx)
        # component c of the field is coef[c, 0] + coef[c, 1] x + coef[c, 2] y
        coef = np.array([[0.3, 1.7, -0.4], [-1.1, 0.2, 0.9]])[: lay.components]
        grad = asm.AnalyticField(
            lambda x, y: np.broadcast_to(coef[:, 1:], np.shape(x) + coef[:, 1:].shape),
            components=lay.components,
        )
        x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
        nodal = coef[:, 0] + np.outer(x, coef[:, 1]) + np.outer(y, coef[:, 2])
        self.assert_close(asm.assemble_grad_load(lay, grad, self.ctx), k @ self.interpolate(lay, nodal))

    @pytest.mark.parametrize("kind", [VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_div_load_of_p1_field_is_coupling_times_coefficients(self, kind):
        lay = build_layout(self.mesh, kind)
        lpi = build_layout(self.mesh, "pressure_p1")
        g = asm.assemble_pressure_coupling(lay, lpi, self.ctx)
        q = np.random.default_rng(5).standard_normal(lpi.n_dofs)
        self.assert_close(asm.assemble_div_load(lay, asm.DiscreteField(lpi, q), self.ctx), g @ q)

class TestPressureCoupling:
    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 4, 4)
        self.lu = build_layout(self.mesh, VELOCITY_MINI)
        self.lpi = build_layout(self.mesh, "pressure_p1")
        self.g = asm.assemble_pressure_coupling(self.lu, self.lpi)

    def test_linear_velocity_total_divergence(self):
        # u = (x, 0) nodal interpolant: div u = 1, tested against pressure 1
        u = np.zeros(self.lu.n_dofs)
        u[: self.mesh.n_nodes] = self.mesh.nodes[:, 0]
        total = np.ones(self.lpi.n_dofs) @ (self.g.T @ u)
        assert total == pytest.approx(1.0, rel=1e-12)  # |Omega| * div

    def test_constant_velocity_divergence_free(self):
        u = np.zeros(self.lu.n_dofs)
        u[: self.mesh.n_nodes] = 4.2
        u[self.lu.n_scalar : self.lu.n_scalar + self.mesh.n_nodes] = -1.1
        assert np.abs(self.g.T @ u).max() <= 1e-13

    def test_one_element_oracle(self):
        mesh = single_triangle_mesh()
        lu = build_layout(mesh, VELOCITY_MINI)
        lpi = build_layout(mesh, "pressure_p1")
        g = asm.assemble_pressure_coupling(lu, lpi).toarray()
        geom = element_geometry(mesh, 0)
        rule = triangle_rule(8)
        expected = np.zeros((lu.n_dofs, lpi.n_dofs))
        for q, lam in enumerate(rule.points):
            basis_u = eval_basis(VELOCITY_MINI, geom, lam)
            basis_p = eval_basis(SCALAR_P1, geom, lam)
            w = rule.weights[q] * geom.area
            for comp in range(2):
                for i, bu in enumerate(basis_u):
                    row = lu.element_dofs[0, comp * 4 + i]
                    for j, bp in enumerate(basis_p):
                        expected[row, lpi.element_dofs[0, j]] += w * bu.gradient[comp] * bp.value
        assert np.allclose(g, expected, atol=1e-14)


class TestConstraints:
    def test_identity_rows_and_zeroed_columns(self):
        mesh = build_rect_mesh(1, 1, 2, 2)
        lay = build_layout(mesh, VECTOR_P1_SIGMA)
        out = asm.apply_constraints(asm.assemble_mass(lay), lay).toarray()
        for k in lay.constrained_dofs:
            ek = np.zeros(lay.n_dofs)
            ek[k] = 1.0
            assert np.array_equal(out[k], ek)
            col = out[:, k].copy()
            col[k] = 0.0
            assert np.all(col == 0.0)
        b = asm.constrain_rhs(np.ones(lay.n_dofs), lay)
        assert np.all(b[lay.constrained_dofs] == 0.0)

    def test_idempotent(self):
        mesh = build_rect_mesh(1, 1, 3, 3)
        lay = build_layout(mesh, VECTOR_P1_SIGMA)
        once = asm.apply_constraints(asm.assemble_mass(lay), lay)
        twice = asm.apply_constraints(once, lay)
        assert np.allclose(once.toarray(), twice.toarray(), atol=0.0)

    def test_mean_constrained_solve_has_zero_mean(self):
        from chemflow import linsolve

        mesh = build_rect_mesh(1, 1, 6, 6)
        lay = build_layout(mesh, SCALAR_P1, zero_mean=True)
        a = asm.assemble_mass(lay) + asm.assemble_stiffness(lay, 1.0)
        out = asm.apply_constraints(a, lay)
        assert out.shape == (lay.n_dofs + 1, lay.n_dofs + 1)
        rng = np.random.default_rng(31)
        rhs = asm.constrain_rhs(rng.standard_normal(lay.n_dofs), lay)
        x, _ = linsolve.solve(out, rhs)
        w = asm.integral_weight_vector(lay)
        assert abs(w @ x[: lay.n_dofs]) <= 1e-12
