import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chemflow import assembly as asm
from chemflow import manufactured
from chemflow.mesh import Mesh, build_rect_mesh
from chemflow.quadrature import triangle_rule
from chemflow.scheme import ModelParams, State, Stepper
from chemflow.spaces import (
    PRESSURE_P1,
    SCALAR_P1,
    VECTOR_P1_SIGMA,
    VELOCITY_MINI,
    build_layout,
)
from oracles import (
    apply_constraints,
    constrain_rhs,
    div_load_rebuilding_its_table,
    divrot_by_coupled_plan,
    divrot_matrix,
    element_geometry,
    eval_basis,
    exact_solve,
    lagged_matrices,
    recorded_sorts,
    scatter_vector_by_add_at,
    skew_by_global_transpose,
    skew_data,
    skew_data_by_own_sums,
    skew_matrix,
    sorted_plans,
    transpose_slots,
)


def single_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]), h=np.sqrt(2))


def context(layout):
    """A context whose rule integrates the layout's mass and stiffness exactly."""
    degree = asm.FULL_DEGREE if layout.has_bubble else asm.P1_DEGREE
    return asm.AssemblyContext(layout.mesh, degree=degree)


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
        m = asm.assemble_mass(lay, context(lay)).toarray()
        area = 0.5
        assert np.allclose(m, area / 12 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), atol=1e-15)

    def test_mass_sums_to_domain_area(self):
        lay = build_layout(build_rect_mesh(2, 1, 7, 5), SCALAR_P1)
        m = asm.assemble_mass(lay, context(lay))
        assert m.toarray().sum() == pytest.approx(2.0, rel=1e-13)

    def test_mass_spd(self):
        lay = build_layout(build_rect_mesh(1, 1, 4, 4), SCALAR_P1)
        m = asm.assemble_mass(lay, context(lay))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(lay.n_dofs)
            assert x @ (m @ x) > 0.0

    def test_reference_stiffness(self):
        lay = build_layout(single_triangle_mesh(), SCALAR_P1)
        k = asm.assemble_stiffness(lay, 1.0, context(lay)).toarray()
        assert np.allclose(k, 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-14)

    def test_stiffness_kernel_and_symmetry(self):
        lay = build_layout(build_rect_mesh(1, 1, 6, 6), SCALAR_P1)
        k = asm.assemble_stiffness(lay, 3.7, context(lay))
        assert np.abs(k @ np.ones(lay.n_dofs)).max() <= 1e-13
        dense = k.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-14

    def test_mini_mass_spd(self):
        lay = build_layout(build_rect_mesh(1, 1, 3, 3), VELOCITY_MINI)
        m = asm.assemble_mass(lay, context(lay))
        vals = np.linalg.eigvalsh(m.toarray())
        assert vals.min() > 0.0


class TestDivRot:
    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 10, 10)
        self.lay = build_layout(self.mesh, VECTOR_P1_SIGMA)
        self.Dc = 5.0
        self.form = divrot_matrix(self.mesh, asm.assemble_divrot(self.lay, self.Dc, context(self.lay)))

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
        ctx = asm.AssemblyContext(mesh)
        vel = asm.DiscreteField(lu, np.zeros(lu.n_dofs))
        assert np.linalg.norm(skew_matrix(lc, vel, ctx).data) == 0.0
        assert np.linalg.norm(skew_matrix(lu, vel, ctx).data) == 0.0

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_quadratic_form_vanishes(self, which):
        mesh = build_rect_mesh(1, 1, 10, 10)
        lu = build_layout(mesh, VELOCITY_MINI)
        lc = build_layout(mesh, SCALAR_P1)
        rng = np.random.default_rng(23)
        ctx = asm.AssemblyContext(mesh)
        vel = asm.DiscreteField(lu, rng.standard_normal(lu.n_dofs))
        n = skew_matrix(lc if which == "A" else lu, vel, ctx)
        for _ in range(20):
            x = rng.standard_normal(n.shape[0])
            assert abs(x @ (n @ x)) <= 1e-12 * np.linalg.norm(n.data) * (x @ x)

    def test_symmetric_part_norm(self):
        mesh = build_rect_mesh(1, 1, 5, 5)
        lu = build_layout(mesh, VELOCITY_MINI)
        lc = build_layout(mesh, SCALAR_P1)
        rng = np.random.default_rng(8)
        ctx = asm.AssemblyContext(mesh)
        vel = asm.DiscreteField(lu, rng.standard_normal(lu.n_dofs))
        for layout in (lc, lu):
            dense = skew_matrix(layout, vel, ctx).toarray()
            sym = 0.5 * (dense + dense.T)
            assert np.linalg.norm(sym) <= 1e-12 * np.linalg.norm(dense)

    def test_A_equals_convection_for_divergence_free_velocity(self):
        # for the exact solenoidal velocity with zero trace, the
        # half-difference form reduces to the one-sided convection form up
        # to the quadrature error of the non-polynomial velocity
        sol = manufactured.test2_solution()
        mesh = build_rect_mesh(1, 1, 8, 8)
        lc = build_layout(mesh, SCALAR_P1)
        ctx = asm.AssemblyContext(mesh)
        n_mat = skew_matrix(lc, asm.at_points(sol.u, ctx, 0.0), ctx).toarray()
        oracle = oracle_convection_dense(mesh, lc, lambda x, y: sol.u(x, y, 0.0))
        assert np.abs(n_mat - oracle).max() <= 1e-10

    def test_B_matches_half_difference_oracle(self):
        mesh = build_rect_mesh(1, 1, 2, 2)
        lu = build_layout(mesh, VELOCITY_MINI)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(lu.n_dofs)
        ctx = asm.AssemblyContext(mesh)
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
        n_mat = skew_matrix(lu, vel, ctx).toarray()
        assert np.abs(n_mat - n_oracle).max() <= 1e-10


class Closed:
    """A closed-form field, evaluated at the quadrature points of a context."""

    def __init__(self, fn):
        self.fn = fn

    def values(self, ctx):
        return asm.at_points(self.fn, ctx)


def constant_vector(vec):
    return Closed(lambda x, y: np.broadcast_to(np.asarray(vec, dtype=float), np.shape(x) + (2,)))


class TestLoadVectors:
    """Identities of the four per-equation loads of a step, checked on their
    references (kept below), against which
    ``TestKernelEquivalence::test_step_loads`` checks the step's loads."""

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

    def flux_load_of_constant_concentration(self, gamma, alpha0, cbar):
        """(gamma alpha0 cbar, div Psi_i): elementwise constant divergences."""
        from chemflow.mesh import all_element_geometry

        areas, grads = all_element_geometry(self.mesh)
        expected = np.zeros(self.ls.n_dofs)
        for comp in range(2):
            dofs = self.ls.element_dofs[:, comp * 3 : (comp + 1) * 3]
            np.add.at(
                expected, dofs.ravel(), (gamma * alpha0 * cbar * areas[:, None] * grads[:, :, comp]).ravel()
            )
        return expected

    def load_of_vertical_gravity(self, g, rho, alpha0):
        """(alpha0 (0, g) / rho, Phi_i) through the MINI basis integrals."""
        ns = self.lu.n_scalar
        expected = np.zeros(self.lu.n_dofs)
        expected[ns:] = g * alpha0 / rho * self.basis_integrals_mini()[ns:]
        return expected

    def test_chemo_rhs_zero_sigma(self):
        b = chemo_rhs_reference(self.ln, self.zero_scalar, self.zero_sigma, 2.0, 3.0, self.ctx)
        assert np.all(b == 0.0)

    def test_chemo_rhs_constant_sigma_zero_sum(self):
        const_sigma = constant_vector((0.7, -0.3))
        chi, alpha0 = 2.0, 3.0
        b = chemo_rhs_reference(self.ln, self.zero_scalar, const_sigma, chi, alpha0, self.ctx)
        # gradients of a partition of unity sum to zero
        assert abs(b.sum()) <= 1e-13 * np.abs(b).max()

    def test_chemo_rhs_one_element_oracle(self):
        mesh = single_triangle_mesh()
        ln = build_layout(mesh, SCALAR_P1, zero_mean=True)
        ctx = asm.AssemblyContext(mesh)
        n_field = Closed(lambda x, y: x + 0.5 * y)
        s_field = Closed(lambda x, y: np.stack(np.broadcast_arrays(x * y, 1.0 - x), axis=-1))
        chi, alpha0 = 1.7, 0.9
        b = chemo_rhs_reference(ln, n_field, s_field, chi, alpha0, ctx)
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
        b = sigma_rhs_reference(
            self.ls, self.zero_u, self.zero_sigma, self.zero_scalar, self.zero_scalar, 1.0, 0.0, self.ctx
        )
        assert np.all(b == 0.0)

    def test_sigma_rhs_constant_concentration(self):
        gamma, alpha0, cbar = 2.0, 3.0, 1.5
        c_field = Closed(lambda x, y: np.full(np.shape(x), cbar))
        b = sigma_rhs_reference(
            self.ls, self.zero_u, self.zero_sigma, self.zero_scalar, c_field, gamma, alpha0, self.ctx
        )
        expected = self.flux_load_of_constant_concentration(gamma, alpha0, cbar)
        assert np.allclose(b, expected, atol=1e-13)

    def test_consumption_rhs_zero_concentration(self):
        b = consumption_rhs_reference(self.lc, self.zero_scalar, self.zero_scalar, 2.0, 3.0, self.ctx)
        assert np.all(b == 0.0)

    def test_consumption_rhs_reduces_to_mass_action(self):
        gamma, alpha0 = 2.0, 3.0
        ones = Closed(lambda x, y: np.ones_like(x))
        b = consumption_rhs_reference(self.lc, self.zero_scalar, ones, gamma, alpha0, self.ctx)
        m = asm.assemble_mass(self.lc, self.ctx)
        assert np.allclose(b, -gamma * alpha0 * (m @ np.ones(self.lc.n_dofs)), atol=1e-13)

    def test_buoyancy_zero_gravity(self):
        b = buoyancy_rhs_reference(
            self.lu, self.zero_scalar, constant_vector((0.0, 0.0)), 1.0, 5.0, self.ctx
        )
        assert np.all(b == 0.0)

    def test_buoyancy_constant_gravity(self):
        rho, alpha0 = 2.0, 3.0
        b = buoyancy_rhs_reference(
            self.lu, self.zero_scalar, constant_vector((0.0, -1000.0)), rho, alpha0, self.ctx
        )
        assert np.allclose(b, self.load_of_vertical_gravity(-1000.0, rho, alpha0), atol=1e-12)
        assert np.all(b[: self.lu.n_scalar] == 0.0)

    def test_step_loads_of_a_resting_state(self):
        # the identities above, on the step's own loads: with n = 0 (eta =
        # alpha0), sigma = u = 0 and c = cbar, the chemotaxis load vanishes
        # and the others reduce to a constant concentration, mass action and
        # constant gravity
        chi, gamma, alpha0, rho, cbar = 2.0, 2.0, 3.0, 2.0, 1.5
        params = ModelParams(chi=chi, D_n=1.0, D_c=1.0, D_u=1.0, rho=rho, gamma=gamma,
                             grad_phi=(0.0, -1000.0), alpha0=alpha0)
        st = Stepper(self.mesh, params)
        prev = State(m=0, t=0.0, n=np.zeros(self.ln.n_dofs), c=np.full(self.lc.n_dofs, cbar),
                     sigma=np.zeros(self.ls.n_dofs), u=np.zeros(self.lu.n_dofs),
                     pi=np.zeros(self.lc.n_dofs))
        n_skew, u_skew, loads = lagged_matrices(st, prev, 1e-3)
        assert np.all(loads["n"] == 0.0)
        assert n_skew.count_nonzero() == 0 and u_skew.count_nonzero() == 0
        expected = self.flux_load_of_constant_concentration(gamma, alpha0, cbar)
        assert np.allclose(loads["sigma"], expected, atol=1e-13)
        m = asm.assemble_mass(self.lc, self.ctx)
        mass_action = -gamma * alpha0 * cbar * (m @ np.ones(self.lc.n_dofs))
        assert np.allclose(loads["c"], mass_action, atol=1e-13)
        assert np.allclose(loads["u"], self.load_of_vertical_gravity(-1000.0, rho, alpha0), atol=1e-12)
        assert np.all(loads["u"][: self.lu.n_scalar] == 0.0)

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
            one = asm.at_points(lambda x, y: np.multiply.outer(np.ones_like(x), unit), self.ctx)
            expected = m @ self.interpolate(lay, np.tile(unit, (self.mesh.n_nodes, 1)))
            self.assert_close(asm.assemble_load(lay, one, self.ctx), expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_load_of_linear_is_stiffness_times_interpolant(self, kind):
        lay = build_layout(self.mesh, kind)
        k = asm.assemble_stiffness(lay, 1.0, self.ctx)
        # component c of the field is coef[c, 0] + coef[c, 1] x + coef[c, 2] y
        coef = np.array([[0.3, 1.7, -0.4], [-1.1, 0.2, 0.9]])[: lay.components]
        grad = asm.at_points(
            lambda x, y: np.broadcast_to(coef[:, 1:], np.shape(x) + coef[:, 1:].shape), self.ctx
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
        q_h = asm.DiscreteField(lpi, q).values(self.ctx)
        self.assert_close(asm.assemble_div_load(lay, q_h, self.ctx), g @ q)

class TestPressureCoupling:
    def setup_method(self):
        self.mesh = build_rect_mesh(1, 1, 4, 4)
        self.lu = build_layout(self.mesh, VELOCITY_MINI)
        self.lpi = build_layout(self.mesh, "pressure_p1")
        self.g = asm.assemble_pressure_coupling(self.lu, self.lpi, context(self.lu))

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
        g = asm.assemble_pressure_coupling(lu, lpi, context(lu)).toarray()
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
        out = apply_constraints(asm.assemble_mass(lay, context(lay)), lay).toarray()
        for k in lay.constrained_dofs:
            ek = np.zeros(lay.n_dofs)
            ek[k] = 1.0
            assert np.array_equal(out[k], ek)
            col = out[:, k].copy()
            col[k] = 0.0
            assert np.all(col == 0.0)
        b = constrain_rhs(np.ones(lay.n_dofs), lay)
        assert np.all(b[lay.constrained_dofs] == 0.0)

    def test_idempotent(self):
        mesh = build_rect_mesh(1, 1, 3, 3)
        lay = build_layout(mesh, VECTOR_P1_SIGMA)
        once = apply_constraints(asm.assemble_mass(lay, context(lay)), lay)
        twice = apply_constraints(once, lay)
        assert np.allclose(once.toarray(), twice.toarray(), atol=0.0)

    @pytest.mark.parametrize("kind", [VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_elimination_equals_the_projected_sum(self, kind):
        # the elimination keeps the pattern of the matrix; without its stored
        # zeros it is bit for bit the P a P + diag(pinned) it replaces
        lay = build_layout(build_rect_mesh(2, 1, 6, 3), kind)
        ctx = context(lay)
        a = asm.assemble_mass(lay, ctx) + asm.assemble_stiffness(lay, 0.7, ctx)
        if kind == VECTOR_P1_SIGMA:
            a = a + divrot_matrix(lay.mesh, asm.assemble_divrot(lay, 0.3, ctx))
        keep = np.ones(lay.n_dofs)
        keep[lay.constrained_dofs] = 0.0
        ref = sp.diags(keep) @ a @ sp.diags(keep) + sp.diags(1.0 - keep)
        out = apply_constraints(a, lay)
        assert len(lay.constrained_dofs) > 0
        assert np.array_equal(out.indptr, a.indptr) and np.array_equal(out.indices, a.indices)
        got = out.copy()
        got.eliminate_zeros()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    def test_mean_constrained_solve_has_zero_mean(self):
        mesh = build_rect_mesh(1, 1, 6, 6)
        lay = build_layout(mesh, SCALAR_P1, zero_mean=True)
        ctx = context(lay)
        a = asm.assemble_mass(lay, ctx) + asm.assemble_stiffness(lay, 1.0, ctx)
        w = asm.integral_weight_vector(lay, ctx)
        out = apply_constraints(a, lay, weight_vector=w)
        assert out.shape == (lay.n_dofs + 1, lay.n_dofs + 1)
        rng = np.random.default_rng(31)
        rhs = constrain_rhs(rng.standard_normal(lay.n_dofs), lay)
        x, _ = exact_solve(out, rhs)
        assert abs(w @ x[: lay.n_dofs]) <= 1e-12

    def test_mean_constraint_needs_its_weights(self):
        lay = build_layout(build_rect_mesh(1, 1, 3, 3), SCALAR_P1, zero_mean=True)
        with pytest.raises(ValueError, match="weight_vector"):
            apply_constraints(asm.assemble_mass(lay, context(lay)), lay)


# ---------------------------------------------------------------------------
# the matmul kernels and scatter plans against the einsum kernels and the
# triplet scatter they replaced, and the step's loads against the
# per-equation loads they replaced; all of these are kept here as references


def broadcast_gradients(kind, grad_bary, lam):
    """Physical basis gradients at every point, (ne, nq, nl, 2)."""
    nq = lam.shape[0]
    p1 = np.broadcast_to(grad_bary[:, None], (grad_bary.shape[0], nq, 3, 2))
    if kind != VELOCITY_MINI:
        return p1
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    g1, g2, g3 = (grad_bary[:, None, a, :] for a in range(3))
    bub = 27.0 * ((l2 * l3)[:, None] * g1 + (l1 * l3)[:, None] * g2 + (l1 * l2)[:, None] * g3)
    return np.concatenate([p1, bub[:, :, None, :]], axis=-2)


def triplet_matrix(local, row_dofs, col_dofs, shape):
    """Sum (ne, k, nr, nc) blocks through COO -> CSR with duplicates summed."""
    full = (row_dofs.shape[0], row_dofs.shape[1], row_dofs.shape[2], col_dofs.shape[-1])
    local = np.broadcast_to(local if local.ndim == 4 else local[:, None], full)
    rows = np.broadcast_to(row_dofs[..., None], full).ravel()
    cols = np.broadcast_to(col_dofs[..., None, :], full).ravel()
    a = sp.csr_matrix(sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape))
    a.sum_duplicates()
    a.sort_indices()
    return a


def component_dofs(layout):
    return layout.element_dofs.reshape(-1, layout.components, layout.scalar_local_size)


def load_reference(layout, fv, ctx):
    """(f, phi_i), componentwise on vector layouts, for values fv at the points."""
    fv = fv.reshape(fv.shape[:2] + (layout.components,))
    local = np.einsum("q,eqc,qi->eci", ctx.weights, fv, ctx.basis_values(layout.kind))
    return scatter_vector_by_add_at(local * ctx.areas[:, None, None], layout)


def div_load_reference(layout, fv, ctx):
    """(f, div Phi_i) on a vector layout for scalar values fv at the points."""
    grads = broadcast_gradients(layout.kind, ctx.grad_bary, ctx.lam)
    local = np.einsum("q,eq,eqic->eci", ctx.weights, fv, grads)
    return scatter_vector_by_add_at(local * ctx.areas[:, None, None], layout)


def chemo_rhs_reference(layout_n, n_prev, sigma_prev, chi, alpha0, ctx):
    """chi * ((n_prev + alpha0) sigma_prev, grad phi_i) on the density space."""
    grads = broadcast_gradients(layout_n.kind, ctx.grad_bary, ctx.lam)
    density = chi * (n_prev.values(ctx) + alpha0)
    local = np.einsum("q,eq,eqd,eqid->ei", ctx.weights, density, sigma_prev.values(ctx), grads)
    return scatter_vector_by_add_at(local * ctx.areas[:, None], layout_n)


def sigma_rhs_reference(layout_sigma, u_prev, sigma_prev, n_prev, c_prev, gamma, alpha0, ctx):
    """(u_prev . sigma_prev + gamma (n_prev + alpha0) c_prev, div Psi_i)."""
    scalar = np.einsum("eqd,eqd->eq", u_prev.values(ctx), sigma_prev.values(ctx))
    scalar += gamma * (n_prev.values(ctx) + alpha0) * c_prev.values(ctx)
    return div_load_reference(layout_sigma, scalar, ctx)


def consumption_rhs_reference(layout_c, n_prev, c_prev, gamma, alpha0, ctx):
    """-gamma ((n_prev + alpha0) c_prev, phi_i) on the concentration space."""
    scalar = -gamma * (n_prev.values(ctx) + alpha0) * c_prev.values(ctx)
    return load_reference(layout_c, scalar, ctx)


def buoyancy_rhs_reference(layout_u, n_prev, grad_phi, rho, alpha0, ctx):
    """(1/rho) ((n_prev + alpha0) grad_phi, Phi_i) on the velocity space."""
    density = (n_prev.values(ctx) + alpha0) / rho
    return load_reference(layout_u, density[..., None] * grad_phi.values(ctx), ctx)


def jittered_mesh(kx=5, ky=4, seed=0):
    """A rectangle mesh with its interior nodes moved off the lattice."""
    mesh = build_rect_mesh(1.3, 1.0, kx, ky)
    nodes = mesh.nodes.copy()
    x, y = nodes[:, 0], nodes[:, 1]
    interior = (x > 1e-12) & (x < 1.3 - 1e-12) & (y > 1e-12) & (y < 1.0 - 1e-12)
    shift = np.random.default_rng(seed).uniform(-0.2, 0.2, (int(interior.sum()), 2))
    nodes[interior] += shift * np.array([1.3 / kx, 1.0 / ky])
    return Mesh(nodes=nodes, triangles=mesh.triangles, h=mesh.h)


def assert_rel(actual, expected, rtol=1e-13):
    actual = actual.toarray() if sp.issparse(actual) else np.asarray(actual)
    expected = expected.toarray() if sp.issparse(expected) else np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestKernelEquivalence:
    KINDS = [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI]

    def setup_method(self):
        self.mesh = jittered_mesh()
        self.ctx = asm.AssemblyContext(self.mesh)
        self.rng = np.random.default_rng(11)
        self.lu = build_layout(self.mesh, VELOCITY_MINI)
        self.velocity = self.field(self.lu)

    def field(self, layout):
        return asm.DiscreteField(layout, self.rng.standard_normal(layout.n_dofs))

    def grads(self, kind):
        return broadcast_gradients(kind, self.ctx.grad_bary, self.ctx.lam)

    def ref_values(self, f):
        coef = f.coeffs[component_dofs(f.layout)]
        out = np.einsum("qi,eci->eqc", self.ctx.basis_values(f.layout.kind), coef)
        return out[..., 0] if f.components == 1 else out

    @pytest.mark.parametrize("kind", KINDS)
    def test_field_values_and_gradients(self, kind):
        f = self.field(build_layout(self.mesh, kind))
        assert_rel(f.values(self.ctx), self.ref_values(f))
        coef = f.coeffs[component_dofs(f.layout)]
        grads = np.einsum("eqid,eci->eqcd", self.grads(kind), coef)
        assert_rel(f.gradients(self.ctx), grads[:, :, 0] if f.components == 1 else grads)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mass_and_stiffness(self, kind):
        lay = build_layout(self.mesh, kind)
        ctx, dofs, shape = self.ctx, component_dofs(lay), (lay.n_dofs, lay.n_dofs)
        vals, grads = ctx.basis_values(kind), self.grads(kind)
        mass = np.einsum("q,qi,qj->ij", ctx.weights, vals, vals) * ctx.areas[:, None, None]
        assert_rel(asm.assemble_mass(lay, ctx), triplet_matrix(mass, dofs, dofs, shape))
        stiff = np.einsum("q,eqid,eqjd->eij", ctx.weights, grads, grads) * ctx.areas[:, None, None]
        assert_rel(asm.assemble_stiffness(lay, 1.0, ctx), triplet_matrix(stiff, dofs, dofs, shape))

    @pytest.mark.parametrize("kind", KINDS)
    def test_skew(self, kind):
        lay = build_layout(self.mesh, kind)
        ctx, dofs = self.ctx, component_dofs(lay)
        vals, grads = ctx.basis_values(kind), self.grads(kind)
        uv = self.ref_values(self.velocity)
        conv = np.einsum("eqd,eqjd->eqj", uv, grads)
        local = np.einsum("q,qi,eqj->eij", ctx.weights, vals, conv) * ctx.areas[:, None, None]
        half = triplet_matrix(local, dofs, dofs, (lay.n_dofs, lay.n_dofs)).multiply(0.5)
        assert_rel(skew_matrix(lay, self.velocity, ctx), half - half.T)

    @pytest.mark.parametrize("kind", [VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_pressure_coupling(self, kind):
        lay, lpi = build_layout(self.mesh, kind), build_layout(self.mesh, "pressure_p1")
        ctx = self.ctx
        pvals = ctx.basis_values(lpi.kind)
        local = np.einsum("q,eqic,qj->ecij", ctx.weights, self.grads(kind), pvals)
        local *= ctx.areas[:, None, None, None]
        ref = triplet_matrix(local, component_dofs(lay), lpi.element_dofs[:, None], (lay.n_dofs, lpi.n_dofs))
        assert_rel(asm.assemble_pressure_coupling(lay, lpi, ctx), ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_loads(self, kind):
        lay = build_layout(self.mesh, kind)
        ctx, comps = self.ctx, lay.components
        fv = self.ref_values(self.field(lay))
        assert_rel(asm.assemble_load(lay, fv, ctx), load_reference(lay, fv, ctx))
        analytic = asm.at_points(
            lambda x, y: np.stack([np.sin(x + k * y) for k in range(comps)], axis=-1).reshape(
                np.shape(x) + ((comps,) if comps > 1 else ())),
            ctx,
        )
        assert_rel(asm.assemble_load(lay, analytic, ctx), load_reference(lay, analytic, ctx))

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_load(self, kind):
        lay = build_layout(self.mesh, kind)
        ctx, comps = self.ctx, lay.components
        g = asm.at_points(
            lambda x, y: np.stack([np.cos(x * (k + 1) - y) for k in range(2 * comps)], axis=-1).reshape(
                np.shape(x) + (comps, 2)),
            ctx,
        )
        local = np.einsum("q,ceqd,eqid->eci", ctx.weights, np.moveaxis(g, 2, 0), self.grads(kind))
        ref = scatter_vector_by_add_at(local * ctx.areas[:, None, None], lay)
        assert_rel(asm.assemble_grad_load(lay, g, ctx), ref)

    @pytest.mark.parametrize("kind", [VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_div_load(self, kind):
        lay = build_layout(self.mesh, kind)
        fv = self.ref_values(self.field(build_layout(self.mesh, SCALAR_P1)))
        assert_rel(asm.assemble_div_load(lay, fv, self.ctx), div_load_reference(lay, fv, self.ctx))

    @pytest.mark.parametrize("kind", [VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_div_load_reads_its_table_from_the_context(self, kind):
        # bit-identical to the load that rebuilt its table on every call
        lay = build_layout(self.mesh, kind)
        fv = self.ref_values(self.field(build_layout(self.mesh, SCALAR_P1)))
        for _ in range(2):
            assert np.array_equal(asm.assemble_div_load(lay, fv, self.ctx),
                                  div_load_rebuilding_its_table(lay, fv, self.ctx))

    def test_step_loads(self):
        """The four loads of a step against the per-equation references, for
        random previous fields, with and without manufactured forcing."""
        grad_phi = (0.7, -1.3)  # both components on, so neither part of the table goes unchecked
        chi, gamma, alpha0, rho = 1.7, 0.6, 2.5, 1.3
        params = ModelParams(chi=chi, D_n=1.0, D_c=1.0, D_u=1.0, rho=rho, gamma=gamma,
                             grad_phi=grad_phi, alpha0=alpha0)
        st = Stepper(self.mesh, params)
        ctx = st.ctx
        n, c, sig = self.field(st.layout_n), self.field(st.layout_c), self.field(st.layout_sigma)
        prev = State(m=0, t=0.0, n=n.coeffs, c=c.coeffs, sigma=sig.coeffs,
                     u=self.velocity.coeffs, pi=np.zeros(st.layout_pi.n_dofs))
        t = 0.3
        for forcing in (None, manufactured.test2_forcing()):
            n_skew, u_skew, loads = lagged_matrices(st, prev, t, forcing)
            ref = {
                "n": chemo_rhs_reference(st.layout_n, n, sig, chi, alpha0, ctx),
                "sigma": sigma_rhs_reference(st.layout_sigma, self.velocity, sig, n, c, gamma, alpha0, ctx),
                "c": consumption_rhs_reference(st.layout_c, n, c, gamma, alpha0, ctx),
                "u": buoyancy_rhs_reference(st.layout_u, n, constant_vector(grad_phi), rho,
                                            alpha0, ctx),
            }
            if forcing is not None:
                x, y = ctx.points[..., 0], ctx.points[..., 1]
                ref["n"] += load_reference(st.layout_n, forcing.g_n(x, y, t), ctx)
                ref["sigma"] -= div_load_reference(st.layout_sigma, forcing.g_c(x, y, t), ctx)
                ref["c"] += load_reference(st.layout_c, forcing.g_c(x, y, t), ctx)
                ref["u"] += load_reference(st.layout_u, forcing.g_u(x, y, t), ctx)
            assert loads.keys() == ref.keys()
            for name in ref:
                assert_rel(loads[name], ref[name])
            uv = self.ref_values(self.velocity)
            assert_rel(n_skew, skew_matrix(st.layout_c, uv, ctx))
            assert_rel(u_skew, skew_matrix(st.layout_u, uv, ctx))


class TestScatterPlans:
    """Every matrix pattern assembly uses, filled with the same element
    blocks, matches the triplet scatter."""

    def setup_method(self):
        self.mesh = jittered_mesh(4, 3, seed=2)
        self.rng = np.random.default_rng(7)

    @pytest.mark.parametrize("kind", [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_componentwise(self, kind):
        lay = build_layout(self.mesh, kind)
        dofs = component_dofs(lay)
        local = self.rng.standard_normal(dofs.shape + (dofs.shape[-1],))
        plan = asm.square_plan(lay)
        assert asm.square_plan(lay) is plan  # built once per layout
        ref = triplet_matrix(local, dofs, dofs, (lay.n_dofs, lay.n_dofs))
        a = plan.matrix(local)
        assert np.array_equal(a.indptr, ref.indptr) and np.array_equal(a.indices, ref.indices)
        assert_rel(a, ref, rtol=1e-14)

    @pytest.mark.parametrize("kind", [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI])
    def test_one_block_on_every_component(self, kind):
        # summed over the first component and repeated, bit for bit the sum
        # over every component of the full plan
        lay = build_layout(self.mesh, kind)
        ne, comps, nl = component_dofs(lay).shape
        local = self.rng.standard_normal((ne, nl, nl))
        full = asm.square_plan(lay).data(np.broadcast_to(local[:, None], (ne, comps, nl, nl)))
        assert np.array_equal(asm._square_data(local, lay), full)

    @pytest.mark.parametrize("kind", [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI, PRESSURE_P1])
    def test_load_scatter_equals_add_at(self, kind):
        # the bincount of the loads sums each dof's entries in element order,
        # bit for bit as the np.add.at it replaced
        lay = build_layout(build_rect_mesh(2, 1, 80, 40), kind)
        local = self.rng.standard_normal(lay.element_dofs.shape)
        got = asm._scatter_vector(local, lay)
        assert np.array_equal(got, scatter_vector_by_add_at(local, lay))

    def test_coupled_and_rectangular(self):
        # the div/rot element blocks, which couple the sigma components, as
        # four component blocks on the P1 plan
        ls = build_layout(self.mesh, VECTOR_P1_SIGMA)
        ctx = context(ls)
        div, rot = asm._sigma_div_rot(ctx.grad_bary)
        local = 0.7 * ctx.areas[:, None, None] * (div[:, :, None] * div[:, None] + rot[:, :, None] * rot[:, None])
        dofs = ls.element_dofs[:, None]
        assert_rel(divrot_matrix(self.mesh, asm.assemble_divrot(ls, 0.7, ctx)),
                   triplet_matrix(local, dofs, dofs, (ls.n_dofs, ls.n_dofs)), rtol=1e-14)
        lu, lpi = build_layout(self.mesh, VELOCITY_MINI), build_layout(self.mesh, "pressure_p1")
        rows, cols = component_dofs(lu), lpi.element_dofs[:, None]
        local = self.rng.standard_normal((self.mesh.n_triangles, 2, 4, 3))
        shape = (lu.n_dofs, lpi.n_dofs)
        assert_rel(asm.pressure_plan(lu).matrix(local),
                   triplet_matrix(local, rows, cols, shape), rtol=1e-14)


def permuted_mesh(kx=5, ky=4, seed=3):
    """A rectangle mesh whose triangles list their vertices in a random order
    each (half of them clockwise: for plans, not geometry)."""
    mesh = build_rect_mesh(1.0, 1.0, kx, ky)
    rng = np.random.default_rng(seed)
    triangles = np.array([t[rng.permutation(3)] for t in mesh.triangles])
    return Mesh(nodes=mesh.nodes, triangles=triangles, h=mesh.h)


class TestDerivedPlans:
    """Every plan assembly derives from the mesh's P1 plan by index arithmetic
    has the pattern, slots and dtypes of the plan sorted from its entry list
    (``oracles.sorted_plans``), and the mesh sorts once."""

    MESHES = {
        **{f"rect{kx}x{ky}": (kx, ky) for kx, ky in [(1, 1), (3, 2), (10, 10), (24, 12), (80, 40)]},
        "jittered": jittered_mesh,
        "permuted": permuted_mesh,
    }

    DERIVED = {"square": asm.square_plan, "scalar": asm._scalar_plan, "pressure": asm.pressure_plan}

    def mesh(self, name):
        make = self.MESHES[name]
        return build_rect_mesh(1.0, 1.0, *make) if isinstance(make, tuple) else make()

    @pytest.mark.parametrize("name", list(MESHES))
    def test_equal_the_sorted_plans(self, name):
        mesh = self.mesh(name)
        for kind in (SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI, PRESSURE_P1):
            lay = build_layout(mesh, kind)
            for key, ref in sorted_plans(lay).items():
                if key not in self.DERIVED:  # the coupled plan: only a reference
                    continue
                plan = self.DERIVED[key](lay)
                assert plan.shape == ref.shape and plan.nnz == ref.nnz, (kind, key)
                for field in ("indptr", "indices", "slots"):
                    got, want = getattr(plan, field), getattr(ref, field)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (kind, key, field)

    # the permuted mesh lists half its triangles clockwise: plans, not geometry
    @pytest.mark.parametrize("name", [name for name in MESHES if name != "permuted"])
    def test_divrot_blocks_equal_the_coupled_plan_sum(self, name):
        # each component block, summed on the P1 plan in element order, bit
        # for bit the sum on the plan of one block coupling both components
        mesh = self.mesh(name)
        lay = build_layout(mesh, VECTOR_P1_SIGMA)
        ctx = context(lay)
        blocks = asm.assemble_divrot(lay, 3.7, ctx)
        ref, nn, p1 = divrot_by_coupled_plan(lay, 3.7, ctx), mesh.n_nodes, mesh.p1_plan
        assert blocks.shape == (2, 2, p1.nnz)
        for a in range(2):
            for b in range(2):
                block = ref[a * nn:(a + 1) * nn][:, b * nn:(b + 1) * nn]
                assert np.array_equal(block.indptr, p1.indptr) and np.array_equal(block.indices, p1.indices)
                assert np.array_equal(block.data, blocks[a, b]), (a, b)
        got = divrot_matrix(mesh, blocks)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field

    def test_p1_plan_sorted_once_and_kept_on_the_mesh(self, monkeypatch):
        made = recorded_sorts(monkeypatch)
        mesh = build_rect_mesh(1.0, 1.0, 6, 5)
        lays = [build_layout(mesh, kind) for kind in (SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI)]
        for lay in lays:
            for key in ("square", "scalar") + (("pressure",) if lay.components == 2 else ()):
                self.DERIVED[key](lay)
        assert made == [(mesh.n_nodes, mesh.n_nodes)]
        assert asm.square_plan(lays[0]) is mesh.p1_plan
        assert build_rect_mesh(1.0, 1.0, 6, 5).p1_plan is not mesh.p1_plan  # one per mesh
        assert len(made) == 2


class TestQuadraturePoints:
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_equal_the_einsum(self, degree):
        # (lam_0 v_0 + lam_1 v_1) + lam_2 v_2, bit for bit the einsum it replaced
        for mesh in (build_rect_mesh(2.0, 1.0, 24, 12), build_rect_mesh(1.0, 1.0, 7, 3), jittered_mesh()):
            ctx = asm.AssemblyContext(mesh, degree)
            ref = np.einsum("qi,eic->eqc", triangle_rule(degree).points, mesh.nodes[mesh.triangles])
            assert ctx.points.shape == ref.shape and np.array_equal(ctx.points, ref)


def unit_scaled(a):
    """``a`` times the power of two that puts its largest entry in [0.5, 1)."""
    largest = np.abs(a).max(initial=0.0)
    return a if largest == 0.0 else np.ldexp(a, -np.frexp(largest)[1])


class TestSkewProperties:
    """N = -N^T entry by entry and x^T N x = 0 to rounding, for any velocity.

    The quadratic form is checked in units where the largest entries of N
    and x are of order 1 (an exact rescaling), so that no square underflows.
    """

    MESHES = {kind: build_rect_mesh(1, 1, 3, 2) for kind in (SCALAR_P1, VELOCITY_MINI)}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from([SCALAR_P1, VELOCITY_MINI]))
    def test_skew_identity(self, data, kind):
        mesh = self.MESHES[kind]
        lu = build_layout(mesh, VELOCITY_MINI)
        layout = build_layout(mesh, kind)
        finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        coeffs = data.draw(hnp.arrays(np.float64, lu.n_dofs, elements=finite))
        x = data.draw(hnp.arrays(np.float64, layout.n_dofs, elements=finite))
        ctx = asm.AssemblyContext(mesh)
        n = skew_matrix(layout, asm.DiscreteField(lu, coeffs), ctx)
        dense = n.toarray()
        assert np.array_equal(dense, -dense.T)
        n = sp.csr_matrix((unit_scaled(n.data), n.indices, n.indptr), shape=n.shape)
        x = unit_scaled(x)
        assert abs(x @ (n @ x)) <= 1e-13 * np.linalg.norm(n.data) * (x @ x)


class TestOneTransportKernel:
    """The transports of every layout from one skew-symmetrized MINI element
    kernel, against the per-layout kernel with a global transpose it
    replaces (``oracles.skew_by_global_transpose``); for point values the
    kernel is its point-table reference (``oracles.skew_data``)."""

    KINDS = [SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI, PRESSURE_P1]

    def cases(self):
        """(layouts, context, velocity values): random MINI velocities on a
        jittered mesh, and the exact test2 velocity on the k=10 mesh."""
        mesh = jittered_mesh()
        ctx = asm.AssemblyContext(mesh)
        lays = [build_layout(mesh, kind) for kind in self.KINDS]
        rng = np.random.default_rng(5)
        for _ in range(3):
            yield lays, ctx, asm.DiscreteField(lays[2], rng.standard_normal(lays[2].n_dofs))
        mesh = build_rect_mesh(1, 1, 10, 10)
        ctx = asm.AssemblyContext(mesh)
        lays = [build_layout(mesh, kind) for kind in self.KINDS]
        yield lays, ctx, asm.at_points(manufactured.test2_solution().u, ctx, 0.3)

    def test_matches_the_per_layout_oracle(self):
        for lays, ctx, vel in self.cases():
            for lay, data in zip(lays, skew_data(lays, vel, ctx)):
                ref = skew_by_global_transpose(lay, vel, ctx)
                plan = asm.square_plan(lay)
                assert np.array_equal(ref.indices, plan.indices)
                assert np.array_equal(ref.indptr, plan.indptr)
                assert np.abs(data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()

    def test_p1_data_gathered_from_the_mini_sum(self):
        # bit-identical to a bincount of each layout's own, whichever layout
        # comes first and with no MINI layout among them
        for lays, ctx, vel in self.cases():
            if not isinstance(vel, asm.DiscreteField):
                continue
            for order in (lays, lays[::-1], lays[:1], [lays[1], lays[3]]):
                got = asm.assemble_skew_data(order, vel, ctx)
                for lay, data, ref in zip(order, got, skew_data_by_own_sums(order, vel, ctx)):
                    assert data.shape == ref.shape and np.array_equal(data, ref), lay.kind

    def test_skew_entry_by_entry(self):
        for lays, ctx, vel in self.cases():
            for lay, data in zip(lays, skew_data(lays, vel, ctx)):
                plan = asm.square_plan(lay)
                perm = transpose_slots(plan)
                assert np.array_equal(plan.csr(data[perm]).toarray(), plan.csr(data).toarray().T)
                assert np.count_nonzero(data) > 0 and np.array_equal(data, -data[perm])
