"""Assembly of all bilinear/trilinear forms and load vectors of the scheme.

Element contributions are computed for every triangle at once with numpy
einsums and scattered into global triplets; matrices come back wrapped as
``linsolve.SparseMatrix``.  Each form picks a quadrature degree that
integrates its integrand exactly: degree 2 for pure-P1 mass/stiffness
terms, degree 8 everywhere a bubble or a previous-level field enters (the
velocity trilinear form reaches total degree 8).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .mesh import all_element_geometry
from .quadrature import triangle_rule
from .spaces import (
    VECTOR_P1_SIGMA,
    VELOCITY_MINI,
    scalar_basis_gradients,
    scalar_basis_values,
)

P1_DEGREE = 2  # exact for products of two P1 functions
FULL_DEGREE = 8  # exact for every MINI / lagged-coefficient integrand


class AssemblyContext:
    """Per-mesh quadrature data shared by all forms of one run.

    Caches physical quadrature points and basis values/gradients so that
    per-step reassembly (convection matrices, load vectors) touches only
    einsums.
    """

    def __init__(self, mesh, degree=FULL_DEGREE):
        self.mesh = mesh
        self.rule = triangle_rule(degree)
        self.areas, self.grad_bary = all_element_geometry(mesh)
        self.lam = self.rule.points
        self.weights = self.rule.weights
        verts = mesh.nodes[mesh.triangles]  # (ne, 3, 2)
        self.points = np.einsum("qi,eic->eqc", self.lam, verts)
        self._vals = {}
        self._grads = {}

    @property
    def n_q(self):
        return len(self.weights)

    def basis_values(self, kind):
        """Scalar sub-basis values at the quadrature points, (nq, nl)."""
        if kind not in self._vals:
            self._vals[kind] = scalar_basis_values(kind, self.lam)
        return self._vals[kind]

    def basis_gradients(self, kind):
        """Scalar sub-basis physical gradients, (ne, nq, nl, 2)."""
        if kind not in self._grads:
            self._grads[kind] = scalar_basis_gradients(kind, self.grad_bary, self.lam)
        return self._grads[kind]


# ---------------------------------------------------------------------------
# fields evaluable at quadrature points


class DiscreteField:
    """A finite element function given by a layout and coefficient vector."""

    def __init__(self, layout, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (layout.n_dofs,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, expected ({layout.n_dofs},)"
            )
        self.layout = layout
        self.coeffs = coeffs
        self.components = layout.components

    def _element_coeffs(self, ctx):
        nl = self.layout.scalar_local_size
        dofs = self.layout.element_dofs.reshape(-1, self.layout.components, nl)
        return self.coeffs[dofs]  # (ne, comps, nl)

    def values(self, ctx):
        vals = ctx.basis_values(self.layout.kind)
        out = np.einsum("qi,eci->eqc", vals, self._element_coeffs(ctx))
        return out[..., 0] if self.components == 1 else out

    def gradients(self, ctx):
        grads = ctx.basis_gradients(self.layout.kind)
        out = np.einsum("eqid,eci->eqcd", grads, self._element_coeffs(ctx))
        return out[:, :, 0, :] if self.components == 1 else out


class AnalyticField:
    """A closed-form field of (x, y), vectorized over numpy arrays.

    ``fn(x, y)`` returns an array like x for scalars or shape ``(..., 2)``
    for vectors; ``grad(x, y)`` returns ``(..., 2)`` or ``(..., 2, 2)``
    with the component index before the derivative index.
    """

    def __init__(self, fn, grad=None, components=1):
        self.fn = fn
        self.grad = grad
        self.components = components

    def values(self, ctx):
        return np.asarray(self.fn(ctx.points[..., 0], ctx.points[..., 1]), dtype=float)

    def gradients(self, ctx):
        if self.grad is None:
            raise ValueError("analytic field has no gradient callable")
        return np.asarray(self.grad(ctx.points[..., 0], ctx.points[..., 1]), dtype=float)


def constant_vector_field(vec):
    """AnalyticField for a constant 2-vector (e.g. a uniform gravity gradient)."""
    vec = np.asarray(vec, dtype=float)

    def fn(x, y):
        out = np.empty(np.shape(x) + (2,))
        out[..., 0] = vec[0]
        out[..., 1] = vec[1]
        return out

    def grad(x, y):
        return np.zeros(np.shape(x) + (2, 2))

    return AnalyticField(fn, grad=grad, components=2)


# ---------------------------------------------------------------------------
# assembled forms


@dataclass
class AssembledForm:
    matrix: linsolve.SparseMatrix
    domain_layout: object
    range_layout: object
    coefficients: dict = field(default_factory=dict)
    constraints_applied: bool = False


def _scatter_matrix(local, row_dofs, col_dofs, shape):
    """Accumulate (ne, nr, nc) element blocks into a global sparse matrix."""
    ne, nr, nc = local.shape
    rows = np.broadcast_to(row_dofs[:, :, None], (ne, nr, nc)).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], (ne, nr, nc)).ravel()
    return linsolve.from_triplets(shape, (rows, cols, local.ravel()))


def _component_dofs(layout, comp):
    nl = layout.scalar_local_size
    return layout.element_dofs[:, comp * nl : (comp + 1) * nl]


def _ctx_for(layout_or_mesh, ctx, degree):
    if ctx is not None:
        return ctx
    mesh = getattr(layout_or_mesh, "mesh", layout_or_mesh)
    return AssemblyContext(mesh, degree=degree)


def assemble_mass(layout, ctx=None):
    """Mass matrix of the layout's space (SPD before constraints)."""
    degree = P1_DEGREE if not layout.has_bubble else FULL_DEGREE
    ctx = _ctx_for(layout, ctx, degree)
    vals = ctx.basis_values(layout.kind)
    e0 = np.einsum("q,qi,qj->ij", ctx.weights, vals, vals)
    local = ctx.areas[:, None, None] * e0
    shape = (layout.n_dofs, layout.n_dofs)
    mat = None
    for comp in range(layout.components):
        dofs = _component_dofs(layout, comp)
        block = _scatter_matrix(local, dofs, dofs, shape)
        mat = block if mat is None else mat + block
    return AssembledForm(matrix=mat, domain_layout=layout, range_layout=layout)


def assemble_stiffness(layout, coeff=1.0, ctx=None):
    """Stiffness matrix coeff * (grad u, grad v); componentwise for vectors."""
    degree = P1_DEGREE if not layout.has_bubble else FULL_DEGREE
    ctx = _ctx_for(layout, ctx, degree)
    grads = ctx.basis_gradients(layout.kind)
    local = np.einsum("q,eqid,eqjd->eij", ctx.weights, grads, grads)
    local *= coeff * ctx.areas[:, None, None]
    shape = (layout.n_dofs, layout.n_dofs)
    mat = None
    for comp in range(layout.components):
        dofs = _component_dofs(layout, comp)
        block = _scatter_matrix(local, dofs, dofs, shape)
        mat = block if mat is None else mat + block
    return AssembledForm(
        matrix=mat, domain_layout=layout, range_layout=layout, coefficients={"coeff": coeff}
    )


def _sigma_div_rot(layout):
    """Constant per-element div and rot of the 6 local sigma basis functions."""
    _, grad_bary = all_element_geometry(layout.mesh)
    ne = layout.mesh.n_triangles
    div = np.empty((ne, 6))
    rot = np.empty((ne, 6))
    div[:, :3] = grad_bary[:, :, 0]  # (phi, 0): div = dphi/dx, rot = -dphi/dy
    div[:, 3:] = grad_bary[:, :, 1]  # (0, phi): div = dphi/dy, rot =  dphi/dx
    rot[:, :3] = -grad_bary[:, :, 1]
    rot[:, 3:] = grad_bary[:, :, 0]
    return div, rot


def assemble_divrot(layout, coeff=1.0):
    """coeff * [(div s, div t) + (rot s, rot t)] on the sigma space.

    The integrands are elementwise constant for P1 vectors, so the element
    integrals are exact without quadrature.
    """
    if layout.kind != VECTOR_P1_SIGMA:
        raise ValueError("divrot form is defined on the sigma space")
    areas, _ = all_element_geometry(layout.mesh)
    div, rot = _sigma_div_rot(layout)
    local = np.einsum("ea,eb->eab", div, div) + np.einsum("ea,eb->eab", rot, rot)
    local *= coeff * areas[:, None, None]
    shape = (layout.n_dofs, layout.n_dofs)
    mat = _scatter_matrix(local, layout.element_dofs, layout.element_dofs, shape)
    return AssembledForm(
        matrix=mat, domain_layout=layout, range_layout=layout, coefficients={"coeff": coeff}
    )


def _skew_convection(layout, velocity, ctx):
    """N = (C - C^T)/2 with C_ij = ((v . grad) phi_j, phi_i) per component."""
    vals = ctx.basis_values(layout.kind)
    grads = ctx.basis_gradients(layout.kind)
    v = velocity.values(ctx)
    conv = np.einsum("eqd,eqjd->eqj", v, grads)
    local = np.einsum("q,qi,eqj->eij", ctx.weights, vals, conv)
    local *= ctx.areas[:, None, None]
    shape = (layout.n_dofs, layout.n_dofs)
    c = None
    for comp in range(layout.components):
        dofs = _component_dofs(layout, comp)
        block = _scatter_matrix(local, dofs, dofs, shape)
        c = block if c is None else c + block
    half = c.csr.multiply(0.5)
    return linsolve.SparseMatrix.from_scipy(half - half.T)


def assemble_skew_A(layout, velocity, ctx=None):
    """Skew-symmetric transport matrix for a scalar unknown.

    The quadratic form of the result vanishes identically; for pointwise
    divergence-free velocities with zero normal trace it coincides with the
    one-sided convection form.
    """
    ctx = _ctx_for(layout, ctx, FULL_DEGREE)
    mat = _skew_convection(layout, velocity, ctx)
    return AssembledForm(matrix=mat, domain_layout=layout, range_layout=layout)


def assemble_skew_B(layout, velocity, ctx=None):
    """Skew-symmetric transport matrix on the MINI velocity space."""
    if layout.kind != VELOCITY_MINI:
        raise ValueError("B form is defined on the velocity space")
    ctx = _ctx_for(layout, ctx, FULL_DEGREE)
    mat = _skew_convection(layout, velocity, ctx)
    return AssembledForm(matrix=mat, domain_layout=layout, range_layout=layout)


def assemble_pressure_coupling(layout_u, layout_pi, rho=1.0, ctx=None):
    """G with G[i, j] = (psi_j, div Phi_i) over velocity rows / pressure columns.

    The saddle system uses -(1/rho) G in the momentum block and G^T in the
    continuity block; rho is recorded but not baked into the entries.
    """
    ctx = _ctx_for(layout_u, ctx, FULL_DEGREE)
    pvals = ctx.basis_values(layout_pi.kind)
    ugrads = ctx.basis_gradients(layout_u.kind)
    shape = (layout_u.n_dofs, layout_pi.n_dofs)
    mat = None
    for comp in range(layout_u.components):
        local = np.einsum("q,eqi,qj->eij", ctx.weights, ugrads[..., comp], pvals)
        local *= ctx.areas[:, None, None]
        block = _scatter_matrix(local, _component_dofs(layout_u, comp), layout_pi.element_dofs, shape)
        mat = block if mat is None else mat + block
    return AssembledForm(
        matrix=mat,
        domain_layout=layout_pi,
        range_layout=layout_u,
        coefficients={"rho": rho},
    )


# ---------------------------------------------------------------------------
# load vectors


def _scatter_vector(local, dofs, n):
    b = np.zeros(n)
    np.add.at(b, dofs.ravel(), local.ravel())
    return b


def assemble_load(layout, f, ctx=None):
    """(f, phi_i) for scalar layouts, (f, Phi_i) componentwise for vectors."""
    ctx = _ctx_for(layout, ctx, FULL_DEGREE)
    vals = ctx.basis_values(layout.kind)
    fv = f.values(ctx)
    b = np.zeros(layout.n_dofs)
    if layout.components == 1:
        local = np.einsum("q,eq,qi->ei", ctx.weights, fv, vals) * ctx.areas[:, None]
        np.add.at(b, layout.element_dofs.ravel(), local.ravel())
    else:
        for comp in range(layout.components):
            local = np.einsum("q,eq,qi->ei", ctx.weights, fv[..., comp], vals)
            local *= ctx.areas[:, None]
            np.add.at(b, _component_dofs(layout, comp).ravel(), local.ravel())
    return b


def assemble_div_load(layout, f, ctx=None):
    """(f, div Phi_i) on a vector layout for a scalar field f."""
    if layout.components != 2:
        raise ValueError("div load is defined on vector layouts")
    ctx = _ctx_for(layout, ctx, FULL_DEGREE)
    grads = ctx.basis_gradients(layout.kind)
    fv = f.values(ctx)
    b = np.zeros(layout.n_dofs)
    for comp in range(2):
        local = np.einsum("q,eq,eqi->ei", ctx.weights, fv, grads[..., comp])
        local *= ctx.areas[:, None]
        np.add.at(b, _component_dofs(layout, comp).ravel(), local.ravel())
    return b


def assemble_rot_load(layout, f, ctx=None):
    """(f, rot Psi_i) on the sigma space, rot(s) = ds2/dx - ds1/dy."""
    if layout.kind != VECTOR_P1_SIGMA:
        raise ValueError("rot load is defined on the sigma space")
    ctx = _ctx_for(layout, ctx, FULL_DEGREE)
    fv = f.values(ctx)
    f_int = np.einsum("q,eq->e", ctx.weights, fv) * ctx.areas
    _, rot = _sigma_div_rot(layout)
    local = f_int[:, None] * rot
    return _scatter_vector(local, layout.element_dofs, layout.n_dofs)


def assemble_grad_load(layout, g, ctx=None):
    """(g, grad phi_i) for a vector field g against a scalar layout's basis,
    or (G[c], grad phi_i) componentwise when the layout is a vector space
    and g returns a (..., 2, 2) gradient array."""
    ctx = _ctx_for(layout, ctx, FULL_DEGREE)
    grads = ctx.basis_gradients(layout.kind)
    gv = g.values(ctx)
    b = np.zeros(layout.n_dofs)
    if layout.components == 1:
        local = np.einsum("q,eqd,eqid->ei", ctx.weights, gv, grads) * ctx.areas[:, None]
        np.add.at(b, layout.element_dofs.ravel(), local.ravel())
    else:
        for comp in range(2):
            local = np.einsum("q,eqd,eqid->ei", ctx.weights, gv[..., comp, :], grads)
            local *= ctx.areas[:, None]
            np.add.at(b, _component_dofs(layout, comp).ravel(), local.ravel())
    return b


def assemble_chemo_rhs(layout_n, n_prev, sigma_prev, chi, alpha0, ctx=None):
    """chi * ((n_prev + alpha0) sigma_prev, grad phi_i) on the density space."""
    ctx = _ctx_for(layout_n, ctx, FULL_DEGREE)
    grads = ctx.basis_gradients(layout_n.kind)
    density = n_prev.values(ctx) + alpha0
    sig = sigma_prev.values(ctx)
    dot = np.einsum("eqd,eqid->eqi", sig, grads)
    local = chi * np.einsum("q,eq,eqi->ei", ctx.weights, density, dot) * ctx.areas[:, None]
    return _scatter_vector(local, layout_n.element_dofs, layout_n.n_dofs)


def assemble_sigma_rhs(layout_sigma, u_prev, sigma_prev, n_prev, c_prev, gamma, alpha0, ctx=None):
    """(u_prev . sigma_prev + gamma (n_prev + alpha0) c_prev, div Psi_i)."""
    ctx = _ctx_for(layout_sigma, ctx, FULL_DEGREE)
    uv = u_prev.values(ctx)
    sv = sigma_prev.values(ctx)
    scalar = np.einsum("eqd,eqd->eq", uv, sv)
    scalar += gamma * (n_prev.values(ctx) + alpha0) * c_prev.values(ctx)
    f_int = np.einsum("q,eq->e", ctx.weights, scalar) * ctx.areas
    div, _ = _sigma_div_rot(layout_sigma)
    local = f_int[:, None] * div
    return _scatter_vector(local, layout_sigma.element_dofs, layout_sigma.n_dofs)


def assemble_consumption_rhs(layout_c, n_prev, c_prev, gamma, alpha0, ctx=None):
    """-gamma ((n_prev + alpha0) c_prev, phi_i) on the concentration space."""
    ctx = _ctx_for(layout_c, ctx, FULL_DEGREE)
    vals = ctx.basis_values(layout_c.kind)
    scalar = -gamma * (n_prev.values(ctx) + alpha0) * c_prev.values(ctx)
    local = np.einsum("q,eq,qi->ei", ctx.weights, scalar, vals) * ctx.areas[:, None]
    return _scatter_vector(local, layout_c.element_dofs, layout_c.n_dofs)


def assemble_buoyancy_rhs(layout_u, n_prev, grad_phi, rho, alpha0, ctx=None):
    """(1/rho) ((n_prev + alpha0) grad_phi, Phi_i) on the velocity space."""
    ctx = _ctx_for(layout_u, ctx, FULL_DEGREE)
    vals = ctx.basis_values(layout_u.kind)
    density = (n_prev.values(ctx) + alpha0) / rho
    gp = grad_phi.values(ctx)
    b = np.zeros(layout_u.n_dofs)
    for comp in range(layout_u.components):
        local = np.einsum("q,eq,qi->ei", ctx.weights, density * gp[..., comp], vals)
        local *= ctx.areas[:, None]
        np.add.at(b, _component_dofs(layout_u, comp).ravel(), local.ravel())
    return b


# ---------------------------------------------------------------------------
# constraints


def integral_weight_vector(layout, ctx=None):
    """w with w_i = integral of basis function i (scalar layouts only)."""
    if layout.components != 1:
        raise ValueError("integral weights are defined for scalar layouts")
    ctx = _ctx_for(layout, ctx, P1_DEGREE)
    ones = AnalyticField(lambda x, y: np.ones_like(x))
    return assemble_load(layout, ones, ctx=ctx)


def apply_constraints(form, layout, weight_vector=None):
    """Eliminate constrained dofs and append the zero-mean multiplier row.

    Constrained rows/columns are replaced by the identity (symmetric
    elimination, value 0), then, if the layout carries a mean constraint,
    one bordered row/column with the basis integral weights is appended.
    Idempotent: a form whose constraints were already applied is returned
    unchanged.
    """
    if form.constraints_applied:
        return form
    a = form.matrix.csr
    if a.shape[0] != layout.n_dofs or a.shape[1] != layout.n_dofs:
        raise ValueError(
            f"form shape {a.shape} does not match layout dimension {layout.n_dofs}"
        )
    if len(layout.constrained_dofs):
        keep = np.ones(layout.n_dofs)
        keep[layout.constrained_dofs] = 0.0
        p = sp.diags(keep)
        pinned = np.zeros(layout.n_dofs)
        pinned[layout.constrained_dofs] = 1.0
        a = p @ a @ p + sp.diags(pinned)
    if layout.mean_constraint:
        w = integral_weight_vector(layout) if weight_vector is None else weight_vector
        wc = sp.csr_matrix(w.reshape(-1, 1))
        a = sp.bmat([[a, wc], [wc.T, None]], format="csr")
    return AssembledForm(
        matrix=linsolve.SparseMatrix.from_scipy(a),
        domain_layout=form.domain_layout,
        range_layout=form.range_layout,
        coefficients=dict(form.coefficients),
        constraints_applied=True,
    )


def constrain_rhs(b, layout):
    """Zero constrained entries of a load vector; append the multiplier zero."""
    b = np.array(b, dtype=float)
    b[layout.constrained_dofs] = 0.0
    if layout.mean_constraint:
        b = np.append(b, 0.0)
    return b
