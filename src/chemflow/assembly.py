"""Assembly of all bilinear/trilinear forms and load vectors of the scheme.

Element contributions are computed for every triangle at once.  Each
kernel contracts its integrand over the quadrature points with small
reference tables (basis values, and the gradient table that writes every
basis gradient as a combination of the constant barycentric gradients) in
one matrix product, and applies the per-element chain rule with the
barycentric gradients in another; no (ne, nq, nl, 2) gradient array is
formed.  Matrices are summed through a ``linsolve.ScatterPlan`` kept on
their layout, so the CSR pattern and the slot of every element entry are
found once per layout and each assembly only sums values; a block that
is the same on every component is summed once and repeated.  Load vectors
are summed with one ``np.bincount``.  Every form integrates on the rule of
the ``AssemblyContext`` its caller gives it: degree 2 (``P1_DEGREE``) is
exact for pure-P1 mass and stiffness, degree 8 (``FULL_DEGREE``) for every
MINI and lagged-coefficient polynomial integrand (the velocity trilinear
form reaches total degree 8).

One MINI element kernel gives the skew transport of every layout of a step
as data on the layout's plan.  It takes the velocity as a ``DiscreteField``,
whose element coefficients it contracts with a reference table, or as values
at the quadrature points.  The loads take their coefficient as values at
the quadrature points of the context they are given: ``DiscreteField.values``
for finite element functions, ``at_points`` for closed-form data.  A product
of finite element fields needs no point values: ``AssemblyContext.moments``
holds the integrals of products of basis functions on the context's rule, to
contract with the fields' element coefficients (``Stepper.lagged_forms``).
"""

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .mesh import all_element_geometry
from .quadrature import triangle_rule
from .spaces import SPACE_KINDS, VECTOR_P1_SIGMA, VELOCITY_MINI, build_layout
from .spaces import scalar_basis_gradient_table, scalar_basis_values

P1_DEGREE = 2  # exact for products of two P1 functions
FULL_DEGREE = 8  # exact for every MINI / lagged-coefficient integrand


class AssemblyContext:
    """Per-mesh quadrature data shared by all forms of one run.

    Caches the physical quadrature points, the barycentric gradients of
    every element (``grad_bary``, (ne, 3, 2), and its transpose
    ``grad_bary_t``) and, per space kind, the reference tables the kernels
    contract with, so that per-step reassembly touches only matrix
    products.  The basis values, which every field evaluation needs, are
    built with the context; the other tables on first use.
    """

    def __init__(self, mesh, degree=FULL_DEGREE):
        self.mesh = mesh
        self.rule = triangle_rule(degree)
        self.areas, self.grad_bary = all_element_geometry(mesh)
        self.grad_bary_t = np.ascontiguousarray(self.grad_bary.transpose(0, 2, 1))
        self.lam = self.rule.points
        self.weights = self.rule.weights
        verts = mesh.nodes[mesh.triangles]  # (ne, 3, 2)
        self.points = np.einsum("qi,eic->eqc", self.lam, verts)
        self._tables = {("values", k): scalar_basis_values(k, self.lam) for k in SPACE_KINDS}

    def cached(self, name, kind, build):
        """The table ``build()`` made on first use for (name, space kind)."""
        if (name, kind) not in self._tables:
            self._tables[name, kind] = build()
        return self._tables[name, kind]

    def basis_values(self, kind):
        """Scalar sub-basis values at the quadrature points, (nq, nl)."""
        return self._tables["values", kind]

    def gradient_table(self, kind):
        """T (nq, nl, 3) with grad phi_i(x_q) = sum_a T[q, i, a] grad lambda_a."""
        return self.cached("gradients", kind, lambda: scalar_basis_gradient_table(kind, self.lam))

    def weighted_values(self, kind):
        """w_q phi_i(x_q), (nq, nl)."""
        return self.cached(
            "weighted_values", kind, lambda: self.weights[:, None] * self.basis_values(kind)
        )

    def weighted_vector_values(self, kind):
        """w_q phi_k(x_q) for the two-component basis, component-major: rows
        (q, c), columns (c, k), (nq * 2, 2 * nl)."""

        def build():
            table = np.einsum("qk,cd->qcdk", self.weighted_values(kind), np.eye(2))
            return table.reshape(2 * len(self.weights), -1)

        return self.cached("weighted_vector_values", kind, build)

    def moments(self, *kinds):
        """M[i, j, ...] = sum_q w_q phi_i(x_q) psi_j(x_q) ... for the scalar
        sub-basis of each of ``kinds``: the integral over an element, per unit
        area, of a product of basis functions on this context's rule."""

        def build():
            out = "abc"[: len(kinds)]
            spec = ",".join(["q"] + [f"q{i}" for i in out]) + f"->{out}"
            return np.einsum(spec, self.weights, *(self.basis_values(k) for k in kinds))

        return self.cached("moments", kinds, build)

    def weighted_gradient_table(self, kind):
        """w_q T[q, i, a] with rows (q, a) and columns i, (nq * 3, nl)."""

        def build():
            wt = self.weights[:, None, None] * self.gradient_table(kind)
            return np.ascontiguousarray(wt.transpose(0, 2, 1).reshape(-1, wt.shape[1]))

        return self.cached("weighted_gradients", kind, build)


# ---------------------------------------------------------------------------
# values at the quadrature points


def at_points(fn, ctx, *args):
    """``fn(x, y, *args)`` at the quadrature points of ``ctx``: (ne, nq)
    for a scalar, (ne, nq, 2) for a vector, (ne, nq, 2, 2) for a gradient."""
    return np.asarray(fn(ctx.points[..., 0], ctx.points[..., 1], *args), dtype=float)


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

    def element_coeffs(self):
        """(ne * comps, nl): one row per element and component."""
        return self.coeffs[_component_dofs(self.layout)].reshape(-1, self.layout.scalar_local_size)

    def values(self, ctx):
        """(ne, nq), or (ne, nq, comps) for vector layouts."""
        vals = self.element_coeffs() @ ctx.basis_values(self.layout.kind).T
        vals = vals.reshape(-1, self.components, vals.shape[1])
        return vals[:, 0] if self.components == 1 else vals.transpose(0, 2, 1)

    def gradients(self, ctx):
        """(ne, nq, 2), or (ne, nq, comps, 2) for vector layouts."""
        table = ctx.gradient_table(self.layout.kind)
        nq, nl, _ = table.shape
        # derivatives along the barycentric coordinates, then the chain rule
        dlam = self.element_coeffs() @ table.transpose(1, 0, 2).reshape(nl, -1)
        ne = ctx.grad_bary.shape[0]
        grads = (dlam.reshape(ne, -1, 3) @ ctx.grad_bary).reshape(ne, self.components, nq, 2)
        return grads[:, 0] if self.components == 1 else grads.transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------------
# matrices


def _component_dofs(layout):
    """Element dofs split by component, (ne, comps, nl)."""
    return layout.element_dofs.reshape(-1, layout.components, layout.scalar_local_size)


def _block_plan(row_dofs, col_dofs, shape):
    """Scatter plan of k element blocks: ``row_dofs`` (ne, k, nr) and
    ``col_dofs`` (ne, k or 1, nc) are the global dofs of each block, whose
    entries are listed in (ne, k, nr, nc) order."""
    full = row_dofs.shape + col_dofs.shape[-1:]
    rows = np.broadcast_to(row_dofs[..., None], full)
    cols = np.broadcast_to(col_dofs[..., None, :], full)
    return linsolve.ScatterPlan(shape, rows, cols)


def square_plan(layout, coupled=False):
    """Plan of square element blocks on a layout, built once and kept on it:
    one block per component, or with ``coupled`` one block coupling all."""
    if coupled not in layout.plans:
        dofs = layout.element_dofs[:, None] if coupled else _component_dofs(layout)
        layout.plans[coupled] = _block_plan(dofs, dofs, (layout.n_dofs, layout.n_dofs))
    return layout.plans[coupled]


def _square_data(local, layout):
    """Data on ``square_plan(layout)`` of the same (ne, nl, nl) block on every
    component: each component's slots are the first's, shifted, so the first
    is summed, through its slots kept on the layout, and repeated."""
    plan, comps = square_plan(layout), layout.components
    if "first" not in layout.plans:
        layout.plans["first"] = plan.slots.reshape(len(local), comps, -1)[:, 0].ravel()
    data = np.bincount(layout.plans["first"], weights=local.ravel(), minlength=plan.nnz // comps)
    return np.tile(data, comps)


def _mini_gather(layout):
    """Index, in the data on the MINI layout of the same mesh, of the first
    component's slots of ``square_plan(layout)``, kept on the layout.  The
    layout, without bubbles, has the barycentrics, the MINI vertex functions,
    as its local functions: a vertex row of the MINI pattern holds the
    layout's row, then one bubble column per element at the vertex, and the
    vertex rows come first."""
    if "mini" not in layout.plans:
        plan, nn = square_plan(layout), layout.mesh.n_nodes
        valence = np.bincount(layout.mesh.triangles.ravel(), minlength=nn)
        shift = np.repeat(np.cumsum(valence) - valence, np.diff(plan.indptr[:nn + 1]))
        layout.plans["mini"] = np.arange(len(shift)) + shift
    return layout.plans["mini"]


def assemble_mass(layout, ctx):
    """Mass matrix of the layout's space (SPD before constraints)."""
    e0 = ctx.basis_values(layout.kind).T @ ctx.weighted_values(layout.kind)
    return square_plan(layout).csr(_square_data(ctx.areas[:, None, None] * e0, layout))


def assemble_stiffness(layout, coeff, ctx):
    """Stiffness matrix coeff * (grad u, grad v); componentwise for vectors."""
    table = ctx.gradient_table(layout.kind)
    nl = table.shape[1]
    # (grad phi_i, grad phi_j) = sum_ab S[a, b, i, j] grad lambda_a . grad lambda_b
    s = np.einsum("q,qia,qjb->abij", ctx.weights, table, table).reshape(9, nl * nl)
    local = ((ctx.areas[:, None, None] * ctx.grad_bary) @ ctx.grad_bary_t).reshape(-1, 9) @ s
    local *= coeff
    return square_plan(layout).csr(_square_data(local.reshape(-1, nl, nl), layout))


def _sigma_div_rot(grad_bary):
    """Constant per-element div and rot of the 6 local sigma basis functions."""
    ne = grad_bary.shape[0]
    div = np.empty((ne, 6))
    rot = np.empty((ne, 6))
    div[:, :3] = grad_bary[:, :, 0]  # (phi, 0): div = dphi/dx, rot = -dphi/dy
    div[:, 3:] = grad_bary[:, :, 1]  # (0, phi): div = dphi/dy, rot =  dphi/dx
    rot[:, :3] = -grad_bary[:, :, 1]
    rot[:, 3:] = grad_bary[:, :, 0]
    return div, rot


def assemble_divrot(layout, coeff, ctx):
    """coeff * [(div s, div t) + (rot s, rot t)] on the sigma space.

    The integrands are elementwise constant for P1 vectors, so the element
    integrals are exact without quadrature: only the geometry of ``ctx`` is read.
    """
    if layout.kind != VECTOR_P1_SIGMA:
        raise ValueError("divrot form is defined on the sigma space")
    div, rot = _sigma_div_rot(ctx.grad_bary)
    local = np.einsum("ea,eb->eab", div, div) + np.einsum("ea,eb->eab", rot, rot)
    local *= coeff * ctx.areas[:, None, None]
    return square_plan(layout, coupled=True).matrix(local)


def assemble_skew_data(layouts, velocity, ctx):
    """The skew transport N = (C - C^T)/2, C_ij = ((v . grad) phi_j, phi_i),
    componentwise on vector layouts, on each of ``layouts`` for the velocity
    v, a vector ``DiscreteField`` or its values (ne, nq, 2) at the points of
    ``ctx``, as data on the layout's plan.

    grad lambda_a . v_m, for the field's element coefficients v_m or the
    point values, is contracted over (a, m) in one product with the table
    w_q phi_i(x_q) T[q, j, a], which for a field is first contracted with its
    basis psi_m(x_q): the two inputs differ only in the table.  The MINI
    element blocks are formed, skew-symmetrized and summed once, on the MINI
    layout among ``layouts`` (or on one built for the call); a P1 layout
    gathers its data from the vertex-vertex slots of that sum
    (``_mini_gather``), since the MINI vertex functions are the barycentrics,
    and each of those slots sums the same element entries in the same order
    as a sum of the P1 layout's own would.  Slot (j, i) sums the negated
    entries of slot (i, j) in the same element order, so N = -N^T entry by
    entry.  The quadratic form of N vanishes; for
    pointwise divergence-free velocities with zero normal trace N coincides
    with the one-sided convection form C.
    """
    if isinstance(velocity, DiscreteField):
        kind = velocity.layout.kind
        vel = velocity.element_coeffs().reshape(len(ctx.areas), 2, -1)  # (ne, 2, nl)
        basis = ctx.basis_values(kind)
    else:
        kind, vel = "points", velocity.transpose(0, 2, 1)  # (ne, 2, nq)
        basis = np.eye(len(ctx.weights))  # the point table, contracted with nothing

    def build():
        # w_q phi_i(x_q) T[q, j, a] basis[q, m] with rows (a, m) and columns (i, j)
        vals, grads = ctx.weighted_values(VELOCITY_MINI), ctx.gradient_table(VELOCITY_MINI)
        w = np.einsum("qi,qja,qm->amij", vals, grads, basis)
        return w.reshape(-1, w.shape[2] * w.shape[3])

    v_grad = ctx.grad_bary @ vel
    half = v_grad.reshape(len(v_grad), -1) @ ctx.cached("skew", kind, build)
    half = (0.5 * ctx.areas[:, None] * half).reshape(-1, 4, 4)
    blocks = half - half.transpose(0, 2, 1)
    mini = next((lay for lay in layouts if lay.has_bubble), None)
    data = _square_data(blocks, mini or build_layout(layouts[0].mesh, VELOCITY_MINI))
    return [data if lay.has_bubble else np.tile(data[_mini_gather(lay)], lay.components)
            for lay in layouts]


def assemble_pressure_coupling(layout_u, layout_pi, ctx):
    """G with G[i, j] = (psi_j, div Phi_i) over velocity rows / pressure columns.

    The saddle system uses -(1/rho) G in the momentum block and G^T in the
    continuity block.
    """
    table = ctx.gradient_table(layout_u.kind)
    pvals = ctx.basis_values(layout_pi.kind)
    nl, npl = table.shape[1], pvals.shape[1]
    # (psi_j, d phi_i / dx_c) = sum_a grad lambda_a[c] Y[a, i, j]
    y = np.einsum("q,qia,qj->aij", ctx.weights, table, pvals).reshape(3, nl * npl)
    local = (ctx.grad_bary_t @ y).reshape(-1, 2, nl, npl)
    local *= ctx.areas[:, None, None, None]
    shape = (layout_u.n_dofs, layout_pi.n_dofs)
    plan = _block_plan(_component_dofs(layout_u), layout_pi.element_dofs[:, None], shape)
    return plan.matrix(local)


# ---------------------------------------------------------------------------
# load vectors


def _scatter_vector(local, layout):
    """Sum element vectors, (ne, comps, nl) or (ne, local_size), into a global vector."""
    return np.bincount(layout.element_dofs.ravel(), weights=local.ravel(), minlength=layout.n_dofs)


def assemble_load(layout, f, ctx):
    """(f, phi_i) for scalar layouts, (f, Phi_i) componentwise for vectors,
    for the values f, (ne, nq) or (ne, nq, comps), at the points of ``ctx``."""
    (ne, nq), comps = f.shape[:2], layout.components
    fv = np.moveaxis(f.reshape(ne, nq, comps), 2, 1)  # (ne, comps, nq)
    local = fv.reshape(ne * comps, nq) @ ctx.weighted_values(layout.kind)
    return _scatter_vector(local.reshape(ne, comps, -1) * ctx.areas[:, None, None], layout)


def assemble_div_load(layout, f, ctx):
    """(f, div Phi_i) on a vector layout for scalar values f (ne, nq)."""
    if layout.components != 2:
        raise ValueError("div load is defined on vector layouts")
    nl = layout.scalar_local_size
    table = ctx.cached("weighted_gradients_by_point", layout.kind, lambda: (
        ctx.weights[:, None, None] * ctx.gradient_table(layout.kind)).reshape(len(ctx.weights), -1))
    # integrate f against each w_q T[q, i, a] first, then d phi_i / dx_c per element
    f_t = (f @ table).reshape(-1, nl, 3)
    local = (f_t @ ctx.grad_bary) * ctx.areas[:, None, None]
    return _scatter_vector(local.transpose(0, 2, 1), layout)


def assemble_grad_load(layout, g, ctx):
    """(g, grad phi_i) for vector values g (ne, nq, 2) against a scalar
    layout's basis, or (G[c], grad phi_i) componentwise for gradient
    values G (ne, nq, 2, 2) on a vector layout."""
    (ne, nq), comps = g.shape[:2], layout.components
    flux = np.moveaxis(g.reshape(ne, nq, comps, 2), 2, 1)  # (ne, comps, nq, 2)
    f_grad = flux.reshape(ne, comps * nq, 2) @ ctx.grad_bary_t  # flux . grad lambda_a
    local = f_grad.reshape(ne * comps, nq * 3) @ ctx.weighted_gradient_table(layout.kind)
    return _scatter_vector(local.reshape(ne, comps, -1) * ctx.areas[:, None, None], layout)


# ---------------------------------------------------------------------------
# constraints


def integral_weight_vector(layout, ctx):
    """w with w_i = integral of basis function i (scalar layouts only)."""
    if layout.components != 1:
        raise ValueError("integral weights are defined for scalar layouts")
    return assemble_load(layout, np.ones(ctx.points.shape[:2]), ctx)


def apply_constraints(a, layout, weight_vector=None):
    """Eliminate constrained dofs and append the zero-mean multiplier row.

    Constrained rows/columns of the matrix ``a`` are replaced by the
    identity (``linsolve.eliminated``: symmetric elimination, value 0, on the
    pattern of ``a``, so zeroed entries stay stored), then, if the layout carries
    a mean constraint, one bordered row/column with the basis integral
    weights ``weight_vector`` (``integral_weight_vector``) is appended;
    without them such a layout raises ValueError.  Idempotent on layouts
    without a mean constraint.
    """
    if a.shape != (layout.n_dofs, layout.n_dofs):
        raise ValueError(
            f"form shape {a.shape} does not match layout dimension {layout.n_dofs}"
        )
    if len(layout.constrained_dofs):
        a = linsolve.eliminated(a, layout.constrained_dofs)
    if layout.mean_constraint:
        if weight_vector is None:
            raise ValueError("a mean-constrained layout needs its integral weight_vector")
        wc = sp.csr_matrix(weight_vector.reshape(-1, 1))
        a = sp.bmat([[a, wc], [wc.T, None]], format="csr")
    return a


def constrain_rhs(b, layout):
    """Zero constrained entries of a load vector; append the multiplier zero."""
    b = np.array(b, dtype=float)
    b[layout.constrained_dofs] = 0.0
    if layout.mean_constraint:
        b = np.append(b, 0.0)
    return b
