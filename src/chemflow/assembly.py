"""Assembly of all bilinear/trilinear forms and load vectors of the scheme.

Element contributions are computed for every triangle at once.  Each
kernel contracts its integrand over the quadrature points with small
reference tables (basis values, and the gradient table that writes every
basis gradient as a combination of the constant barycentric gradients) in
one matrix product, and applies the per-element chain rule with the
barycentric gradients in another; no (ne, nq, nl, 2) gradient array is
formed.  Matrices are summed through a ``linsolve.ScatterPlan`` kept on
their layout, so each assembly only sums values; a block that is the same
on every component is summed once and repeated.  Only the mesh's P1 plan
(``Mesh.p1_plan``) is sorted.  Every other plan is derived from it by index
arithmetic, with the pattern and slots a sort of its entry list would find,
so every sum is the same bit for bit: per-component copies (sigma, the
velocity), the scalar MINI plan (a
vertex row is the P1 row followed by the bubbles of the elements at the
vertex, in element order; a bubble row its three vertices sorted, then the
bubble), and the velocity x pressure plan, the velocity's cut to its vertex
columns (``pressure_plan``).  The sigma div/rot form, which couples the two
components, is the data of its four component blocks on the P1 plan.  Load
vectors are summed with one ``np.bincount``.  Every form integrates on the rule of
the ``AssemblyContext`` its caller gives it: degree 2 (``P1_DEGREE``) is
exact for pure-P1 mass and stiffness, degree 8 (``FULL_DEGREE``) for every
MINI and lagged-coefficient polynomial integrand (the velocity trilinear
form reaches total degree 8).

One MINI element kernel gives the skew transport of every layout of a step
as data on the layout's plan.  It takes the velocity as a ``DiscreteField``,
whose element coefficients it contracts with a reference table.  The loads
take their coefficient as values at the quadrature points of the context
they are given: ``DiscreteField.values`` for finite element functions,
``at_points`` for closed-form data.  A product of finite element fields
needs no point values: ``AssemblyContext.moments`` holds the integrals of
products of basis functions on the context's rule, to contract with the
fields' element coefficients (``Stepper.lagged_forms``).
"""

import numpy as np

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
        # (lam_0 v_0 + lam_1 v_1) + lam_2 v_2, each term broadcast over the
        # elements as (nq, 2, ne), then laid out (ne, nq, 2)
        verts = mesh.nodes.T[:, mesh.triangles.T]  # (2, 3, ne)
        lam = self.lam.T[:, :, None, None]
        points = (lam[0] * verts[:, 0] + lam[1] * verts[:, 1]) + lam[2] * verts[:, 2]
        self.points = np.ascontiguousarray(points.transpose(2, 0, 1))
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


def _vertex_bubbles(mesh):
    """Where the rows and slots of ``mesh.p1_plan`` lie in the scalar MINI
    pattern of the mesh: (before, gather), ``before[v]`` the bubble columns in
    the vertex rows ahead of row v, (n_nodes + 1,), and ``gather`` the MINI
    slot of each P1 slot.  A MINI vertex row holds its P1 row, then one bubble
    column per element at the vertex, and the vertex rows come first."""
    p1 = mesh.p1_plan
    before = np.zeros(mesh.n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(mesh.triangles.ravel(), minlength=mesh.n_nodes), out=before[1:])
    return before, np.arange(p1.nnz) + np.repeat(before[:-1], np.diff(p1.indptr))


def _mini_plan(mesh):
    """The scalar MINI plan of the mesh, derived from ``mesh.p1_plan``: the
    (ne, 4, 4) element blocks of (three vertices, bubble), with the pattern
    and slots the sort of ``linsolve.ScatterPlan`` finds.  A vertex row is
    the P1 row followed by the bubbles of the elements at the vertex, in
    element order; after every vertex row, the row of the bubble of element
    e holds its three vertices sorted, then the bubble itself."""
    p1, tri = mesh.p1_plan, mesh.triangles
    nn, ne, flat = mesh.n_nodes, mesh.n_triangles, tri.ravel()
    before, gather = _vertex_bubbles(mesh)
    ends = p1.indptr[1:].astype(np.int64)  # of the P1 rows, where the bubbles go
    order = np.argsort(flat, kind="stable")  # the elements at each vertex, in order
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    vertex_rows = np.empty(p1.nnz + len(order), dtype=np.int64)
    vertex_rows[gather] = p1.indices
    vertex_rows[ends[flat[order]] + np.arange(len(order))] = nn + order // 3
    starts = len(vertex_rows) + 4 * np.arange(ne)  # of the bubble rows
    slots = np.empty((ne, 4, 4), dtype=np.int64)
    slots[:, :3, :3] = gather[p1.slots.reshape(ne, 3, 3)]
    slots[:, :3, 3] = (ends[flat] + at).reshape(ne, 3)
    slots[:, 3, :3] = starts[:, None] + (tri[:, None, :] < tri[:, :, None]).sum(axis=2)
    slots[:, 3, 3] = starts + 3
    bubble_rows = np.column_stack([np.sort(tri, axis=1), nn + np.arange(ne)])
    return linsolve.ScatterPlan.from_pattern(
        (nn + ne, nn + ne),
        np.concatenate([p1.indptr + before, starts + 4]),
        np.concatenate([vertex_rows, bubble_rows.ravel()]),
        slots.ravel(),
    )


def _vertex_columns(layout):
    """The plan of one component's element blocks on the layout, (ne, nl, nl),
    cut to the columns of the three vertex functions, (ne, nl, 3): the
    entries in columns below n_nodes, each kept in its row and order."""
    scalar, mesh, nl = _scalar_plan(layout), layout.mesh, layout.scalar_local_size
    kept = scalar.indices < mesh.n_nodes
    moved = np.cumsum(kept) - 1  # the slot of each kept entry among the kept
    return linsolve.ScatterPlan.from_pattern(
        (scalar.shape[0], mesh.n_nodes),
        np.append(0, np.cumsum(kept))[scalar.indptr],
        scalar.indices[kept],
        moved[scalar.slots.reshape(-1, nl, nl)[:, :, :3]].ravel(),
    )


def _component_plan(scalar, layout, col_shift):
    """The plan of the layout's components, each a copy of the element blocks
    of the plan ``scalar``, listed (ne, comps, ...): copy c on rows
    c * n + its rows and columns c * ``col_shift`` + its columns, n the rows
    of ``scalar``."""
    k, ne = layout.components, layout.mesh.n_triangles
    if k == 1:
        return scalar
    copies = np.arange(k)[:, None]
    slots = np.empty((ne, k, len(scalar.slots) // ne), dtype=np.int64)
    for c in range(k):
        slots[:, c] = scalar.slots.reshape(ne, -1) + c * scalar.nnz
    return linsolve.ScatterPlan.from_pattern(
        (k * scalar.shape[0], scalar.shape[1] + (k - 1) * col_shift),
        np.append((scalar.indptr[:-1].astype(np.int64) + scalar.nnz * copies).ravel(), k * scalar.nnz),
        (scalar.indices.astype(np.int64) + col_shift * copies).ravel(),
        slots.ravel(),
    )


def _scalar_plan(layout):
    """Plan of one component's element blocks on the layout, kept on it: the
    mesh's P1 plan, or the square MINI plan derived from it."""
    if "scalar" not in layout.plans:
        mesh = layout.mesh
        layout.plans["scalar"] = _mini_plan(mesh) if layout.has_bubble else mesh.p1_plan
    return layout.plans["scalar"]


def square_plan(layout):
    """Plan of square element blocks on a layout, one block per component,
    derived from its mesh's P1 plan once and kept on the layout."""
    if "square" not in layout.plans:
        layout.plans["square"] = _component_plan(_scalar_plan(layout), layout, layout.n_scalar)
    return layout.plans["square"]


def pressure_plan(layout):
    """Plan of the element blocks of a vector layout's components against the
    P1 pressure functions, (ne, comps, nl, 3), derived from its mesh's P1 plan
    once and kept on the layout: the pressure functions are the barycentrics,
    so one component's plan is the layout's own cut to its vertex columns."""
    if "pressure" not in layout.plans:
        layout.plans["pressure"] = _component_plan(_vertex_columns(layout), layout, 0)
    return layout.plans["pressure"]


def _square_data(local, layout):
    """Data on ``square_plan(layout)`` of the same (ne, nl, nl) block on every
    component: each component's slots are the first's, those of the layout's
    scalar plan, shifted, so the first is summed and repeated."""
    scalar = _scalar_plan(layout)
    data = np.bincount(scalar.slots, weights=local.ravel(), minlength=scalar.nnz)
    return np.tile(data, layout.components)


def _mini_gather(layout):
    """Index, in the data on the MINI layout of the same mesh, of the first
    component's slots of ``square_plan(layout)``, kept on the layout.  The
    layout, without bubbles, has the barycentrics, the MINI vertex functions,
    as its local functions, so its scalar plan is the mesh's P1 plan, whose
    slots lie in the MINI pattern at ``_vertex_bubbles``' gather."""
    if "mini" not in layout.plans:
        layout.plans["mini"] = _vertex_bubbles(layout.mesh)[1]
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
    """coeff * [(div s, div t) + (rot s, rot t)] on the sigma space, as its
    four component blocks: (2, 2, nnz), block [a, b] the data on the mesh's
    P1 plan of the rows of component a against the columns of component b.

    The integrands are elementwise constant for P1 vectors, so the element
    integrals are exact without quadrature: only the geometry of ``ctx`` is read.
    """
    if layout.kind != VECTOR_P1_SIGMA:
        raise ValueError("divrot form is defined on the sigma space")
    div, rot = _sigma_div_rot(ctx.grad_bary)
    local = np.einsum("ea,eb->eab", div, div) + np.einsum("ea,eb->eab", rot, rot)
    local *= coeff * ctx.areas[:, None, None]
    local = local.reshape(-1, 2, 3, 2, 3)  # [e, a, i, b, j]: component a's function i, b's j
    return np.array([[layout.mesh.p1_plan.data(local[:, a, :, b]) for b in range(2)] for a in range(2)])


def assemble_skew_data(layouts, velocity, ctx):
    """The skew transport N = (C - C^T)/2, C_ij = ((v . grad) phi_j, phi_i),
    componentwise on vector layouts, on each of ``layouts`` for the velocity
    v, a vector ``DiscreteField``, as data on the layout's plan.

    grad lambda_a . v_m, for the field's element coefficients v_m, is
    contracted over (a, m) in one product with the table
    w_q phi_i(x_q) T[q, j, a] psi_m(x_q), psi_m the field's basis.  The MINI
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
    kind = velocity.layout.kind
    vel = velocity.element_coeffs().reshape(len(ctx.areas), 2, -1)  # (ne, 2, nl)

    def build():
        # w_q phi_i(x_q) T[q, j, a] psi_m(x_q) with rows (a, m) and columns (i, j)
        vals, grads = ctx.weighted_values(VELOCITY_MINI), ctx.gradient_table(VELOCITY_MINI)
        w = np.einsum("qi,qja,qm->amij", vals, grads, ctx.basis_values(kind))
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
    return pressure_plan(layout_u).matrix(local)


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


def constrain_rhs(b, layout):
    """Zero constrained entries of a load vector; append the multiplier zero."""
    b = np.array(b, dtype=float)
    b[layout.constrained_dofs] = 0.0
    if layout.mean_constraint:
        b = np.append(b, 0.0)
    return b
