"""Element-by-element geometry, basis evaluation and quadrature, one point
at a time, and the manufactured fields and sources composed field by field.

The tests check the triangles of a rectangle mesh against a loop over its
cells, and the vectorized kernels of the package against these scalar
versions, which share no code path with them beyond the reference
basis tables of ``chemflow.spaces``; and the table-built ``test2`` fields
and sources of ``chemflow.manufactured`` against the field-by-field
composition they replace, its shared-table sources against one table per
call, and its error norms against one sum per norm;
the invariant gates of a run that stopped, recomputed from its records;
the eliminated and bordered systems, the constrained dofs made identity
rows and columns on the operator's pattern, the reference for the kept
unknowns the package factors;
the row-by-row VTK writer; the componentwise backward error of a solve,
on the dense matrix; the elliptic and Stokes initial projections, each
one solved whatever its data, the reference for the skipped projections
of zero data; the skew transport of one layout at a time,
skew-symmetrized by a global transpose of the summed one-sided form,
against which the one MINI element kernel of
``chemflow.assembly.assemble_skew_data`` is checked; the div/rot form
summed on one plan coupling the sigma components, the reference for its
component blocks; one exactly solved system through one LU; and a step's lagged
forms built from point values, their transports by the point table of
the transport kernel, the reference for ``Stepper.lagged_forms``, which
builds them from element coefficients; the divergence load that
rebuilt its table on every call; the transport of each layout summed by a
bincount of its own, the reference for the P1 data gathered from the MINI
sum; the kept LUs of the transport-free operators, the reference for
the LUs of the first step's operators; the uncondensed (u, pi) solve
through one LU of the whole bordered matrix, the reference for the
condensed one; the load vectors summed by ``np.add.at``, the reference for
the bincount scatter; the diagnostics CSV over the union of the
records' keys, the reference for the writer whose columns are the record
schema; and the scatter plans sorted from their entry lists, and a
stepper's matrices summed through them, the reference for the plans
derived from a mesh's P1 plan.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemflow import assembly as asm
from chemflow import linsolve
from chemflow import manufactured as mf
from chemflow.linsolve import entry_rows
from chemflow.mesh import GeometryError
from chemflow.scheme import DIVERGENCE_TOL, MASS_DRIFT_TOL, StepForcing, Stepper
from chemflow.spaces import VELOCITY_MINI, build_layout
from chemflow.spaces import scalar_basis_gradient_table, scalar_basis_values


def rect_triangles_by_loop(kx, ky):
    """Triangles of ``build_rect_mesh`` for a (kx x ky)-cell grid, one cell
    at a time: the reference for its index arithmetic."""
    triangles = np.empty((2 * kx * ky, 3), dtype=np.int64)
    t = 0
    for j in range(ky):
        for i in range(kx):
            a, b = j * (kx + 1) + i, j * (kx + 1) + i + 1
            c, d = (j + 1) * (kx + 1) + i + 1, (j + 1) * (kx + 1) + i
            triangles[t], triangles[t + 1] = (a, b, c), (a, c, d)
            t += 2
    return triangles


@dataclass(frozen=True)
class ElementGeometry:
    """Affine geometry of one triangle.

    ``grad_bary[i]`` is the (constant) physical gradient of the i-th
    barycentric coordinate; the three gradients sum to zero.
    """

    vertices: np.ndarray  # (3, 2)
    area: float
    grad_bary: np.ndarray  # (3, 2)


def element_geometry(mesh, elem):
    """Area and barycentric-coordinate gradients of one triangle.

    Raises
    ------
    GeometryError
        If the triangle is degenerate (collinear vertices).
    """
    verts = mesh.nodes[mesh.triangles[elem]]
    v0, v1, v2 = verts
    d1 = v1 - v0
    d2 = v2 - v0
    twice_area = d1[0] * d2[1] - d1[1] * d2[0]
    if twice_area <= 0.0:
        raise GeometryError(f"triangle {elem} has non-positive signed area {0.5 * twice_area}")
    # grad(lambda_i) = rot90(edge opposite to vertex i) / (2A)
    grads = np.empty((3, 2))
    for i in range(3):
        a = verts[(i + 1) % 3]
        b = verts[(i + 2) % 3]
        grads[i] = (a[1] - b[1], b[0] - a[0])
    grads /= twice_area
    return ElementGeometry(vertices=verts, area=0.5 * twice_area, grad_bary=grads)


@dataclass(frozen=True)
class BasisValue:
    value: float
    gradient: np.ndarray


def eval_basis(kind, geom, bary):
    """Scalar sub-basis values and physical gradients at one point.

    Returns a list of BasisValue, one per local scalar basis function
    (3 for P1 kinds, 4 for MINI with the bubble last).  Vector spaces use
    the same scalar sub-basis for each component.
    """
    bary = np.asarray(bary, dtype=float)
    vals = scalar_basis_values(kind, bary[None, :])[0]
    grads = scalar_basis_gradient_table(kind, bary[None, :])[0] @ geom.grad_bary
    return [BasisValue(value=float(v), gradient=g.copy()) for v, g in zip(vals, grads)]


def integrate(rule, geom, f):
    """Approximate the integral of ``f(x, y)`` over one element by ``rule``."""
    vals = np.array([f(x, y) for x, y in rule.points @ geom.vertices], dtype=float)
    return geom.area * float(rule.weights @ vals)


# ---------------------------------------------------------------------------
# manufactured solution, field by field

TWO_PI = 2.0 * math.pi
FOUR_PI2 = TWO_PI**2
EIGHT_PI3 = TWO_PI**3
ETA_MEAN = mf.ETA_MEAN


def _stack(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def field_by_field_solution():
    """The test2 exact solution, one closed form per field; each evaluates
    its own exponential and trigonometric terms."""

    def eta(x, y, t):
        return np.exp(-t) * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y)) + ETA_MEAN

    def eta_t(x, y, t):
        return -np.exp(-t) * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))

    def grad_eta(x, y, t):
        e = np.exp(-t)
        return _stack(-TWO_PI * e * np.sin(TWO_PI * x), -TWO_PI * e * np.sin(TWO_PI * y))

    def lap_eta(x, y, t):
        return -FOUR_PI2 * np.exp(-t) * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))

    def c(x, y, t):
        return np.exp(-t) * (
            np.sin(TWO_PI * y) + np.cos(TWO_PI * x) - TWO_PI * y + 9.0
        )

    def c_t(x, y, t):
        return -c(x, y, t)

    def sigma(x, y, t):
        e = np.exp(-t)
        return _stack(
            -TWO_PI * e * np.sin(TWO_PI * x), TWO_PI * e * (np.cos(TWO_PI * y) - 1.0)
        )

    def grad_c(x, y, t):
        e = np.exp(-t)
        return _stack(
            e * (-TWO_PI * np.sin(TWO_PI * x)),
            e * (TWO_PI * np.cos(TWO_PI * y) - TWO_PI),
        )

    def sigma_t(x, y, t):
        return -sigma(x, y, t)

    def grad_sigma(x, y, t):
        e = np.exp(-t)
        zero = np.zeros(np.shape(x))
        row1 = _stack(-FOUR_PI2 * e * np.cos(TWO_PI * x), zero)
        row2 = _stack(zero, -FOUR_PI2 * e * np.sin(TWO_PI * y))
        return np.stack([row1, row2], axis=-2)

    def div_sigma(x, y, t):
        return -FOUR_PI2 * np.exp(-t) * (np.cos(TWO_PI * x) + np.sin(TWO_PI * y))

    def grad_div_sigma(x, y, t):
        e = np.exp(-t)
        return _stack(
            EIGHT_PI3 * e * np.sin(TWO_PI * x), -EIGHT_PI3 * e * np.cos(TWO_PI * y)
        )

    def u(x, y, t):
        e = np.exp(-t)
        return _stack(
            e * np.sin(TWO_PI * y) * (np.cos(TWO_PI * x) - 1.0),
            e * np.sin(TWO_PI * x) * (1.0 - np.cos(TWO_PI * y)),
        )

    def u_t(x, y, t):
        return -u(x, y, t)

    def grad_u(x, y, t):
        e = np.exp(-t)
        sx, cx = np.sin(TWO_PI * x), np.cos(TWO_PI * x)
        sy, cy = np.sin(TWO_PI * y), np.cos(TWO_PI * y)
        row1 = _stack(-TWO_PI * e * sx * sy, TWO_PI * e * cy * (cx - 1.0))
        row2 = _stack(TWO_PI * e * cx * (1.0 - cy), TWO_PI * e * sx * sy)
        return np.stack([row1, row2], axis=-2)

    def lap_u(x, y, t):
        e = np.exp(-t)
        return _stack(
            -FOUR_PI2 * e * np.sin(TWO_PI * y) * (2.0 * np.cos(TWO_PI * x) - 1.0),
            FOUR_PI2 * e * np.sin(TWO_PI * x) * (2.0 * np.cos(TWO_PI * y) - 1.0),
        )

    def div_u(x, y, t):
        return np.zeros(np.shape(x))

    def pi(x, y, t):
        return np.exp(-t) * (np.cos(TWO_PI * x) + np.sin(TWO_PI * y))

    def grad_pi(x, y, t):
        e = np.exp(-t)
        return _stack(-TWO_PI * e * np.sin(TWO_PI * x), TWO_PI * e * np.cos(TWO_PI * y))

    return mf.ExactSolution(
        eta=eta, eta_t=eta_t, grad_eta=grad_eta, lap_eta=lap_eta,
        c=c, c_t=c_t, grad_c=grad_c,
        sigma=sigma, sigma_t=sigma_t, grad_sigma=grad_sigma,
        div_sigma=div_sigma, grad_div_sigma=grad_div_sigma,
        u=u, u_t=u_t, grad_u=grad_u, lap_u=lap_u, div_u=div_u,
        pi=pi, grad_pi=grad_pi,
    )


def field_by_field_forcing(sol):
    """Source terms that make the exact solution solve the forced system.

    Residuals of the strong equations at the exact solution with unit
    coefficients and zero gravity; the flux source is the gradient of the
    concentration source.
    """

    def g_n(x, y, t):
        ge = sol.grad_eta(x, y, t)
        uu = sol.u(x, y, t)
        sg = sol.sigma(x, y, t)
        transport = uu[..., 0] * ge[..., 0] + uu[..., 1] * ge[..., 1]
        chemo = ge[..., 0] * sg[..., 0] + ge[..., 1] * sg[..., 1]
        chemo += sol.eta(x, y, t) * sol.div_sigma(x, y, t)
        return sol.eta_t(x, y, t) + transport - sol.lap_eta(x, y, t) + chemo

    def g_c(x, y, t):
        uu = sol.u(x, y, t)
        sg = sol.sigma(x, y, t)
        transport = uu[..., 0] * sg[..., 0] + uu[..., 1] * sg[..., 1]
        return (
            sol.c_t(x, y, t)
            + transport
            - sol.div_sigma(x, y, t)
            + sol.eta(x, y, t) * sol.c(x, y, t)
        )

    def g_sigma(x, y, t):
        # gradient of g_c, using grad(c_t) = -sigma for this solution
        uu = sol.u(x, y, t)
        gu = sol.grad_u(x, y, t)
        sg = sol.sigma(x, y, t)
        gs = sol.grad_sigma(x, y, t)
        gds = sol.grad_div_sigma(x, y, t)
        ge = sol.grad_eta(x, y, t)
        cc = sol.c(x, y, t)
        ee = sol.eta(x, y, t)
        comps = []
        for d in range(2):
            transport_d = (
                gu[..., 0, d] * sg[..., 0]
                + uu[..., 0] * gs[..., 0, d]
                + gu[..., 1, d] * sg[..., 1]
                + uu[..., 1] * gs[..., 1, d]
            )
            comps.append(
                -sg[..., d] + transport_d - gds[..., d] + ge[..., d] * cc + ee * sg[..., d]
            )
        return _stack(*comps)

    def g_u(x, y, t):
        uu = sol.u(x, y, t)
        gu = sol.grad_u(x, y, t)
        lap = sol.lap_u(x, y, t)
        gp = sol.grad_pi(x, y, t)
        ut = sol.u_t(x, y, t)
        comps = []
        for d in range(2):
            advect = uu[..., 0] * gu[..., d, 0] + uu[..., 1] * gu[..., d, 1]
            comps.append(ut[..., d] + advect - lap[..., d] + gp[..., d])
        return _stack(*comps)

    return StepForcing(g_n=g_n, g_c=g_c, g_sigma=g_sigma, g_u=g_u)


SOURCES = ("g_n", "g_c", "g_sigma", "g_u")


def per_call_forcing():
    """The test2 sources, each call building its own table and keeping
    nothing: the reference for the shared table of
    ``chemflow.manufactured.test2_forcing``."""

    def source(name):
        formula = vars(mf._Test2)[name].fn

        def fn(x, y, t):
            return mf._array(formula(mf._Test2(x, y, t)))

        return fn

    return StepForcing(**{name: source(name) for name in SOURCES})


def level_errors_by_sums(stepper, state, sol):
    """Squared L2 and H1 errors of eta, c, u1, u2 at state.t, each exact
    field evaluated by its own callable and each norm summed on its own:
    the reference for the one-contraction reduction of
    ``chemflow.manufactured.error_norms``."""
    ctx = stepper.ctx
    x, y, t = ctx.points[..., 0], ctx.points[..., 1], state.t
    scale = ctx.weights[None, :] * ctx.areas[:, None]

    def norms(err_val, err_grad):
        return float((scale * err_val**2).sum()), float((scale * (err_grad**2).sum(axis=-1)).sum())

    fn, fc, fu = stepper.field_n(state), stepper.field_c(state), stepper.field_u(state)
    uv, ug, uex, gex = fu.values(ctx), fu.gradients(ctx), sol.u(x, y, t), sol.grad_u(x, y, t)
    return {
        "eta": norms(sol.eta(x, y, t) - (fn.values(ctx) + stepper.params.alpha0),
                     sol.grad_eta(x, y, t) - fn.gradients(ctx)),
        "c": norms(sol.c(x, y, t) - fc.values(ctx), sol.grad_c(x, y, t) - fc.gradients(ctx)),
        "u1": norms(uex[..., 0] - uv[..., 0], gex[..., 0, :] - ug[..., 0, :]),
        "u2": norms(uex[..., 1] - uv[..., 1], gex[..., 1, :] - ug[..., 1, :]),
    }


def stopped_step(stepper, error, levels):
    """The step k at which ``stepper.run`` raised the InvariantError ``error``.

    ``levels`` are the (state, record) pairs the run yielded before it
    raised.  Asserts that the message names step k, that the records are
    0..k, and that every record before k keeps the relative mass drift
    (against w.|eta0|) within MASS_DRIFT_TOL and the divergence residual
    within DIVERGENCE_TOL, while record k breaks one of them.
    """
    records = [rec for _state, rec in levels]
    k = len(levels) - 1
    assert str(error).startswith(f"step {k}: ")
    assert [rec["m"] for rec in records] == list(range(k + 1))
    scale = stepper.w_p1 @ np.abs(levels[0][0].n + stepper.params.alpha0)
    mass0 = records[0]["mass"]
    within = [
        abs(rec["mass"] - mass0) / scale <= MASS_DRIFT_TOL and rec["div_residual"] <= DIVERGENCE_TOL
        for rec in records
    ]
    assert within == [True] * k + [False]
    return k


def componentwise_backward_error(a, x, b):
    """max_i |b - A x|_i / (|A||x| + |b|)_i of x (Oettli and Prager), with the
    sparse or dense matrix ``a`` taken dense; a row whose denominator is 0
    counts 0 if its residual is 0, else inf."""
    a = np.asarray(a.toarray() if hasattr(a, "toarray") else a, dtype=float)
    r = np.abs(b - a @ x)
    denominator = np.abs(a) @ np.abs(x) + np.abs(b)
    ratios = np.divide(r, denominator, out=np.where(r > 0, np.inf, 0.0), where=denominator > 0)
    return float(ratios.max(initial=0.0))


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


def apply_constraints(a, layout, weight_vector=None):
    """Eliminate constrained dofs and append the zero-mean multiplier row.

    Constrained rows/columns of the matrix ``a`` are replaced by the
    identity (``eliminated``: symmetric elimination, value 0, on the
    pattern of ``a``, so zeroed entries stay stored), then, if the layout carries
    a mean constraint, one bordered row/column with the basis integral
    weights ``weight_vector`` (``asm.integral_weight_vector``) is appended;
    without them such a layout raises ValueError.  Idempotent on layouts
    without a mean constraint.  The reference for the eliminated systems,
    whose kept unknowns ``Stepper`` factors without forming them.
    """
    if a.shape != (layout.n_dofs, layout.n_dofs):
        raise ValueError(
            f"form shape {a.shape} does not match layout dimension {layout.n_dofs}"
        )
    if len(layout.constrained_dofs):
        a = eliminated(a, layout.constrained_dofs)
    if layout.mean_constraint:
        if weight_vector is None:
            raise ValueError("a mean-constrained layout needs its integral weight_vector")
        wc = sp.csr_matrix(weight_vector.reshape(-1, 1))
        a = sp.bmat([[a, wc], [wc.T, None]], format="csr")
    return a


def projector(n, pinned):
    """The diagonal P zeroing the ``pinned`` dofs, and diag(pinned)."""
    keep = np.ones(n)
    keep[pinned] = 0.0
    return sp.diags(keep), sp.diags(1.0 - keep)


def bordered_saddle_matrix(st, s_matrix):
    """The uncondensed (u, pi) matrix: pinned velocity dofs made identity
    rows and columns by P s P + diag(pinned), the zero-mean pressure
    constraint bordered by a multiplier row."""
    p, pinned = projector(st.layout_u.n_dofs, st.layout_u.constrained_dofs)
    g_c = p @ st.G
    w = sp.csr_matrix(st.w_p1.reshape(-1, 1))
    return sp.bmat(
        [[p @ s_matrix @ p + pinned, -g_c / st.params.rho, None], [g_c.T, None, w],
         [None, w.T, None]],
        format="csr",
    )


def bordered_saddle_reference(st, s_matrix, rhs_u, rhs_pi):
    """The uncondensed (u, pi) solve: one LU of ``bordered_saddle_matrix``,
    refined against that system until the correction stops shrinking."""
    nu, npi = st.layout_u.n_dofs, st.layout_pi.n_dofs
    big = bordered_saddle_matrix(st, s_matrix)
    rhs_u = np.array(rhs_u, dtype=float)
    rhs_u[st.layout_u.constrained_dofs] = 0.0
    lu, b = spla.splu(big.tocsc()), np.concatenate([rhs_u, rhs_pi, [0.0]])
    x, last = lu.solve(b), math.inf
    while True:
        dx = lu.solve(b - big @ x)
        size = np.linalg.norm(dx)
        if not size < last:
            return x[:nu], x[nu : nu + npi]
        x, last = x + dx, size


def sorted_pattern(n, rows, cols, take, kept):
    """(indptr, indices, take) of the matrix of the entries (rows, cols),
    each holding source entry ``take``, of the n x n system, cut to the
    unknowns ``kept`` in that order, by one sort of the entries: the
    reference for the patterns ``linsolve.Selection`` slices."""
    rank = np.full(n, -1)
    rank[kept] = np.arange(len(kept))
    rows, cols = rank[rows], rank[cols]
    inside = (rows >= 0) & (cols >= 0)
    rows, cols, take = rows[inside], cols[inside], take[inside]
    by = np.lexsort((cols, rows))
    return np.searchsorted(rows[by], np.arange(len(kept) + 1)), cols[by], take[by]


def pivoting_solve(a, b):
    """x of a x = b through SuperLU's default LU of the sparse matrix ``a``
    (COLAMD ordering, partial pivoting), refined against ``a`` until the
    correction stops shrinking: the path the package's unpivoted LUs in the
    mesh's node order replace."""
    lu, b = spla.splu(sp.csc_matrix(a)), np.asarray(b, dtype=float)
    x, last = lu.solve(b), math.inf
    while True:
        dx = lu.solve(b - a @ x)
        size = np.linalg.norm(dx)
        if not size < last:
            return x
        x, last = x + dx, size


def solved_projections(stepper, data):
    """(n0, c0, sigma0, u0, pi0) of ``stepper``'s elliptic and Stokes
    projections of ``data``, each one solved whatever its data: n, c and
    sigma through COLAMD LUs with partial pivoting (``pivoting_solve``),
    (u, pi) through one LU of the uncondensed bordered Stokes matrix of
    D_u K_u (``bordered_saddle_reference``), pi divided by rho.  The
    reference for the zero-data rule, the unpivoted LUs and the condensed
    Stokes solve of ``Stepper.init_state``."""
    st, p, ctx = stepper, stepper.params, stepper.ctx

    def load(kind, layout, field):
        return getattr(asm, f"assemble_{kind}")(layout, asm.at_points(field, ctx), ctx)

    rhs_n = asm.constrain_rhs(load("grad_load", st.layout_n, data.grad_eta0), st.layout_n)
    a_n = apply_constraints(st.K, st.layout_n, weight_vector=st.w_p1)
    n0 = pivoting_solve(a_n, rhs_n)[: st.layout_n.n_dofs]
    rhs_c = load("grad_load", st.layout_c, data.grad_c0) + load("load", st.layout_c, data.c0)
    c0 = pivoting_solve(st.K + st.M, rhs_c)
    rhs_s = (load("div_load", st.layout_sigma, data.div_sigma0)
             + load("load", st.layout_sigma, data.grad_c0))  # the initial flux is grad c0
    a_s = apply_constraints(divrot_matrix(st.mesh, st.divrot) * (1.0 / p.D_c) + st.M_sigma, st.layout_sigma)
    sigma0 = pivoting_solve(a_s, asm.constrain_rhs(rhs_s, st.layout_sigma))
    rhs_u = p.D_u * load("grad_load", st.layout_u, data.grad_u0)
    if data.pi0 is not None:
        rhs_u -= load("div_load", st.layout_u, data.pi0)
    rhs_pi = load("load", st.layout_pi, data.div_u0)
    u0, pi0 = bordered_saddle_reference(st, st.K_u * p.D_u, rhs_u, rhs_pi)
    return n0, c0, sigma0, u0, pi0 / p.rho


_CSV_LEAD = ("m", "t", "mass", "div_residual")


def write_diagnostics_csv_by_union(diagnostics, path):
    """The diagnostics CSV whose columns are the lead keys, then every other
    key of any record sorted, a missing key an empty cell: the reference for
    the bytes of ``chemflow.io_cli.write_diagnostics_csv``, whose columns are
    ``scheme.RECORD_KEYS``.  It formats every value it is given, so a caller
    passes each record without its None entries: the initial record then
    lacks its solver keys, as every run yielded it before they were None."""
    keys = [*_CSV_LEAD, *sorted({k for rec in diagnostics for k in rec} - set(_CSV_LEAD))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(keys) + "\n")
        for rec in diagnostics:
            cells = (rec.get(k, "") for k in keys)
            fh.write(",".join(v if isinstance(v, str) else f"{v:.10g}" for v in cells) + "\n")


def write_vtk_row_by_row(snapshot, path):
    """The legacy ASCII VTK writer, one formatted write per row: the reference
    for the bytes of ``chemflow.io_cli.write_vtk``."""
    mesh = snapshot.mesh
    nn, ne = mesh.n_nodes, mesh.n_triangles
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"chemotaxis-fluid snapshot t={snapshot.time:.9g}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nn} double\n")
        for px, py in mesh.nodes:
            fh.write(f"{px:.9g} {py:.9g} 0\n")
        fh.write(f"CELLS {ne} {4 * ne}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {ne}\n")
        for _ in range(ne):
            fh.write("5\n")
        fh.write(f"POINT_DATA {nn}\n")
        for name, arr in (("eta", snapshot.eta), ("c", snapshot.c), ("pressure", snapshot.pressure)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in arr:
                fh.write(f"{v:.9g}\n")
        for name, arr in (("sigma", snapshot.sigma), ("velocity", snapshot.velocity)):
            fh.write(f"VECTORS {name} double\n")
            for vx, vy in arr:
                fh.write(f"{vx:.9g} {vy:.9g} 0\n")


# ---------------------------------------------------------------------------
# the skew transport, one layout at a time


def transpose_slots(plan):
    """Slot of entry (j, i) for each slot (i, j) of a structurally symmetric
    square scatter plan."""
    n = plan.shape[0]
    rows, cols = entry_rows(plan), plan.indices.astype(np.int64)
    keys, t_keys = rows * n + cols, cols * n + rows
    perm = np.searchsorted(keys, t_keys)
    assert plan.shape == (n, n) and np.array_equal(keys[np.minimum(perm, plan.nnz - 1)], t_keys)
    return perm


def skew_by_global_transpose(layout, velocity, ctx):
    """N = (C - C^T)/2 as a CSR matrix on the layout's scatter plan: the
    one-sided form C_ij = ((v . grad) phi_j, phi_i) from the layout's own
    basis table and the velocity's values at the points (a ``DiscreteField``
    is evaluated there), summed, then skew-symmetrized by a global gather of
    the transposed slots."""
    if isinstance(velocity, asm.DiscreteField):
        velocity = velocity.values(ctx)
    kind = layout.kind
    w = np.einsum("qi,qja->qaij", ctx.weighted_values(kind), ctx.gradient_table(kind))
    v_grad = velocity @ ctx.grad_bary_t
    local = v_grad.reshape(len(v_grad), -1) @ w.reshape(-1, w.shape[2] * w.shape[3])
    local *= ctx.areas[:, None]
    ne, comps, nl = len(local), layout.components, layout.scalar_local_size
    dofs = layout.element_dofs.reshape(ne, comps, nl)
    plan = sorted_block_plan(dofs, dofs, (layout.n_dofs, layout.n_dofs))  # the layout's pattern
    c = plan.data(np.broadcast_to(local.reshape(ne, 1, nl, nl), (ne, comps, nl, nl)))
    return plan.csr(0.5 * (c - c[transpose_slots(plan)]))


def sorted_block_plan(row_dofs, col_dofs, shape):
    """``linsolve.ScatterPlan`` of k element blocks, sorted from their entry
    list: ``row_dofs`` (ne, k, nr) and ``col_dofs`` (ne, k or 1, nc) are the
    global dofs of each block, whose entries are listed in (ne, k, nr, nc)
    order.  The reference for the plans assembly derives from the mesh's P1
    plan."""
    full = row_dofs.shape + col_dofs.shape[-1:]
    rows = np.broadcast_to(row_dofs[..., None], full)
    cols = np.broadcast_to(col_dofs[..., None, :], full)
    return linsolve.ScatterPlan(shape, rows, cols)


def recorded_sorts(monkeypatch):
    """The shape of each ``linsolve.ScatterPlan`` sorted from an entry list
    from now on (a plan made by ``from_pattern`` is not sorted)."""
    made, original = [], linsolve.ScatterPlan.__init__

    def recording(self, shape, rows, cols):
        made.append(tuple(shape))
        original(self, shape, rows, cols)

    monkeypatch.setattr(linsolve.ScatterPlan, "__init__", recording)
    return made


def sorted_plans(layout):
    """Every plan assembly keeps on ``layout``, by its key, each sorted from
    its entry list (``sorted_block_plan``): one block per component
    (``"square"``), the first component's blocks (``"scalar"``) and, on a
    vector layout, the components' blocks against the P1 pressure functions
    (``"pressure"``); and one block coupling all components (``"coupled"``),
    on which the sigma div/rot form was summed: the reference for its
    component blocks (``divrot_by_coupled_plan``)."""
    dofs = layout.element_dofs.reshape(-1, layout.components, layout.scalar_local_size)
    coupled, square = layout.element_dofs[:, None], (layout.n_dofs, layout.n_dofs)
    plans = {
        "square": sorted_block_plan(dofs, dofs, square),
        "coupled": sorted_block_plan(coupled, coupled, square),
        "scalar": sorted_block_plan(dofs[:, :1], dofs[:, :1], (layout.n_scalar, layout.n_scalar)),
    }
    if layout.components == 2:
        mesh = layout.mesh
        plans["pressure"] = sorted_block_plan(dofs, mesh.triangles[:, None], (layout.n_dofs, mesh.n_nodes))
    return plans


def stepper_matrices_by_sorted_plans(stepper):
    """The matrices ``Stepper.__init__`` assembles, by attribute name, summed
    on copies of the stepper's layouts that hold the plans of
    ``sorted_plans``: the reference for the plans derived from the mesh's P1
    plan."""
    lays = {}
    for name in ("c", "sigma", "u"):
        lays[name] = replace(getattr(stepper, f"layout_{name}"))  # with plans of its own
        lays[name].plans.update(sorted_plans(lays[name]))
    ctx, ctx_p1 = stepper.ctx, stepper.ctx_p1
    g = asm.assemble_pressure_coupling(lays["u"], stepper.layout_pi, ctx)
    return {
        "M": asm.assemble_mass(lays["c"], ctx_p1),
        "K": asm.assemble_stiffness(lays["c"], 1.0, ctx_p1),
        "M_sigma": asm.assemble_mass(lays["sigma"], ctx_p1),
        "divrot": divrot_by_coupled_plan(lays["sigma"], stepper.params.D_c, ctx_p1),
        "M_u": asm.assemble_mass(lays["u"], ctx),
        "K_u": asm.assemble_stiffness(lays["u"], 1.0, ctx),
        "G": g,
    }


def divrot_by_coupled_plan(layout, coeff, ctx):
    """``asm.assemble_divrot`` as it was summed, as the CSR matrix of the
    sigma space: the (ne, 6, 6) element blocks coupling the two components
    summed on one plan, sorted from its entry list (``sorted_plans``'
    ``"coupled"``).  The reference for its four component blocks, each
    summed on the mesh's P1 plan."""
    div, rot = asm._sigma_div_rot(ctx.grad_bary)
    local = np.einsum("ea,eb->eab", div, div) + np.einsum("ea,eb->eab", rot, rot)
    local *= coeff * ctx.areas[:, None, None]
    return sorted_plans(layout)["coupled"].matrix(local)


def divrot_matrix(mesh, blocks):
    """The CSR matrix of the sigma space holding the four component blocks
    ``blocks``, (2, 2, nnz), each data on the mesh's P1 plan
    (``asm.assemble_divrot``)."""
    p1 = mesh.p1_plan
    return sp.bmat([[p1.csr(blocks[a, b]) for b in range(2)] for a in range(2)], format="csr")


def exact_solve(a, b):
    """(x, SolveReport) of a x = b through one ``linsolve.Factorization`` of
    the CSR matrix ``a``, checked against ``a`` (``linsolve.refined_solve``
    through the LU of A itself: one refinement pass at most)."""
    fact = linsolve.Factorization(a)
    return linsolve.refined_solve(b, fact.lu_solve, fact.matrix, linsolve.abs_matrix(fact.matrix), None)


def div_load_rebuilding_its_table(layout, f, ctx):
    """``asm.assemble_div_load`` building its weighted gradient table on every
    call: the reference for the table kept on the context."""
    table = ctx.weights[:, None, None] * ctx.gradient_table(layout.kind)
    nq, nl, _ = table.shape
    f_t = (f @ table.reshape(nq, -1)).reshape(-1, nl, 3)
    local = (f_t @ ctx.grad_bary) * ctx.areas[:, None, None]
    return scatter_vector_by_add_at(local.transpose(0, 2, 1), layout)


def scatter_vector_by_add_at(local, layout):
    """Element vectors, (ne, comps, nl) or (ne, local_size), summed into a
    global vector by ``np.add.at``: the reference for the bincount of
    ``asm._scatter_vector``."""
    b = np.zeros(layout.n_dofs)
    np.add.at(b, layout.element_dofs.ravel(), local.ravel())
    return b


def skew_data_by_own_sums(layouts, velocity, ctx):
    """``asm.assemble_skew_data`` summing the skew-symmetrized MINI element
    blocks on each layout by a bincount of its own, over their leading
    (nl, nl) block for a P1 layout, a ``DiscreteField`` velocity through its
    element coefficients: the reference for the P1 data gathered from the
    MINI sum."""
    vel = velocity.element_coeffs().reshape(len(ctx.areas), 2, -1)
    vals, grads = ctx.weighted_values(VELOCITY_MINI), ctx.gradient_table(VELOCITY_MINI)
    w = np.einsum("qi,qja,qm->amij", vals, grads, ctx.basis_values(VELOCITY_MINI))
    half = (ctx.grad_bary @ vel).reshape(len(vel), -1) @ w.reshape(-1, 16)
    half = (0.5 * ctx.areas[:, None] * half).reshape(-1, 4, 4)
    blocks = half - half.transpose(0, 2, 1)
    return [asm._square_data(blocks[:, :lay.scalar_local_size, :lay.scalar_local_size], lay)
            for lay in layouts]


_kept_solver = Stepper._solver


def transport_free_solver(stepper, system, dt, transport=None):
    """``Stepper._solver`` keeping the LU of each system's transport-free
    operator, whatever the first step's ``transport``: the reference for the
    LUs of the first step's operators, transport included."""
    zero = None if transport is None else np.zeros_like(transport)
    return _kept_solver(stepper, system, dt, zero)


def skew_data(layouts, velocity, ctx):
    """The transports of ``layouts`` for the velocity ``velocity``: a
    ``DiscreteField`` through ``asm.assemble_skew_data``, values at the points
    of ``ctx`` through ``skew_data_at_points``."""
    if isinstance(velocity, asm.DiscreteField):
        return asm.assemble_skew_data(layouts, velocity, ctx)
    return skew_data_at_points(layouts, velocity, ctx)


def skew_matrix(layout, velocity, ctx):
    """The transport of ``skew_data`` on one layout as a CSR matrix."""
    return asm.square_plan(layout).csr(skew_data([layout], velocity, ctx)[0])


def skew_data_at_points(layouts, velocity, ctx):
    """``asm.assemble_skew_data`` for a velocity given by its values
    (ne, nq, 2) at the points of ``ctx``: grad lambda_a . v(x_q) contracted
    over (a, q) with the point table w_q phi_i(x_q) T[q, j, a], the MINI
    element blocks skew-symmetrized and summed on the MINI layout among
    ``layouts`` (or on one built for the call), each P1 layout gathering its
    data from their vertex-vertex slots.  The point-value reference for the
    element-coefficient kernel."""
    vals, grads = ctx.weighted_values(VELOCITY_MINI), ctx.gradient_table(VELOCITY_MINI)
    w = np.einsum("qi,qja->aqij", vals, grads)
    v_grad = ctx.grad_bary @ velocity.transpose(0, 2, 1)  # (ne, 3, nq)
    half = v_grad.reshape(len(v_grad), -1) @ w.reshape(-1, 16)
    half = (0.5 * ctx.areas[:, None] * half).reshape(-1, 4, 4)
    blocks = half - half.transpose(0, 2, 1)
    mini = next((lay for lay in layouts if lay.has_bubble), None)
    data = asm._square_data(blocks, mini or build_layout(layouts[0].mesh, VELOCITY_MINI))
    return [data if lay.has_bubble else np.tile(data[asm._mini_gather(lay)], lay.components)
            for lay in layouts]


def lagged_forms_at_points(stepper, prev, t_new, forcing=None):
    """``stepper.lagged_forms`` as it was built from point values: u, n +
    alpha0, sigma and c evaluated at the quadrature points, each load one
    generic load of their lagged product (plus one for g_n), grad_phi / rho
    evaluated at the points, and both transports from the kernel's point
    table.  The reference for the element-coefficient forms."""
    p, ctx = stepper.params, stepper.ctx
    forcing = forcing or StepForcing()
    u = stepper.field_u(prev).values(ctx)
    eta = stepper.field_n(prev).values(ctx) + p.alpha0
    sigma = stepper.field_sigma(prev).values(ctx)
    consumption = p.gamma * eta * stepper.field_c(prev).values(ctx)
    buoyancy = np.broadcast_to(p.grad_phi, ctx.points.shape) / p.rho
    g_c = 0.0 if forcing.g_c is None else asm.at_points(forcing.g_c, ctx, t_new)
    g_u = 0.0 if forcing.g_u is None else asm.at_points(forcing.g_u, ctx, t_new)
    loads = {
        "n": asm.assemble_grad_load(stepper.layout_n, p.chi * eta[..., None] * sigma, ctx),
        "sigma": asm.assemble_div_load(
            stepper.layout_sigma, (u * sigma).sum(axis=-1) + consumption - g_c, ctx
        ),
        "c": asm.assemble_load(stepper.layout_c, g_c - consumption, ctx),
        "u": asm.assemble_load(stepper.layout_u, eta[..., None] * buoyancy + g_u, ctx),
    }
    if forcing.g_n is not None:
        g_n = asm.at_points(forcing.g_n, ctx, t_new)
        loads["n"] += asm.assemble_load(stepper.layout_n, g_n, ctx)
    return (*skew_data_at_points((stepper.layout_c, stepper.layout_u), u, ctx), loads)


def lagged_matrices(stepper, *args):
    """``stepper.lagged_forms(*args)`` with its two transports, data in the
    slot order of their layout's scatter plan, read as CSR matrices."""
    n_data, u_data, loads = stepper.lagged_forms(*args)
    n_plan, u_plan = (asm.square_plan(lay) for lay in (stepper.layout_c, stepper.layout_u))
    return n_plan.csr(n_data), u_plan.csr(u_data), loads
