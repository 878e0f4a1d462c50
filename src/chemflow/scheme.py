"""First-order semi-coupled time stepping for the chemotaxis-fluid system.

Per step, four linear systems are solved in a fixed order -- cell density,
chemical-gradient flux, chemical concentration, then the velocity/pressure
saddle system -- and every nonlinear coupling is evaluated at the previous
time level, so each system is linear and they never feed back within a
step.  Matrices that do not depend on the previous level (mass, stiffness,
div/rot, pressure coupling) are assembled once per mesh; only the two
transports (data on fixed patterns) and the load vectors are rebuilt each
step.  A step solves each system through one LU kept per time step size,
of the operator of the first step of that size, its transport included; a
later step refines against its own operator through it.  The
velocity/pressure system has its bubbles condensed out.  Every LU factors
its system's kept unknowns in the mesh's node order, expanded to them by
index arithmetic, without pivoting.
"""

import copy
import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from . import linsolve
from .mesh import is_integer
from .spaces import (
    PRESSURE_P1,
    SCALAR_P1,
    VECTOR_P1_SIGMA,
    VELOCITY_MINI,
    build_layout,
)


def _is_real(value, sign=""):
    """Whether ``value`` is a finite real number, not a bool, and, for ``sign``
    "positive" or "nonnegative", of that sign."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    return ok and not (sign == "positive" and value <= 0 or sign == "nonnegative" and value < 0)


def require_real(label, value, sign=""):
    """Raise ValueError unless ``_is_real(value, sign)``."""
    if not _is_real(value, sign):
        raise ValueError(f"{label} must be finite{' and ' + sign if sign else ''}, got {value!r}")


def grid_step(t, dt, label):
    """The index m of the level t = m * dt of a uniform time grid, to a
    relative 1e-9; raises ValueError naming ``label`` when no level lies at t."""
    require_real(label, t)
    steps = t / dt
    m = round(steps) if math.isfinite(steps) else None
    if m is None or abs(steps - m) > 1e-9 * max(abs(steps), 1.0):
        raise ValueError(f"{label}={t} is not an integer multiple of dt={dt}")
    return m


# sign each physical parameter must have: 0 switches a coupling off
PARAM_SIGNS = {
    "D_n": "positive", "D_c": "positive", "D_u": "positive", "rho": "positive",
    "chi": "nonnegative", "gamma": "nonnegative",
}

MASS_DRIFT_TOL = 1e-10  # criterion 4: relative drift of the conserved mass in a run
DIVERGENCE_TOL = 1e-9  # criterion 7: max_j |(psi_j, div u_h)| after each step of a run

# the record of a level (``Stepper.run``): the largest |value| at the pinned
# dofs of _PINNED, the nodal min and max of _NODAL, and for each system of a
# step each ``linsolve.SolveReport`` field under its key prefix
_PINNED = ("u", "sigma")
_NODAL = ("eta", "c", "u1", "u2", "pi")
_SYSTEMS = ("n", "sigma", "c", "u")
_REPORT_FIELDS = {
    "solver": "kind", "iterations": "iterations", "residual": "residual_norm",
    "factor_time": "factor_time", "solve_time": "solve_time",
}
# every key of a record, the leading ones first, then the others sorted
RECORD_KEYS = ("m", "t", "mass", "div_residual", *sorted(
    ["assembly_time"] + [f"max_pinned_{name}" for name in _PINNED]
    + [f"{bound}_{name}" for name in _NODAL for bound in ("min", "max")]
    + [f"{prefix}_{system}" for prefix in _REPORT_FIELDS for system in _SYSTEMS]))


def _projected(rhs, solve):
    """``solve(rhs)``, or zeros of the shape of ``rhs`` if every entry of the
    constrained right-hand side ``rhs`` is 0: a projection of zero data is
    zero, so ``solve`` builds and factors its operator only for nonzero data."""
    return solve(rhs) if np.any(rhs) else np.zeros_like(rhs)


class InvariantError(RuntimeError):
    """A step of ``Stepper.run`` broke criterion 4 or 7."""


@dataclass
class ModelParams:
    """Physical parameters, finite and of the signs in ``PARAM_SIGNS``.

    ``grad_phi`` is the gravitational-potential gradient, a constant finite
    2-vector; ``alpha0`` is the conserved spatial mean of the initial cell
    density.
    """

    chi: float
    D_n: float
    D_c: float
    D_u: float
    rho: float
    gamma: float
    grad_phi: object
    alpha0: float

    def __post_init__(self):
        for name, sign in PARAM_SIGNS.items():
            require_real(f"parameter {name}", getattr(self, name), sign)
        require_real("parameter alpha0", self.alpha0)
        if np.shape(self.grad_phi) != (2,):
            raise ValueError("grad_phi must be a constant finite 2-vector")
        for g in self.grad_phi:
            require_real("grad_phi entry", g)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with T = n_steps * dt."""

    dt: float
    n_steps: int

    def __post_init__(self):
        require_real("dt", self.dt, "positive")
        if not is_integer(self.n_steps, 0):
            raise ValueError(f"n_steps must be an integer >= 0, got {self.n_steps!r}")

    @property
    def T(self):
        return self.dt * self.n_steps


@dataclass
class StepForcing:
    """Analytic sources (x, y, t) for the manufactured-solution harness.

    All four are optional; the flux equation is forced through g_c (tested
    against the divergence of the flux test function), which matches
    applying grad(g_c) weakly since the flux space has zero normal trace.
    g_sigma is carried for verification only.
    """

    g_n: object = None
    g_c: object = None
    g_sigma: object = None
    g_u: object = None


@dataclass
class State:
    """Discrete solution at one time level (coefficient vectors)."""

    m: int
    t: float
    n: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    pi: np.ndarray


@dataclass
class InitialData:
    """Closed-form initial fields plus the derivatives the projections need.

    All callables are vectorized over numpy arrays: scalars map arrays to
    arrays, ``grad_c0``/``u0`` return (..., 2), ``grad_u0`` returns
    (..., 2, 2).  The initial flux is grad c0, whose rotation is zero, so
    ``grad_c0`` and ``div_sigma0`` (the Laplacian of c0) are all the flux
    projection needs.  ``pi0`` participates in the velocity projection
    only and may be None (treated as zero).
    """

    eta0: object
    grad_eta0: object
    c0: object
    grad_c0: object
    div_sigma0: object
    u0: object
    grad_u0: object
    div_u0: object
    pi0: object = None


class CondensedSaddle:
    """Condensation of the bordered velocity/pressure system of one layout.

    The bordered saddle system of the scheme,

        [ S_c    -G_c/rho  0 ] [u  ]   [f]
        [ G_c^T   0        w ] [pi ] = [g]
        [ 0       w^T      0 ] [lam]   [h]

    with S a velocity operator on the pattern of the layout's mass matrix
    (a step's skew transport N included) and the pinned velocity dofs
    eliminated (identity rows, value 0), is T, solved without factoring it:

    * the bubble-bubble block D of S is diagonal (a bubble lives on one
      element, and N has a zero diagonal), so the bubbles are condensed
      out, leaving a P1-P1 system whose pressure block is
      G_B^T D^-1 G_B / rho;
    * G_c 1 = 0, so the continuity rows sum to lam * area; with lam known,
      the gauge pressure dof 0 is pinned and the mean shifted afterwards.

    The bookkeeping is built once per layout, by index arithmetic on the
    plans of ``s`` (``asm.square_plan``) and ``g`` (G on
    ``asm.pressure_plan``, its exact zeros stored) and on ``nodes``, the
    node-ordered P1 pattern (``Stepper._nodes``): ``bordered(s)`` forms T
    with one gather, the pinned rows and columns zeroed on the pattern and
    their diagonal set to 1 in the same pass, and ``slots`` places a
    transport in it.  The condensed system keeps ``kept``: the free
    nodal velocity dofs and the pressure dofs but the gauge, sorted by node
    in the mesh's node order, then u1, u2, pi, so the condensation comes
    out already ordered.  A bubble couples only to the three vertex
    velocities of its component on its element and to the element's three
    pressures, so T_kb D^-1 T_bk is a sum of 6 x 6 blocks, one per bubble,
    summed into a pattern found once.  ``factor(t)`` returns a copy holding
    those blocks of a bordered matrix t and the LU of its condensation,
    whose ``lu_solve`` solves with t.  With its pressure rows scaled by
    1/rho that condensation has a positive definite symmetric part (S is
    SPD, N skew and zero on D, and x^T (K/D) x = [y; x]^T K [y; x] for
    y = -D^-1 K_bk x), so every symmetric ordering of it has nonzero pivots
    (``linsolve.Factorization``).
    """

    def __init__(self, s, g, layout_u, w, rho, nodes):
        mesh, (nu, npi) = layout_u.mesh, (s.shape[0], len(w))
        n, ne, ns, pinned = nu + npi + 1, mesh.n_triangles, layout_u.n_scalar, layout_u.constrained_dofs
        bubble = layout_u.nodal_and_bubble_dofs()[1]
        rows, cols, g_rows = linsolve.entry_rows(s), s.indices, linsolve.entry_rows(g)
        is_bubble, is_pinned = np.zeros(nu, dtype=bool), np.zeros(nu, dtype=bool)
        is_bubble[bubble], is_pinned[pinned] = True, True
        if np.any(s.data[is_bubble[rows] & is_bubble[cols] & (rows != cols)] != 0.0):
            raise ValueError("bubble-bubble block of the velocity operator is not diagonal")
        self.n_u, self.w, self.area, self.bubble = nu, w, float(w.sum()), bubble

        # T from the source [s, -G/rho, G, w, 1, 0], each row in column order:
        # a velocity row is its row of s, then of G; a pressure row its column
        # of G, then w; the pinned rows and columns keep their positions,
        # read from the 0, but the diagonal, read from the 1
        by_col = sp.csr_matrix((np.arange(g.nnz, dtype=float), g.indices, g.indptr), shape=g.shape).tocsc()
        of_g, gt_rows = by_col.data.astype(np.int64), linsolve.entry_rows(indptr=by_col.indptr)
        nt = s.nnz + 2 * g.nnz + 2 * npi
        ptr = np.concatenate([s.indptr + g.indptr, s.nnz + g.nnz + by_col.indptr[1:] + np.arange(1, npi + 1),
                              [nt]])
        at_s = np.arange(s.nnz) + g.indptr[rows]
        at_g = s.indptr[g_rows + 1] + np.arange(g.nnz)
        at_gt = np.empty(g.nnz, dtype=np.int64)
        at_gt[of_g] = s.nnz + g.nnz + np.arange(g.nnz) + gt_rows
        w_col, w_row = ptr[nu + 1 : n] - 1, nt - npi + np.arange(npi)
        one, zero = s.nnz + 2 * g.nnz + npi, s.nnz + 2 * g.nnz + npi + 1
        cols_t, take = np.empty(nt, dtype=np.int64), np.empty(nt, dtype=np.int64)
        cols_t[at_s], cols_t[at_g], cols_t[at_gt] = cols, nu + g.indices, g_rows
        cols_t[w_col], cols_t[w_row] = n - 1, nu + np.arange(npi)
        free = ~(is_pinned[rows] | is_pinned[cols])
        take[at_s] = np.where(free, np.arange(s.nnz), np.where(rows == cols, one, zero))
        g_free = ~is_pinned[g_rows]
        take[at_g] = np.where(g_free, s.nnz + np.arange(g.nnz), zero)
        take[at_gt] = np.where(g_free, s.nnz + g.nnz + np.arange(g.nnz), zero)
        take[w_col] = take[w_row] = s.nnz + 2 * g.nnz + np.arange(npi)
        index = linsolve.index_dtype(nt)
        self._t_ptr, self._t_cols, self._t_take = ptr.astype(index), cols_t.astype(index), take.astype(index)
        self.slots = np.where(free, at_s, -1).astype(index)
        self._g, self._rho = g, rho

        # the condensed system: (u1, u2, pi) by node, in the node order
        indptr, indices, entry, (el, vi, vj) = nodes
        order, nodes_n = mesh.node_order, mesh.n_nodes
        by_node = np.column_stack([order, ns + order, nu + order])
        keep = np.ones(n, dtype=bool)
        keep[pinned] = keep[nu] = False
        keep = keep[by_node]
        dof_rank = np.where(keep, np.cumsum(keep).reshape(-1, 3) - 1, -1)
        self.kept = by_node[keep]
        allowed = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=bool)  # u1 and u2 never couple
        c_ptr, c_cols, cell = linsolve.block_pattern(indptr, indices, dof_rank, allowed)
        index = linsolve.index_dtype(max(len(c_cols), nt))
        self._c_ptr, self._c_cols = c_ptr.astype(index), c_cols.astype(index)
        at = np.full(9 * len(indices), len(cell), dtype=index)  # an unkept partner's pairs sum into a dummy
        at[cell] = np.arange(len(cell))

        # T_kk, the entries of T on kept positions, by node pair: the slot of
        # a vertex pair in a layout's plan is that of an element entry summing
        # into it; the pressure-pressure block of T is empty
        su = asm.square_plan(layout_u).slots.reshape(ne, 2, 4, 4)
        gp = asm.pressure_plan(layout_u).slots.reshape(ne, 2, 4, 3)
        table = np.full((len(indices), 3, 3), -1)
        for c in range(2):
            table[:, c, c] = at_s[su[el, c, vi, vj]]
            table[:, c, 2] = at_g[gp[el, c, vi, vj]]
            table[:, 2, c] = at_gt[gp[el, c, vj, vi]]
        kk_at = table.ravel()[cell]
        self._kk = np.flatnonzero(kk_at >= 0).astype(index)
        self._kk_at = kk_at[self._kk].astype(index)

        # bubble (c, e): its partners (vertex k, u_c), then (vertex k, pi); the
        # slots in T of its column, row and diagonal, and in the condensed
        # matrix of each pair of partners; an unkept partner's column and row
        # are read as 0
        comp, elem = np.repeat([0, 1], ne), np.tile(np.arange(ne), 2)
        node_rank = np.empty(nodes_n, dtype=np.int64)
        node_rank[order] = np.arange(nodes_n)
        kind = np.hstack([np.repeat(comp[:, None], 3, axis=1), np.full((2 * ne, 3), 2)]).astype(index)
        corner = np.tile(np.arange(3), 2)
        rank = dof_rank[node_rank[mesh.triangles[elem][:, corner]], kind]
        coupling = gp[elem, comp, 3, :]
        self._q_at = np.hstack([at_s[su[elem, comp, :3, 3]], at_gt[coupling]])
        self._r_at = np.hstack([at_s[su[elem, comp, 3, :3]], at_g[coupling]])
        self._d_at = at_s[su[elem, comp, 3, 3]]
        valid = rank >= 0
        self._valid, self._rank = valid.astype(float), np.where(valid, rank, 0).astype(index)
        oinv = np.empty(len(entry), dtype=index)
        oinv[entry] = np.arange(len(entry))
        opos = oinv[mesh.p1_plan.slots.reshape(ne, 3, 3)][elem][:, corner[:, None], corner]
        self._pair_at = at[(opos * 3 + kind[:, :, None]) * 3 + kind[:, None, :]].ravel()

    def bordered(self, s):
        """T of the velocity operator ``s`` (data on the pattern this was built from)."""
        n = len(self._t_ptr) - 1
        g = self._g.data
        data = np.concatenate([s.data, -g / self._rho, g, self.w, [1.0, 0.0]])[self._t_take]
        return sp.csr_matrix((data, self._t_cols.copy(), self._t_ptr.copy()), shape=(n, n))

    def factor(self, t):
        """A copy holding the bubble blocks of the bordered matrix ``t`` (on
        the pattern of ``bordered``), T_kb and D^-1 T_bk, and the LU of its
        condensation (``lu``)."""
        out, data = copy.copy(self), t.data
        out.d_inv = 1.0 / data[self._d_at]
        q = data[self._q_at] * self._valid  # T[partner, bubble]
        r = data[self._r_at] * (self._valid * out.d_inv[:, None])  # T[bubble, partner] / D
        blocks = q[:, :, None] * r[:, None, :]
        nk, nnz = len(self.kept), len(self._c_cols)
        values = np.zeros(nnz)
        values[self._kk] = data[self._kk_at]
        values -= np.bincount(self._pair_at, weights=blocks.ravel(), minlength=nnz + 1)[:nnz]
        out.lu = linsolve.Factorization(
            sp.csr_matrix((values, self._c_cols.copy(), self._c_ptr.copy()), shape=(nk, nk)))
        # T_kb by bubble column and D^-1 T_bk by bubble row, six partners each
        nb, by_bubble = len(self.bubble), np.arange(0, self._rank.size + 1, 6)
        out.a_kb = sp.csc_matrix((q.ravel(), self._rank.ravel(), by_bubble), shape=(nk, nb))
        out.dinv_a_bk = sp.csr_matrix((r.ravel(), self._rank.ravel(), by_bubble), shape=(nb, nk))
        return out

    def lu_solve(self, b):
        """x with T x = b through the condensed LU, unchecked: the caller
        checks the residual of the bordered system."""
        nu, n = self.n_u, len(b) - 1
        lam = b[nu:n].sum() / self.area
        z = b[:n].copy()
        z[nu:] -= lam * self.w
        z_b = self.d_inv * z[self.bubble]
        x = self.lu.lu_solve(z[self.kept] - self.a_kb @ z_b)
        z[:] = 0.0
        z[self.kept] = x
        z[self.bubble] = z_b - self.dinv_a_bk @ x
        z[nu:] += (b[-1] - self.w @ z[nu:]) / self.area
        return np.append(z, lam)


class Stepper:
    """Assembled discretization of one mesh/parameter configuration."""

    INIT_MODES = ("elliptic_projection", "nodal")

    def __init__(self, mesh, params, quad_degree=asm.FULL_DEGREE):
        self.mesh = mesh
        self.params = params
        self.layout_n = build_layout(mesh, SCALAR_P1, zero_mean=True)
        self.layout_c = build_layout(mesh, SCALAR_P1)
        self.layout_sigma = build_layout(mesh, VECTOR_P1_SIGMA)
        self.layout_u = build_layout(mesh, VELOCITY_MINI)
        self.layout_pi = build_layout(mesh, PRESSURE_P1)

        self.ctx = asm.AssemblyContext(mesh, degree=quad_degree)
        self.ctx_p1 = asm.AssemblyContext(mesh, degree=asm.P1_DEGREE)

        # time-independent matrices
        self.M = asm.assemble_mass(self.layout_c, self.ctx_p1)
        self.K = asm.assemble_stiffness(self.layout_c, 1.0, self.ctx_p1)
        self.M_sigma = asm.assemble_mass(self.layout_sigma, self.ctx_p1)
        self.divrot = asm.assemble_divrot(self.layout_sigma, params.D_c, self.ctx_p1)
        self.M_u = asm.assemble_mass(self.layout_u, self.ctx)
        self.K_u = asm.assemble_stiffness(self.layout_u, 1.0, self.ctx)
        self.G = asm.assemble_pressure_coupling(self.layout_u, self.layout_pi, self.ctx)

        self.w_p1 = asm.integral_weight_vector(self.layout_c, self.ctx_p1)
        self.area = float(self.w_p1.sum())
        self.assembly_time = 0.0  # seconds of assembly in the last init_state or step
        self._solvers = {}  # (system, dt) -> solver kept from the first step of that dt
        self._selections = {}  # system -> kept unknowns and their gather (``_selection``)

    # -- helpers ----------------------------------------------------------

    def field_n(self, state):
        return asm.DiscreteField(self.layout_n, state.n)

    def field_c(self, state):
        return asm.DiscreteField(self.layout_c, state.c)

    def field_sigma(self, state):
        return asm.DiscreteField(self.layout_sigma, state.sigma)

    def field_u(self, state):
        return asm.DiscreteField(self.layout_u, state.u)

    def mass_of_eta(self, state):
        """Integral of the cell density n_h + alpha0 (exact for P1)."""
        return float(self.w_p1 @ state.n + self.params.alpha0 * self.area)

    def divergence_residual(self, state):
        """max_j |(psi_j, div u_h)| over the pressure basis."""
        return float(np.abs(self.G.T @ state.u).max())

    # -- initialization ----------------------------------------------------

    def init_state(self, data, mode="elliptic_projection"):
        """Discrete initial state via elliptic/Stokes projections or vertex
        interpolation (bubbles zero).  The zero-mean and boundary constraints
        hold exactly in both modes.  The seconds spent assembling loads are
        left in ``assembly_time`` (0 for the vertex interpolation).

        A projection whose right-hand side, after its constraints, is exactly
        zero is zero, and builds and factors no operator: the Stokes
        projection of a fluid at rest takes no LU.  Each LU factors its
        system's kept unknowns in the order a step's LU of that system uses
        (``_selection``): the n operator, whose K block is singular, has its
        zero-mean border just before the last node, where no pivot is 0."""
        if mode not in self.INIT_MODES:
            raise ValueError(f"unknown init mode {mode!r}")
        p, alpha0 = self.params, self.params.alpha0
        if mode == "nodal":
            self.assembly_time = 0.0
            x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
            n0 = np.asarray(data.eta0(x, y), dtype=float) - alpha0
            n0 -= (self.w_p1 @ n0) / self.area  # pin the discrete mean
            c0 = np.asarray(data.c0(x, y), dtype=float)
            sig_nodal = np.asarray(data.grad_c0(x, y), dtype=float)
            sig0 = np.concatenate([sig_nodal[..., 0], sig_nodal[..., 1]])
            sig0[self.layout_sigma.constrained_dofs] = 0.0
            u_nodal = np.asarray(data.u0(x, y), dtype=float)
            ns = self.layout_u.n_scalar
            u0 = np.zeros(self.layout_u.n_dofs)
            u0[: self.mesh.n_nodes] = u_nodal[..., 0]
            u0[ns : ns + self.mesh.n_nodes] = u_nodal[..., 1]
            u0[self.layout_u.constrained_dofs] = 0.0
            if data.pi0 is None:
                pi0 = np.zeros(self.layout_pi.n_dofs)
            else:
                pi0 = np.asarray(data.pi0(x, y), dtype=float)
                pi0 -= (self.w_p1 @ pi0) / self.area
            return State(m=0, t=0.0, n=n0, c=c0, sigma=sig0, u=u0, pi=pi0)

        ctx = self.ctx
        t0 = time.perf_counter()
        rhs_n = asm.assemble_grad_load(self.layout_n, asm.at_points(data.grad_eta0, ctx), ctx)
        grad_c0 = asm.at_points(data.grad_c0, ctx)  # the initial flux at the points, too
        rhs_c = asm.assemble_grad_load(self.layout_c, grad_c0, ctx)
        rhs_c += asm.assemble_load(self.layout_c, asm.at_points(data.c0, ctx), ctx)
        rhs_s = asm.assemble_div_load(self.layout_sigma, asm.at_points(data.div_sigma0, ctx), ctx)
        rhs_s += asm.assemble_load(self.layout_sigma, grad_c0, ctx)
        rhs_u = p.D_u * asm.assemble_grad_load(
            self.layout_u, asm.at_points(data.grad_u0, ctx), ctx
        )
        if data.pi0 is not None:
            rhs_u -= asm.assemble_div_load(self.layout_u, asm.at_points(data.pi0, ctx), ctx)
        rhs_pi = asm.assemble_load(self.layout_pi, asm.at_points(data.div_u0, ctx), ctx)
        self.assembly_time = time.perf_counter() - t0

        # density: gradient projection with matched (zero) mean
        zero = np.zeros(self.M.nnz)
        n0 = _projected(asm.constrain_rhs(rhs_n, self.layout_n), lambda b: self._kept_lu(
            "n", self.K.data, zero).solve(b, zero)[0])[: self.layout_n.n_dofs]

        # concentration: full H1 projection, SPD
        c0 = _projected(rhs_c, lambda b: self._kept_lu("c", self.K.data + self.M.data, zero).solve(
            b, zero)[0])

        # flux: div/rot/L2 projection under the normal-trace constraints, SPD
        sig0 = _projected(asm.constrain_rhs(rhs_s, self.layout_sigma), lambda b: linsolve.Factorization(
            self._sigma_operator(1.0, 1.0 / p.D_c), self._selection("sigma")).solve(b)[0])

        # velocity/pressure: discrete Stokes projection (its LU is used once)
        nu = self.layout_u.n_dofs

        def stokes(b):
            zero = np.zeros(self.K_u.nnz)
            return self._saddle_lu(self.K_u * p.D_u, zero).solve(np.append(b, 0.0), zero)[0][:-1]

        rhs_u[self.layout_u.constrained_dofs] = 0.0
        x = _projected(np.concatenate([rhs_u, rhs_pi]), stokes)
        # the projection problem carries no density scaling on its pressure
        # block, while the step solver does; undo it
        return State(m=0, t=0.0, n=n0, c=c0, sigma=sig0, u=x[:nu], pi=x[nu:] / p.rho)

    # -- stepping ----------------------------------------------------------

    def _solver(self, system, dt, transport=None):
        """Solver of one system and dt, built at the first step of that dt from
        that step's operator, its ``transport`` included (data on the pattern
        of M for n and c, of M_u for u; sigma has none).  For n, c and u it is
        a ``linsolve.KeptLU`` of the transport-free operator (``_kept_lu``; for
        u the bordered saddle of ``_saddle_lu``), into which a step writes its
        own transport to refine against through the kept LU; for sigma an LU
        of its free dofs.  A later call returns the kept solver whatever its
        ``transport``.  Every LU factors its system's kept unknowns in the
        mesh's node order, expanded to them (``_selection``,
        ``CondensedSaddle``), without pivoting (``linsolve.Factorization``)."""
        key = (system, dt)
        if key not in self._solvers:
            p = self.params
            if system == "u":
                s = self.M_u * (1.0 / dt)
                s.data += self.K_u.data * (p.D_u / p.rho)  # M_u and K_u share the layout's pattern
                solver = self._saddle_lu(s, transport)
            elif system == "sigma":
                solver = linsolve.Factorization(self._sigma_operator(1.0 / dt, 1.0),
                                                self._selection("sigma"))
            else:  # so do M and K
                a = self.M.data * (1.0 / dt) + self.K.data * (p.D_n if system == "n" else p.D_c)
                solver = self._kept_lu(system, a, transport)
            self._solvers[key] = solver
        return self._solvers[key]

    @functools.cached_property
    def _nodes(self):
        """The P1 pattern in the mesh's node order (``linsolve.ordered_pattern``
        of ``Mesh.p1_plan`` and ``Mesh.node_order``): (indptr, indices,
        entry), and for each of its entries one element entry (e, i, j) of
        the P1 plan summing into it, as three arrays: the slot of that vertex
        pair in any plan assembly derives from the P1 plan is the slot of
        that element entry there.  Built at the first LU and kept."""
        p1 = self.mesh.p1_plan
        indptr, indices, entry = linsolve.ordered_pattern(p1, self.mesh.node_order)
        first = np.empty(p1.nnz, dtype=np.int64)
        first[p1.slots] = np.arange(len(p1.slots))
        e, ij = np.divmod(first[entry], 9)
        return indptr, indices, entry, (e, *np.divmod(ij, 3))

    def _selection(self, system):
        """``linsolve.Selection`` of the kept unknowns of the n, c or sigma
        system, built at its first LU and kept, by index arithmetic on the
        node-ordered P1 pattern (``_nodes``): for c the nodes in order, of the
        operator on the pattern of M; for n the same, its source [operator,
        w], with the zero-mean border just before the last node: there every
        pivot is nonzero, also for the init operator K, which is singular,
        while the border last would leave K's last pivot, 0; for sigma the
        free dofs, a node's two components next to each other, of the operator
        on the pattern of ``divrot`` (``_sigma_operator``)."""
        if system not in self._selections:
            indptr, indices, entry, (e, i, j) = self._nodes
            order, nn, m = self.mesh.node_order, self.mesh.n_nodes, self.M
            if system == "c":
                selection = linsolve.Selection(order, indptr, indices, entry, m.nnz)
            elif system == "n":
                shift = lambda r: r + (r == nn - 1)  # the last node moves past the border
                rows, cols = shift(linsolve.entry_rows(indptr=indptr)), shift(indices)
                low, nodes, border, w_at = cols < nn - 1, shift(np.arange(nn)), np.full(nn, nn - 1), m.nnz + order
                selection = linsolve.Selection(
                    np.concatenate([order[:-1], [nn], order[-1:]]),
                    *linsolve.stacked_pattern(nn + 1, [
                        (rows[low], cols[low], entry[low]),
                        (nodes, border, w_at),
                        (rows[~low], cols[~low], entry[~low]),
                        (border, nodes, w_at),
                    ]),
                    m.nnz + nn,
                )
            else:
                by_node = np.column_stack([order, nn + order])
                free = np.ones(2 * nn, dtype=bool)
                free[self.layout_sigma.constrained_dofs] = False
                free = free[by_node]
                dof_rank = np.where(free, np.cumsum(free).reshape(nn, 2) - 1, -1)
                ptr, cols, cell = linsolve.block_pattern(indptr, indices, dof_rank, np.ones((2, 2), dtype=bool))
                oe, a, b = cell // 4, cell // 2 % 2, cell % 2
                slots = asm.square_plan(self.layout_sigma, coupled=True).slots.reshape(-1, 2, 3, 2, 3)
                selection = linsolve.Selection(by_node[free], ptr, cols, slots[e[oe], a, i[oe], b, j[oe]],
                                               self.divrot.nnz)
            self._selections[system] = selection
        return self._selections[system]

    def _kept_lu(self, system, data, transport):
        """``linsolve.KeptLU`` of the n or c operator with ``data`` on the
        pattern of M (n bordered by its zero-mean row and column), in the
        order of ``_selection``, with the transport ``transport``."""
        selection = self._selection(system)
        if system == "n":
            data = np.concatenate([data, self.w_p1])
        return linsolve.KeptLU(selection.matrix(data), selection.slots[: self.M.nnz], transport,
                               selection.kept)

    @functools.cached_property
    def _sigma_mass(self):
        """Where each entry of M_sigma lies in the pattern of divrot, which
        holds it: read off the two layouts' plans, element entry by element
        entry, at the first sigma LU."""
        coupled = asm.square_plan(self.layout_sigma, coupled=True).slots.reshape(-1, 2, 3, 2, 3)
        mass = asm.square_plan(self.layout_sigma)
        at = np.empty(mass.nnz, dtype=np.int64)
        at[mass.slots] = np.stack([coupled[:, c, :, c, :] for c in range(2)], axis=1).ravel()
        return at

    def _sigma_operator(self, mass_scale, divrot_scale):
        """mass_scale M_sigma + divrot_scale divrot on the pattern of divrot:
        no constraint applied, no position dropped."""
        a = self.divrot * divrot_scale
        a.data[self._sigma_mass] += self.M_sigma.data * mass_scale
        return a

    @functools.cached_property
    def _saddle(self):
        """The ``CondensedSaddle`` of the velocity layout, built at the first
        (u, pi) LU and kept."""
        return CondensedSaddle(self.M_u, self.G, self.layout_u, self.w_p1, self.params.rho, self._nodes)

    def _saddle_lu(self, s, transport):
        """``linsolve.KeptLU`` of the bordered (u, pi) system of the velocity
        operator ``s`` (``CondensedSaddle.bordered``), its condensed LU kept
        from ``transport``; b is 0 in its pinned and border rows."""
        saddle = self._saddle
        return linsolve.KeptLU(saddle.bordered(s), saddle.slots, transport, factor=saddle.factor)

    @functools.cached_property
    def _load_dofs(self):
        """Element dofs of the n, sigma, c and u loads, (ne * 20,), offset so
        that the four loads are consecutive parts of one vector, and the
        offsets of the parts."""
        layouts = (self.layout_n, self.layout_sigma, self.layout_c, self.layout_u)
        offsets = np.cumsum([0] + [lay.n_dofs for lay in layouts])
        dofs = np.hstack([lay.element_dofs + off for lay, off in zip(layouts, offsets)])
        return dofs.ravel(), offsets

    def lagged_forms(self, prev, t_new, forcing=None):
        """The step's forms, all built from the previous level ``prev``: the
        transport of the scalar space (shared by the n and c systems) and of
        the velocity space, as data on the patterns of ``M`` and ``M_u``
        (``assembly.assemble_skew_data``), and the loads of the n, sigma, c
        and u systems (a dict), with the sources of ``forcing`` at ``t_new``.

        Every lagged term is a product of two finite element fields, so each
        is built from their element coefficients and the reference integrals
        of basis products on the rule of ``ctx`` (``AssemblyContext.moments``:
        P of two P1 functions, Q of a MINI and a P1 one, Z of three P1 ones),
        and no field is evaluated at the quadrature points; by linearity this
        equals integrating the products of their point values on that rule.
        The buoyancy (eta grad_phi / rho, Psi_k), with grad_phi constant, is
        eta's coefficients times the Q table scaled by grad_phi / rho.  Only
        the sources are evaluated at the points, once each.  The element
        vectors of the four loads are summed in one ``np.bincount``.
        """
        p, ctx = self.params, self.ctx
        forcing = forcing or StepForcing()
        ne, p1, mini = len(ctx.areas), SCALAR_P1, VELOCITY_MINI
        eta = self.field_n(prev).element_coeffs() + p.alpha0  # (ne, 3)
        c = self.field_c(prev).element_coeffs()
        sigma = self.field_sigma(prev).element_coeffs().reshape(ne, 2, 3)
        u = self.field_u(prev)

        # integrals per unit area: eta sigma, eta c lambda_i, and u . sigma +
        # gamma eta c, which the sigma load tests against the constant div Psi_i
        eta_sigma = np.einsum("ecb,eb->ec", sigma, eta @ ctx.moments(p1, p1))
        eta_c = (eta @ ctx.moments(p1, p1, p1).reshape(3, 9)).reshape(ne, 3, 3)
        eta_c = np.einsum("ebi,eb->ei", eta_c, c)
        q = ctx.moments(mini, p1)
        u_q = (u.element_coeffs() @ q).reshape(ne, 6)
        against_div = np.einsum("ej,ej->e", u_q, sigma.reshape(ne, 6)) + p.gamma * eta_c.sum(axis=1)
        local = np.empty((ne, 20))  # the n, sigma, c and u element vectors
        local[:, :3] = p.chi * np.einsum("eic,ec->ei", ctx.grad_bary, eta_sigma)
        local[:, 9:12] = -p.gamma * eta_c
        buoyancy = np.einsum("ka,c->ack", q, np.asarray(p.grad_phi, dtype=float) / p.rho)
        local[:, 12:] = eta @ buoyancy.reshape(3, -1)
        if forcing.g_n is not None:
            local[:, :3] += asm.at_points(forcing.g_n, ctx, t_new) @ ctx.weighted_values(p1)
        if forcing.g_c is not None:
            g_c = asm.at_points(forcing.g_c, ctx, t_new)
            against_div -= g_c @ ctx.weights
            local[:, 9:12] += g_c @ ctx.weighted_values(p1)
        if forcing.g_u is not None:
            g_u = asm.at_points(forcing.g_u, ctx, t_new).reshape(ne, -1)  # rows (q, c)
            local[:, 12:] += g_u @ ctx.weighted_vector_values(mini)
        local[:, 3:9] = against_div[:, None] * ctx.grad_bary_t.reshape(ne, 6)
        local *= ctx.areas[:, None]
        dofs, offsets = self._load_dofs
        b = np.bincount(dofs, weights=local.ravel(), minlength=offsets[-1])
        loads = dict(zip(("n", "sigma", "c", "u"), np.split(b, offsets[1:-1])))
        return (*asm.assemble_skew_data((self.layout_c, self.layout_u), u, ctx), loads)

    def step(self, prev, dt, forcing=None):
        """Advance one time level; returns (state, solve reports).

        The seconds spent assembling the step's forms and loads
        (``lagged_forms``) are left in ``assembly_time``.
        """
        # require_real's check without the call: the benchmark's step breakdown
        # counts a public scheme function called here to no phase
        if not _is_real(dt, "positive"):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        t_new = prev.t + dt
        reports = {}
        t0 = time.perf_counter()
        n_skew, u_skew, loads = self.lagged_forms(prev, t_new, forcing)
        self.assembly_time = time.perf_counter() - t0

        # (a) cell density: the kept LU, refined against the step's operator
        rhs = asm.constrain_rhs(self.M @ prev.n / dt + loads["n"], self.layout_n)
        sol, reports["n"] = self._solver("n", dt, n_skew).solve(rhs, n_skew)
        n_new = sol[: self.layout_n.n_dofs]

        # (b) flux
        rhs = asm.constrain_rhs(self.M_sigma @ prev.sigma / dt + loads["sigma"], self.layout_sigma)
        sigma_new, reports["sigma"] = self._solver("sigma", dt).solve(rhs)

        # (c) concentration
        rhs = self.M @ prev.c / dt + loads["c"]
        c_new, reports["c"] = self._solver("c", dt, n_skew).solve(rhs, n_skew)

        # (d)-(e) velocity and pressure: the bordered system, 0 but in the free u rows
        nu = self.layout_u.n_dofs
        rhs = np.zeros(nu + self.layout_pi.n_dofs + 1)
        rhs[:nu] = self.M_u @ prev.u / dt + loads["u"]
        rhs[self.layout_u.constrained_dofs] = 0.0
        x, reports["u"] = self._solver("u", dt, u_skew).solve(rhs, u_skew)
        u_new, pi_new = x[:nu], x[nu:-1]

        state = State(m=prev.m + 1, t=t_new, n=n_new, c=c_new, sigma=sigma_new, u=u_new, pi=pi_new)
        return state, reports

    def run(self, grid, data, mode="elliptic_projection", forcing=None):
        """Integrate over the whole time grid, yielding (state, diagnostics
        record) for each level, the initial one first; no earlier level is kept.

        A record has exactly the keys of ``RECORD_KEYS``: time level,
        conserved mass, the seconds spent assembling forms and loads, for each
        system the solver kind, its LU passes, residual, factor and solve time
        (None at the initial level), the discrete-divergence residual, the
        largest |value| at the pinned dofs of u and sigma, and min/max of each
        field's nodal values.  Each level is yielded before it is checked:
        resumed after the first step whose mass drifts by more
        than MASS_DRIFT_TOL of w.|eta0| (the initial mass if eta0 >= 0) or
        whose divergence residual exceeds DIVERGENCE_TOL, the run raises
        ``InvariantError``.
        """
        state = self.init_state(data, mode=mode)
        rec = self._diagnostics_record(state, {})
        mass0 = rec["mass"]
        scale = float(self.w_p1 @ np.abs(state.n + self.params.alpha0)) or 1.0
        yield state, rec
        for m in range(1, grid.n_steps + 1):
            state, reports = self.step(state, grid.dt, forcing)
            rec = self._diagnostics_record(state, reports)
            yield state, rec
            problems = [f"{k} {v:.3e} exceeds {tol:g}" for k, v, tol in (
                ("relative mass drift", abs(rec["mass"] - mass0) / scale, MASS_DRIFT_TOL),
                ("divergence residual", rec["div_residual"], DIVERGENCE_TOL)) if not v <= tol]
            if problems:
                raise InvariantError(f"step {m}: " + "; ".join(problems))

    def _diagnostics_record(self, state, reports):
        """The record of ``state`` (see ``run``); ``reports`` maps each system
        of the step to its ``SolveReport``, and is empty for the initial level."""
        rec = {
            "m": state.m,
            "t": state.t,
            "mass": self.mass_of_eta(state),
            "div_residual": self.divergence_residual(state),
            "assembly_time": self.assembly_time,
        }
        for name in _PINNED:
            layout = getattr(self, f"layout_{name}")
            pinned = np.abs(getattr(state, name)[layout.constrained_dofs])
            rec[f"max_pinned_{name}"] = float(pinned.max(initial=0.0))
        u = self.layout_u.vertex_values(state.u)
        nodal = (
            self.layout_n.vertex_values(state.n) + self.params.alpha0,
            self.layout_c.vertex_values(state.c),
            u[:, 0],
            u[:, 1],
            self.layout_pi.vertex_values(state.pi),
        )
        for name, vals in zip(_NODAL, nodal, strict=True):
            rec[f"min_{name}"] = float(vals.min())
            rec[f"max_{name}"] = float(vals.max())
        for system in _SYSTEMS:
            rep = reports.get(system)
            for prefix, field in _REPORT_FIELDS.items():
                rec[f"{prefix}_{system}"] = None if rep is None else getattr(rep, field)
        return rec
