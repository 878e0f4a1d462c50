"""First-order semi-coupled time stepping for the chemotaxis-fluid system.

Per step, four linear systems are solved in a fixed order -- cell density,
chemical-gradient flux, chemical concentration, then the velocity/pressure
saddle system -- and every nonlinear coupling is evaluated at the previous
time level, so each system is linear and they never feed back within a
step.  Matrices that do not depend on the previous level (mass, stiffness,
div/rot, pressure coupling) are assembled once per mesh; only the two
transports (data on fixed patterns) and the load vectors are rebuilt each
step.  One table (``Stepper._systems``) holds each system's fields, pinned
unknowns, mass matrix and scales, and a step is one loop over it: one rule
places every right-hand side (``_rhs``), one slices every solution (``_state``).
Each system is solved through one LU kept for the current time step size,
of the operator of the first step of that size, its transport included; a
later step refines against its own operator through it.  Every operator, of
a step or of an initial projection, is mass A + diffusion B of its system's
one pair (A, B), formed in one place (``Stepper._kept_lu``) at two scales.
Every LU factors its system's kept unknowns in the mesh's node order, sliced
from the id matrix of its operator (``linsolve.Selection``), each pinned
unknown an identity row, without pivoting.  The bordered velocity/pressure
system is factored whole, its element-local MINI bubbles first, so the LU
condenses them out (static condensation, Arnold, Brezzi and Fortin,
*Calcolo* 21, 1984) before it meets the nodes, its border just before the
last node's pressure.
"""

import collections
import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

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


_NO_TRANSPORT = np.zeros(0)  # the transport of sigma's step operator and of every projection


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
    """Analytic sources of the manufactured-solution harness, each a
    vectorized (x, y, t) callable; test2's (``manufactured.test2_forcing``)
    are tabulated per point set as e A + e^2 B with e = exp(-t).  All four
    are optional; the flux equation is forced through g_c (tested against
    the divergence of the flux test function), which matches applying
    grad(g_c) weakly since the flux space has zero normal trace.  g_sigma
    is carried for verification only.
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


# one system's pair (a, b) (``Stepper._operator``): each of its LUs factors the
# kept matrix gathered from [mass a + diffusion b, tail] through ``selection``
_Operator = collections.namedtuple("_Operator", "selection a b tail")
# a system of ``Stepper._systems``: its fields' (name, slice), its pinned unknowns, the
# mass matrix of its step's rhs, its (init mass, init diffusion, step diffusion) scales
_System = collections.namedtuple("_System", "fields pinned mass scales")


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

        # a system's unknowns: each field's dofs in order, then its border if mean-constrained
        self._systems, self.system_size = {}, {}
        for system, names, mass, scales in (
            ("n", ("n",), self.M, (0.0, 1.0, params.D_n)),
            ("sigma", ("sigma",), self.M_sigma, (1.0, 1.0 / params.D_c, 1.0)),
            ("c", ("c",), self.M, (1.0, 1.0, params.D_c)),
            ("u", ("u", "pi"), self.M_u, (0.0, params.D_u, params.D_u / params.rho)),
        ):
            fields, pinned, size = [], [], 0
            for name in names:
                layout = getattr(self, f"layout_{name}")
                fields.append((name, slice(size, size + layout.n_dofs)))
                pinned.append(layout.constrained_dofs + size)
                size += layout.n_dofs + layout.mean_constraint
            self._systems[system] = _System(fields, np.concatenate(pinned), mass, scales)
            self.system_size[system] = size
        self.assembly_time = 0.0  # seconds of assembly in the last init_state or step
        self._solvers = {}  # (system, dt) -> solver kept from the first step of the current dt
        self._operators = {}  # system -> its ``_Operator``

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

        The projections of n, c, sigma and (u, pi), in that order, are posed
        as a step's systems: the load placed by ``_rhs``, the operator mass A
        + diffusion B of the system's pair (``_kept_lu``) at its init scales
        in ``_systems``, without transport, the state sliced by ``_state``.
        A projection whose right-hand side, after its constraints, is exactly
        zero is zero and factors nothing: a fluid at rest takes no LU."""
        if mode not in self.INIT_MODES:
            raise ValueError(f"unknown init mode {mode!r}")
        p, alpha0 = self.params, self.params.alpha0
        if mode == "nodal":
            self.assembly_time = 0.0
            x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
            n0 = np.asarray(data.eta0(x, y), dtype=float) - alpha0
            n0 -= (self.w_p1 @ n0) / self.area  # pin the discrete mean
            c0 = np.asarray(data.c0(x, y), dtype=float)
            sig0 = self.layout_sigma.from_vertex_values(data.grad_c0(x, y))
            u0 = self.layout_u.from_vertex_values(data.u0(x, y))
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
        rhs_u = p.D_u * asm.assemble_grad_load(self.layout_u, asm.at_points(data.grad_u0, ctx), ctx)
        if data.pi0 is not None:
            rhs_u -= asm.assemble_div_load(self.layout_u, asm.at_points(data.pi0, ctx), ctx)
        rhs_pi = asm.assemble_load(self.layout_pi, asm.at_points(data.div_u0, ctx), ctx)
        self.assembly_time = time.perf_counter() - t0

        # n: gradient projection, zero mean; c: H1 projection; sigma: div/rot/L2
        # projection under the normal-trace constraints; (u, pi): Stokes projection
        x = {}
        for system, load in (("n", rhs_n), ("c", rhs_c), ("sigma", rhs_s),
                             ("u", np.concatenate([rhs_u, rhs_pi]))):
            rhs, (mass, diffusion, _) = self._rhs(system, load), self._systems[system].scales
            x[system] = self._kept_lu(system, mass, diffusion, _NO_TRANSPORT).solve(
                rhs, _NO_TRANSPORT)[0] if np.any(rhs) else np.zeros_like(rhs)
        state = self._state(0, 0.0, x)
        state.pi /= p.rho  # undo the step's 1/rho, which the Stokes projection does not carry
        return state

    # -- stepping ----------------------------------------------------------

    def _rhs(self, system, b):
        """A new rhs of ``system``: ``b`` at its leading unknowns, 0 at its pinned ones and the rest."""
        rhs = np.zeros(self.system_size[system])
        rhs[: len(b)] = b
        rhs[self._systems[system].pinned] = 0.0
        return rhs

    def _state(self, m, t, x):
        """The ``State`` of level m at t, each field a slice of its system's solution in ``x``."""
        return State(m=m, t=t, **{name: x[system][at] for system, entry in self._systems.items()
                                  for name, at in entry.fields})

    def _solver(self, system, dt, transport=None):
        """``_kept_lu`` of one system's step operator A/dt + D B, D its step
        diffusion scale (``_systems``), built at the first step of that dt with its
        ``transport`` (data on the pattern of M for n and c, of M_u for u;
        sigma's is ``_NO_TRANSPORT``) and kept, whatever a later call's
        ``transport``, until a step with another dt drops it."""
        key = (system, dt)
        if key not in self._solvers:
            self._solvers = {kept: solver for kept, solver in self._solvers.items() if kept[1] == dt}
            self._solvers[key] = self._kept_lu(system, 1.0 / dt, self._systems[system].scales[2], transport)
        return self._solvers[key]

    def _operator(self, system):
        """The ``_Operator`` of the n, sigma, c or u system, built at its first
        LU and kept.  Its pair is (M, K) for n and c, M on the diagonal blocks
        and divrot (D_c inside) for sigma, each on the pattern of M (sigma's
        as four component blocks), and (M_u, K_u) for u.  It keeps for c the
        nodes in the mesh's node order; for n the same, its tail w the
        zero-mean border just before the last node, where every pivot is
        nonzero, also for the init operator K, which is singular (the border
        last would leave K's last pivot, 0); for sigma, its tail [1], the free
        dofs by node, then the pinned dofs as identity rows
        (``linsolve.id_matrix``), so that the LU of the free dofs is that of
        the free block alone; for u the bordered saddle matrix

            T = [ S_c    -G_c/rho  0 ]
                [ G_c^T   0        w ]
                [ 0       w^T      0 ],

        S = mass M_u + diffusion K_u (a step's transport N added), its tail
        [-G/rho, G, w, 1], each pinned velocity dof an identity row and
        column.  T keeps every bubble first, then (u1, u2, pi) by node in the
        node order, its border lam just before the last node's pi, as n's.
        Eliminating the bubbles, each on one element, is static condensation
        inside the LU, and leaves the condensation, whose pressure rows
        scaled by 1/rho have a positive definite symmetric part once one
        pressure dof is left out: the leading block with lam before the last
        pi (lam last would leave the singular condensed block's pivot, 0)."""
        if system not in self._operators:
            order, nn, m = self.mesh.node_order, self.mesh.n_nodes, self.M
            rows, a, b, tail = linsolve.entry_rows(m), m.data, self.K.data, np.zeros(0)
            if system == "c":
                selection = linsolve.Selection(linsolve.entry_ids(m), order)
            elif system == "n":
                nodes, border, w_at = np.arange(nn), np.full(nn, nn), m.nnz + np.arange(nn)
                ids = linsolve.id_matrix((nn + 1, nn + 1), [
                    (rows, m.indices, np.arange(m.nnz)), (nodes, border, w_at), (border, nodes, w_at)])
                selection = linsolve.Selection(ids, np.concatenate([order[:-1], [nn], order[-1:]]))
                tail = self.w_p1
            elif system == "sigma":
                block = np.arange(4)[:, None]  # block [a, b] of the source is block 2 a + b
                pinned = self.layout_sigma.constrained_dofs
                ids = linsolve.id_matrix((2 * nn, 2 * nn), [
                    ((nn * (block // 2) + rows).ravel(), (nn * (block % 2) + m.indices).ravel(),
                     np.arange(4 * m.nnz))],
                    pinned, 4 * m.nnz)
                by_node = np.column_stack([order, nn + order]).ravel()  # a node's two components
                free = np.ones(2 * nn, dtype=bool)
                free[pinned] = False
                selection = linsolve.Selection(ids, np.concatenate([by_node[free[by_node]], pinned]))
                a, b, tail = np.eye(2)[:, :, None] * m.data, self.divrot, np.ones(1)
            else:  # T from the source [S, -G/rho, G, w, 1]
                s, g, layout = self.M_u, self.G, self.layout_u
                nu, n, g_rows = layout.n_dofs, self.system_size["u"], linsolve.entry_rows(g)
                at_g, at_w = s.nnz + np.arange(g.nnz), s.nnz + 2 * g.nnz + np.arange(nn)
                pressures, border = nu + np.arange(nn), np.full(nn, n - 1)
                ids = linsolve.id_matrix((n, n), [
                    (linsolve.entry_rows(s), s.indices, np.arange(s.nnz)),
                    (g_rows, nu + g.indices, at_g),
                    (nu + g.indices, g_rows, g.nnz + at_g),
                    (pressures, border, at_w),
                    (border, pressures, at_w),
                ], layout.constrained_dofs, at_w[-1] + 1)
                by_node = np.column_stack([order, layout.n_scalar + order, nu + order]).ravel()
                bubble = layout.nodal_and_bubble_dofs()[1]
                kept = np.concatenate([bubble, by_node[:-1], [n - 1], by_node[-1:]])
                selection = linsolve.Selection(ids, kept)
                a, b = s.data, self.K_u.data
                tail = np.concatenate([-g.data / self.params.rho, g.data, self.w_p1, [1.0]])
            self._operators[system] = _Operator(selection, a, b, tail)
        return self._operators[system]

    def _kept_lu(self, system, mass, diffusion, transport):
        """``linsolve.KeptLU`` of the operator mass A + diffusion B of
        ``system`` (``_operator``) with ``transport``: the one place an
        operator is formed."""
        op = self._operator(system)
        source = np.concatenate([(mass * op.a + diffusion * op.b).ravel(), op.tail])
        return linsolve.KeptLU(op.selection.matrix(source), op.selection.slots(len(transport)),
                               transport, op.selection.kept)

    @functools.cached_property
    def _load_dofs(self):
        """Element dofs of the loads of the systems, in ``_SYSTEMS`` order
        (n, sigma, c, u), (ne * 20,), offset so that the four loads are
        consecutive parts of one vector, and the offsets of the parts."""
        layouts = [getattr(self, f"layout_{system}") for system in _SYSTEMS]
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
        loads = dict(zip(_SYSTEMS, np.split(b, offsets[1:-1])))
        return (*asm.assemble_skew_data((self.layout_c, self.layout_u), u, ctx), loads)

    def step(self, prev, dt, forcing=None):
        """Advance one time level; returns (state, solve reports).

        One loop poses each system of ``_SYSTEMS`` alike: mass @ prev / dt +
        load, prev the system's first field, placed by ``_rhs`` and solved by
        its kept LU (``_solver``) with its transport; ``_state`` slices the
        solutions.  The seconds spent assembling the step's forms and loads
        (``lagged_forms``) are left in ``assembly_time``.
        """
        # require_real's check without the call: the benchmark's step breakdown
        # counts a public scheme function called here to no phase
        if not _is_real(dt, "positive"):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        t_new = prev.t + dt
        t0 = time.perf_counter()
        n_skew, u_skew, loads = self.lagged_forms(prev, t_new, forcing)
        self.assembly_time = time.perf_counter() - t0

        transports = {"n": n_skew, "sigma": _NO_TRANSPORT, "c": n_skew, "u": u_skew}
        x, reports = {}, {}
        for system in _SYSTEMS:
            entry = self._systems[system]
            b = entry.mass @ getattr(prev, entry.fields[0][0]) / dt + loads[system]
            x[system], reports[system] = self._solver(system, dt, transports[system]).solve(
                self._rhs(system, b), transports[system])
        return self._state(prev.m + 1, t_new, x), reports

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
