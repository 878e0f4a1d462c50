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
velocity/pressure system has its bubbles condensed out.
"""

import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from . import linsolve
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


def is_integer(value, low):
    """Whether ``value`` is an integer >= ``low``, not a bool; numpy integers count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


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
    """Velocity/pressure solver for one step-independent velocity operator.

    Solves the bordered saddle system of the scheme,

        [ S_c    -G_c/rho  0 ] [u  ]   [f]
        [ G_c^T   0        w ] [pi ] = [g]
        [ 0       w^T      0 ] [lam]   [h]

    with S = ``s_const`` + N (N: the skew transport of the solve, data on the
    pattern of ``s_const``) and the pinned velocity dofs eliminated
    (identity rows, value 0), without factoring it:

    * the bubble-bubble block D of S is diagonal (a bubble lives on one
      element, and N has a zero diagonal), so the bubbles are condensed
      out, leaving a P1-P1 system whose pressure block is
      G_B^T D^-1 G_B / rho;
    * G_c 1 = 0, so the continuity rows sum to lam * area; with lam known,
      one pressure dof is pinned and the mean shifted afterwards.

    The bordered matrix of ``s_const``, its pinned velocity dofs eliminated
    by ``linsolve.eliminated``, is kept in a ``linsolve.PatternSum``, into
    which each solve writes its N.  The kept LU is of the condensation of
    that matrix with the N of ``transport``: the first step's own operator,
    or, for a zero transport, the Stokes operator of the initial
    projection.  With its pressure rows scaled by 1/rho that condensation
    has a positive definite symmetric part (S is SPD, N skew and zero on D,
    and x^T (K/D) x = [y; x]^T K [y; x] for y = -D^-1 K_bk x), so it is
    factored without pivoting, as ``linsolve.Factorization`` sets out for
    ``quasi_definite``.  ``solve`` refines against its own matrix through
    the kept LU, or condenses that matrix afresh and factors it with
    partial pivoting, as the safeguard.
    """

    def __init__(self, s_const, g, layout_u, w, rho, transport):
        nodal, bubble = layout_u.nodal_and_bubble_dofs()
        nu, npi = g.shape
        is_bubble = np.zeros(nu, dtype=bool)
        is_bubble[bubble] = True
        rows, cols = linsolve.entry_rows(s_const), s_const.indices
        coupled = is_bubble[rows] & is_bubble[cols] & (rows != cols)
        if np.any(s_const.data[coupled] != 0.0):
            raise ValueError("bubble-bubble block of the velocity operator is not diagonal")
        self.n_u = nu
        wc = sp.csr_matrix(w.reshape(-1, 1))
        saddle = sp.bmat([[s_const, -g / rho, None], [g.T, None, wc], [None, wc.T, None]],
                         format="csr")
        t_const = linsolve.eliminated(saddle, layout_u.constrained_dofs)
        self.d_inv = 1.0 / s_const.diagonal()[bubble]
        self.w = w
        self.area = float(w.sum())
        self.pinned = layout_u.constrained_dofs
        self.bubble = bubble
        # unknowns of the condensed system; pressure dof 0 carries the gauge
        self.kept = np.concatenate([np.setdiff1d(nodal, self.pinned), nu + np.arange(1, npi)])
        self._transport = linsolve.PatternSum(t_const, s_const, self.pinned)
        # kept as data: a closure over self would make a reference cycle,
        # which holds the LU until the cyclic garbage collector runs
        t0 = time.perf_counter()
        self._condensation = self._condense(self._transport(transport), quasi_definite=True)
        self._unpaid = time.perf_counter() - t0  # reported by the first solve

    def _condense(self, t, quasi_definite=False):
        """Nodal-bubble blocks of the saddle matrix ``t`` and an LU of its condensation."""
        t_kept = t[self.kept]
        a_kb = t_kept[:, self.bubble]
        dinv_a_bk = sp.diags(self.d_inv) @ t[self.bubble][:, self.kept]
        condensed = t_kept[:, self.kept] - a_kb @ dinv_a_bk
        return a_kb, dinv_a_bk, linsolve.Factorization(condensed, quasi_definite)

    def _condensed_solve(self, condensation, b):
        """x with T x = b, T the bordered system whose parts ``_condense`` built.

        The condensed LU is applied unchecked; ``solve`` checks the residual
        of the bordered system."""
        a_kb, dinv_a_bk, fact = condensation
        nu, n = self.n_u, len(b) - 1
        lam = b[nu:n].sum() / self.area
        z = b[:n].copy()
        z[nu:] -= lam * self.w
        z_b = self.d_inv * z[self.bubble]
        x = fact.lu_solve(z[self.kept] - a_kb @ z_b)
        z[:] = 0.0
        z[self.kept] = x
        z[self.bubble] = z_b - dinv_a_bk @ x
        z[nu:] += (b[-1] - self.w @ z[nu:]) / self.area
        return np.append(z, lam)

    def solve(self, transport, rhs_u, rhs_pi):
        """(u, pi, SolveReport) for the transport with the data ``transport``
        on the pattern of ``s_const``.  The report carries the residual of
        the full bordered system, which must meet the ``linsolve.RTOL``
        bound; a fresh LU of the condensation takes over if the kept one
        does not get there (``linsolve.refined_solve``).
        """
        t = self._transport(transport)
        rhs_u = np.array(rhs_u, dtype=float)
        rhs_u[self.pinned] = 0.0
        b = np.concatenate([rhs_u, rhs_pi, [0.0]])
        paid, self._unpaid = self._unpaid, None
        inverse = functools.partial(self._condensed_solve, self._condensation)
        fresh = lambda: functools.partial(self._condensed_solve, self._condense(t))
        x, report = linsolve.refined_solve(b, inverse, t, self._transport.abs_matrix, paid, fresh)
        return x[:self.n_u], x[self.n_u:-1], report


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
        self.G.eliminate_zeros()  # its exact zeros would only widen G^T u and the saddle

        self.w_p1 = asm.integral_weight_vector(self.layout_c, self.ctx_p1)
        self.area = float(self.w_p1.sum())
        self.assembly_time = 0.0  # seconds of assembly in the last init_state or step
        self._solvers = {}  # (system, dt) -> solver kept from the first step of that dt

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
        projection of a fluid at rest takes no LU.  The SPD c and sigma
        operators are factored without pivoting; the n operator, whose K
        block is singular, keeps partial pivoting."""
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
        def density(b):
            a = asm.apply_constraints(self.K, self.layout_n, weight_vector=self.w_p1)
            return linsolve.Factorization(a).solve(b)[0]

        n0 = _projected(asm.constrain_rhs(rhs_n, self.layout_n), density)[: self.layout_n.n_dofs]

        # concentration: full H1 projection, SPD
        c0 = _projected(rhs_c, lambda b: linsolve.Factorization(
            self.K + self.M, quasi_definite=True).solve(b)[0])

        # flux: div/rot/L2 projection under the normal-trace constraints, SPD
        def flux(b):
            a = asm.apply_constraints(self.divrot * (1.0 / p.D_c) + self.M_sigma, self.layout_sigma)
            return linsolve.Factorization(linsolve.pruned(a), quasi_definite=True).solve(b)[0]

        sig0 = _projected(asm.constrain_rhs(rhs_s, self.layout_sigma), flux)

        # velocity/pressure: discrete Stokes projection (its LU is used once)
        nu = self.layout_u.n_dofs

        def stokes(b):
            s, zero = self.K_u * p.D_u, np.zeros(self.K_u.nnz)
            saddle = CondensedSaddle(s, self.G, self.layout_u, self.w_p1, p.rho, zero)
            return np.concatenate(saddle.solve(zero, b[:nu], b[nu:])[:2])

        rhs_u[self.layout_u.constrained_dofs] = 0.0
        x = _projected(np.concatenate([rhs_u, rhs_pi]), stokes)
        # the projection problem carries no density scaling on its pressure
        # block, while the step solver does; undo it
        return State(m=0, t=0.0, n=n0, c=c0, sigma=sig0, u=x[:nu], pi=x[nu:] / p.rho)

    # -- stepping ----------------------------------------------------------

    def _solver(self, system, dt, transport=None):
        """Solver of one system and dt, built at the first step of that dt from
        that step's operator, its ``transport`` included (data on the pattern
        of M for n and c, of M_u for u; sigma has none): a ``CondensedSaddle``
        for u, else an LU (n bordered by its zero-mean row, sigma under its
        normal-trace constraints), for n and c with a ``linsolve.PatternSum``
        of the transport-free operator on the layout's pattern, into which a
        later step writes its own transport.  A later call returns the kept
        solver whatever its ``transport``.

        The SPD sigma operator and the condensed (u, pi) one are factored
        without pivoting (``linsolve.Factorization``'s ``quasi_definite``).
        The n and c LUs keep COLAMD with partial pivoting: at the benchmark's
        sizes they solve faster, and each is applied several times per step."""
        key = (system, dt)
        if key not in self._solvers:
            p = self.params
            if system == "u":
                s = self.M_u * (1.0 / dt)
                s.data += self.K_u.data * (p.D_u / p.rho)  # M_u and K_u share the layout's pattern
                solver = CondensedSaddle(s, self.G, self.layout_u, self.w_p1, p.rho, transport)
            elif system == "sigma":
                a = self.M_sigma * (1.0 / dt) + self.divrot
                a = asm.apply_constraints(a, self.layout_sigma)
                solver = linsolve.Factorization(linsolve.pruned(a), quasi_definite=True)
            else:
                a = self.M * (1.0 / dt)
                a.data += self.K.data * (p.D_n if system == "n" else p.D_c)  # so do M and K
                if system == "n":
                    a = asm.apply_constraints(a, self.layout_n, weight_vector=self.w_p1)
                operator = linsolve.PatternSum(a, self.M)
                solver = linsolve.Factorization(linsolve.pruned(operator(transport))), operator
            self._solvers[key] = solver
        return self._solvers[key]

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
        lu, operator = self._solver("n", dt, n_skew)
        rhs = asm.constrain_rhs(self.M @ prev.n / dt + loads["n"], self.layout_n)
        sol, reports["n"] = lu.solve(rhs, operator(n_skew), operator.abs_matrix)
        n_new = sol[: self.layout_n.n_dofs]

        # (b) flux
        rhs = asm.constrain_rhs(self.M_sigma @ prev.sigma / dt + loads["sigma"], self.layout_sigma)
        sigma_new, reports["sigma"] = self._solver("sigma", dt).solve(rhs)

        # (c) concentration
        lu, operator = self._solver("c", dt, n_skew)
        c_new, reports["c"] = lu.solve(
            self.M @ prev.c / dt + loads["c"], operator(n_skew), operator.abs_matrix
        )

        # (d)-(e) velocity and pressure
        u_new, pi_new, reports["u"] = self._solver("u", dt, u_skew).solve(
            u_skew, self.M_u @ prev.u / dt + loads["u"], np.zeros(self.layout_pi.n_dofs)
        )

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
