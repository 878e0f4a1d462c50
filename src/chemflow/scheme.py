"""First-order semi-coupled time stepping for the chemotaxis-fluid system.

Per step, four linear systems are solved in a fixed order -- cell density,
chemical-gradient flux, chemical concentration, then the velocity/pressure
saddle system -- and every nonlinear coupling is evaluated at the previous
time level, so each system is linear and they never feed back within a
step.  Matrices that do not depend on the previous level (mass, stiffness,
div/rot, pressure coupling) are assembled once per mesh; only the two
transport matrices and the load vectors are rebuilt each step.  The
velocity/pressure system is solved with its bubbles condensed out
(``CondensedSaddle``), from parts built once per time step size.
"""

import math
import time
from dataclasses import dataclass, field

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


@dataclass
class ModelParams:
    """Physical parameters.  The diffusivities and rho must be positive,
    chi and gamma nonnegative (0 switches the coupling off), all finite.

    ``grad_phi`` is the gravitational-potential gradient as a constant
    2-vector or a vectorized callable (x, y) -> (..., 2); ``alpha0`` is the
    conserved spatial mean of the initial cell density.
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
        for name in ("D_n", "D_c", "D_u", "rho"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"parameter {name} must be finite and positive")
        for name in ("chi", "gamma"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"parameter {name} must be finite and nonnegative")
        if not math.isfinite(self.alpha0):
            raise ValueError("parameter alpha0 must be finite")
        if not callable(self.grad_phi) and not np.all(np.isfinite(self.grad_phi)):
            raise ValueError("constant grad_phi must be finite")

    def grad_phi_field(self):
        if callable(self.grad_phi):
            return asm.AnalyticField(self.grad_phi, components=2)
        return asm.constant_vector_field(self.grad_phi)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with T = n_steps * dt."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0) or self.n_steps < 0:
            raise ValueError("need a finite dt > 0 and n_steps >= 0")

    @property
    def T(self):
        return self.dt * self.n_steps

    def times(self):
        return np.arange(self.n_steps + 1) * self.dt


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
    arrays, ``sigma0``/``u0`` return (..., 2), ``grad_u0`` returns
    (..., 2, 2).  ``pi0`` participates in the velocity projection only and
    may be None (treated as zero).
    """

    eta0: object
    grad_eta0: object
    c0: object
    grad_c0: object
    sigma0: object
    div_sigma0: object
    rot_sigma0: object
    u0: object
    grad_u0: object
    div_u0: object
    pi0: object = None


@dataclass
class SimulationResult:
    states: list
    diagnostics: list
    snapshots: list = field(default_factory=list)  # (time, state index)


class CondensedSaddle:
    """Velocity/pressure solver for one step-independent velocity operator.

    Solves the bordered saddle system of the scheme,

        [ S_c    -G_c/rho  0 ] [u  ]   [f]
        [ G_c^T   0        w ] [pi ] = [g]
        [ 0       w^T      0 ] [lam]   [h]

    with S = ``s_const`` + N (N: the skew transport matrix of the step)
    and the pinned velocity dofs eliminated (identity rows, value 0),
    without factoring it:

    * the bubble-bubble block D of S is diagonal (a bubble lives on one
      element, and N has a zero diagonal), so the bubbles are condensed
      out, leaving a P1-P1 system whose pressure block is
      G_B^T D^-1 G_B / rho;
    * G_c 1 = 0, so the continuity rows sum to lam * area; with lam known,
      one pressure dof is pinned and the mean shifted afterwards.

    The saddle matrix of ``s_const``, D^-1 and the index sets are built
    once; ``solve`` adds N, condenses and checks the residual of the
    full system above.
    """

    def __init__(self, s_const, g, layout_u, w, rho):
        nodal, bubble = layout_u.nodal_and_bubble_dofs()
        s_bb = s_const[bubble][:, bubble]
        if (s_bb - sp.diags(s_bb.diagonal())).count_nonzero():
            raise ValueError("bubble-bubble block of the velocity operator is not diagonal")
        nu, npi = g.shape
        self.n_u = nu
        self.t_const = sp.bmat([[s_const, -g / rho], [g.T, None]], format="csr")
        self.d_inv = 1.0 / s_bb.diagonal()
        self.w = w
        self.area = float(w.sum())
        self.pinned = layout_u.constrained_dofs
        self.bubble = bubble
        # unknowns of the condensed system; pressure dof 0 carries the gauge
        self.kept = np.concatenate([np.setdiff1d(nodal, self.pinned), nu + np.arange(1, npi)])
        self.unpinned = np.ones(nu + npi, dtype=bool)
        self.unpinned[self.pinned] = False

    def solve(self, skew, rhs_u, rhs_pi):
        """(u, pi, SolveReport) for the step whose transport matrix is ``skew``.

        ``skew`` may be None (no transport).  The report carries the
        residual of the full bordered system, which must meet the
        ``linsolve.RTOL`` bound.
        """
        t0 = time.perf_counter()
        t = self.t_const
        nu, n = self.n_u, t.shape[0]
        if skew is not None:
            indptr = np.concatenate([skew.indptr, np.full(n - nu, skew.indptr[-1])])
            t = t + sp.csr_matrix((skew.data, skew.indices, indptr), shape=t.shape)
        t_kept = t[self.kept]
        a_kb = t_kept[:, self.bubble]
        dinv_a_bk = sp.diags(self.d_inv) @ t[self.bubble][:, self.kept]
        condensed = t_kept[:, self.kept] - a_kb @ dinv_a_bk
        fact = linsolve.Factorization(condensed)
        factor_time = time.perf_counter() - t0

        def condensed_solve(b):
            lam = b[nu:n].sum() / self.area
            z = b[:n].copy()
            z[nu:] -= lam * self.w
            z_b = self.d_inv * z[self.bubble]
            x, _ = fact.solve(z[self.kept] - a_kb @ z_b)
            z[:] = 0.0
            z[self.kept] = x
            z[self.bubble] = z_b - dinv_a_bk @ x
            z[nu:] += (b[-1] - self.w @ z[nu:]) / self.area
            return np.append(z, lam)

        # bordered system with the pinned velocity rows/columns made identity
        rows = np.repeat(np.arange(n), np.diff(t.indptr))
        kept_entries = self.unpinned[rows] & self.unpinned[t.indices]
        fro = math.sqrt(
            float((t.data[kept_entries] ** 2).sum())
            + len(self.pinned)
            + 2.0 * float(self.w @ self.w)
        )

        def apply(x):
            z = x[:n].copy()
            z[self.pinned] = 0.0
            r = t @ z
            r[self.pinned] = x[self.pinned]
            r[nu:] += x[-1] * self.w
            return np.append(r, self.w @ x[nu:n])

        rhs_u = np.array(rhs_u, dtype=float)
        rhs_u[self.pinned] = 0.0
        b = np.concatenate([rhs_u, rhs_pi, [0.0]])
        x, res_norm, solve_time = linsolve.checked_solve(b, condensed_solve, apply, fro)
        report = linsolve.SolveReport(
            residual_norm=res_norm, factor_time=factor_time, solve_time=solve_time
        )
        return x[:nu], x[nu:n], report


def _bind_time(fn, t, components=1):
    if fn is None:
        return None
    return asm.AnalyticField(lambda x, y, _t=t: fn(x, y, _t), components=components)


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
        self.divrot = asm.assemble_divrot(self.layout_sigma, params.D_c)
        self.M_u = asm.assemble_mass(self.layout_u, self.ctx)
        self.K_u = asm.assemble_stiffness(self.layout_u, 1.0, self.ctx)
        self.G = asm.assemble_pressure_coupling(self.layout_u, self.layout_pi, self.ctx)

        self.w_p1 = asm.integral_weight_vector(self.layout_c, self.ctx_p1)
        self.area = float(self.w_p1.sum())
        self._grad_phi = params.grad_phi_field()
        self._sigma_solver = {}  # dt -> Factorization of the flux system
        self._saddle_solver = {}  # dt (None: Stokes projection) -> CondensedSaddle

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
        hold exactly in both modes."""
        if mode not in self.INIT_MODES:
            raise ValueError(f"unknown init mode {mode!r}")
        alpha0 = self.params.alpha0
        if mode == "nodal":
            x, y = self.mesh.nodes[:, 0], self.mesh.nodes[:, 1]
            n0 = np.asarray(data.eta0(x, y), dtype=float) - alpha0
            n0 -= (self.w_p1 @ n0) / self.area  # pin the discrete mean
            c0 = np.asarray(data.c0(x, y), dtype=float)
            sig_nodal = np.asarray(data.sigma0(x, y), dtype=float)
            sigma0 = np.concatenate([sig_nodal[..., 0], sig_nodal[..., 1]])
            sigma0[self.layout_sigma.constrained_dofs] = 0.0
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
            return State(m=0, t=0.0, n=n0, c=c0, sigma=sigma0, u=u0, pi=pi0)

        ctx = self.ctx
        # density: gradient projection with matched (zero) mean
        a_n = asm.apply_constraints(self.K, self.layout_n, weight_vector=self.w_p1)
        rhs = asm.assemble_grad_load(
            self.layout_n, asm.AnalyticField(data.grad_eta0, components=2), ctx
        )
        rhs = asm.constrain_rhs(rhs, self.layout_n)
        n0 = linsolve.solve(a_n, rhs)[0][: self.layout_n.n_dofs]

        # concentration: full H1 projection
        a_c = self.K + self.M
        rhs = asm.assemble_grad_load(
            self.layout_c, asm.AnalyticField(data.grad_c0, components=2), ctx
        )
        rhs += asm.assemble_load(self.layout_c, asm.AnalyticField(data.c0), ctx)
        c0 = linsolve.solve(a_c, rhs)[0]

        # flux: div/rot/L2 projection under the normal-trace constraints
        a_s = asm.apply_constraints(
            self.divrot * (1.0 / self.params.D_c) + self.M_sigma, self.layout_sigma
        )
        rhs = asm.assemble_div_load(
            self.layout_sigma, asm.AnalyticField(data.div_sigma0), ctx
        )
        rhs += asm.assemble_rot_load(
            self.layout_sigma, asm.AnalyticField(data.rot_sigma0), ctx
        )
        rhs += asm.assemble_load(
            self.layout_sigma, asm.AnalyticField(data.sigma0, components=2), ctx
        )
        rhs = asm.constrain_rhs(rhs, self.layout_sigma)
        sigma0 = linsolve.solve(a_s, rhs)[0]

        # velocity/pressure: discrete Stokes projection
        d_u = self.params.D_u
        rhs_u = d_u * asm.assemble_grad_load(
            self.layout_u, asm.AnalyticField(data.grad_u0, components=2), ctx
        )
        if data.pi0 is not None:
            rhs_u -= asm.assemble_div_load(
                self.layout_u, asm.AnalyticField(data.pi0), ctx
            )
        rhs_pi = asm.assemble_load(
            self.layout_pi, asm.AnalyticField(data.div_u0), ctx
        )
        u0, pi0, _ = self._saddle(None).solve(None, rhs_u, rhs_pi)
        # the projection problem carries no density scaling on its pressure
        # block, while the step solver does; undo it
        pi0 = pi0 / self.params.rho
        return State(m=0, t=0.0, n=n0, c=c0, sigma=sigma0, u=u0, pi=pi0)

    # -- stepping ----------------------------------------------------------

    def _saddle(self, dt):
        """Velocity/pressure solver of one time step size; ``dt=None`` gives
        the Stokes operator of the initial projection."""
        if dt not in self._saddle_solver:
            p = self.params
            if dt is None:
                s = self.K_u * p.D_u
            else:
                s = self.M_u * (1.0 / dt) + self.K_u * (p.D_u / p.rho)
            self._saddle_solver[dt] = CondensedSaddle(s, self.G, self.layout_u, self.w_p1, p.rho)
        return self._saddle_solver[dt]

    def _sigma_factorization(self, dt):
        if dt not in self._sigma_solver:
            a = self.M_sigma * (1.0 / dt) + self.divrot
            self._sigma_solver[dt] = linsolve.Factorization(
                asm.apply_constraints(a, self.layout_sigma)
            )
        return self._sigma_solver[dt]

    def step(self, prev, dt, forcing=None):
        """Advance one time level; returns (state, solve reports)."""
        p = self.params
        t_new = prev.t + dt
        forcing = forcing or StepForcing()
        g_n = _bind_time(forcing.g_n, t_new)
        g_c = _bind_time(forcing.g_c, t_new)
        g_u = _bind_time(forcing.g_u, t_new, components=2)

        u_prev = self.field_u(prev)
        n_prev = self.field_n(prev)
        c_prev = self.field_c(prev)
        sigma_prev = self.field_sigma(prev)
        reports = {}

        # transport matrix shared by the density and concentration systems
        n_skew = asm.assemble_skew(self.layout_c, u_prev, self.ctx)

        # (a) cell density
        a_n = self.M * (1.0 / dt) + self.K * p.D_n + n_skew
        rhs = self.M @ prev.n / dt
        rhs += asm.assemble_chemo_rhs(
            self.layout_n, n_prev, sigma_prev, p.chi, p.alpha0, self.ctx
        )
        if g_n is not None:
            rhs += asm.assemble_load(self.layout_n, g_n, self.ctx)
        a_n = asm.apply_constraints(a_n, self.layout_n, weight_vector=self.w_p1)
        rhs = asm.constrain_rhs(rhs, self.layout_n)
        sol, reports["n"] = linsolve.solve(a_n, rhs)
        n_new = sol[: self.layout_n.n_dofs]

        # (b) flux
        rhs = self.M_sigma @ prev.sigma / dt
        rhs += asm.assemble_sigma_rhs(
            self.layout_sigma, u_prev, sigma_prev, n_prev, c_prev, p.gamma, p.alpha0, self.ctx
        )
        if g_c is not None:
            rhs -= asm.assemble_div_load(self.layout_sigma, g_c, self.ctx)
        rhs = asm.constrain_rhs(rhs, self.layout_sigma)
        sigma_new, reports["sigma"] = self._sigma_factorization(dt).solve(rhs)

        # (c) concentration
        a_c = self.M * (1.0 / dt) + self.K * p.D_c + n_skew
        rhs = self.M @ prev.c / dt
        rhs += asm.assemble_consumption_rhs(
            self.layout_c, n_prev, c_prev, p.gamma, p.alpha0, self.ctx
        )
        if g_c is not None:
            rhs += asm.assemble_load(self.layout_c, g_c, self.ctx)
        c_new, reports["c"] = linsolve.solve(a_c, rhs)

        # (d)-(e) velocity and pressure
        u_skew = asm.assemble_skew(self.layout_u, u_prev, self.ctx)
        rhs_u = self.M_u @ prev.u / dt
        rhs_u += asm.assemble_buoyancy_rhs(
            self.layout_u, n_prev, self._grad_phi, p.rho, p.alpha0, self.ctx
        )
        if g_u is not None:
            rhs_u += asm.assemble_load(self.layout_u, g_u, self.ctx)
        u_new, pi_new, reports["u"] = self._saddle(dt).solve(
            u_skew, rhs_u, np.zeros(self.layout_pi.n_dofs)
        )

        state = State(m=prev.m + 1, t=t_new, n=n_new, c=c_new, sigma=sigma_new, u=u_new, pi=pi_new)
        return state, reports

    def run(self, grid, data, mode="elliptic_projection", forcing=None, snapshot_times=()):
        """Integrate over the whole time grid, collecting diagnostics.

        Diagnostics per step: time level, conserved mass, solver residuals
        with their factor and solve times, the discrete-divergence residual,
        and min/max of each field's nodal values.
        """
        state = self.init_state(data, mode=mode)
        states = [state]
        diagnostics = [self._diagnostics_record(state, {})]
        snapshots = self._match_snapshots(snapshot_times, grid, 0, [])
        for m in range(1, grid.n_steps + 1):
            state, reports = self.step(state, grid.dt, forcing)
            states.append(state)
            diagnostics.append(self._diagnostics_record(state, reports))
            snapshots = self._match_snapshots(snapshot_times, grid, m, snapshots)
        return SimulationResult(states=states, diagnostics=diagnostics, snapshots=snapshots)

    def _match_snapshots(self, snapshot_times, grid, m, acc):
        t = m * grid.dt
        for ts in snapshot_times:
            if math.isclose(ts, t, rel_tol=0.0, abs_tol=1e-9 * max(grid.dt, 1e-300)):
                acc.append((t, m))
        return acc

    def _diagnostics_record(self, state, reports):
        nn = self.mesh.n_nodes
        rec = {
            "m": state.m,
            "t": state.t,
            "mass": self.mass_of_eta(state),
            "div_residual": self.divergence_residual(state),
        }
        nodal = {
            "eta": state.n[:nn] + self.params.alpha0,
            "c": state.c[:nn],
            "u1": state.u[:nn],
            "u2": state.u[self.layout_u.n_scalar : self.layout_u.n_scalar + nn],
            "pi": state.pi[:nn],
        }
        for name, vals in nodal.items():
            rec[f"min_{name}"] = float(vals.min())
            rec[f"max_{name}"] = float(vals.max())
        for name, rep in reports.items():
            rec[f"residual_{name}"] = rep.residual_norm
            rec[f"factor_time_{name}"] = rep.factor_time
            rec[f"solve_time_{name}"] = rep.solve_time
        return rec
