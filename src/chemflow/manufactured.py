"""Manufactured-solution verification harness.

A closed-form solution on the unit square drives the solver through
analytic source terms (the strong-form residuals of the governing
equations at that solution, with every physical parameter equal to one and
zero gravity); discrete errors against the exact fields then expose the
convergence orders of the scheme.

The prescribed cell density keeps its spatial mean constant in time, so it
is compatible with the conservation property the scheme enforces exactly;
its zero-mean part, the concentration, flux, velocity and pressure decay
as ``exp(-t)`` with the classical trigonometric profiles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import build_rect_mesh
from .scheme import InitialData, ModelParams, Stepper, StepForcing, TimeGrid

TWO_PI = 2.0 * math.pi
FOUR_PI2 = TWO_PI**2
EIGHT_PI3 = TWO_PI**3
ETA_MEAN = 3.0  # spatial mean of the prescribed cell density, all t

VARIABLES = ("eta", "c", "u1", "u2")


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form fields with their time derivatives and gradients.

    All members are vectorized callables of (x, y, t); vector fields
    return (..., 2) and gradients of vectors (..., 2, 2) with the
    component index first.
    """

    eta: object
    eta_t: object
    grad_eta: object
    lap_eta: object
    c: object
    c_t: object
    grad_c: object
    sigma: object
    sigma_t: object
    grad_sigma: object
    div_sigma: object
    grad_div_sigma: object
    rot_sigma: object
    u: object
    u_t: object
    grad_u: object
    lap_u: object
    div_u: object
    pi: object
    grad_pi: object


def _stack(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def test2_solution():
    """The convergence-study exact solution on [0,1]^2."""

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

    def rot_sigma(x, y, t):
        return np.zeros(np.shape(x))

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

    return ExactSolution(
        eta=eta, eta_t=eta_t, grad_eta=grad_eta, lap_eta=lap_eta,
        c=c, c_t=c_t, grad_c=grad_c,
        sigma=sigma, sigma_t=sigma_t, grad_sigma=grad_sigma,
        div_sigma=div_sigma, grad_div_sigma=grad_div_sigma, rot_sigma=rot_sigma,
        u=u, u_t=u_t, grad_u=grad_u, lap_u=lap_u, div_u=div_u,
        pi=pi, grad_pi=grad_pi,
    )


def test2_forcing(sol=None):
    """Source terms that make the exact solution solve the forced system.

    Residuals of the strong equations at the exact solution with unit
    coefficients and zero gravity; the flux source is the gradient of the
    concentration source.
    """
    sol = sol or test2_solution()

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


def test2_params():
    return ModelParams(
        chi=1.0, D_n=1.0, D_c=1.0, D_u=1.0, rho=1.0, gamma=1.0,
        grad_phi=(0.0, 0.0), alpha0=ETA_MEAN,
    )


def test2_initial_data(sol=None):
    sol = sol or test2_solution()
    at0 = lambda f: (lambda x, y, _f=f: _f(x, y, 0.0))
    return InitialData(
        eta0=at0(sol.eta), grad_eta0=at0(sol.grad_eta),
        c0=at0(sol.c), grad_c0=at0(sol.grad_c),
        sigma0=at0(sol.sigma), div_sigma0=at0(sol.div_sigma), rot_sigma0=at0(sol.rot_sigma),
        u0=at0(sol.u), grad_u0=at0(sol.grad_u), div_u0=at0(sol.div_u),
        pi0=at0(sol.pi),
    )


# ---------------------------------------------------------------------------
# discrete error norms


@dataclass
class MeshErrors:
    """Per-variable error norms of one run (one mesh of the family)."""

    k: int
    h: float
    linf_l2: dict
    l2_h1: dict
    linf_h1: dict


@dataclass
class ErrorReport:
    """Errors across a mesh family plus observed convergence orders."""

    meshes: list

    def orders(self, norm, var):
        """Observed order between consecutive meshes; None for the first row.

        order = log(e_coarse / e_fine) / log(h_coarse / h_fine), computed
        only when both errors are strictly positive.
        """
        errors = [getattr(m, norm).get(var) for m in self.meshes]
        hs = [m.h for m in self.meshes]
        out = [None]
        for i in range(1, len(errors)):
            e0, e1, h0, h1 = errors[i - 1], errors[i], hs[i - 1], hs[i]
            if e0 is None or e1 is None or e0 <= 0 or e1 <= 0 or not h0 > h1:
                out.append(None)
            else:
                out.append(math.log(e0 / e1) / math.log(h0 / h1))
        return out


def _spatial_errors(stepper, state, sol):
    """L2 and H1 errors of eta, c, u1, u2 against the exact fields at state.t."""
    ctx = stepper.ctx
    x, y = ctx.points[..., 0], ctx.points[..., 1]
    t = state.t
    p = stepper.params
    scale = ctx.weights[None, :] * ctx.areas[:, None]

    def norms(err_val, err_grad):
        l2sq = float((scale * err_val**2).sum())
        h1sq = float((scale * (err_grad**2).sum(axis=-1)).sum())
        return l2sq, h1sq

    out = {}
    fn = stepper.field_n(state)
    out["eta"] = norms(
        sol.eta(x, y, t) - (fn.values(ctx) + p.alpha0),
        sol.grad_eta(x, y, t) - fn.gradients(ctx),
    )
    fc = stepper.field_c(state)
    out["c"] = norms(
        sol.c(x, y, t) - fc.values(ctx), sol.grad_c(x, y, t) - fc.gradients(ctx)
    )
    fu = stepper.field_u(state)
    uv = fu.values(ctx)
    ug = fu.gradients(ctx)
    uex = sol.u(x, y, t)
    gex = sol.grad_u(x, y, t)
    out["u1"] = norms(uex[..., 0] - uv[..., 0], gex[..., 0, :] - ug[..., 0, :])
    out["u2"] = norms(uex[..., 1] - uv[..., 1], gex[..., 1, :] - ug[..., 1, :])
    return out


def error_norms(states, stepper, dt, sol=None, k=None):
    """Discrete-in-time error norms of a trajectory.

    linf(L2): max over all time levels of the spatial L2 error.
    l2(H1): sqrt(dt * sum over steps m >= 1) of the squared full H1 error.
    linf(H1): max over all time levels of the full H1 error (velocity
    components only, mirroring the reported tables).
    """
    sol = sol or test2_solution()
    linf_l2 = {v: 0.0 for v in VARIABLES}
    linf_h1 = {v: 0.0 for v in VARIABLES}
    l2_h1 = {v: 0.0 for v in VARIABLES}
    for state in states:
        errs = _spatial_errors(stepper, state, sol)
        for v, (l2sq, h1sq) in errs.items():
            linf_l2[v] = max(linf_l2[v], math.sqrt(l2sq))
            linf_h1[v] = max(linf_h1[v], math.sqrt(l2sq + h1sq))
            if state.m >= 1:
                l2_h1[v] += dt * (l2sq + h1sq)
    l2_h1 = {v: math.sqrt(s) for v, s in l2_h1.items()}
    return MeshErrors(
        k=k if k is not None else -1,
        h=stepper.mesh.h,
        linf_l2=linf_l2,
        l2_h1=l2_h1,
        linf_h1={v: linf_h1[v] for v in ("u1", "u2")},
    )


def convergence_study(mesh_sizes, dt, T, init_mode="elliptic_projection", quad_degree=8):
    """Run the manufactured problem on a family of k x k meshes.

    Returns an ErrorReport with one MeshErrors entry per k, in order.
    """
    if sorted(mesh_sizes) != list(mesh_sizes):
        raise ValueError("mesh sizes must be increasing")
    n_steps = round(T / dt)
    if not math.isclose(n_steps * dt, T, rel_tol=1e-9):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    sol = test2_solution()
    forcing = test2_forcing(sol)
    data = test2_initial_data(sol)
    grid = TimeGrid(dt=dt, n_steps=n_steps)
    entries = []
    for k in mesh_sizes:
        mesh = build_rect_mesh(1.0, 1.0, k, k)
        stepper = Stepper(mesh, test2_params(), quad_degree=quad_degree)
        result = stepper.run(grid, data, mode=init_mode, forcing=forcing)
        entries.append(error_norms(result.states, stepper, dt, sol=sol, k=k))
    return ErrorReport(meshes=entries)
