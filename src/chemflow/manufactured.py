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
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .mesh import build_rect_mesh
from .scheme import (
    InitialData, ModelParams, Stepper, StepForcing, TimeGrid, grid_step, is_integer, require_real,
)

TWO_PI = 2.0 * math.pi
FOUR_PI2 = TWO_PI**2
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
    u: object
    u_t: object
    grad_u: object
    lap_u: object
    div_u: object
    pi: object
    grad_pi: object


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _neg(v):
    return tuple(-a for a in v)


class _lazy:
    """A value computed on an instance's first use and kept in its ``__dict__``
    (``functools.cached_property`` without the lock it takes before 3.12)."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Test2:
    """The test2 fields and sources at the points (x, y) and times t.

    One instance serves one call.  Each quantity is computed on first use
    from the table of exp(-t), sin/cos(2 pi x) and sin/cos(2 pi y), and
    kept, so a single field pays only for the terms it needs and a source
    computes each term once.  Vectors are tuples of components, gradients
    of vectors tuples of rows (component index first).
    """

    def __init__(self, x, y, t):
        self.x, self.y, self.t = x, y, t

    def at(self, t):
        """The table at time t over this table's sin/cos of 2 pi x and 2 pi y."""
        table = _Test2(self.x, self.y, t)
        table.__dict__.update(sx=self.sx, cx=self.cx, sy=self.sy, cy=self.cy)
        return table

    e = _lazy(lambda s: np.exp(-s.t))
    sx = _lazy(lambda s: np.sin(TWO_PI * s.x))
    cx = _lazy(lambda s: np.cos(TWO_PI * s.x))
    sy = _lazy(lambda s: np.sin(TWO_PI * s.y))
    cy = _lazy(lambda s: np.cos(TWO_PI * s.y))
    zero = _lazy(lambda s: np.zeros(np.broadcast(s.x, s.y, s.t).shape))

    eta_wave = _lazy(lambda s: s.e * (s.cx + s.cy))  # eta minus its mean
    eta = _lazy(lambda s: s.eta_wave + ETA_MEAN)
    eta_t = _lazy(lambda s: -s.eta_wave)
    grad_eta = _lazy(lambda s: (-TWO_PI * s.e * s.sx, -TWO_PI * s.e * s.sy))
    lap_eta = _lazy(lambda s: -FOUR_PI2 * s.eta_wave)
    c = _lazy(lambda s: s.e * (s.sy + s.cx - TWO_PI * s.y + 9.0))
    c_t = _lazy(lambda s: -s.c)
    sigma = _lazy(lambda s: (-TWO_PI * s.e * s.sx, TWO_PI * s.e * (s.cy - 1.0)))
    grad_c = _lazy(lambda s: s.sigma)
    sigma_t = _lazy(lambda s: _neg(s.sigma))
    grad_sigma = _lazy(
        lambda s: ((-FOUR_PI2 * s.e * s.cx, 0.0), (0.0, -FOUR_PI2 * s.e * s.sy))
    )
    pi = _lazy(lambda s: s.e * (s.cx + s.sy))
    grad_pi = _lazy(lambda s: (-TWO_PI * s.e * s.sx, TWO_PI * s.e * s.cy))
    div_sigma = _lazy(lambda s: -FOUR_PI2 * s.pi)
    grad_div_sigma = _lazy(lambda s: tuple(-FOUR_PI2 * g for g in s.grad_pi))
    u = _lazy(lambda s: (s.e * s.sy * (s.cx - 1.0), s.e * s.sx * (1.0 - s.cy)))
    u_t = _lazy(lambda s: _neg(s.u))
    lap_u = _lazy(lambda s: (
        -FOUR_PI2 * s.e * s.sy * (2.0 * s.cx - 1.0), FOUR_PI2 * s.e * s.sx * (2.0 * s.cy - 1.0)
    ))
    div_u = _lazy(lambda s: s.zero)

    @_lazy
    def grad_u(self):
        e, sx, cx, sy, cy = self.e, self.sx, self.cx, self.sy, self.cy
        diag = TWO_PI * e * sx * sy
        return ((-diag, TWO_PI * e * cy * (cx - 1.0)), (TWO_PI * e * cx * (1.0 - cy), diag))

    # sources: residuals of the strong equations at the exact solution with
    # unit coefficients and zero gravity

    @_lazy
    def g_n(self):
        ge = self.grad_eta
        chemo = _dot(ge, self.sigma) + self.eta * self.div_sigma
        return self.eta_t + _dot(self.u, ge) - self.lap_eta + chemo

    @_lazy
    def g_c(self):
        return self.c_t + _dot(self.u, self.sigma) - self.div_sigma + self.eta * self.c

    @_lazy
    def g_sigma(self):
        # gradient of g_c, using grad(c_t) = -sigma for this solution
        u, gu, sg, gs = self.u, self.grad_u, self.sigma, self.grad_sigma
        return tuple(
            -sg[d]
            + gu[0][d] * sg[0] + u[0] * gs[0][d] + gu[1][d] * sg[1] + u[1] * gs[1][d]
            - self.grad_div_sigma[d]
            + self.grad_eta[d] * self.c
            + self.eta * sg[d]
            for d in range(2)
        )

    @_lazy
    def g_u(self):
        u, gu = self.u, self.grad_u
        return tuple(
            self.u_t[d] + _dot(u, gu[d]) - self.lap_u[d] + self.grad_pi[d] for d in range(2)
        )


def _array(value):
    """A quantity of ``_Test2`` as one array: components on a last axis,
    rows on the axis before it."""
    if not isinstance(value, tuple):
        return value
    matrix = isinstance(value[0], tuple)
    comps = [c for row in value for c in row] if matrix else value
    out = np.empty(np.broadcast(*comps).shape + (len(comps),))
    for i, comp in enumerate(comps):
        out[..., i] = comp
    return out.reshape(out.shape[:-1] + (2, 2)) if matrix else out


def _pointwise(name, table=_Test2):
    """The vectorized (x, y, t) callable of one quantity of ``_Test2``, read
    from ``table(x, y, t)``.  The quantity itself is not kept in the table;
    each source formula builds new arrays, so the caller of a table shared
    between calls still owns each source it gets."""
    formula = vars(_Test2)[name].fn

    def fn(x, y, t):
        return _array(formula(table(x, y, t)))

    fn.__name__ = fn.__qualname__ = name
    return fn


def test2_solution():
    """The convergence-study exact solution on [0,1]^2."""
    return ExactSolution(**{f.name: _pointwise(f.name) for f in fields(ExactSolution)})


def _same(value, kept):
    """Whether ``value`` equals the private copy ``kept`` in dtype, shape and
    every entry (a caller's view may be new on each call, or changed in place)."""
    return np.asarray(value).dtype == kept.dtype and np.array_equal(value, kept)


def test2_forcing():
    """Source terms that make the exact solution solve the forced system.

    Residuals of the strong equations at the exact solution with unit
    coefficients and zero gravity; the flux source is the gradient of the
    concentration source.

    The four sources share one table: the spatial half (sin/cos of 2 pi x
    and 2 pi y) is kept while x and y hold the same values, and one level
    over it while t does too, so the sources of a step compute exp(-t)
    and the fields they share once, and a run on one mesh computes its
    sin/cos once.  Points or times that differ by value replace what is
    kept; each call returns arrays of its own.
    """
    kept = {}  # private copies of x, y and t; the half over x, y; the level at t

    def level(x, y, t):
        if "half" in kept and _same(x, kept["x"]) and _same(y, kept["y"]):
            if _same(t, kept["t"]):
                return kept["level"]
        else:
            kept["x"], kept["y"] = np.array(x), np.array(y)
            kept["half"] = _Test2(kept["x"], kept["y"], 0.0)
        kept["t"] = np.array(t)
        kept["level"] = kept["half"].at(kept["t"])
        return kept["level"]

    names = ("g_n", "g_c", "g_sigma", "g_u")
    return StepForcing(**{name: _pointwise(name, level) for name in names})


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
        div_sigma0=at0(sol.div_sigma),
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


def _spatial_errors(stepper, state, exact, scale, rows):
    """Squared L2 and H1 errors of eta, c, u1, u2 at state.t.

    ``exact`` carries eta, grad_eta, c, grad_c, u and grad_u at the
    quadrature points, vector components first; ``scale`` is the flattened
    quadrature weights times element areas; ``rows`` is 12 rows of scratch.
    """
    ctx = stepper.ctx
    fn, fc, fu = stepper.field_n(state), stepper.field_c(state), stepper.field_u(state)
    gn, gc, uv, gu = fn.gradients(ctx), fc.gradients(ctx), fu.values(ctx), fu.gradients(ctx)
    discrete = (
        fn.values(ctx) + stepper.params.alpha0, gn[..., 0], gn[..., 1],
        fc.values(ctx), gc[..., 0], gc[..., 1],
        uv[..., 0], gu[..., 0, 0], gu[..., 0, 1],
        uv[..., 1], gu[..., 1, 0], gu[..., 1, 1],
    )
    exact = (exact.eta, *exact.grad_eta, exact.c, *exact.grad_c,
             exact.u[0], *exact.grad_u[0], exact.u[1], *exact.grad_u[1])
    for row, ex, dis in zip(rows, exact, discrete):
        np.subtract(ex, dis, out=row.reshape(dis.shape))
    sq = (np.square(rows, out=rows) @ scale).reshape(-1, 3)  # value, d/dx, d/dy per variable
    return {v: (float(l2), float(gx + gy)) for v, (l2, gx, gy) in zip(VARIABLES, sq)}


def error_norms(states, stepper, dt, sol=None, k=None):
    """Discrete-in-time error norms of a trajectory.

    linf(L2): max over all time levels of the spatial L2 error.
    l2(H1): sqrt(dt * sum over steps m >= 1) of the squared full H1 error.
    linf(H1): max over all time levels of the full H1 error (velocity
    components only, mirroring the reported tables).

    ``states`` is any non-empty iterable of states, read once.  Without
    ``sol`` the exact fields are the test2 ones, read at each level from
    one table over sin/cos of 2 pi x and 2 pi y computed once per call.
    """
    ctx = stepper.ctx
    x, y = ctx.points[..., 0], ctx.points[..., 1]
    scale = (ctx.weights[None, :] * ctx.areas[:, None]).ravel()
    if sol is None:
        exact_at = _Test2(x, y, 0.0).at
    else:
        first = lambda a, n=1: np.moveaxis(a, range(-n, 0), range(n))  # components first
        exact_at = lambda t: SimpleNamespace(
            eta=sol.eta(x, y, t), grad_eta=first(sol.grad_eta(x, y, t)), c=sol.c(x, y, t),
            grad_c=first(sol.grad_c(x, y, t)), u=first(sol.u(x, y, t)),
            grad_u=first(sol.grad_u(x, y, t), 2),
        )
    # one scratch block for all levels: a fresh block per level makes the
    # allocator hand its pages back to the system and fault them in again
    rows = np.empty((3 * len(VARIABLES), scale.size))
    linf_l2 = {v: 0.0 for v in VARIABLES}
    linf_h1 = {v: 0.0 for v in VARIABLES}
    l2_h1 = {v: 0.0 for v in VARIABLES}
    state = None
    for state in states:
        errs = _spatial_errors(stepper, state, exact_at(state.t), scale, rows)
        for v, (l2sq, h1sq) in errs.items():
            linf_l2[v] = max(linf_l2[v], math.sqrt(l2sq))
            linf_h1[v] = max(linf_h1[v], math.sqrt(l2sq + h1sq))
            if state.m >= 1:
                l2_h1[v] += dt * (l2sq + h1sq)
    if state is None:
        raise ValueError("error norms need at least one time level")
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
    sizes = list(mesh_sizes)
    if not sizes or not all(is_integer(k, 1) for k in sizes):
        raise ValueError(f"mesh sizes must be one or more integers >= 1, got {sizes!r}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("mesh sizes must be increasing")
    require_real("dt", dt, "positive")
    require_real("T", T, "positive")
    forcing = test2_forcing()
    data = test2_initial_data()
    grid = TimeGrid(dt=dt, n_steps=grid_step(T, dt, "T"))
    entries = []
    for k in sizes:
        mesh = build_rect_mesh(1.0, 1.0, k, k)
        stepper = Stepper(mesh, test2_params(), quad_degree=quad_degree)
        states = (s for s, _ in stepper.run(grid, data, mode=init_mode, forcing=forcing))
        entries.append(error_norms(states, stepper, dt, k=k))
    return ErrorReport(meshes=entries)
