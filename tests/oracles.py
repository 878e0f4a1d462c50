"""Element-by-element geometry, basis evaluation and quadrature, one point
at a time, and the manufactured fields and sources composed field by field.

The tests check the vectorized kernels of the package against these
scalar versions, which share no code path with them beyond the reference
basis tables of ``chemflow.spaces``; and the table-built ``test2`` fields
and sources of ``chemflow.manufactured`` against the field-by-field
composition they replace; the invariant gates of a run that stopped,
recomputed from its records; and the row-by-row VTK writer.
"""

import math
from dataclasses import dataclass

import numpy as np

from chemflow import manufactured as mf
from chemflow.mesh import GeometryError
from chemflow.scheme import DIVERGENCE_TOL, MASS_DRIFT_TOL, StepForcing
from chemflow.spaces import scalar_basis_gradient_table, scalar_basis_values


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

    return mf.ExactSolution(
        eta=eta, eta_t=eta_t, grad_eta=grad_eta, lap_eta=lap_eta,
        c=c, c_t=c_t, grad_c=grad_c,
        sigma=sigma, sigma_t=sigma_t, grad_sigma=grad_sigma,
        div_sigma=div_sigma, grad_div_sigma=grad_div_sigma, rot_sigma=rot_sigma,
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


def stopped_step(stepper, error):
    """The step k at which ``stepper.run`` raised the InvariantError ``error``.

    Asserts that the message names step k, that the records are 0..k, and
    that every record before k keeps the relative mass drift (against
    w.|eta0|) within MASS_DRIFT_TOL and the divergence residual within
    DIVERGENCE_TOL, while record k breaks one of them.
    """
    result = error.result
    k = len(result.states) - 1
    assert str(error).startswith(f"step {k}: ")
    assert [rec["m"] for rec in result.diagnostics] == list(range(k + 1))
    scale = stepper.w_p1 @ np.abs(result.states[0].n + stepper.params.alpha0)
    mass0 = result.diagnostics[0]["mass"]
    within = [
        abs(rec["mass"] - mass0) / scale <= MASS_DRIFT_TOL and rec["div_residual"] <= DIVERGENCE_TOL
        for rec in result.diagnostics
    ]
    assert within == [True] * k + [False]
    return k


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
