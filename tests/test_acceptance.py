"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the full
convergence study and the plume conservation run are shared module-scoped
fixtures, so the whole module stays within a laptop-scale time budget.
The hardcoded error values and convergence orders are the reference
results for this discretization of the convergence-study problem.
"""

import math

import numpy as np
import pytest

from chemflow import assembly as asm
from chemflow import io_cli
from chemflow import manufactured as mf
from chemflow.mesh import build_rect_mesh
from chemflow.quadrature import triangle_rule
from chemflow.scheme import Stepper, TimeGrid
from chemflow.spaces import SCALAR_P1, VELOCITY_MINI, build_layout
from oracles import skew_matrix

# reference convergence tables: per-mesh errors (k = 10..50) and observed
# orders between consecutive meshes
REF_ERRORS = {
    ("linf_l2", "eta"): [5.7265e-2, 1.4350e-2, 6.3060e-3, 3.4829e-3, 2.1757e-3],
    ("linf_l2", "c"): [3.5731e-2, 8.9904e-3, 4.0004e-3, 2.2512e-3, 1.4410e-3],
    ("linf_l2", "u1"): [4.1118e-2, 1.0106e-2, 4.4569e-3, 2.4902e-3, 1.5822e-3],
    ("linf_l2", "u2"): [4.1175e-2, 1.0125e-2, 4.4658e-3, 2.4952e-3, 1.5855e-3],
    ("l2_h1", "eta"): [1.1682e-1, 5.7520e-2, 3.8242e-2, 2.8656e-2, 2.2915e-2],
    ("l2_h1", "c"): [1.1338e-1, 5.7106e-2, 3.8126e-2, 2.8610e-2, 2.2894e-2],
    ("l2_h1", "u1"): [1.5654e-1, 7.7874e-2, 5.1820e-2, 3.8827e-2, 3.1043e-2],
    ("l2_h1", "u2"): [1.5655e-1, 7.7875e-2, 5.1821e-2, 3.8827e-2, 3.1043e-2],
    ("linf_h1", "u1"): [2.3353, 1.1882, 7.9477e-1, 5.9675e-1, 4.7765e-1],
    ("linf_h1", "u2"): [2.3353, 1.1882, 7.9477e-1, 5.9675e-1, 4.7765e-1],
}
REF_ORDERS_LINF_L2 = {
    "eta": [1.9966, 2.0279, 2.0635, 2.1085],
    "c": [1.9907, 1.9971, 1.9986, 1.9991],
    "u1": [2.0245, 2.0192, 2.0234, 2.0324],
    "u2": [2.0238, 2.0190, 2.0232, 2.0322],
}
MESHES = [10, 20, 30, 40, 50]
DT, T_END = 2e-4, 0.01


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def study():
    return mf.convergence_study(MESHES, dt=DT, T=T_END, init_mode="nodal")


@pytest.fixture(scope="module")
def test2_run_20():
    sol = mf.test2_solution()
    mesh = build_rect_mesh(1.0, 1.0, 20, 20)
    stepper = Stepper(mesh, mf.test2_params())
    records = [rec for _state, rec in stepper.run(
        TimeGrid(dt=DT, n_steps=round(T_END / DT)),
        mf.test2_initial_data(sol),
        mode="nodal",
        forcing=mf.test2_forcing(),
    )]
    return stepper, records


@pytest.fixture(scope="module")
def plume_run():
    cfg = io_cli.default_config("test1").validate()
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, _ = io_cli.build_problem(cfg, mesh)
    stepper = Stepper(mesh, params)
    records = [rec for _state, rec in stepper.run(
        TimeGrid(dt=cfg.dt, n_steps=cfg.n_steps()), data, mode="elliptic_projection"
    )]
    return stepper, records


def test_criterion_1_l2_convergence_orders(study):
    worst = 0.0
    for var, ref_orders in REF_ORDERS_LINF_L2.items():
        orders = study.orders("linf_l2", var)[1:]
        for got, ref in zip(orders, ref_orders):
            worst = max(worst, abs(got - ref))
            assert abs(got - ref) <= 0.25, (var, got, ref)
        assert orders[-1] >= 1.85, (var, orders[-1])
    assert report(1, True, f"max |order - reference| = {worst:.3f}, finest pairs >= 1.85")


def test_criterion_2_h1_convergence_orders(study):
    finest = {}
    for var in ("eta", "c", "u1", "u2"):
        finest[f"l2_h1:{var}"] = study.orders("l2_h1", var)[-1]
    for var in ("u1", "u2"):
        finest[f"linf_h1:{var}"] = study.orders("linf_h1", var)[-1]
    for key, val in finest.items():
        assert 0.90 <= val <= 1.10, (key, val)
    rng = f"[{min(finest.values()):.4f}, {max(finest.values()):.4f}]"
    assert report(2, True, f"finest-pair orders in {rng}")


def test_criterion_3_error_magnitudes(study):
    worst = 1.0
    for (norm, var), ref in REF_ERRORS.items():
        ours = [getattr(m, norm)[var] for m in study.meshes]
        for got, exp in zip(ours, ref):
            ratio = got / exp
            worst = max(worst, ratio, 1.0 / ratio)
            assert 0.5 <= ratio <= 2.0, (norm, var, got, exp)
    assert report(3, True, f"max error ratio vs reference = {worst:.2f} (allowed 2)")


def test_criterion_4_mass_conservation(plume_run, test2_run_20):
    drifts = {}
    for name, (stepper, records) in (("plume", plume_run), ("manufactured", test2_run_20)):
        masses = np.array([rec["mass"] for rec in records])
        drifts[name] = float(np.abs(masses - masses[0]).max() / abs(masses[0]))
        assert drifts[name] <= 1e-10, (name, drifts[name])
    assert report(4, True, f"relative drifts {drifts}")


def test_criterion_5_unconditional_solvability():
    cfg = io_cli.default_config("test1")
    cases = 0
    for k in (5, 10, 20):
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, k, k)
        params, data, _ = io_cli.build_problem(cfg, mesh)
        stepper = Stepper(mesh, params)
        state0 = stepper.init_state(data, mode="elliptic_projection")
        for dt in (1e-5, 1e-4, 1e-3, 1e-2):
            state = state0
            for _ in range(3):
                state, reports = stepper.step(state, dt)
                # Factorization.solve enforces the scaled residual bound and
                # raises on violation, so reaching here means every solve met it
                assert all(np.isfinite(r.residual_norm) for r in reports.values())
            cases += 1
    assert report(5, cases == 12, f"{cases}/12 cases completed, zero solver failures")


def test_criterion_6_skew_symmetry():
    mesh = build_rect_mesh(1.0, 1.0, 10, 10)
    ctx = asm.AssemblyContext(mesh)
    lay_c = build_layout(mesh, SCALAR_P1)
    lay_u = build_layout(mesh, VELOCITY_MINI)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        vel = asm.DiscreteField(lay_u, rng.standard_normal(lay_u.n_dofs))
        for layout in (lay_c, lay_u):
            n = skew_matrix(layout, vel, ctx)
            fro = np.linalg.norm(n.data)
            xs = rng.standard_normal((100, n.shape[0]))
            quad = np.einsum("bi,bi->b", xs, (n @ xs.T).T)
            scaled = np.abs(quad) / (fro * np.einsum("bi,bi->b", xs, xs))
            worst = max(worst, float(scaled.max()))
            assert scaled.max() <= 1e-12
    assert report(6, True, f"max scaled |x^T N x| = {worst:.2e} (allowed 1e-12)")


def test_criterion_7_discrete_incompressibility(test2_run_20):
    stepper, records = test2_run_20
    residuals = [rec["div_residual"] for rec in records[1:]]
    worst = max(residuals)
    assert all(r <= 1e-9 for r in residuals)
    assert report(7, True, f"max |(pressure test, div u)| = {worst:.2e} over {len(residuals)} steps")


def test_criterion_8_forcing_correctness():
    sol = mf.test2_solution()
    forcing = mf.test2_forcing()
    rng = np.random.default_rng(99)
    x = rng.uniform(0.05, 0.95, 100)
    y = rng.uniform(0.05, 0.95, 100)
    t = rng.uniform(0.002, 0.02, 100)
    h = 1e-3

    def d1(f, v):
        return (-f(v + 2 * h) + 8 * f(v + h) - 8 * f(v - h) + f(v - 2 * h)) / (12 * h)

    def d2(f, v):
        return (-f(v + 2 * h) + 16 * f(v + h) - 30 * f(v) + 16 * f(v - h) - f(v - 2 * h)) / (
            12 * h * h
        )

    def lap(f):
        return d2(lambda xx: f(xx, y, t), x) + d2(lambda yy: f(x, yy, t), y)

    u = sol.u(x, y, t)
    g_n_fd = (
        d1(lambda tt: sol.eta(x, y, tt), t)
        + u[..., 0] * d1(lambda xx: sol.eta(xx, y, t), x)
        + u[..., 1] * d1(lambda yy: sol.eta(x, yy, t), y)
        - lap(sol.eta)
        + d1(lambda xx: sol.eta(xx, y, t) * sol.sigma(xx, y, t)[..., 0], x)
        + d1(lambda yy: sol.eta(x, yy, t) * sol.sigma(x, yy, t)[..., 1], y)
    )
    g_c_fd = (
        d1(lambda tt: sol.c(x, y, tt), t)
        + u[..., 0] * d1(lambda xx: sol.c(xx, y, t), x)
        + u[..., 1] * d1(lambda yy: sol.c(x, yy, t), y)
        - lap(sol.c)
        + sol.eta(x, y, t) * sol.c(x, y, t)
    )
    g_u_fd = np.stack(
        [
            d1(lambda tt: sol.u(x, y, tt)[..., d], t)
            + u[..., 0] * d1(lambda xx: sol.u(xx, y, t)[..., d], x)
            + u[..., 1] * d1(lambda yy: sol.u(x, yy, t)[..., d], y)
            - lap(lambda xx, yy, tt: sol.u(xx, yy, tt)[..., d])
            + (d1(lambda xx: sol.pi(xx, y, t), x) if d == 0 else d1(lambda yy: sol.pi(x, yy, t), y))
            for d in range(2)
        ],
        axis=-1,
    )
    g_sigma_fd = np.stack(
        [d1(lambda xx: forcing.g_c(xx, y, t), x), d1(lambda yy: forcing.g_c(x, yy, t), y)],
        axis=-1,
    )
    errs = {
        "g_n": np.abs(forcing.g_n(x, y, t) - g_n_fd).max(),
        "g_c": np.abs(forcing.g_c(x, y, t) - g_c_fd).max(),
        "g_u": np.abs(forcing.g_u(x, y, t) - g_u_fd).max(),
        "g_sigma=grad(g_c)": np.abs(forcing.g_sigma(x, y, t) - g_sigma_fd).max(),
    }
    for name, err in errs.items():
        assert err <= 1e-6, (name, err)
    assert report(8, True, f"max deviation from difference oracles = {max(errs.values()):.2e}")


def test_criterion_9_quadrature_exactness():
    rule = triangle_rule(8)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xy = rule.points @ verts
    worst = 0.0
    for a in range(9):
        for b in range(9 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = 0.5 * float(rule.weights @ (xy[:, 0] ** a * xy[:, 1] ** b))
            rel = abs(got - exact) / exact
            worst = max(worst, rel)
            assert rel <= 1e-13, (a, b, rel)
    assert report(9, True, f"worst monomial relative error = {worst:.2e} (degree <= 8)")


def test_criterion_10_projection_initialization():
    mesh = build_rect_mesh(1.0, 1.0, 20, 20)
    stepper = Stepper(mesh, mf.test2_params())
    state = stepper.init_state(mf.test2_initial_data(), mode="elliptic_projection")
    div_res = stepper.divergence_residual(state)
    assert div_res <= 1e-10

    cbar = 7.5
    z = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
    zv = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2,))
    zg = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2, 2))
    from chemflow.scheme import InitialData

    const_data = InitialData(
        eta0=lambda x, y: np.full(np.shape(x), mf.ETA_MEAN), grad_eta0=zv,
        c0=lambda x, y: np.full(np.shape(x), cbar), grad_c0=zv,
        div_sigma0=z, u0=zv, grad_u0=zg, div_u0=z,
    )
    state_c = stepper.init_state(const_data, mode="elliptic_projection")
    c_err = np.abs(state_c.c - cbar).max() / abs(cbar)  # exactness is scale-relative
    assert c_err <= 1e-13
    assert report(
        10, True, f"velocity-projection divergence residual {div_res:.2e}, constant projection error {c_err:.2e}"
    )
