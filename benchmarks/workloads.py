"""The benchmark's workloads and the correctness gates every step must pass.

A workload is a sequence of identical *passes*.  One pass is one complete,
verified run of the workload: it builds its own steppers (set-up), makes
the initial state, takes its steps, writes its outputs and computes its
error norms.  Every step is checked by ``state_problems``; a step that
raises or fails a check counts as failed, and the run goes on.
``mms-coarse`` also checks its error norms against the values measured on
the code the benchmark was written for.  A pass that raises outside its
steps counts all its steps as failed (``run.one_pass``).

* ``plume``: the ``test1`` preset (dt=1e-5, elliptic init, VTK + CSV
  output) on a ``PLUME_MESH`` mesh for ``PLUME_STEPS`` steps.  The
  velocity/pressure saddle LU is the largest part of each step and of
  init.  On the shipped 80x40 mesh a step takes 4-8 s; a sample that
  long cannot be timed steadily on a shared host (README, "End-to-end
  metrics"), so the mesh is cut until one LU takes about 40 ms.
* ``mms-coarse``: the manufactured ``test2`` problem at k=10, dt=2e-4,
  nodal init and analytic forcing for 50 steps, then
  ``error_norms``.  Assembly, forcing and glue code dominate a step.

Functions of the package are always reached through their module
(``io_cli.build_problem``, not an imported name), so that the tracer's
wrappers are the ones called.
"""

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from chemflow import io_cli, manufactured
from chemflow import mesh as cf_mesh
from chemflow.scheme import StepForcing, Stepper

MASS_DRIFT_TOL = 1e-10  # acceptance criterion 4
DIVERGENCE_TOL = 1e-9  # acceptance criterion 7

PLUME_STEPS = 3
PLUME_MESH = (24, 12)
# nodal init takes ~0.1 ms: one init_s sample is the mean of a batch
MMS_INIT_BATCHES = 3
MMS_INIT_BATCH = 10

# linf(L2) errors of mms-coarse (k=10, dt=2e-4, 50 steps, nodal init) on
# the code this benchmark was written against.  A run whose errors leave
# MMS_ERROR_RTOL of these is wrong, whether faster or not.
MMS_REFERENCE_ERRORS = {
    "eta": 0.05741947704060893,
    "c": 0.03572925376800015,
    "u1": 0.05127797984494291,
    "u2": 0.05140387202424708,
}
MMS_ERROR_RTOL = 1e-6

# the seeded density perturbation of plume stays below this
# (the cell clusters peak at 80)
PERTURBATION_MAX = 0.5
PERTURBATION_MODES = tuple((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0))


@dataclass
class PassResult:
    """Timings, counts and failures of one pass."""

    setup_s: float = None
    init_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)  # every step, in order
    finish_s: float = None  # output writing (plume) or error norms (mms-coarse)
    wall_s: float = None  # set once the pass is complete
    err_linf_l2: float = 0.0
    max_mass_drift: float = 0.0
    max_divergence: float = 0.0
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, steps, message):
        self.failed += steps
        self.messages.append(message)


# ---------------------------------------------------------------------------
# inputs


def perturb_density(data, seed, Lx, Ly):
    """``data`` with a seeded, zero-mean cosine perturbation of eta0.

    Every mode has at least one nonzero wave number, so it integrates to
    zero over [0,Lx]x[0,Ly] (the conserved mean is unchanged), and its
    normal derivative vanishes on the boundary.
    """
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, len(PERTURBATION_MODES))
    amp *= PERTURBATION_MAX / np.abs(amp).sum()
    kx = np.array([i * math.pi / Lx for i, _ in PERTURBATION_MODES])
    ky = np.array([j * math.pi / Ly for _, j in PERTURBATION_MODES])

    def delta(x, y):
        x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
        return (amp * np.cos(kx * x) * np.cos(ky * y)).sum(axis=-1)

    def grad_delta(x, y):
        x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
        gx = (-amp * kx * np.sin(kx * x) * np.cos(ky * y)).sum(axis=-1)
        gy = (-amp * ky * np.cos(kx * x) * np.sin(ky * y)).sum(axis=-1)
        return np.stack([gx, gy], axis=-1)

    eta0, grad_eta0 = data.eta0, data.grad_eta0
    return replace(
        data,
        eta0=lambda x, y: eta0(x, y) + delta(x, y),
        grad_eta0=lambda x, y: grad_eta0(x, y) + grad_delta(x, y),
    )


def setup_plume(cfg, seed):
    """Mesh, problem (with the seeded perturbation) and stepper of the plume."""
    mesh = cf_mesh.build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, _ = io_cli.build_problem(cfg, mesh)
    data = perturb_density(data, seed, cfg.Lx, cfg.Ly)
    return Stepper(mesh, params, quad_degree=cfg.quadrature_degree), data


def mms_config():
    """The shipped test2 preset: k=10, dt=2e-4, 50 steps to T=0.01."""
    return io_cli.default_config("test2").validate()


def setup_mms(cfg):
    mesh = cf_mesh.build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = io_cli.build_problem(cfg, mesh)
    return Stepper(mesh, params, quad_degree=cfg.quadrature_degree), data, forcing


# ---------------------------------------------------------------------------
# checks


def state_problems(stepper, state, mass0, res):
    """Failed invariants of a state reached by a step (empty when sound).

    The largest mass drift and divergence residual are also kept in ``res``.
    """
    problems = []
    for name in ("n", "c", "sigma", "u", "pi"):
        if not np.all(np.isfinite(getattr(state, name))):
            problems.append(f"{name} has non-finite entries")
    for name, layout in (("u", stepper.layout_u), ("sigma", stepper.layout_sigma)):
        pinned = getattr(state, name)[layout.constrained_dofs]
        if np.any(pinned != 0.0):
            problems.append(f"pinned {name} dofs not exactly 0 (max {np.abs(pinned).max():.3e})")
    drift = abs(stepper.mass_of_eta(state) - mass0) / abs(mass0)
    div = stepper.divergence_residual(state)
    res.max_mass_drift = max(res.max_mass_drift, drift)
    res.max_divergence = max(res.max_divergence, div)
    if not drift <= MASS_DRIFT_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    if not div <= DIVERGENCE_TOL:
        problems.append(f"divergence residual {div:.3e} > {DIVERGENCE_TOL:g}")
    return problems


def initial_error(stepper, state, data):
    """Largest L2 error of eta, c, u1, u2 against the closed-form initial data."""
    ctx = stepper.ctx
    x, y = ctx.points[..., 0], ctx.points[..., 1]
    scale = ctx.weights[None, :] * ctx.areas[:, None]
    u_h = stepper.field_u(state).values(ctx)
    u_ex = np.asarray(data.u0(x, y), dtype=float)
    diffs = (
        data.eta0(x, y) - (stepper.field_n(state).values(ctx) + stepper.params.alpha0),
        data.c0(x, y) - stepper.field_c(state).values(ctx),
        u_ex[..., 0] - u_h[..., 0],
        u_ex[..., 1] - u_h[..., 1],
    )
    return max(math.sqrt(float((scale * d**2).sum())) for d in diffs)


def mms_error_problems(errors):
    problems = []
    for var, ref in MMS_REFERENCE_ERRORS.items():
        if not abs(errors[var] - ref) <= MMS_ERROR_RTOL * ref:
            problems.append(f"linf(L2) error of {var} is {errors[var]:.10e}, expected {ref:.10e}")
    return problems


# ---------------------------------------------------------------------------
# passes


def _march(stepper, state, dt, n_steps, forcing, res, records=None):
    """Take up to n_steps checked steps; returns the states reached.

    A step that raises ends the trajectory; it and the steps it prevents
    count as attempted and failed.  A step that fails a check counts as
    failed and the trajectory goes on.  Only the ``stepper.step`` call is
    timed, not the checks.
    """
    mass0 = stepper.mass_of_eta(state)
    states = [state]
    for m in range(n_steps):
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            state, reports = stepper.step(state, dt, forcing)
        except Exception as exc:  # the pass goes on; the failure is reported
            res.attempted += n_steps - m - 1
            res.fail(n_steps - m, f"step {m + 1}: {type(exc).__name__}: {exc}")
            return states
        res.step_s.append(time.perf_counter() - t0)
        problems = state_problems(stepper, state, mass0, res)
        if problems:
            res.fail(1, f"step {m + 1}: " + "; ".join(problems))
        states.append(state)
        if records is not None:
            rec = {"m": state.m, "t": state.t, "mass": stepper.mass_of_eta(state),
                   "div_residual": stepper.divergence_residual(state)}
            rec.update({f"residual_{k}": r.residual_norm for k, r in reports.items()})
            records.append(rec)
    return states


def plume_config():
    kx, ky = PLUME_MESH
    return replace(io_cli.default_config("test1"), kx=kx, ky=ky).validate()


def plume_pass(seed, outdir, tracer=None):
    cfg = plume_config()
    res = PassResult()
    t_start = time.perf_counter()
    stepper, data = setup_plume(cfg, seed)
    res.setup_s = time.perf_counter() - t_start
    t0 = time.perf_counter()
    state0 = stepper.init_state(data, mode=io_cli.INIT_MODES[cfg.init_mode])
    res.init_s.append(time.perf_counter() - t0)
    res.err_linf_l2 = initial_error(stepper, state0, data)
    records = [{"m": 0, "t": 0.0, "mass": stepper.mass_of_eta(state0),
                "div_residual": stepper.divergence_residual(state0)}]
    states = _march(stepper, state0, cfg.dt, PLUME_STEPS, None, res, records)
    t0 = time.perf_counter()
    io_cli.write_diagnostics_csv(records, os.path.join(outdir, "diagnostics.csv"))
    for state in (states[0], states[-1]):
        snap = io_cli.snapshot_from_state(stepper, state)
        io_cli.write_vtk(snap, os.path.join(outdir, f"snapshot_{state.m:06d}.vtk"))
    res.finish_s = time.perf_counter() - t0
    res.wall_s = time.perf_counter() - t_start
    return res


def mms_pass(seed, outdir, tracer=None):
    """``seed`` is unused: the exact solution fixes every input."""
    cfg = mms_config()
    res = PassResult()
    t_start = time.perf_counter()
    stepper, data, forcing = setup_mms(cfg)
    res.setup_s = time.perf_counter() - t_start
    if tracer is not None:
        forcing = StepForcing(**{
            name: tracer.wrap("manufactured.forcing", getattr(forcing, name))
            for name in ("g_n", "g_c", "g_u")
        }, g_sigma=forcing.g_sigma)
    mode = io_cli.INIT_MODES[cfg.init_mode]
    for _ in range(MMS_INIT_BATCHES):
        t0 = time.perf_counter()
        for _ in range(MMS_INIT_BATCH):
            state0 = stepper.init_state(data, mode=mode)
        res.init_s.append((time.perf_counter() - t0) / MMS_INIT_BATCH)
    states = _march(stepper, state0, cfg.dt, cfg.n_steps(), forcing, res)
    t0 = time.perf_counter()
    errors = manufactured.error_norms(states, stepper, cfg.dt, k=cfg.kx).linf_l2
    res.finish_s = time.perf_counter() - t0
    res.err_linf_l2 = max(errors.values())
    problems = mms_error_problems(errors)
    if problems:  # the trajectory is wrong, so none of its steps is verified
        res.fail(res.attempted - res.failed, "; ".join(problems))
    res.wall_s = time.perf_counter() - t_start
    return res


def plume_setup(seed):
    setup_plume(plume_config(), seed)


def mms_setup(seed):
    setup_mms(mms_config())


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object  # (seed, outdir, tracer) -> PassResult
    setup: object  # (seed) -> None: the set-up of one pass, alone
    steps: object  # () -> the number of steps a pass takes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plume", plume_pass, plume_setup, lambda: PLUME_STEPS),
        Workload("mms-coarse", mms_pass, mms_setup, lambda: mms_config().n_steps()),
    )
}
