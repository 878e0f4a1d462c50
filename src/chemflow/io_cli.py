"""Run configuration, CLI driver, and CSV/VTK serialization.

Two presets cover the bundled experiments: ``test1`` is the qualitative
cell-plume simulation on [0,2]x[0,1] (three Gaussian cell clusters, one
chemical source, strong downward gravity), ``test2`` is the
manufactured-solution convergence study on the unit square.  Config files
are INI-style ``key = value`` sections; every CLI flag overrides the
corresponding config entry.
"""

import argparse
import configparser
import io
import json
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import manufactured, scheme
from .assembly import AssemblyContext, DiscreteField, assemble_skew, at_points
from .mesh import build_rect_mesh
from .quadrature import MAX_DEGREE
from .scheme import InitialData, InvariantError, ModelParams, Stepper, TimeGrid, require_real

PRESET_NAMES = ("test1", "test2")
INIT_MODES = {"elliptic": "elliptic_projection", "nodal": "nodal"}
FORMATS = ("vtk", "csv")


def _integer(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass
class RunConfig:
    preset: str
    Lx: float
    Ly: float
    kx: int
    ky: int
    dt: float
    t_final: float
    chi: float
    D_n: float
    D_c: float
    D_u: float
    rho: float
    gamma: float
    grad_phi: tuple
    init_mode: str = "elliptic"
    quadrature_degree: int = 8
    snapshot_times: tuple = ()
    outdir: str = "out"
    formats: tuple = ("vtk", "csv")

    def n_steps(self):
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(abs(steps), 1.0):
            raise ValueError(
                f"t_final={self.t_final} is not an integer multiple of dt={self.dt}"
            )
        return int(round(steps))

    def validate(self):
        if self.preset not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.preset!r}")
        for name in ("Lx", "Ly", "dt", "t_final", "D_n", "D_c", "D_u", "rho", "chi", "gamma"):
            sign = "nonnegative" if name in ("chi", "gamma") else "positive"
            require_real(f"config value {name}", getattr(self, name), sign)
        for g in self.grad_phi:
            require_real("config value grad_phi", g)
        for ts in self.snapshot_times:
            require_real("snapshot times", ts)
        if any(ts < 0 for ts in self.snapshot_times):
            raise ValueError("snapshot times must be nonnegative")
        if not (_integer(self.kx) and _integer(self.ky) and self.kx >= 1 and self.ky >= 1):
            raise ValueError("mesh subdivisions kx, ky must be integers >= 1")
        degree = self.quadrature_degree
        if not (_integer(degree) and 1 <= degree <= MAX_DEGREE):
            raise ValueError(f"quadrature_degree must be an integer in 1..{MAX_DEGREE}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {sorted(INIT_MODES)}")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ValueError(f"unknown output format {fmt!r}")
        n = self.n_steps()
        for ts in self.snapshot_times:
            steps = ts / self.dt
            if abs(steps - round(steps)) > 1e-9 * max(abs(steps), 1.0):
                raise ValueError(f"snapshot time {ts} does not lie on the time grid")
            if round(steps) > n:
                raise ValueError(f"snapshot time {ts} exceeds t_final")
        return self


def default_config(preset):
    """Built-in configuration for one of the bundled experiments."""
    if preset == "test1":
        return RunConfig(
            preset="test1",
            Lx=2.0, Ly=1.0, kx=80, ky=40,
            dt=1e-5, t_final=30e-5,
            chi=8.0, D_n=1.0, D_c=5.0, D_u=10.0, rho=1.0, gamma=8.0,
            grad_phi=(0.0, -1000.0),
            init_mode="elliptic",
            snapshot_times=(0.0, 12e-5, 30e-5),
        )
    if preset == "test2":
        return RunConfig(
            preset="test2",
            Lx=1.0, Ly=1.0, kx=10, ky=10,
            dt=2e-4, t_final=0.01,
            chi=1.0, D_n=1.0, D_c=1.0, D_u=1.0, rho=1.0, gamma=1.0,
            grad_phi=(0.0, 0.0),
            init_mode="nodal",
            snapshot_times=(),
        )
    raise ValueError(f"unknown preset {preset!r}")


_CONFIG_SCHEMA = {
    "domain": {"Lx": float, "Ly": float},
    "mesh": {"kx": int, "ky": int},
    "time": {"dt": float, "t_final": float},
    "params": {
        "chi": float, "D_n": float, "D_c": float, "D_u": float,
        "rho": float, "gamma": float,
        "grad_phi_x": float, "grad_phi_y": float,
    },
    "initial": {"preset": str, "init_mode": str},
    "output": {
        "snapshot_times": str, "outdir": str, "formats": str,
        "quadrature_degree": int,
    },
}


def parse_config(text):
    """Parse an INI-style configuration; unknown keys are an error.

    The ``[initial] preset`` entry selects the defaults; every other key
    overrides one preset value.
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep case: D_n vs d_n matters
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    for section in cp.sections():
        if section not in _CONFIG_SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")

    preset = cp.get("initial", "preset", fallback="test2")
    cfg = default_config(preset)

    def get(section, key, cast):
        if not cp.has_option(section, key):
            return None
        try:
            return cast(cp.get(section, key))
        except ValueError as exc:
            raise ValueError(f"config value {key} in section [{section}]: {exc}") from exc

    parsed_below = ("grad_phi_x", "grad_phi_y", "snapshot_times", "formats")
    updates = {}
    for section, keys in _CONFIG_SCHEMA.items():
        for key, cast in keys.items():
            val = get(section, key, cast)
            if val is not None and key not in parsed_below:
                updates[key] = val
    gx = get("params", "grad_phi_x", float)
    gy = get("params", "grad_phi_y", float)
    if gx is not None or gy is not None:
        updates["grad_phi"] = (
            cfg.grad_phi[0] if gx is None else gx,
            cfg.grad_phi[1] if gy is None else gy,
        )
    times = get("output", "snapshot_times", str)
    if times is not None:
        stripped = times.strip()
        updates["snapshot_times"] = (
            tuple(float(s) for s in stripped.split(",")) if stripped else ()
        )
    fmts = get("output", "formats", str)
    if fmts is not None:
        updates["formats"] = tuple(s.strip() for s in fmts.split(",") if s.strip())
    return replace(cfg, **updates).validate()


def serialize_config(cfg):
    """Render a config as INI text; parse_config round-trips it."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["domain"] = {"Lx": repr(cfg.Lx), "Ly": repr(cfg.Ly)}
    cp["mesh"] = {"kx": str(cfg.kx), "ky": str(cfg.ky)}
    cp["time"] = {"dt": repr(cfg.dt), "t_final": repr(cfg.t_final)}
    cp["params"] = {
        "chi": repr(cfg.chi), "D_n": repr(cfg.D_n), "D_c": repr(cfg.D_c),
        "D_u": repr(cfg.D_u), "rho": repr(cfg.rho), "gamma": repr(cfg.gamma),
        "grad_phi_x": repr(cfg.grad_phi[0]), "grad_phi_y": repr(cfg.grad_phi[1]),
    }
    cp["initial"] = {"preset": cfg.preset, "init_mode": cfg.init_mode}
    cp["output"] = {
        "snapshot_times": ",".join(repr(t) for t in cfg.snapshot_times),
        "outdir": cfg.outdir,
        "formats": ",".join(cfg.formats),
        "quadrature_degree": str(cfg.quadrature_degree),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# preset physics


def test1_initial_fields():
    """Closed-form initial data of the plume experiment.

    Three Gaussian cell clusters along the top edge, one chemical blob in
    the middle of the rectangle, fluid at rest.  The initial flux is the
    analytic gradient of the chemical field.
    """
    centers = (0.2, 0.5, 1.2)

    def eta0(x, y):
        total = np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
        for s in centers:
            total += 80.0 * np.exp(-8.0 * (x - s) ** 2 - 10.0 * (y - 1.0) ** 2)
        return total

    def grad_eta0(x, y):
        shp = np.broadcast(np.asarray(x), np.asarray(y)).shape
        gx = np.zeros(shp)
        gy = np.zeros(shp)
        for s in centers:
            blob = 80.0 * np.exp(-8.0 * (x - s) ** 2 - 10.0 * (y - 1.0) ** 2)
            gx += blob * (-16.0 * (x - s))
            gy += blob * (-20.0 * (y - 1.0))
        return np.stack(np.broadcast_arrays(gx, gy), axis=-1)

    def c0(x, y):
        return 100.0 * np.exp(-5.0 * (x - 1.0) ** 2 - 5.0 * (y - 0.5) ** 2)

    def grad_c0(x, y):
        blob = c0(x, y)
        return np.stack(
            np.broadcast_arrays(blob * (-10.0 * (x - 1.0)), blob * (-10.0 * (y - 0.5))),
            axis=-1,
        )

    def div_sigma0(x, y):
        return c0(x, y) * (100.0 * (x - 1.0) ** 2 + 100.0 * (y - 0.5) ** 2 - 20.0)

    zeros = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def u0(x, y):
        return np.stack(np.broadcast_arrays(zeros(x, y), zeros(x, y)), axis=-1)

    def grad_u0(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2, 2))

    return InitialData(
        eta0=eta0, grad_eta0=grad_eta0,
        c0=c0, grad_c0=grad_c0,
        sigma0=grad_c0, div_sigma0=div_sigma0, rot_sigma0=zeros,
        u0=u0, grad_u0=grad_u0, div_u0=zeros,
        pi0=None,
    )


def mean_over_domain(mesh, fn, degree=8):
    """Domain average of a scalar field by quadrature on the mesh."""
    ctx = AssemblyContext(mesh, degree=degree)
    vals = at_points(fn, ctx)
    total = float(np.einsum("q,eq->", ctx.weights, vals * ctx.areas[:, None]))
    return total / float(ctx.areas.sum())


def build_problem(cfg, mesh):
    """(ModelParams, InitialData, StepForcing-or-None) for a config on a mesh.

    The conserved density mean is analytic for the manufactured preset and
    computed by quadrature on the run mesh otherwise.
    """
    if cfg.preset == "test2":
        sol = manufactured.test2_solution()
        params = replace(
            manufactured.test2_params(),
            chi=cfg.chi, D_n=cfg.D_n, D_c=cfg.D_c, D_u=cfg.D_u,
            rho=cfg.rho, gamma=cfg.gamma, grad_phi=cfg.grad_phi,
        )
        return params, manufactured.test2_initial_data(sol), manufactured.test2_forcing()
    data = test1_initial_fields()
    alpha0 = mean_over_domain(mesh, data.eta0, degree=cfg.quadrature_degree)
    params = ModelParams(
        chi=cfg.chi, D_n=cfg.D_n, D_c=cfg.D_c, D_u=cfg.D_u,
        rho=cfg.rho, gamma=cfg.gamma, grad_phi=cfg.grad_phi, alpha0=alpha0,
    )
    return params, data, None


# ---------------------------------------------------------------------------
# serialization


@dataclass
class FieldSnapshot:
    """Nodal field values of one time level (bubble dofs dropped)."""

    time: float
    mesh: object
    eta: np.ndarray
    c: np.ndarray
    sigma: np.ndarray  # (n_nodes, 2)
    velocity: np.ndarray  # (n_nodes, 2)
    pressure: np.ndarray


def snapshot_from_state(stepper, state):
    nn = stepper.mesh.n_nodes
    ns = stepper.layout_u.n_scalar
    return FieldSnapshot(
        time=state.t,
        mesh=stepper.mesh,
        eta=state.n[:nn] + stepper.params.alpha0,
        c=state.c[:nn],
        sigma=np.column_stack([state.sigma[:nn], state.sigma[nn : 2 * nn]]),
        velocity=np.column_stack([state.u[:nn], state.u[ns : ns + nn]]),
        pressure=state.pi[:nn],
    )


def _rows(fmt, values, n):
    """``fmt`` filled with ``n`` consecutive slices of the flattened ``values``."""
    return (fmt * n) % tuple(np.ravel(values).tolist())


def write_vtk(snapshot, path):
    """Write one snapshot as a legacy ASCII VTK unstructured grid."""
    mesh = snapshot.mesh
    nn, ne = mesh.n_nodes, mesh.n_triangles
    if any(
        len(arr) != nn
        for arr in (snapshot.eta, snapshot.c, snapshot.sigma, snapshot.velocity, snapshot.pressure)
    ):
        raise ValueError("snapshot field lengths do not match the node count")
    parts = [
        "# vtk DataFile Version 3.0\n",
        f"chemotaxis-fluid snapshot t={snapshot.time:.9g}\n",
        "ASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {nn} double\n", _rows("%.9g %.9g 0\n", mesh.nodes, nn),
        f"CELLS {ne} {4 * ne}\n", _rows("3 %d %d %d\n", mesh.triangles, ne),
        f"CELL_TYPES {ne}\n", "5\n" * ne,
        f"POINT_DATA {nn}\n",
    ]
    for name, arr in (("eta", snapshot.eta), ("c", snapshot.c), ("pressure", snapshot.pressure)):
        parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", _rows("%.9g\n", arr, nn)]
    for name, arr in (("sigma", snapshot.sigma), ("velocity", snapshot.velocity)):
        parts += [f"VECTORS {name} double\n", _rows("%.9g %.9g 0\n", arr, nn)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(parts))


def format_order(value):
    return "" if value is None else f"{value:.4f}"


def _csv_columns(report, norm, var):
    """Error strings (6 significant digits) and order strings recomputed
    from the rounded errors, so the written columns are self-consistent."""
    errors = [f"{getattr(m, norm)[var]:.6g}" for m in report.meshes]
    hs = [m.h for m in report.meshes]
    orders = [""]
    for i in range(1, len(errors)):
        e0, e1 = float(errors[i - 1]), float(errors[i])
        if e0 > 0 and e1 > 0 and hs[i - 1] > hs[i]:
            orders.append(f"{np.log(e0 / e1) / np.log(hs[i - 1] / hs[i]):.12g}")
        else:
            orders.append("")
    return errors, orders


def write_csv_table(report, path):
    """Write the convergence tables, one CSV per variable, into a directory.

    Scalar variables get ``k,error_linf_L2,order,error_l2_H1,order``,
    velocity components an extra ``error_linf_H1,order`` pair.  Errors are
    written with 6 significant digits, order cells of the first mesh stay
    empty, and each order equals the log-ratio of the adjacent printed
    errors.
    """
    import os

    os.makedirs(path, exist_ok=True)
    written = []
    for var in manufactured.VARIABLES:
        norms = ["linf_l2", "l2_h1"]
        if var in ("u1", "u2"):
            norms.append("linf_h1")
        header = "k," + ",".join(
            f"error_{label},order"
            for label in ("linf_L2", "l2_H1", "linf_H1")[: len(norms)]
        )
        columns = [_csv_columns(report, norm, var) for norm in norms]
        lines = [header]
        for i, mesh_err in enumerate(report.meshes):
            row = [str(mesh_err.k)]
            for errs, orders in columns:
                row += [errs[i], orders[i]]
            lines.append(",".join(row))
        out = os.path.join(path, f"{var}.csv")
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(out)
    return written


def write_diagnostics_csv(diagnostics, path):
    """Per-step diagnostics (mass, residuals, solver kinds, field extrema) as one CSV."""
    keys = ["m", "t", "mass", "div_residual"]
    extra = sorted({k for rec in diagnostics for k in rec} - set(keys))
    keys += extra
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(keys) + "\n")
        for rec in diagnostics:
            cells = (rec.get(k, "") for k in keys)
            fh.write(",".join(v if isinstance(v, str) else f"{v:.10g}" for v in cells) + "\n")


# ---------------------------------------------------------------------------
# commands


def _load_config(args):
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = default_config(args.preset or "test2")
    overrides = {}
    if args.preset and getattr(args, "config", None):
        overrides["preset"] = args.preset
    if getattr(args, "dt", None) is not None:
        overrides["dt"] = args.dt
    if getattr(args, "tfinal", None) is not None:
        overrides["t_final"] = args.tfinal
    if getattr(args, "out", None) is not None:
        overrides["outdir"] = args.out
    if getattr(args, "init_mode", None) is not None:
        overrides["init_mode"] = args.init_mode
    if getattr(args, "quadrature_degree", None) is not None:
        overrides["quadrature_degree"] = args.quadrature_degree
    if getattr(args, "mesh", None) is not None:
        parts = [int(p) for p in args.mesh.split(",")]
        if len(parts) > 2:
            raise ValueError(f"--mesh takes K or KX,KY, got {args.mesh!r}")
        overrides["kx"], overrides["ky"] = (parts[0], parts[0]) if len(parts) == 1 else parts
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def cmd_run(args):
    import os

    cfg = _load_config(args)
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = build_problem(cfg, mesh)
    stepper = Stepper(mesh, params, quad_degree=cfg.quadrature_degree)
    grid = TimeGrid(dt=cfg.dt, n_steps=cfg.n_steps())

    def write_records(diagnostics):
        os.makedirs(cfg.outdir, exist_ok=True)
        if "csv" in cfg.formats:
            write_diagnostics_csv(diagnostics, os.path.join(cfg.outdir, "diagnostics.csv"))

    try:
        result = stepper.run(
            grid, data, mode=INIT_MODES[cfg.init_mode], forcing=forcing,
            snapshot_times=cfg.snapshot_times,
        )
    except InvariantError as exc:  # keep the records up to the failing step
        write_records(exc.result.diagnostics)
        raise
    write_records(result.diagnostics)
    if "vtk" in cfg.formats:
        for t, idx in result.snapshots:
            snap = snapshot_from_state(stepper, result.states[idx])
            write_vtk(snap, os.path.join(cfg.outdir, f"snapshot_{idx:06d}.vtk"))
    mass0 = result.diagnostics[0]["mass"]
    mass_end = result.diagnostics[-1]["mass"]
    drift = abs(mass_end - mass0) / max(abs(mass0), 1e-300)
    print(f"completed {grid.n_steps} steps to t={grid.T:.6g}")
    print(f"mass: initial {mass0:.12g}, final {mass_end:.12g}, relative drift {drift:.3e}")
    max_c = [rec["max_c"] for rec in result.diagnostics]
    if len(max_c) > 2 and any(b > a * (1 + 1e-12) for a, b in zip(max_c[1:-1], max_c[2:])):
        print("note: max(c_h) increased after the first step (soft diagnostic)")
    return 0


def cmd_converge(args):
    cfg = _load_config(args)
    if cfg.preset != "test2":
        raise ValueError(f"converge runs the manufactured test2 problem, not preset {cfg.preset!r}")
    meshes = tuple(int(s) for s in (args.meshes or "10,20,30,40,50").split(","))
    report = manufactured.convergence_study(
        list(meshes),
        dt=cfg.dt,
        T=cfg.t_final,
        init_mode=INIT_MODES[cfg.init_mode],
        quad_degree=cfg.quadrature_degree,
    )
    files = write_csv_table(report, cfg.outdir)
    print(f"initialization: {INIT_MODES[cfg.init_mode]}")
    for var in manufactured.VARIABLES:
        orders = report.orders("linf_l2", var)
        errs = " ".join(f"{m.linf_l2[var]:.4e}" for m in report.meshes)
        final = orders[-1]
        print(f"{var}: linf(L2) errors [{errs}] finest order {format_order(final)}")
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_check(args):
    """Fast invariant suite: conservation, skew symmetry, constraints."""
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append({"check": name, "detail": detail})

    cfg = replace(default_config("test1"), kx=16, ky=8, dt=1e-5, t_final=1e-4,
                  snapshot_times=())
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = build_problem(cfg, mesh)
    stepper = Stepper(mesh, params)
    grid = TimeGrid(dt=cfg.dt, n_steps=cfg.n_steps())
    try:
        result = stepper.run(grid, data, mode=INIT_MODES[cfg.init_mode], forcing=forcing)
    except InvariantError as exc:  # check the steps the run reached
        result = exc.result

    masses = np.array([rec["mass"] for rec in result.diagnostics])
    drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    check("mass conservation", drift <= scheme.MASS_DRIFT_TOL, f"relative drift {drift:.3e}")

    div_res = max(rec["div_residual"] for rec in result.diagnostics[1:])
    check("discrete incompressibility", div_res <= scheme.DIVERGENCE_TOL, f"max residual {div_res:.3e}")

    final = result.states[-1]
    sig_c = np.abs(final.sigma[stepper.layout_sigma.constrained_dofs]).max() if len(
        stepper.layout_sigma.constrained_dofs) else 0.0
    u_c = np.abs(final.u[stepper.layout_u.constrained_dofs]).max()
    check("constraint preservation", max(sig_c, u_c) == 0.0, f"max pinned value {max(sig_c, u_c):.3e}")

    mean_n = abs(stepper.w_p1 @ final.n)
    mean_pi = abs(stepper.w_p1 @ final.pi)
    check("zero means", max(mean_n, mean_pi) <= 1e-11, f"|mean| {max(mean_n, mean_pi):.3e}")

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        vel = DiscreteField(stepper.layout_u, rng.standard_normal(stepper.layout_u.n_dofs))
        for layout in (stepper.layout_c, stepper.layout_u):
            nmat = assemble_skew(layout, vel.values(stepper.ctx), stepper.ctx)
            x = rng.standard_normal(nmat.shape[0])
            worst = max(worst, abs(x @ (nmat @ x)) / (np.linalg.norm(nmat.data) * (x @ x)))
    check("skew symmetry", worst <= 1e-12, f"max scaled |x^T N x| {worst:.3e}")

    if failures:
        print(json.dumps({"failed": failures}), file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chemflow",
        description="Finite element chemotaxis-fluid solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", choices=PRESET_NAMES, default=None)
        p.add_argument("--config", help="INI config file (flags override it)")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--tfinal", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--init-mode", dest="init_mode", choices=sorted(INIT_MODES), default=None)
        p.add_argument("--quadrature-degree", dest="quadrature_degree", type=int, default=None)

    p_run = sub.add_parser("run", help="integrate one configuration, write snapshots")
    common(p_run)
    p_run.add_argument("--mesh", help="KX,KY (or a single K) cell counts", default=None)
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge", help="manufactured-solution convergence study")
    common(p_conv)
    p_conv.add_argument("--meshes", help="comma-separated k list", default=None)
    p_conv.set_defaults(func=cmd_converge)

    p_check = sub.add_parser("check", help="run the runtime invariant suite")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except Exception as exc:  # surface a machine-readable failure summary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
