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
import contextlib
import io
import json
import os
import sys
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from . import linsolve, manufactured, scheme
from .assembly import AssemblyContext, DiscreteField, assemble_skew_data, at_points, square_plan
from .mesh import build_rect_mesh, is_integer
from .quadrature import MAX_DEGREE
from .scheme import InitialData, InvariantError, ModelParams, Stepper, TimeGrid, require_real

PRESET_NAMES = ("test1", "test2")
INIT_MODES = {"elliptic": "elliptic_projection", "nodal": "nodal"}
FORMATS = ("vtk", "csv")


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
    grad_phi: tuple[float, float]
    init_mode: str = "elliptic"
    quadrature_degree: int = 8
    snapshot_times: tuple[float, ...] = ()
    outdir: str = "out"
    formats: tuple[str, ...] = ("vtk", "csv")

    def n_steps(self):
        return scheme.grid_step(self.t_final, self.dt, "t_final")

    def snapshot_steps(self):
        """The set of step indices of ``snapshot_times``; raises ValueError for
        a time off the dt grid or outside [0, t_final]."""
        n = self.n_steps()
        steps = set()
        for ts in self.snapshot_times:
            m = scheme.grid_step(ts, self.dt, "snapshot times")
            if m < 0:
                raise ValueError("snapshot times must be nonnegative")
            if m > n:
                raise ValueError(f"snapshot time {ts} exceeds t_final")
            steps.add(m)
        return steps

    def validate(self):
        if self.preset not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.preset!r}")
        signs = dict.fromkeys(("Lx", "Ly", "dt", "t_final"), "positive") | scheme.PARAM_SIGNS
        for name, sign in signs.items():
            require_real(f"config value {name}", getattr(self, name), sign)
        for g in self.grad_phi:
            require_real("config value grad_phi", g)
        if not (is_integer(self.kx, 1) and is_integer(self.ky, 1)):
            raise ValueError("mesh subdivisions kx, ky must be integers >= 1")
        degree = self.quadrature_degree
        if not (is_integer(degree, 1) and degree <= MAX_DEGREE):
            raise ValueError(f"quadrature_degree must be an integer in 1..{MAX_DEGREE}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {sorted(INIT_MODES)}")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ValueError(f"unknown output format {fmt!r}")
        if not str(self.outdir).strip():
            raise ValueError("config value outdir must name a directory, got an empty one")
        self.snapshot_steps()
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


# config file sections and their keys: the RunConfig fields, grad_phi as its
# two components
_CONFIG_SCHEMA = {
    "domain": ("Lx", "Ly"),
    "mesh": ("kx", "ky"),
    "time": ("dt", "t_final"),
    "params": ("chi", "D_n", "D_c", "D_u", "rho", "gamma", "grad_phi_x", "grad_phi_y"),
    "initial": ("preset", "init_mode"),
    "output": ("snapshot_times", "outdir", "formats", "quadrature_degree"),
}
_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)} | {"grad_phi_x": float, "grad_phi_y": float}


def _parse_value(key, text):
    """``text`` as a value of the type of config key ``key``; a tuple type
    reads a comma-separated list of its item type."""
    kind = _KEY_TYPES[key]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(s.strip()) for s in text.split(",") if s.strip())
    return kind(text)


def _format_value(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def parse_config(text, preset=None, **overrides):
    """Parse an INI-style configuration; unknown keys are an error.

    The defaults are those of ``preset``, else of the ``[initial] preset``
    entry, else of test2; every other key overrides one preset value, and
    ``overrides`` (RunConfig field values) override the file.  The result
    is validated once, with the overrides applied.
    """
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep case: D_n vs d_n matters
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    values = {}
    for section in cp.sections():
        if section not in _CONFIG_SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            if key not in _CONFIG_SCHEMA[section]:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ValueError(f"config value {key} in section [{section}]: {exc}") from exc
    file_preset = values.pop("preset", "test2")
    cfg = default_config(preset or file_preset)
    gx, gy = cfg.grad_phi
    grad_phi = (values.pop("grad_phi_x", gx), values.pop("grad_phi_y", gy))
    return replace(cfg, grad_phi=grad_phi, **(values | overrides)).validate()


def serialize_config(cfg):
    """Render a config as INI text; parse_config round-trips it."""
    values = dict(vars(cfg))
    values["grad_phi_x"], values["grad_phi_y"] = values.pop("grad_phi")
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for section, keys in _CONFIG_SCHEMA.items():
        cp[section] = {key: _format_value(values[key]) for key in keys}
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
        div_sigma0=div_sigma0,
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
    physical = {name: getattr(cfg, name) for name in scheme.PARAM_SIGNS}
    if cfg.preset == "test2":
        sol = manufactured.test2_solution()
        params = replace(manufactured.test2_params(), grad_phi=cfg.grad_phi, **physical)
        return params, manufactured.test2_initial_data(sol), manufactured.test2_forcing()
    data = test1_initial_fields()
    alpha0 = mean_over_domain(mesh, data.eta0, degree=cfg.quadrature_degree)
    return ModelParams(grad_phi=cfg.grad_phi, alpha0=alpha0, **physical), data, None


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
    return FieldSnapshot(
        time=state.t,
        mesh=stepper.mesh,
        eta=stepper.layout_n.vertex_values(state.n) + stepper.params.alpha0,
        c=stepper.layout_c.vertex_values(state.c),
        sigma=stepper.layout_sigma.vertex_values(state.sigma),
        velocity=stepper.layout_u.vertex_values(state.u),
        pressure=stepper.layout_pi.vertex_values(state.pi),
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


def format_order(value, spec=".4f"):
    return "" if value is None else format(value, spec)


def write_csv_table(report, path):
    """Write the convergence tables, one CSV per variable, into a directory.

    Scalar variables get ``k,error_linf_L2,order,error_l2_H1,order``,
    velocity components an extra ``error_linf_H1,order`` pair.  Errors are
    written with 6 significant digits, order cells of the first mesh stay
    empty, and each order equals the log-ratio of the adjacent printed
    errors.
    """
    os.makedirs(path, exist_ok=True)
    # orders of the printed errors, so the written columns are self-consistent
    rounded = manufactured.ErrorReport([
        replace(m, **{norm: {v: float(f"{e:.6g}") for v, e in getattr(m, norm).items()}
                      for norm in ("linf_l2", "l2_h1", "linf_h1")})
        for m in report.meshes
    ])
    written = []
    for var in manufactured.VARIABLES:
        norms = ("linf_l2", "l2_h1", "linf_h1")[: 3 if var in ("u1", "u2") else 2]
        header = "k," + ",".join(
            f"error_{label},order"
            for label in ("linf_L2", "l2_H1", "linf_H1")[: len(norms)]
        )
        orders = [rounded.orders(norm, var) for norm in norms]
        lines = [header]
        for i, mesh_err in enumerate(rounded.meshes):
            row = [str(mesh_err.k)]
            for norm, order in zip(norms, orders):
                row += [f"{getattr(mesh_err, norm)[var]:.6g}", format_order(order[i], ".12g")]
            lines.append(",".join(row))
        out = os.path.join(path, f"{var}.csv")
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(out)
    return written


def write_diagnostics_csv(records, path):
    """Per-level diagnostics records (``Stepper.run``) as one CSV: a header of
    ``scheme.RECORD_KEYS``, then one row per record, written as it arrives
    from the iterable ``records``, so a run stopped early keeps the rows it
    reached.  A value that is None or missing gives an empty cell.

    Raises
    ------
    ValueError
        If a record has a key outside ``scheme.RECORD_KEYS``.
    """
    keys, known = scheme.RECORD_KEYS, set(scheme.RECORD_KEYS)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(keys) + "\n")
        for rec in records:
            if not rec.keys() <= known:
                raise ValueError(f"record {rec.get('m')} has keys outside scheme.RECORD_KEYS: "
                                 f"{sorted(rec.keys() - known)}")
            cells = (rec.get(k) for k in keys)
            fh.write(",".join("" if v is None else v if isinstance(v, str) else f"{v:.10g}"
                              for v in cells) + "\n")


# ---------------------------------------------------------------------------
# commands


# run-setting flags (argparse dests) and the RunConfig field each overrides
_FLAG_FIELDS = {
    "dt": "dt", "tfinal": "t_final", "out": "outdir", "init_mode": "init_mode",
    "quadrature_degree": "quadrature_degree",
}


def _int_list(flag, text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from exc


def _load_config(args):
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    overrides = {
        name: getattr(args, flag) for flag, name in _FLAG_FIELDS.items()
        if getattr(args, flag) is not None
    }
    if getattr(args, "mesh", None) is not None:
        parts = _int_list("--mesh", args.mesh)
        if len(parts) > 2:
            raise ValueError(f"--mesh takes K or KX,KY, got {args.mesh!r}")
        overrides["kx"], overrides["ky"] = (parts[0], parts[0]) if len(parts) == 1 else parts
    return parse_config(text, args.preset, **overrides)


def cmd_run(args):
    cfg = _load_config(args)
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = build_problem(cfg, mesh)
    stepper = Stepper(mesh, params, quad_degree=cfg.quadrature_degree)
    grid = TimeGrid(dt=cfg.dt, n_steps=cfg.n_steps())

    snapshots = cfg.snapshot_steps() if "vtk" in cfg.formats else set()
    os.makedirs(cfg.outdir, exist_ok=True)
    first = last = None
    c_rose = False  # max(c_h) increased after the first step

    def records():
        nonlocal first, last, c_rose
        for state, rec in stepper.run(grid, data, INIT_MODES[cfg.init_mode], forcing):
            if state.m in snapshots:
                snap = snapshot_from_state(stepper, state)
                write_vtk(snap, os.path.join(cfg.outdir, f"snapshot_{state.m:06d}.vtk"))
            c_rose = c_rose or (state.m >= 2 and rec["max_c"] > last["max_c"] * (1 + 1e-12))
            first, last = first or rec, rec
            yield rec

    if "csv" in cfg.formats:  # a run stopped early keeps the rows it reached
        write_diagnostics_csv(records(), os.path.join(cfg.outdir, "diagnostics.csv"))
    else:
        for _rec in records():
            pass
    mass0, mass_end = first["mass"], last["mass"]
    drift = abs(mass_end - mass0) / max(abs(mass0), 1e-300)
    print(f"completed {grid.n_steps} steps to t={grid.T:.6g}")
    print(f"mass: initial {mass0:.12g}, final {mass_end:.12g}, relative drift {drift:.3e}")
    if c_rose:
        print("note: max(c_h) increased after the first step (soft diagnostic)")
    return 0


def cmd_converge(args):
    cfg = _load_config(args)
    if cfg.preset != "test2":
        raise ValueError(f"converge runs the manufactured test2 problem, not preset {cfg.preset!r}")
    report = manufactured.convergence_study(
        _int_list("--meshes", args.meshes or "10,20,30,40,50"),
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

    cfg = replace(default_config("test1"), kx=16, ky=8, dt=1e-5, t_final=1e-4)
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = build_problem(cfg, mesh)
    stepper = Stepper(mesh, params)
    grid = TimeGrid(dt=cfg.dt, n_steps=cfg.n_steps())
    records = []
    with linsolve.recorded_lus() as lus, contextlib.suppress(InvariantError):  # the levels reached
        for final, rec in stepper.run(grid, data, INIT_MODES[cfg.init_mode], forcing):
            records.append(rec)

    masses = np.array([rec["mass"] for rec in records])
    drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    check("mass conservation", drift <= scheme.MASS_DRIFT_TOL, f"relative drift {drift:.3e}")

    div_res = max(rec["div_residual"] for rec in records[1:])
    check("discrete incompressibility", div_res <= scheme.DIVERGENCE_TOL, f"max residual {div_res:.3e}")

    pinned = max(max(rec["max_pinned_u"], rec["max_pinned_sigma"]) for rec in records)
    check("constraint preservation", pinned == 0.0, f"max pinned value {pinned:.3e}")

    mean_n = abs(stepper.w_p1 @ final.n)
    mean_pi = abs(stepper.w_p1 @ final.pi)
    check("zero means", max(mean_n, mean_pi) <= 1e-11, f"|mean| {max(mean_n, mean_pi):.3e}")

    # each LU by its size: n bordered, c, the free sigma dofs, else the condensed (u, pi)
    nn, sigma = mesh.n_nodes, stepper.layout_sigma
    sizes = {nn + 1: "n", nn: "c", sigma.n_dofs - len(sigma.constrained_dofs): "sigma"}
    fill = {}
    for fact in lus:
        system = sizes.get(fact.matrix.shape[0], "u")
        fill[system] = max(fill.get(system, 0), fact.fill)
    pivoted = sum(fact.pivoted for fact in lus)
    check("LUs factor without pivoting", pivoted == 0, f"{pivoted} of {len(lus)} LUs interchanged rows; "
          + "L+U fill " + ", ".join(f"{system} {fill[system]}" for system in sorted(fill)))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        vel = DiscreteField(stepper.layout_u, rng.standard_normal(stepper.layout_u.n_dofs))
        layouts = (stepper.layout_c, stepper.layout_u)
        for layout, data in zip(layouts, assemble_skew_data(layouts, vel, stepper.ctx)):
            nmat = square_plan(layout).csr(data)
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
