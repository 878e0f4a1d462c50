"""Span tracing of the chemflow layers, installed from outside the package.

``Tracer.install`` replaces every public function of each chemflow module,
plus the class methods listed in ``METHODS``, with a wrapper that records
one span per call: name, start, end, the index of the enclosing span and
the workload pass it belongs to.  The original objects are put back by
``Tracer.uninstall``.  Spans stay in memory; ``write_spans`` writes them
out once the run is over.  No file of the package is changed.

Each linear-system span is labelled with the system it belongs to
(``n``, ``sigma``, ``c`` or ``u``), told apart by matrix size against the
layouts of the ``Stepper`` whose ``step`` or ``init_state`` is running:

* ``n``: the zero-mean density layout plus its bordered mean row;
* ``c``: the concentration layout;
* ``sigma``: the flux layout;
* ``u``: anything larger than the flux layout (the velocity/pressure
  saddle system, however it is bordered or condensed).

A system of any other size is labelled ``other``.
"""

import functools
import importlib
import inspect
import json
import os
import time
import weakref

import numpy as np

LAYERS = ("mesh", "quadrature", "spaces", "assembly", "linsolve", "scheme", "manufactured", "io_cli")
SYSTEMS = ("n", "sigma", "c", "u")

# linsolve.solve(a, b) is Factorization(a).solve(b); both halves are traced
# per system, and a third span around them would double-count the layer.
SKIPPED_FUNCTIONS = {"linsolve.solve"}

# (module, class, attribute) -> span name
METHODS = {
    ("assembly", "AssemblyContext", "__init__"): "assembly.AssemblyContext",
    ("scheme", "Stepper", "__init__"): "scheme.Stepper.init",
    ("scheme", "Stepper", "init_state"): "scheme.init_state",
    ("scheme", "Stepper", "step"): "scheme.step",
    ("linsolve", "SparseMatrix", "from_scipy"): "linsolve.from_scipy",
    ("linsolve", "Factorization", "__init__"): "linsolve.factor",
    ("linsolve", "Factorization", "solve"): "linsolve.solve",
}

STEP_FORMS = (
    "assemble_skew_A",
    "assemble_skew_B",
    "assemble_chemo_rhs",
    "assemble_sigma_rhs",
    "assemble_consumption_rhs",
    "assemble_buoyancy_rhs",
    "assemble_load",
    "assemble_div_load",
    "apply_constraints",
    "constrain_rhs",
)
CONSTANT_FORMS = ("assemble_mass", "assemble_stiffness", "assemble_divrot", "assemble_pressure_coupling")
FORCING_SPAN = "manufactured.forcing"


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []  # dicts: name, t0, t1, parent, pass (+ attributes)
        self.pass_id = None
        self._stack = []
        self._stepper = None
        self._factorizations = weakref.WeakKeyDictionary()  # -> (system, ||A||_F)
        self._saved = []  # (owner, attribute, original) to restore

    # -- spans --------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "t0": time.perf_counter(), "t1": None,
                           "parent": parent, "pass": self.pass_id})
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span["t1"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(args, kwargs)`` may return a more specific span name;
        ``after(span, args, kwargs, result)`` adds attributes once the span
        has ended, so its own cost is not timed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin((before and before(args, kwargs)) or name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        package = importlib.import_module("chemflow")
        modules = {layer: importlib.import_module(f"chemflow.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in SKIPPED_FUNCTIONS):
                    continue
                after = self._after_write_vtk if name == "io_cli.write_vtk" else None
                wrapped = self.wrap(name, obj, after=after)
                # `from .x import f` copies f into other modules: replace every copy
                for ns in namespaces:
                    for other_attr, other in list(vars(ns).items()):
                        if other is obj:
                            self._replace(ns, other_attr, wrapped)
        hooks = {
            "scheme.step": self._stepper_hooks,
            "scheme.init_state": self._stepper_hooks,
            "linsolve.factor": lambda: (self._factor_name, self._after_factor),
            "linsolve.solve": lambda: (self._solve_name, self._after_solve),
        }
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
            if raw is None:  # gone from the package: its metrics read 0
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            before, after = hooks[name]() if name in hooks else (None, None)
            wrapped = self.wrap(name, fn, before=before, after=after)
            self._replace(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    # -- per-span hooks --------------------------------------------------------

    def _stepper_hooks(self):
        def before(args, kwargs):
            self._stepper = args[0]
            return None

        def after(span, args, kwargs, result):
            self._stepper = None

        return before, after

    def system_of(self, size):
        st = self._stepper
        if st is None:
            return "other"
        if size > st.layout_sigma.n_dofs:
            return "u"
        sizes = {
            st.layout_n.n_dofs + int(st.layout_n.mean_constraint): "n",
            st.layout_c.n_dofs + int(st.layout_c.mean_constraint): "c",
            st.layout_sigma.n_dofs + int(st.layout_sigma.mean_constraint): "sigma",
        }
        return sizes.get(size, "other")

    def _factor_name(self, args, kwargs):
        a = args[1] if len(args) > 1 else kwargs["a"]
        return f"linsolve.factor.{self.system_of(a.shape[0])}"

    def _after_factor(self, span, args, kwargs, result):
        fact, a = args[0], (args[1] if len(args) > 1 else kwargs["a"])
        csr = getattr(a, "csr", a)
        system = span["name"].rsplit(".", 1)[1]
        self._factorizations[fact] = (system, float(np.sqrt((csr.data**2).sum())))
        span["n"] = int(csr.shape[0])
        span["nnz"] = int(csr.nnz)
        # SuperLU exposes its factors as L and U (each access builds a
        # matrix); another factorization object reports no fill
        lu = getattr(fact, "_lu", None)
        try:
            span["lu_nnz"] = int(lu.L.nnz + lu.U.nnz)
        except AttributeError:
            pass

    def _solve_name(self, args, kwargs):
        return f"linsolve.solve.{self._factorizations.get(args[0], ('other',))[0]}"

    def _after_solve(self, span, args, kwargs, result):
        _, fro = self._factorizations.get(args[0], (None, None))
        x, report = result
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"], dtype=float)
        scale = (fro or 0.0) * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
        # residual relative to the bound linsolve enforces (RTOL * scale)
        span["residual_rel"] = float(report.residual_norm) / scale if scale > 0 else 0.0

    def _after_write_vtk(self, span, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        span["bytes"] = os.path.getsize(path)


# ---------------------------------------------------------------------------
# span analysis


def _duration(span):
    return span["t1"] - span["t0"]


def _ancestor_names(spans, span):
    parent = span["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def self_times(spans):
    """Self time of every span: its duration minus that of its direct children.

    Execution is single-threaded, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)
    return [_duration(s) - child_time[i] for i, s in enumerate(spans)]


def pass_metrics(spans, pass_id):
    """Per-layer metrics of one workload pass (see README for each one)."""
    idx = [i for i, s in enumerate(spans) if s["pass"] == pass_id]
    mine = [spans[i] for i in idx]
    total = {}
    calls = {}
    for i in idx:
        span = spans[i]
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        if name not in _ancestor_names(spans, span):  # count nested calls once
            total[name] = total.get(name, 0.0) + _duration(span)

    m = {
        "mesh.build_rect_mesh.s": total.get("mesh.build_rect_mesh", 0.0),
        "spaces.build_layout.s": total.get("spaces.build_layout", 0.0),
        "spaces.build_layout.calls": calls.get("spaces.build_layout", 0),
        "assembly.AssemblyContext.s": total.get("assembly.AssemblyContext", 0.0),
        "assembly.constant_forms.s": sum(total.get(f"assembly.{f}", 0.0) for f in CONSTANT_FORMS),
        "scheme.Stepper.init.s": total.get("scheme.Stepper.init", 0.0),
        "io_cli.build_problem.s": total.get("io_cli.build_problem", 0.0),
    }
    for system in SYSTEMS:
        factors = [s for s in mine if s["name"] == f"linsolve.factor.{system}"]
        solves = [s for s in mine if s["name"] == f"linsolve.solve.{system}"]
        m[f"linsolve.factor.{system}.s"] = sum(map(_duration, factors))
        m[f"linsolve.factor.{system}.calls"] = len(factors)
        m[f"linsolve.solve.{system}.s"] = sum(map(_duration, solves))
        m[f"linsolve.n.{system}"] = max((s["n"] for s in factors), default=0)
        m[f"linsolve.nnz.{system}"] = max((s["nnz"] for s in factors), default=0)
        m[f"linsolve.lu_nnz.{system}"] = max((s.get("lu_nnz", 0) for s in factors), default=0)
        m[f"linsolve.residual_max.{system}"] = max((s["residual_rel"] for s in solves), default=0.0)
    m["linsolve.from_scipy.s"] = total.get("linsolve.from_scipy", 0.0)
    m["linsolve.from_scipy.calls"] = calls.get("linsolve.from_scipy", 0)
    for form in STEP_FORMS:
        m[f"assembly.{form}.s"] = total.get(f"assembly.{form}", 0.0)
        m[f"assembly.{form}.calls"] = calls.get(f"assembly.{form}", 0)
    m["assembly.total.s"] = sum(  # outermost assembly spans
        _duration(span) for span in mine if span["name"].startswith("assembly.")
        and not any(a.startswith("assembly.") for a in _ancestor_names(spans, span)))
    m["manufactured.forcing.s"] = total.get(FORCING_SPAN, 0.0)
    m["manufactured.forcing.calls"] = calls.get(FORCING_SPAN, 0)
    m["manufactured.error_norms.s"] = total.get("manufactured.error_norms", 0.0)

    m["scheme.step.s"] = total.get("scheme.step", 0.0)
    m["scheme.step.calls"] = calls.get("scheme.step", 0)
    m["scheme.init_state.s"] = total.get("scheme.init_state", 0.0)
    # the step split by the layer of its direct children: linsolve work done
    # inside an assembly call (CSR building) counts to assembly only, so
    # self_s + assembly_s + linsolve_s is the step time
    child_s = {"assembly": 0.0, "linsolve": 0.0, "linsolve.factor.u": 0.0}
    self_s = 0.0
    for t, span in zip(self_times(spans), spans):
        if span["pass"] != pass_id:
            continue
        if span["name"] == "scheme.step":
            self_s += t
        elif span["parent"] is not None and spans[span["parent"]]["name"] == "scheme.step":
            for prefix in child_s:
                if span["name"] == prefix or span["name"].startswith(prefix + "."):
                    child_s[prefix] += _duration(span)
    m["scheme.step.self_s"] = self_s
    m["scheme.step.assembly_s"] = child_s["assembly"]
    m["scheme.step.linsolve_s"] = child_s["linsolve"]
    m["scheme.step.factor_u_s"] = child_s["linsolve.factor.u"]

    m["io_cli.write_vtk.s"] = total.get("io_cli.write_vtk", 0.0)
    m["io_cli.write_vtk.bytes"] = sum(s.get("bytes", 0) for s in mine if s["name"] == "io_cli.write_vtk")
    m["io_cli.write_diagnostics_csv.s"] = total.get("io_cli.write_diagnostics_csv", 0.0)
    return m


def unit_of(metric):
    if ".residual_max." in metric:
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "count"


def write_spans(spans, path):
    """One JSON object per line, in start order; ``parent`` is a line index."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
