"""Run one chemflow benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload plume --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 55 --trace 0

Each workload runs in a process of its own, single-threaded (BLAS threads
are set to 1 before numpy loads).  The last line printed is one JSON
object: ``correct``, ``attempted`` and ``failed`` (steps), and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced passes with ``--trace 1``.  The full result, with its
quartiles and a manifest of the machine and libraries, is written to
``.bench_out/`` in the checkout, and the spans of a traced run next to
it.  The exit code is 1 when any step failed a correctness gate, 2 when
the package source is missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("plume", "mms-coarse")
SETUP_REPEATS = 2  # set-ups timed alone before each pass

END_TO_END_UNITS = {
    "setup_s": "s",
    "init_s": "s",
    "step_min_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "err_linf_l2": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error("--seconds must be a positive number")
    return args


def percentile(values, p):
    """The p-th percentile (whole p, 1..100), interpolated as numpy's default."""
    if p == 100 or len(values) == 1:
        return float(max(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])


def quartiles(values):
    return {"median": percentile(values, 50), "q1": percentile(values, 25),
            "q3": percentile(values, 75), "n": len(values)}


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, or the maximum when there are fewer than eleven."""
    n = len(samples)
    p = 100 if n < 11 else math.floor(100.0 * (1.0 - 10.0 / n))
    return p, percentile(samples, p)


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "chemflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def manifest(args, plan):
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **plan,
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def phase_floor(setup_s, results, n_steps):
    """``wall_s``: the fastest time of each phase of a pass -- set-up, init,
    first step, later steps, finish (outputs or error norms) -- summed over
    the phases of one pass.  The steps after the first are counted at the
    fastest of them.  Only passes that took all their steps count; 0 when
    there are none, and the run has failed."""
    full = [r for r in results if len(r.step_s) == n_steps]
    if not full or not setup_s:
        return 0.0
    later = [s for r in full for s in r.step_s[1:]]
    return (min(setup_s) + min(s for r in full for s in r.init_s)
            + min(r.step_s[0] for r in full)
            + (n_steps - 1) * min(later, default=0.0)
            + min(r.finish_s for r in full))


def timed_setups(workload, seed, count):
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        workload.setup(seed)
        out.append(time.perf_counter() - t0)
    return out


def one_pass(workload, seed, pass_id, tracer=None, setup_s=None):
    """One pass; with a ``setup_s`` list, set-ups alone are first timed
    into it, so that the set-up samples span the run.

    A pass that raises outside its steps (in set-up, init, error norms or
    output) yields a result that counts all its planned steps as attempted
    and failed, and the run goes on.
    """
    import workloads

    if tracer is not None:
        tracer.pass_id = pass_id
    try:
        if setup_s is not None:
            setup_s += timed_setups(workload, seed, SETUP_REPEATS)
        with tempfile.TemporaryDirectory(dir=OUT) as outdir:
            return workload.run_pass(seed, outdir, tracer=tracer)
    except Exception as exc:  # the run goes on; the failure is reported
        res = workloads.PassResult()
        res.attempted = workload.steps()
        res.fail(res.attempted, f"pass {pass_id}: {type(exc).__name__}: {exc}")
        return res
    finally:
        if tracer is not None:
            tracer.pass_id = None


def run_one(args):
    import resource

    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    setup_s = []
    try:
        w.setup(args.seed)  # warm-up, untimed
    except Exception:  # the passes meet it again and report it
        pass
    # passes are started until --seconds have gone by, and at least one
    deadline = time.perf_counter() + args.seconds
    results = []
    if args.trace:
        # untraced and traced passes alternate, so that drift of the machine
        # hits both; the difference in wall time is the tracing overhead
        tracer = tracing.Tracer()
        traced = []
        while not traced or time.perf_counter() < deadline:
            results.append(one_pass(w, args.seed, len(results)))
            tracer.install()
            try:
                traced.append(one_pass(w, args.seed, len(traced), tracer))
            finally:
                tracer.uninstall()
    else:
        while not results or time.perf_counter() < deadline:
            results.append(one_pass(w, args.seed, len(results), setup_s=setup_s))
    passes = len(results)

    everything = results + (traced if args.trace else [])
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    messages = [m for r in everything for m in r.messages]
    complete = [r for r in results if r.wall_s is not None]
    samples = {
        "setup_s": setup_s + [r.setup_s for r in complete],
        "init_s": [s for r in complete for s in r.init_s],
        "first_step_s": [r.step_s[0] for r in complete if r.step_s],
        "step_s": [s for r in complete for s in r.step_s[1:]],
        "finish_s": [r.finish_s for r in complete],
        "pass_wall_s": [r.wall_s for r in complete],
    }
    steps = samples["step_s"]
    tail_pct, tail_value = tail(steps) if steps else (None, 0.0)

    # the fastest sample of a run: the host's load only ever adds time, and
    # the minimum of short samples moved least from run to run (README,
    # "End-to-end metrics")
    def fastest(name):  # 0 only when no pass got that far, and the run has failed
        return min(samples[name], default=0.0)

    e2e = {
        "setup_s": fastest("setup_s"),
        "init_s": fastest("init_s"),
        "step_min_s": fastest("step_s"),
        "wall_s": phase_floor(samples["setup_s"], complete, w.steps()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_linf_l2": max(r.err_linf_l2 for r in results),
    }
    stats = {k: quartiles(v) for k, v in samples.items() if v}
    result = {
        "manifest": manifest(args, {"passes": passes, "setups_timed_alone": len(setup_s),
                                    "steps_per_pass": attempted // max(1, len(everything))}),
        "attempted": attempted, "failed": failed,
        "step_fail_ratio": failed / attempted if attempted else 1.0,
        "step_tail_s": tail_value, "step_tail_percentile": tail_pct, "step_samples": len(steps),
        "max_mass_drift": max(r.max_mass_drift for r in everything),
        "max_divergence": max(r.max_divergence for r in everything),
        "failures": messages, "stats": stats, "samples": samples,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
    }

    if args.trace:
        per_pass = [tracing.pass_metrics(tracer.spans, i) for i in range(passes)]
        layer = {k: float(statistics.median(m[k] for m in per_pass)) for k in per_pass[0]}
        layer = {k: int(v) if tracing.unit_of(k) in ("count", "B") else v for k, v in layer.items()}
        traced_done = [r for r in traced if r.wall_s is not None]
        traced_wall = phase_floor([r.setup_s for r in traced_done], traced_done, w.steps())
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = e2e["wall_s"]
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        result["per_layer"] = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layer.items()}
        spans_path = os.path.join(OUT, f"{args.workload}_seed{args.seed}.spans.jsonl")
        tracing.write_spans(tracer.spans, spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]

    out_path = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}: seed {args.seed}, {passes} pass(es), "
          f"{attempted} steps attempted, {failed} failed "
          f"(step_fail_ratio {result['step_fail_ratio']:.6g})")
    for msg in messages[:20]:
        print(f"  FAILED: {msg}")
    if not args.trace:
        for name, st in stats.items():
            print(f"  {name} samples: median {st['median']:.6g} s, "
                  f"quartiles {st['q1']:.6g} .. {st['q3']:.6g} s, n={st['n']}")
        print(f"  step_tail_s = {tail_value:.6g} s: p{tail_pct} of {len(steps)} step samples "
              f"(the first step of each pass is left out)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  written: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in a fresh process of its own, one after another."""
    code = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": summary, "exit_codes_max": code}))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chemflow", "__init__.py")):
        print(f"chemflow source not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
