"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 benchmarks/steadiness.py --workloads plume,mms-coarse --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of BENCHMARK.json, and prints for each end-to-end metric
its median over the seeds, the quartiles, and the spread: the distance
between the quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  A spread is marked when it exceeds a third of the metric's
bound; ``setup_s`` is reported but has no spread requirement.  Results are
appended as JSON lines to ``.bench_out/steadiness.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log_path = os.path.join(ROOT, ".bench_out", "steadiness.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    worst = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                worst = 1
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **line}) + "\n")
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        print(f"{workload}:")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f} (bound {bounds[name]}){flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
