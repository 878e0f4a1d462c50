"""Checks of the benchmark itself.

    python3 -m pytest benchmarks/test_counts.py -q

The exact per-layer counts (calls, system sizes, nonzeros, LU fill, bytes
written) must repeat bit-for-bit between two traced runs; timings may not.
``mms-coarse`` runs its shipped pass, error-norm gate included; ``plume``
runs on a smaller mesh for fewer steps, set through its module constants.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chemflow import scheme, spaces  # noqa: E402

STEPS = {"plume": 2, "mms-coarse": 50}


@pytest.fixture(autouse=True)
def small_plume(monkeypatch):
    monkeypatch.setattr(workloads, "PLUME_MESH", (16, 8))
    monkeypatch.setattr(workloads, "PLUME_STEPS", STEPS["plume"])


def traced_run(name, outdir):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        res = workloads.WORKLOADS[name].run_pass(0, str(outdir), tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0, res.messages
    return res, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    counts = []
    for i in range(2):
        outdir = tmp_path / str(i)
        outdir.mkdir()
        _, tracer = traced_run(name, outdir)
        metrics = tracing.pass_metrics(tracer.spans, 0)
        counts.append({k: v for k, v in metrics.items() if tracing.unit_of(k) in ("count", "B")})
        assert not any(s["name"].endswith(".other") for s in tracer.spans)
    assert counts[0] == counts[1]
    for system in tracing.SYSTEMS:
        assert counts[0][f"linsolve.lu_nnz.{system}"] >= counts[0][f"linsolve.nnz.{system}"] > 0
    assert counts[0]["scheme.step.calls"] == STEPS[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_step_breakdown_adds_up(name, tmp_path):
    _, tracer = traced_run(name, tmp_path)
    m = tracing.pass_metrics(tracer.spans, 0)
    parts = m["scheme.step.self_s"] + m["scheme.step.assembly_s"] + m["scheme.step.linsolve_s"]
    assert parts == pytest.approx(m["scheme.step.s"], rel=1e-9)
    assert 0 < m["scheme.step.factor_u_s"] < m["scheme.step.linsolve_s"]


def test_tracing_changes_no_result(tmp_path):
    plain = workloads.mms_pass(0, str(tmp_path), None)
    traced, _ = traced_run("mms-coarse", tmp_path)
    assert plain.failed == 0, plain.messages
    assert traced.err_linf_l2 == plain.err_linf_l2


def test_uninstall_restores_the_package(tmp_path):
    originals = (scheme.build_layout, spaces.build_layout, scheme.Stepper.step)
    traced_run("plume", tmp_path)
    assert (scheme.build_layout, spaces.build_layout, scheme.Stepper.step) == originals
    assert scheme.build_layout is spaces.build_layout


def test_a_raising_pass_counts_its_steps_as_failed(monkeypatch, capsys, tmp_path):
    def raising_pass(seed, outdir, tracer=None):
        raise np.linalg.LinAlgError("singular saddle system")

    broken = workloads.Workload("plume", raising_pass, lambda seed: None, lambda: 3)
    monkeypatch.setitem(workloads.WORKLOADS, "plume", broken)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    code = run.run_one(run.parse_args(["--workload", "plume", "--seed", "1", "--seconds", "1e-9"]))
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 3)
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "plume", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
