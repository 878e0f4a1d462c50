import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from chemflow import io_cli, scheme
from chemflow import manufactured as mf
from chemflow.mesh import build_rect_mesh
from chemflow.scheme import InvariantError, Stepper, TimeGrid
from oracles import stopped_step, write_diagnostics_csv_by_union, write_vtk_row_by_row


class TestConfig:
    def test_test2_preset(self):
        cfg = io_cli.default_config("test2").validate()
        assert (cfg.Lx, cfg.Ly) == (1.0, 1.0)
        assert cfg.dt == 2e-4 and cfg.t_final == 0.01
        assert cfg.n_steps() == 50
        for name in ("chi", "D_n", "D_c", "D_u", "rho", "gamma"):
            assert getattr(cfg, name) == 1.0

    def test_test1_preset(self):
        cfg = io_cli.default_config("test1").validate()
        assert (cfg.Lx, cfg.Ly) == (2.0, 1.0)
        assert (cfg.kx, cfg.ky) == (80, 40)
        assert cfg.dt == 1e-5
        assert cfg.snapshot_times == (0.0, 12e-5, 30e-5)
        assert (cfg.chi, cfg.D_c, cfg.gamma, cfg.D_u) == (8.0, 5.0, 8.0, 10.0)
        assert (cfg.D_n, cfg.rho) == (1.0, 1.0)
        assert cfg.grad_phi == (0.0, -1000.0)

    def test_dt_must_divide_t_final(self):
        cfg = io_cli.default_config("test2")
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(cfg, dt=3e-4).validate()

    def test_snapshot_steps(self):
        cfg = replace(io_cli.default_config("test2"), dt=1e-3, t_final=4e-3,
                      snapshot_times=(0.0, 2e-3, 4e-3, 2e-3))
        assert cfg.validate().snapshot_steps() == {0, 2, 4}

    @pytest.mark.parametrize("bad, message", [
        pytest.param(1.5e-3, "snapshot times=0.0015 is not an integer multiple", id="0.0015"),
        pytest.param(5e-3, "snapshot time 0.005 exceeds t_final", id="0.005"),
        pytest.param(-1e-3, "snapshot times must be nonnegative", id="-0.001"),
        pytest.param(math.nan, "snapshot times must be finite", id="nan"),
    ])
    def test_snapshot_times_off_the_grid_rejected(self, bad, message):
        cfg = replace(io_cli.default_config("test2"), dt=1e-3, t_final=4e-3,
                      snapshot_times=(0.0, bad))
        with pytest.raises(ValueError, match=message):
            cfg.snapshot_steps()
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    def test_shorter_t_final_drops_the_preset_snapshot_times(self):
        # test1's own times reach 3e-4; times the file sets are kept as given
        cfg = io_cli.parse_config("[time]\nt_final = 1e-4\n", "test1")
        assert cfg.snapshot_times == (0.0,) and cfg.snapshot_steps() == {0}
        assert io_cli.parse_config("", "test1", t_final=12e-5).snapshot_times == (0.0, 12e-5)
        for text, preset in (("[output]\nsnapshot_times = 0, 5e-2\n", "test2"),
                             ("[time]\nt_final = 1e-4\n[output]\nsnapshot_times = 0, 12e-5\n", "test1")):
            with pytest.raises(ValueError, match="exceeds t_final"):
                io_cli.parse_config(text, preset)

    def test_snapshot_times_on_grid(self):
        from dataclasses import replace

        cfg = replace(io_cli.default_config("test2"), snapshot_times=(1.1e-4,))
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("name", ["Lx", "dt", "t_final", "D_u", "rho", "chi", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, name, bad):
        from dataclasses import replace

        cfg = replace(io_cli.default_config("test2"), **{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cfg.validate()

    def test_non_finite_gravity_and_snapshots_rejected(self):
        from dataclasses import replace

        cfg = io_cli.default_config("test2")
        with pytest.raises(ValueError, match="grad_phi must be finite"):
            replace(cfg, grad_phi=(0.0, math.nan)).validate()
        for bad in ((1.0,), (1.0, 2.0, 3.0), (), 1.0):
            with pytest.raises(ValueError, match="config value grad_phi must be a 2-vector"):
                replace(io_cli.default_config("test1"), grad_phi=bad).validate()
        with pytest.raises(ValueError, match="snapshot times must be finite"):
            replace(cfg, snapshot_times=(math.inf,)).validate()

    @pytest.mark.parametrize(
        "name", ["Lx", "Ly", "dt", "t_final", "chi", "D_n", "D_c", "D_u", "rho", "gamma"]
    )
    def test_bool_rejected_for_float_values(self, name):
        # True would otherwise run as 1.0
        from dataclasses import replace

        cfg = replace(io_cli.default_config("test2"), **{name: True})
        with pytest.raises(ValueError, match=f"{name} must be finite.*, got True"):
            cfg.validate()

    def test_bool_rejected_in_gravity_and_snapshots(self):
        from dataclasses import replace

        cfg = io_cli.default_config("test2")
        with pytest.raises(ValueError, match="grad_phi must be finite, got True"):
            replace(cfg, grad_phi=(0.0, True)).validate()
        with pytest.raises(ValueError, match="snapshot times must be finite, got False"):
            replace(cfg, snapshot_times=(False,)).validate()

    @pytest.mark.parametrize("section,key", [("params", "chi"), ("domain", "Lx"), ("time", "dt")])
    def test_bool_rejected_in_config_file(self, section, key):
        with pytest.raises(ValueError, match=f"config value {key} in section \\[{section}\\]"):
            io_cli.parse_config(f"[{section}]\n{key} = True\n")

    def test_negative_snapshot_time_rejected(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="snapshot times must be nonnegative"):
            io_cli.parse_config("[output]\nsnapshot_times = 0.0, -2e-4\n")
        with pytest.raises(ValueError, match="snapshot times must be nonnegative"):
            replace(io_cli.default_config("test2"), snapshot_times=(-2e-4,)).validate()

    @pytest.mark.parametrize("degree", [0, 9])
    def test_quadrature_degree_out_of_range_rejected(self, degree):
        with pytest.raises(ValueError, match="quadrature_degree must be an integer in 1..8"):
            io_cli.parse_config(f"[output]\nquadrature_degree = {degree}\n")
        from dataclasses import replace

        with pytest.raises(ValueError, match="quadrature_degree must be an integer"):
            replace(io_cli.default_config("test2"), quadrature_degree=degree + 0.5).validate()

    @pytest.mark.parametrize("name, bad", [
        ("kx", 2.5), ("ky", 3.0), ("kx", True), ("quadrature_degree", True),
        ("quadrature_degree", 4.0),
    ])
    def test_non_integer_mesh_and_degree_rejected(self, name, bad):
        from dataclasses import replace

        match = "quadrature_degree must be an integer" if name == "quadrature_degree" else "integers >= 1"
        with pytest.raises(ValueError, match=match):
            replace(io_cli.default_config("test2"), **{name: bad}).validate()
        # numpy integers are integers
        replace(io_cli.default_config("test2"), **{name: np.int64(4)}).validate()

    def test_round_trip(self):
        for preset in ("test1", "test2"):
            cfg = io_cli.default_config(preset)
            again = io_cli.parse_config(io_cli.serialize_config(cfg))
            assert again == cfg

    def test_round_trip_of_non_preset_values(self):
        cfg = io_cli.RunConfig(
            preset="test2", Lx=3.0, Ly=0.5, kx=7, ky=5, dt=2.5e-3, t_final=2e-2,
            chi=0.5, D_n=2.0, D_c=3.0, D_u=4.0, rho=1.5, gamma=0.25, grad_phi=(1.5, -2.5),
            init_mode="elliptic", quadrature_degree=5, snapshot_times=(5e-3, 1e-2),
            outdir="results/x", formats=("csv",),
        ).validate()
        test1, test2 = io_cli.default_config("test1"), io_cli.default_config("test2")
        for f in fields(io_cli.RunConfig):
            value = getattr(cfg, f.name)
            assert f.name == "preset" or value != getattr(test2, f.name), f.name
            assert f.name in ("preset", "init_mode") or value != getattr(test1, f.name), f.name
        assert io_cli.parse_config(io_cli.serialize_config(cfg)) == cfg

    def test_config_keys_are_the_fields(self):
        keys = [key for section in io_cli._CONFIG_SCHEMA.values() for key in section]
        expected = []
        for f in fields(io_cli.RunConfig):
            expected += ["grad_phi_x", "grad_phi_y"] if f.name == "grad_phi" else [f.name]
        assert sorted(keys) == sorted(expected)

    def test_preset_argument_selects_the_defaults(self, tmp_path):
        text = "[initial]\npreset = test2\n[mesh]\nkx = 4\n"
        expected = replace(io_cli.default_config("test1"), kx=4)
        assert io_cli.parse_config(text, preset="test1") == expected
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text)
        args = io_cli.build_parser().parse_args(
            ["run", "--config", str(cfgfile), "--preset", "test1"])
        assert io_cli._load_config(args) == expected

    def test_bad_list_entry_is_named(self):
        with pytest.raises(ValueError, match="config value snapshot_times in section \\[output\\]"):
            io_cli.parse_config("[output]\nsnapshot_times = abc\n")

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="viscosity"):
            io_cli.parse_config("[params]\nviscosity = 3\n")
        with pytest.raises(ValueError, match="solver"):
            io_cli.parse_config("[solver]\ntype = lu\n")

    def test_overrides(self):
        text = "\n".join(
            [
                "[initial]",
                "preset = test2",
                "init_mode = elliptic",
                "[mesh]",
                "kx = 20",
                "ky = 20",
                "[params]",
                "gamma = 2.5",
            ]
        )
        cfg = io_cli.parse_config(text)
        assert (cfg.kx, cfg.ky) == (20, 20)
        assert cfg.gamma == 2.5
        assert cfg.init_mode == "elliptic"
        assert cfg.chi == 1.0  # untouched preset value

    def test_alpha0_recomputable(self):
        cfg = io_cli.default_config("test1")
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, 16, 8)
        params, data, _ = io_cli.build_problem(cfg, mesh)
        again = io_cli.mean_over_domain(mesh, data.eta0)
        assert params.alpha0 == pytest.approx(again, abs=1e-12)


def fabricated_report(errors_by_k):
    meshes = []
    for k, err in errors_by_k:
        meshes.append(
            mf.MeshErrors(
                k=k,
                h=math.sqrt(2) / k,
                linf_l2={v: err for v in mf.VARIABLES},
                l2_h1={v: err for v in mf.VARIABLES},
                linf_h1={"u1": err, "u2": err},
            )
        )
    return mf.ErrorReport(meshes=meshes)


class TestCsvTables:
    def test_single_mesh_empty_orders(self, tmp_path):
        files = io_cli.write_csv_table(fabricated_report([(10, 4e-2)]), tmp_path)
        assert len(files) == 4
        header, row = (tmp_path / "eta.csv").read_text().strip().splitlines()
        assert header == "k,error_linf_L2,order,error_l2_H1,order"
        cells = row.split(",")
        assert cells[0] == "10" and cells[2] == "" and cells[4] == ""

    def test_factor_four_gives_order_two(self, tmp_path):
        io_cli.write_csv_table(fabricated_report([(10, 4e-2), (20, 1e-2)]), tmp_path)
        rows = (tmp_path / "c.csv").read_text().strip().splitlines()
        order = float(rows[2].split(",")[2])
        assert order == pytest.approx(2.0, abs=1e-12)

    def test_row_structure_full_family(self, tmp_path):
        ks = [10, 20, 30, 40, 50]
        io_cli.write_csv_table(
            fabricated_report([(k, 1e-2 * (10.0 / k) ** 2) for k in ks]), tmp_path
        )
        rows = (tmp_path / "u1.csv").read_text().strip().splitlines()
        assert len(rows) == 6  # header + 5 meshes
        assert rows[0] == "k,error_linf_L2,order,error_l2_H1,order,error_linf_H1,order"
        orders = [r.split(",")[2] for r in rows[1:]]
        assert orders[0] == "" and all(o != "" for o in orders[1:])

    def test_orders_match_log_ratio_of_entries(self, tmp_path):
        rep = mf.convergence_study([6, 12], dt=1e-3, T=5e-3, init_mode="nodal")
        io_cli.write_csv_table(rep, tmp_path)
        for var in mf.VARIABLES:
            rows = (tmp_path / f"{var}.csv").read_text().strip().splitlines()
            prev = rows[1].split(",")
            cur = rows[2].split(",")
            h_ratio = 2.0
            for e_col, o_col in ((1, 2), (3, 4)):
                recomputed = math.log(float(prev[e_col]) / float(cur[e_col])) / math.log(h_ratio)
                assert abs(float(cur[o_col]) - recomputed) <= 1e-9


def parse_legacy_vtk(path):
    """Minimal legacy-VTK grammar check; returns section sizes."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4].startswith("POINTS")
    n_pts = int(lines[4].split()[1])
    i = 5
    pts = [tuple(map(float, lines[i + j].split())) for j in range(n_pts)]
    i += n_pts
    tag, n_cells, total = lines[i].split()
    assert tag == "CELLS"
    n_cells, total = int(n_cells), int(total)
    cells = []
    for j in range(n_cells):
        parts = list(map(int, lines[i + 1 + j].split()))
        assert parts[0] == len(parts) - 1
        cells.append(parts[1:])
    assert total == sum(len(c) + 1 for c in cells)
    i += 1 + n_cells
    assert lines[i].split()[0] == "CELL_TYPES" and int(lines[i].split()[1]) == n_cells
    types = [int(lines[i + 1 + j]) for j in range(n_cells)]
    i += 1 + n_cells
    assert lines[i].split()[0] == "POINT_DATA" and int(lines[i].split()[1]) == n_pts
    i += 1
    fields = {}
    while i < len(lines):
        head = lines[i].split()
        if head[0] == "SCALARS":
            assert lines[i + 1].startswith("LOOKUP_TABLE")
            vals = [float(lines[i + 2 + j]) for j in range(n_pts)]
            fields[head[1]] = np.array(vals)
            i += 2 + n_pts
        elif head[0] == "VECTORS":
            vals = [tuple(map(float, lines[i + 1 + j].split())) for j in range(n_pts)]
            fields[head[1]] = np.array(vals)
            i += 1 + n_pts
        else:
            raise AssertionError(f"unexpected section {head}")
    return pts, cells, types, fields


class TestVtk:
    def make_snapshot(self, mesh):
        nn = mesh.n_nodes
        rng = np.random.default_rng(0)
        return io_cli.FieldSnapshot(
            time=0.5,
            mesh=mesh,
            eta=rng.random(nn),
            c=rng.random(nn),
            sigma=rng.random((nn, 2)),
            velocity=rng.random((nn, 2)),
            pressure=rng.random(nn),
        )

    def test_two_triangle_mesh(self, tmp_path):
        mesh = build_rect_mesh(1, 1, 1, 1)
        path = tmp_path / "snap.vtk"
        io_cli.write_vtk(self.make_snapshot(mesh), path)
        pts, cells, types, fields = parse_legacy_vtk(path)
        assert len(pts) == 4
        assert len(cells) == 2
        assert types == [5, 5]
        assert set(fields) == {"eta", "c", "pressure", "sigma", "velocity"}

    def test_point_count_matches_mesh(self, tmp_path):
        mesh = build_rect_mesh(2, 1, 5, 3)
        path = tmp_path / "snap.vtk"
        io_cli.write_vtk(self.make_snapshot(mesh), path)
        pts, _cells, _types, fields = parse_legacy_vtk(path)
        assert len(pts) == mesh.n_nodes
        assert all(len(v) == mesh.n_nodes for v in fields.values())

    def test_mismatched_lengths_rejected(self, tmp_path):
        mesh = build_rect_mesh(1, 1, 2, 2)
        snap = self.make_snapshot(mesh)
        snap.eta = snap.eta[:-1]
        with pytest.raises(ValueError):
            io_cli.write_vtk(snap, tmp_path / "bad.vtk")

    def test_plume_snapshot_fields_finite(self, tmp_path):
        # small version of the plume run: write the final snapshot and scan
        from dataclasses import replace

        cfg = replace(
            io_cli.default_config("test1"), kx=16, ky=8, t_final=5e-5,
            snapshot_times=(5e-5,),
        ).validate()
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        params, data, forcing = io_cli.build_problem(cfg, mesh)
        stepper = Stepper(mesh, params)
        idx, = cfg.snapshot_steps()
        levels = stepper.run(TimeGrid(dt=cfg.dt, n_steps=cfg.n_steps()), data,
                             mode="elliptic_projection")
        state, = [state for state, _rec in levels if state.m == idx]
        snap = io_cli.snapshot_from_state(stepper, state)
        path = tmp_path / "plume.vtk"
        io_cli.write_vtk(snap, path)
        _pts, _cells, _types, fields = parse_legacy_vtk(path)
        for name, vals in fields.items():
            assert np.all(np.isfinite(vals)), name
        # the bytes of the row-by-row writer it replaces, on a stepped snapshot
        assert idx > 0 and np.abs(snap.velocity).max() > 0.0
        write_vtk_row_by_row(snap, tmp_path / "rows.vtk")
        assert path.read_bytes() == (tmp_path / "rows.vtk").read_bytes()


class TestMain:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert io_cli.main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        assert io_cli.main([]) == 2

    def test_converge_smoke(self, tmp_path, capsys):
        code = io_cli.main(
            ["converge", "--preset", "test2", "--meshes", "4,8", "--out", str(tmp_path)]
        )
        assert code == 0
        for var in mf.VARIABLES:
            assert (tmp_path / f"{var}.csv").exists()
        out = capsys.readouterr().out
        assert "initialization: nodal" in out

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_converge_refuses_other_presets(self, tmp_path, capsys, source):
        if source == "flag":
            argv = ["converge", "--preset", "test1"]
        else:
            cfgfile = tmp_path / "c.ini"
            cfgfile.write_text("[initial]\npreset = test1\n")
            argv = ["converge", "--config", str(cfgfile)]
        out = tmp_path / "tables"
        code = io_cli.main(argv + ["--meshes", "4,8", "--out", str(out)])
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ValueError"
        assert "test2" in summary["message"] and "test1" in summary["message"]
        assert not out.exists()

    def test_run_smoke(self, tmp_path):
        code = io_cli.main(
            ["run", "--preset", "test2", "--mesh", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "diagnostics.csv").exists()
        header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
        assert header.startswith("m,t,mass,div_residual")

    def test_shorter_tfinal_flag_runs_the_plume(self, tmp_path):
        argv = ["run", "--preset", "test1", "--mesh", "8,4", "--tfinal", "2e-5", "--out", str(tmp_path)]
        assert io_cli.main(argv) == 0
        assert sorted(p.name for p in tmp_path.glob("*.vtk")) == ["snapshot_000000.vtk"]

    def test_diagnostics_carry_the_pinned_values(self, tmp_path):
        assert io_cli.main(["run", "--preset", "test1", "--mesh", "8,4", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert len(rows) == 1 + 1 + io_cli.default_config("test1").n_steps()
        for name in ("max_pinned_u", "max_pinned_sigma"):
            col = header.index(name)
            assert [float(row.split(",")[col]) for row in rows[1:]] == [0.0] * (len(rows) - 1)

    def test_blow_up_exits_1_and_keeps_the_records(self, tmp_path, capsys, monkeypatch):
        # test1 on 20x20 at dt=1e-2 blows up and breaks an invariant by step 4
        cfgfile = tmp_path / "blowup.ini"
        cfgfile.write_text(
            "[initial]\npreset = test1\n[mesh]\nkx = 20\nky = 20\n"
            "[time]\ndt = 1e-2\nt_final = 5e-2\n"
            "[output]\nsnapshot_times =\nformats = csv\n"
        )
        raised, original = [], Stepper.run

        def recording(self, *args, **kwargs):
            levels = []
            try:
                for level in original(self, *args, **kwargs):
                    levels.append(level)
                    yield level
            except InvariantError as exc:
                raised.append((self, exc, levels))
                raise

        monkeypatch.setattr(Stepper, "run", recording)
        code = io_cli.main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "InvariantError"
        (stepper, error, levels), = raised
        assert summary["message"] == str(error)
        k = stopped_step(stepper, error, levels)  # the CSV's 10 digits cannot resolve the drift
        assert k <= 4
        rows = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(k + 1))
        assert rows[-1].split(",")[header.index("solver_u")] == "lu-fallback"

    def test_blow_up_keeps_the_snapshots_it_reached(self, tmp_path, capsys):
        # the run of the test above, with a snapshot at t=0 and one at t_final
        cfgfile = tmp_path / "blowup.ini"
        cfgfile.write_text(
            "[initial]\npreset = test1\n[mesh]\nkx = 20\nky = 20\n"
            "[time]\ndt = 1e-2\nt_final = 5e-2\n"
            "[output]\nsnapshot_times = 0, 5e-2\nformats = vtk,csv\n"
        )
        out = tmp_path / "o"
        code = io_cli.main(["run", "--config", str(cfgfile), "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InvariantError"
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv", "snapshot_000000.vtk"]
        _pts, _cells, _types, fields = parse_legacy_vtk(out / "snapshot_000000.vtk")
        assert set(fields) == {"eta", "c", "pressure", "sigma", "velocity"}

    @pytest.mark.parametrize("run", ["test2", "blow_up"])
    def test_csv_equals_the_union_writer(self, tmp_path, capsys, monkeypatch, run):
        # the CSV of a run that takes a step, written row by row as the run
        # goes, has the bytes of the union writer on the records the run
        # yielded, each without the keys whose value is None
        argv = ["run", "--preset", "test2", "--mesh", "4"]  # the preset's 50 steps
        if run == "blow_up":  # the blow-up run of the tests above
            cfgfile = tmp_path / "blowup.ini"
            cfgfile.write_text(
                "[initial]\npreset = test1\n[mesh]\nkx = 20\nky = 20\n"
                "[time]\ndt = 1e-2\nt_final = 5e-2\n"
                "[output]\nsnapshot_times =\nformats = csv\n"
            )
            argv = ["run", "--config", str(cfgfile)]
        records, original = [], Stepper.run

        def recording(self, *args, **kwargs):
            for state, rec in original(self, *args, **kwargs):
                records.append(rec)
                yield state, rec

        monkeypatch.setattr(Stepper, "run", recording)
        code = io_cli.main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if run == "test2":
            assert (code, err, len(records)) == (0, "", 51)
        else:
            assert (code, json.loads(err)["error"]) == (1, "InvariantError")
            assert 2 <= len(records) <= 5
        assert records[0]["solver_u"] is None and records[1]["solver_u"] is not None
        union = [{k: v for k, v in rec.items() if v is not None} for rec in records]
        write_diagnostics_csv_by_union(union, tmp_path / "union.csv")
        streamed = (tmp_path / "o" / "diagnostics.csv").read_bytes()
        assert streamed == (tmp_path / "union.csv").read_bytes()

    def test_csv_of_a_run_stopped_after_init(self, tmp_path, capsys, monkeypatch):
        # the header is the record schema, and the initial row leaves the
        # cells of the step's solves empty
        def step(self, prev, dt, forcing=None):
            raise RuntimeError("stopped after init")

        monkeypatch.setattr(Stepper, "step", step)
        code = io_cli.main(["run", "--preset", "test2", "--mesh", "4", "--out", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["message"] == "stopped after init"
        header, row = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert tuple(header.split(",")) == scheme.RECORD_KEYS
        cells = dict(zip(scheme.RECORD_KEYS, row.split(","), strict=True))
        solves = ("solver_", "iterations_", "residual_", "factor_time_", "solve_time_")
        empty = [k for k, v in cells.items() if v == ""]
        assert empty == [k for k in scheme.RECORD_KEYS if k.startswith(solves)]
        assert len(empty) == 20 and cells["m"] == "0"

    def test_streamed_csv_rejects_a_record_outside_its_columns(self, tmp_path):
        records = ({"m": 0}, {"m": 1, "mass": 2.5, "solver_u": None}, {"m": 2, "b": 2.0})
        with pytest.raises(ValueError, match=r"record 2 has keys outside scheme.RECORD_KEYS: \['b'\]"):
            io_cli.write_diagnostics_csv(records, tmp_path / "d.csv")
        blank = [""] * (len(scheme.RECORD_KEYS) - 3)
        assert (tmp_path / "d.csv").read_text().splitlines() == [
            ",".join(scheme.RECORD_KEYS), ",".join(["0", "", ""] + blank),
            ",".join(["1", "", "2.5"] + blank)]

    def test_partial_records_write_with_empty_cells(self, tmp_path):
        # the benchmark's plume pass writes records of m, t, mass,
        # div_residual and each system's residual, built as below
        st = Stepper(build_rect_mesh(1.0, 1.0, 4, 4), mf.test2_params())
        state0 = st.init_state(mf.test2_initial_data(), mode="nodal")
        state, reports = st.step(state0, 2e-4, mf.test2_forcing())
        records = [{"m": s.m, "t": s.t, "mass": st.mass_of_eta(s),
                    "div_residual": st.divergence_residual(s)} for s in (state0, state)]
        records[1].update({f"residual_{k}": r.residual_norm for k, r in reports.items()})
        io_cli.write_diagnostics_csv(records, tmp_path / "d.csv")
        header, *rows = (tmp_path / "d.csv").read_text().splitlines()
        assert tuple(header.split(",")) == scheme.RECORD_KEYS
        for rec, row in zip(records, rows, strict=True):
            cells = dict(zip(scheme.RECORD_KEYS, row.split(","), strict=True))
            assert {k: v for k, v in cells.items() if v} == {k: f"{v:.10g}" for k, v in rec.items()}

    def test_run_memory_does_not_grow_with_steps(self, tmp_path, capsys):
        # each diagnostics row is written as its record arrives; about 3.7 KB
        # of records a step were kept until the end before
        def peak(n_steps):
            argv = ["run", "--preset", "test2", "--mesh", "4", "--dt", "1e-3",
                    "--tfinal", f"{n_steps * 1e-3:g}", "--out", str(tmp_path)]
            tracemalloc.start()
            try:
                assert io_cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-use allocations of the modules
        assert peak(40) <= peak(10) + 64 * 1024

    def test_mesh_with_three_parts_rejected(self, tmp_path, capsys):
        code = io_cli.main(
            ["run", "--preset", "test2", "--mesh", "10,20,30", "--out", str(tmp_path)]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ValueError"
        assert "--mesh" in summary["message"]
        assert not (tmp_path / "diagnostics.csv").exists()

    @pytest.mark.parametrize("argv, source", [
        (["run", "--preset", "test2", "--mesh", "a"], "--mesh"),
        (["converge", "--preset", "test2", "--meshes", "4,x"], "--meshes"),
        (["run", "--config", "{bad_ini}"], "snapshot_times in section [output]"),
    ])
    def test_malformed_value_names_its_source(self, tmp_path, capsys, argv, source):
        bad_ini = tmp_path / "bad.ini"
        bad_ini.write_text("[output]\nsnapshot_times = abc\n")
        argv = [a.format(bad_ini=bad_ini) for a in argv]
        code = io_cli.main(argv + ["--out", str(tmp_path / "o")])
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ValueError"
        assert source in summary["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("outdir", ["", "   "])
    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_empty_outdir_rejected(self, tmp_path, capsys, monkeypatch, outdir, source):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--preset", "test2", "--mesh", "4"]
        if source == "file":
            (tmp_path / "run.ini").write_text(f"[output]\noutdir = {outdir}\n")
            argv += ["--config", "run.ini"]
        else:
            argv += ["--out", outdir]
        assert io_cli.main(argv) == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["error"] == "ValueError" and "outdir" in summary["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.ini"] if source == "file" else [])

    def test_nan_dt_flag_rejected(self, tmp_path, capsys):
        code = io_cli.main(["run", "--preset", "test2", "--dt", "nan", "--out", str(tmp_path)])
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "dt must be finite" in summary["message"]

    def test_quadrature_degree_flag_rejected(self, tmp_path, capsys):
        code = io_cli.main(
            ["run", "--preset", "test2", "--quadrature-degree", "99", "--out", str(tmp_path)]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "quadrature_degree must be an integer in 1..8" in summary["message"]
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(io_cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "chemflow", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage" in done.stdout and "run" in done.stdout

    def test_check_passes(self, capsys):
        assert io_cli.main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and all(line.startswith("PASS: ") for line in lines)
        # init factors n, c and sigma, the first step n, sigma, c and (u, pi)
        lu_line = next(line for line in lines if "LUs factor without pivoting" in line)
        assert "0 of 7 LUs interchanged rows" in lu_line
        assert all(f"{system} " in lu_line.split("fill")[1] for system in ("n", "c", "sigma", "u"))
        # sigma's LU holds its 2 * 153 dofs, each of the 52 pinned ones an identity
        # row; (u, pi)'s the whole bordered system, its bubbles eliminated first
        assert "sigma 4114 (306 unknowns)" in lu_line
        assert "u 21952 (972 unknowns)" in lu_line

    def test_check_reports_an_lu_that_pivoted(self, monkeypatch, capsys):
        # SuperLU interchanges rows only at a zero pivot in the given order;
        # here the sigma LUs (the 2 * 153 unknowns of the 16 x 8 mesh) report one
        from chemflow import linsolve

        monkeypatch.setattr(linsolve.Factorization, "pivoted",
                            property(lambda self: self.matrix.shape[0] == 2 * 153))
        assert io_cli.main(["check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL: LUs factor without pivoting (2 of 7 LUs interchanged rows" in captured.out  # sigma, twice
        assert json.loads(captured.err)["failed"][0]["check"] == "LUs factor without pivoting"

    def test_check_reports_a_tripped_run_gate(self, monkeypatch, capsys):
        # the run stops at its first step with the mass gate at 0; every check
        # is still reported, against the tolerance of the gate
        monkeypatch.setattr(scheme, "MASS_DRIFT_TOL", 0.0)
        assert io_cli.main(["check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL: mass conservation" in captured.out
        assert "PASS: discrete incompressibility" in captured.out
        assert "PASS: skew symmetry" in captured.out
        assert json.loads(captured.err)["failed"][0]["check"] == "mass conservation"

    def test_check_reads_the_pinned_values_of_every_record(self, monkeypatch, capsys):
        # a pinned value off 0 at one intermediate level fails the check,
        # although the final state holds every pinned dof at 0
        original = Stepper._diagnostics_record

        def recording(self, state, reports):
            rec = original(self, state, reports)
            if state.m == 1:
                rec["max_pinned_sigma"] = 1e-3
            return rec

        monkeypatch.setattr(Stepper, "_diagnostics_record", recording)
        assert io_cli.main(["check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: constraint preservation (max pinned value 1.000e-03)" in out
        assert "PASS: zero means" in out

    def test_check_takes_no_run_flags(self, capsys):
        code = io_cli.main(["check", "--dt", "-5", "--quadrature-degree", "99", "--preset", "test2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert "PASS" not in captured.out

    def test_bad_config_exits_1_with_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[time]\ndt = 3e-4\n")  # does not divide T = 0.01
        code = io_cli.main(["run", "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["error"] == "ValueError"

    def test_flags_override_invalid_file_values(self, tmp_path):
        # dt = 3e-4 does not divide t_final; the --dt flag replaces it
        cfgfile = tmp_path / "d.ini"
        cfgfile.write_text("[mesh]\nkx = 4\nky = 4\n[time]\ndt = 3e-4\nt_final = 2e-3\n")
        out = tmp_path / "o"
        code = io_cli.main(["run", "--config", str(cfgfile), "--dt", "2e-4", "--out", str(out)])
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert [float(row.split(",")[1]) for row in rows[1:]] == pytest.approx(
            [m * 2e-4 for m in range(11)])

    def test_config_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text("[initial]\npreset = test2\n[mesh]\nkx = 4\nky = 4\n")
        code = io_cli.main(
            ["run", "--config", str(cfgfile), "--tfinal", "0.002", "--out", str(tmp_path / "o")]
        )
        assert code == 0
