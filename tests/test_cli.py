import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcl0 import cli, fem, solver
from dcl0.cli import build_parser, main
from dcl0.fem import (assemble, build_structured_mesh, export_mesh,
                      read_field, write_field)
from dcl0.problems import default_load, poisson_prototype

from conftest import jittered_mesh


def run(*argv):
    return main(list(argv))


class TestPoissonCommand:
    def test_writes_outputs_and_verifies(self, tmp_path):
        csv = tmp_path / "run.csv"
        iters = tmp_path / "iters.csv"
        sol = tmp_path / "sol.txt"
        mult = tmp_path / "mult.txt"
        code = run("poisson", "--n", "8", "--K", "0.25", "--rho", "1e9",
                   "--csv", str(csv), "--iters-csv", str(iters),
                   "--solution-out", str(sol), "--multiplier-out", str(mult),
                   "--verify")
        assert code == 0
        header, row = csv.read_text().strip().splitlines()
        assert header.split(",") == ["n", "K", "rho", "f", "l0", "gap",
                                     "dc_iters", "ssn_iters",
                                     "selection_mode"]
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["l0"]) <= 0.25
        assert int(values["n"]) == 8
        assert values["selection_mode"] == "exact"
        field = read_field(sol)
        assert field.size == 81
        mult_field = read_field(mult)
        assert mult_field.size == 81
        iter_lines = iters.read_text().strip().splitlines()
        assert len(iter_lines) - 1 == int(values["dc_iters"])

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            csv = tmp_path / f"{name}.csv"
            sol = tmp_path / f"{name}_sol.txt"
            assert run("poisson", "--n", "8", "--csv", str(csv),
                       "--solution-out", str(sol)) == 0
            outs.append((csv.read_bytes(), sol.read_bytes()))
        assert outs[0] == outs[1]

    def test_vacuous_budget_matches_unconstrained(self, tmp_path):
        csv = tmp_path / "run.csv"
        sol = tmp_path / "sol.txt"
        assert run("poisson", "--n", "8", "--K", "1.0",
                   "--csv", str(csv), "--solution-out", str(sol)) == 0
        row = csv.read_text().strip().splitlines()[1].split(",")
        header = csv.read_text().splitlines()[0].split(",")
        gap = float(dict(zip(header, row))["gap"])
        assert abs(gap) <= 1e-15
        system = assemble(build_structured_mesh(8), default_load)
        problem = poisson_prototype(system)
        expected = problem.unconstrained_minimizer()
        assert np.allclose(read_field(sol), expected, atol=1e-12)

    def test_schedule_column(self, tmp_path):
        csv = tmp_path / "run.csv"
        assert run("poisson", "--n", "8", "--schedule", "0.9",
                   "--csv", str(csv)) == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["sched_steps"] == "14"

    def test_mesh_file_input(self, tmp_path):
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(8), mesh_path)
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert run("poisson", "--n", "8", "--csv", str(csv_a)) == 0
        assert run("poisson", "--mesh-file", str(mesh_path), "--n", "8",
                   "--csv", str(csv_b)) == 0
        # the same solve; the mesh-file row leaves n empty
        assert csv_b.read_text() == csv_a.read_text().replace("\n8,", "\n,")

    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 8\nK = 0.5\n# comment\n")
        csv = tmp_path / "run.csv"
        assert run("poisson", "--config", str(config), "--K", "0.25",
                   "--csv", str(csv)) == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["n"] == "8"        # from config file
        assert values["K"] == "0.25"     # flag wins

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("mystery = 1\n")
        assert run("poisson", "--config", str(config)) == 2

    def test_invalid_budget_exit_code(self, tmp_path):
        assert run("poisson", "--n", "8", "--K", "-0.5") == 2
        assert run("poisson", "--n", "8", "--K", "2.0") == 2

    def test_missing_mesh_file_fails(self, tmp_path):
        assert run("poisson", "--mesh-file", str(tmp_path / "nope.txt")) == 1

    @pytest.mark.parametrize("option, text", [
        ("--mesh-file", "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n"),
        ("--u0-file", "field 2\n1.0\nabc\n"),
        ("--mesh-file", "nodes 3\n0 0\n1 0\n"),
        ("--mesh-file", "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 5\n"),
        ("--u0-file", "1.0\n2.0\n"),
    ], ids=["clockwise-mesh", "unparsable-field", "truncated-mesh",
            "node-index-out-of-range", "headerless-field"])
    def test_malformed_input_file_fails(self, tmp_path, option, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert run("poisson", "--n", "4", option, str(path)) == 1

    @pytest.mark.parametrize("command, option, data, at", [
        ("poisson", "--mesh-file",
         b"nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 \xff2\n", 36),
        ("poisson", "--u0-file", b"field 2\n1.0\n\xff2.0\n", 12),
        ("control", "--y-d-file", b"field 2\n1.0\n\xff2.0\n", 12),
    ], ids=["mesh-file", "u0-file", "y-d-file"])
    def test_file_that_is_not_utf8_fails(self, tmp_path, capsys, command,
                                         option, data, at):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        assert run(command, "--n", "4", option, str(path)) == 1
        assert capsys.readouterr().err == (
            f"dcl0: solver failure: byte {at} is not UTF-8 text "
            "(invalid start byte)\n")

    @pytest.mark.parametrize("text", ["nodes -2\n",
                                      "nodes 3\n0 0\n1 0\n0 1\ntriangles -1\n"])
    def test_negative_mesh_count_fails(self, tmp_path, capsys, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        assert run("poisson", "--mesh-file", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("dcl0: solver failure: negative ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999\n",
        "nodes 99999999999999999999\n0 0\n",
    ], ids=["index", "count"])
    def test_integer_beyond_int64_fails(self, tmp_path, capsys, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        assert run("poisson", "--mesh-file", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("dcl0: solver failure: bad value near token ")
        assert "99999999999999999999 is beyond the 64-bit integer range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_mesh_coordinate_fails(self, tmp_path, capsys, bad):
        path = tmp_path / "mesh.txt"
        path.write_text(f"nodes 4\n0 0\n1 0\n1 {bad}\n0 1\n"
                        "triangles 2\n0 1 2\n0 2 3\n")
        csv = tmp_path / "run.csv"
        assert run("poisson", "--mesh-file", str(path),
                   "--csv", str(csv)) == 1
        err = capsys.readouterr().err
        assert err == ("dcl0: solver failure: node 2 has a non-finite "
                       f"coordinate [1.0, {float(bad)}]\n")
        assert not csv.exists()

    def test_non_manifold_mesh_fails(self, tmp_path, capsys):
        # one triangle listed twice
        mesh = build_structured_mesh(4)
        path = tmp_path / "mesh.txt"
        export_mesh(dataclasses.replace(
            mesh, triangles=np.vstack([mesh.triangles, mesh.triangles[:1]])),
            path)
        csv = tmp_path / "run.csv"
        assert run("poisson", "--mesh-file", str(path),
                   "--csv", str(csv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("dcl0: solver failure: edge ")
        assert "belongs to 3 triangles" in err
        assert not csv.exists()

    def test_summary_csv_to_stdout(self, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        assert run("poisson", "--n", "8", "--csv", str(csv)) == 0
        assert run("poisson", "--n", "8") == 0
        assert capsys.readouterr().out == csv.read_text()

    def test_empty_mesh_fails(self, tmp_path, capsys):
        path = tmp_path / "mesh.txt"
        path.write_text("nodes 0\ntriangles 0\n")
        csv = tmp_path / "run.csv"
        assert run("poisson", "--mesh-file", str(path),
                   "--csv", str(csv)) == 1
        err = capsys.readouterr().err
        assert err == "dcl0: solver failure: mesh has no triangles\n"
        assert not csv.exists()

    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.conf"
        assert run("poisson", "--config", str(missing)) == 2
        err = capsys.readouterr().err
        assert err.startswith("dcl0: config error: [Errno 2] ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sparsa", "--n", "8", "--beta", "-1"],
        ["poisson", "--n", "8", "--rho", "nan"],
        ["poisson", "--n", "8", "--rho", "inf"],
        ["control", "--n", "8", "--alpha", "nan"],
        ["control", "--n", "8", "--beta", "inf"],
        ["sparsa", "--n", "8", "--beta", "nan"],
        ["sweep", "--n", "4", "--rhos", ","],
        ["control", "--n", "8", "--beta", ","],
        ["control", "--n", "8", "--beta", ""],
        ["poisson", "--n", "1"],
    ], ids=["negative-beta", "rho-nan", "rho-inf", "alpha-nan", "beta-inf",
            "sparsa-beta-nan", "sweep-no-rhos", "control-no-betas",
            "control-empty-betas", "n-1"])
    def test_invalid_setting_is_a_config_error(self, tmp_path, capsys, argv):
        csv = tmp_path / "run.csv"
        assert run(*argv, "--csv", str(csv)) == 2
        assert capsys.readouterr().err.startswith("dcl0: config error: ")
        assert not csv.exists()

    @pytest.mark.parametrize("argv, value", [
        (["control", "--n", "8", "--beta"], "1e-7,,1e-9"),
        (["sweep", "--n", "4", "--rhos"], "1e3,"),
        (["sweep", "--n", "4", "--rhos"], "1e3,x"),
    ], ids=["control-empty-beta", "sweep-trailing-comma", "sweep-non-numeric"])
    def test_empty_list_value_is_a_usage_error(self, tmp_path, capsys, argv,
                                               value):
        csv = tmp_path / "run.csv"
        assert run(*argv, value, "--csv", str(csv)) == 2
        assert capsys.readouterr().err.endswith(
            f"{argv[-1]}: {value!r} is not a comma-separated list of "
            "numbers\n")
        assert not csv.exists()

    def test_short_start_field_is_a_config_error(self, tmp_path, capsys):
        start = tmp_path / "u0.txt"
        write_field(start, [0.0, 1.0])
        csv = tmp_path / "run.csv"
        assert run("poisson", "--n", "8", "--u0-file", str(start),
                   "--csv", str(csv)) == 2
        assert capsys.readouterr().err == (
            "dcl0: config error: u0 must be a full-length nodal vector\n")
        assert list(tmp_path.iterdir()) == [start]

    @pytest.mark.parametrize("argv", [
        ["poisson"], ["control"], ["sweep", "--rhos", "1e3,1e9"],
        ["sparsa"], ["sparsa", "--beta", "0"],
    ], ids=["poisson", "control", "sweep", "sparsa", "sparsa-beta-0"])
    def test_start_field_off_the_boundary_condition_is_a_config_error(
            self, tmp_path, capsys, argv):
        # node 0 is the corner (0, 0), a Dirichlet node
        start = tmp_path / "u0.txt"
        write_field(start, np.eye(1, 81).ravel())
        csv = tmp_path / "run.csv"
        assert run(*argv, "--n", "8", "--u0-file", str(start),
                   "--csv", str(csv)) == 2
        assert capsys.readouterr().err == (
            "dcl0: config error: u0 must vanish on the Dirichlet boundary "
            "nodes\n")
        assert list(tmp_path.iterdir()) == [start]

    def test_iteration_cap_fails(self, tmp_path, capsys, monkeypatch):
        # n=16 needs 2 sweeps to confirm its fixed point
        monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
        csv = tmp_path / "run.csv"
        assert run("poisson", "--n", "16", "--csv", str(csv)) == 1
        assert "no fixed point" in capsys.readouterr().err
        assert not csv.exists()

    def test_schedule_longer_than_the_sweep_cap_runs(self, tmp_path):
        # lambda = 0.9975 takes 554 steps to reach K = 0.25; the sweep cap
        # counts after them
        csv = tmp_path / "run.csv"
        assert run("poisson", "--n", "8", "--schedule", "0.9975",
                   "--csv", str(csv)) == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert int(values["sched_steps"]) == 554 > solver.MAX_SWEEPS
        assert float(values["l0"]) <= 0.25


class TestVerifyFlag:
    @pytest.mark.parametrize("command", ["poisson", "control", "sparsa"])
    def test_needs_solution_out(self, tmp_path, command):
        csv = tmp_path / "run.csv"
        assert run(command, "--n", "8", "--csv", str(csv), "--verify") == 2
        assert not csv.exists()

    def test_boolean_values(self, tmp_path):
        csv = tmp_path / "run.csv"
        sol = tmp_path / "u.txt"
        config = tmp_path / "run.conf"
        assert run("poisson", "--n", "8", "--verify=false",
                   "--csv", str(csv)) == 0
        # a true value asks for the solution field it verifies
        config.write_text("verify = true\n")
        assert run("poisson", "--n", "8", "--config", str(config)) == 2
        assert run("poisson", "--n", "8", "--config", str(config),
                   "--csv", str(csv), "--solution-out", str(sol)) == 0
        config.write_text("verify = bogus\n")
        csv.unlink()
        assert run("poisson", "--n", "8", "--config", str(config),
                   "--csv", str(csv), "--solution-out", str(sol)) == 2
        assert not csv.exists()

    def test_mismatch_fails(self, tmp_path, capsys, monkeypatch):
        write = cli.write_field
        monkeypatch.setattr(cli, "write_field",
                            lambda path, u: write(path, np.asarray(u) + 1.0))
        sol = tmp_path / "u.txt"
        assert run("poisson", "--n", "8", "--csv", str(tmp_path / "run.csv"),
                   "--solution-out", str(sol), "--verify") == 1
        assert capsys.readouterr().err.startswith("verify: mismatch (l0 1.0 ")


class TestSparsaCommand:
    def test_baseline_run(self, tmp_path):
        csv = tmp_path / "sp.csv"
        sol = tmp_path / "sp_sol.txt"
        code = run("sparsa", "--n", "8", "--beta", "4.360",
                   "--csv", str(csv), "--solution-out", str(sol))
        assert code == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert int(values["iters"]) > 0
        assert float(values["l0"]) < 1.0

    def test_zero_beta_unconstrained(self, tmp_path):
        csv = tmp_path / "sp.csv"
        assert run("sparsa", "--n", "8", "--beta", "0",
                   "--csv", str(csv)) == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert int(values["iters"]) == 0

    @pytest.mark.parametrize("beta", ["0", "4.360"])
    def test_rejects_short_start_field(self, tmp_path, beta):
        path = tmp_path / "u0.txt"
        write_field(path, [0.0, 1.0, 2.0])
        assert run("sparsa", "--n", "8", "--beta", beta,
                   "--u0-file", str(path)) == 2

    def test_feeds_dc_warm_start(self, tmp_path):
        sol = tmp_path / "sp_sol.txt"
        assert run("sparsa", "--n", "8", "--beta", "4.360",
                   "--csv", str(tmp_path / "sp.csv"),
                   "--solution-out", str(sol)) == 0
        csv = tmp_path / "warm.csv"
        assert run("poisson", "--n", "8", "--u0-file", str(sol),
                   "--csv", str(csv)) == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert int(values["dc_iters"]) <= 5

    def test_mesh_file_row_has_no_size(self, tmp_path):
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(8), mesh_path)
        csv = tmp_path / "run.csv"
        assert run("sparsa", "--mesh-file", str(mesh_path),
                   "--csv", str(csv)) == 0
        assert csv.read_text().splitlines()[1].startswith(",0.25,")


class TestControlCommand:
    def test_single_beta(self, tmp_path):
        csv = tmp_path / "ctl.csv"
        assert run("control", "--n", "8", "--K", "0.25",
                   "--csv", str(csv)) == 0
        header, row = csv.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["tracking_error"]) > 0.0
        assert int(values["dc_iters"]) <= 8

    def test_beta_sweep_rows(self, tmp_path):
        csv = tmp_path / "ctl.csv"
        assert run("control", "--n", "8", "--K", "0.25",
                   "--beta", "1e-7,1e-9", "--schedule", "0.9",
                   "--csv", str(csv)) == 0
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        errs = [float(dict(zip(header, ln.split(",")))["tracking_error"])
                for ln in lines[1:]]
        assert errs[1] < errs[0]

    def test_zero_target_override(self, tmp_path):
        yd = tmp_path / "yd.txt"
        write_field(yd, np.zeros(81))
        csv = tmp_path / "ctl.csv"
        sol = tmp_path / "u.txt"
        assert run("control", "--n", "8", "--y-d-file", str(yd),
                   "--csv", str(csv), "--solution-out", str(sol)) == 0
        assert np.max(np.abs(read_field(sol))) <= 1e-12


    def test_mesh_without_interior_nodes(self, tmp_path):
        # one triangle: every node is on the boundary, no control dofs
        path = tmp_path / "mesh.txt"
        path.write_text("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n")
        csv = tmp_path / "ctl.csv"
        assert run("control", "--mesh-file", str(path),
                   "--csv", str(csv)) == 0
        assert csv.read_text().splitlines()[1] == (
            ",0.25,1000000000,1e-07,1e-07,0,0,0,0,1,0,exact")


class TestSweepCommand:
    def test_rows_ordered_by_rho(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--n", "8", "--rhos", "1e3,1e6,1e9",
                   "--csv", str(csv)) == 0
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        rhos = [float(dict(zip(header, ln.split(",")))["rho"])
                for ln in lines[1:]]
        assert rhos == sorted(rhos) == [1e3, 1e6, 1e9]

    def test_solution_out_is_the_last_solve(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        sol = tmp_path / "u.txt"
        assert run("sweep", "--n", "8", "--rhos", "1e3,1e9",
                   "--csv", str(csv), "--solution-out", str(sol)) == 0
        # verify rechecks the field against the CSV's last row
        assert run("verify", "--csv", str(csv),
                   "--solution-out", str(sol)) == 0

    def test_empty_penalty_list_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "u.txt"
        assert run("sweep", "--n", "4", "--rhos", "",
                   "--solution-out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "dcl0: config error: no penalty values to sweep\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--verify", "--iters-csv",
                                      "--multiplier-out"])
    def test_rejects_single_run_outputs(self, tmp_path, flag):
        extra = [flag] if flag == "--verify" else [flag, str(tmp_path / "out")]
        assert run("sweep", "--n", "8", "--rhos", "1e3,1e9",
                   "--solution-out", str(tmp_path / "u.txt"), *extra) == 2
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_consistent_run_passes(self, tmp_path):
        csv = tmp_path / "run.csv"
        sol = tmp_path / "sol.txt"
        assert run("poisson", "--n", "8", "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        assert run("verify", "--csv", str(csv),
                   "--solution-out", str(sol)) == 0

    def test_budget_and_mesh_size_come_from_the_row(self, tmp_path, capsys):
        # a budget other than the default 0.25 and a mesh other than 128
        csv = tmp_path / "run.csv"
        sol = tmp_path / "u.txt"
        assert run("poisson", "--n", "16", "--K", "0.1", "--rho", "1e-4",
                   "--csv", str(csv), "--solution-out", str(sol)) == 0
        capsys.readouterr()
        assert run("verify", "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        assert capsys.readouterr().out.endswith(": OK\n")

    def test_mesh_file_replaces_the_row_size(self, tmp_path):
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(16), mesh_path)
        csv = tmp_path / "run.csv"
        sol = tmp_path / "u.txt"
        assert run("poisson", "--mesh-file", str(mesh_path), "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        # the row's n is empty: drop the column
        header, line = csv.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row.pop("n") == "" and float(row["l0"]) > 0.0
        csv.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        assert run("verify", "--mesh-file", str(mesh_path), "--csv", str(csv),
                   "--solution-out", str(sol)) == 0

    @pytest.mark.parametrize("command", [[], ["--schedule", "0.9"]])
    def test_mesh_file_row_has_no_size(self, tmp_path, capsys, command):
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(8), mesh_path)
        csv = tmp_path / "run.csv"
        sol = tmp_path / "u.txt"
        assert run("poisson", "--mesh-file", str(mesh_path), *command,
                   "--csv", str(csv), "--solution-out", str(sol)) == 0
        assert csv.read_text().splitlines()[1].startswith(",0.25,")
        assert run("verify", "--mesh-file", str(mesh_path), "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        capsys.readouterr()
        # without the mesh file the row names no mesh to rebuild
        assert run("verify", "--csv", str(csv),
                   "--solution-out", str(sol)) == 2
        assert capsys.readouterr().err.endswith("no n value\n")

    @pytest.mark.parametrize("option, value", [("--n", "8"), ("--K", "0.25")])
    def test_rejects_mesh_size_and_budget(self, option, value):
        assert run("verify", "--csv", "run.csv", "--solution-out", "u.txt",
                   option, value) == 2

    @pytest.mark.parametrize("on_mesh_file", [False, True])
    def test_assembles_no_matrix(self, tmp_path, monkeypatch, capsys,
                                 on_mesh_file):
        # verify reads the element arrays only; the same output as before
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(8), mesh_path)
        mesh = ["--mesh-file", str(mesh_path)] if on_mesh_file else []
        csv = tmp_path / "run.csv"
        sol = tmp_path / "sol.txt"
        assert run("poisson", *mesh, "--n", "8", "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        capsys.readouterr()

        def no_assembly(*args, **kwargs):
            raise AssertionError("verify assembled a matrix")

        monkeypatch.setattr(fem, "_assemble_nodes", no_assembly)
        monkeypatch.setattr(fem, "_grid_operators", no_assembly)
        assert run("verify", *mesh, "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        out = capsys.readouterr().out
        assert out.startswith("l0 recomputed ") and out.endswith(": OK\n")

    def test_corrupted_field_fails(self, tmp_path):
        csv = tmp_path / "run.csv"
        sol = tmp_path / "sol.txt"
        assert run("poisson", "--n", "8", "--csv", str(csv),
                   "--solution-out", str(sol)) == 0
        values = read_field(sol)
        values[len(values) // 2] += 1.0
        write_field(sol, values)
        assert run("verify", "--csv", str(csv),
                   "--solution-out", str(sol)) == 1

    def test_missing_arguments(self, tmp_path):
        assert run("verify") == 2
        assert run("verify", "--csv", str(tmp_path / "run.csv")) == 2

    @pytest.mark.parametrize("text", [
        "",
        "n,K,rho,f,gap\n8,0.25,1e9,-0.1,0\n",
        "n,K,rho,f,l0\n8,0.25,1e9,-0.1,0.25\n",
        "n,rho,f,l0,gap\n8,1e9,-0.1,0.25,0\n",
        "K,rho,f,l0,gap\n0.25,1e9,-0.1,0.25,0\n",
        "n,K,rho,f,l0,gap\n",
    ], ids=["empty", "no-l0", "no-gap", "no-K", "no-n", "header-only"])
    def test_malformed_csv_is_a_config_error(self, tmp_path, capsys, text):
        csv = tmp_path / "run.csv"
        sol = tmp_path / "sol.txt"
        write_field(sol, np.zeros(81))
        csv.write_text(text)
        assert run("verify", "--csv", str(csv),
                   "--solution-out", str(sol)) == 2
        assert "config error" in capsys.readouterr().err


# options a command does not read, each with a value it would otherwise take
DROPPED = [("sparsa", "rho", "1e9"), ("sparsa", "schedule", "0.9"),
           ("sparsa", "zero-sign", "plus"), ("sparsa", "u0", "zero"),
           ("poisson", "u0", "zero"), ("control", "u0", "zero"),
           ("sweep", "u0", "zero"),
           ("sparsa", "max-iter", "5"), ("sparsa", "iters-csv", "it.csv"),
           ("sweep", "rho", "1e9"), ("sweep", "verify", "true"),
           ("sweep", "iters-csv", "it.csv"),
           ("sweep", "multiplier-out", "mult.txt"),
           ("poisson", "max-iter", "5"), ("control", "max-iter", "5"),
           ("sweep", "max-iter", "5"), ("control", "betas", "1e-7,1e-9"),
           ("sparsa", "rel-tol", "1e-9"),
           ("sparsa", "sparsa-max-iter", "5")]


def readme_option_table():
    """``{command: options}`` from the README's per-command option table."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| option |"))
    commands = [cell.strip() for cell in lines[start].split("|")[2:-2]]
    table = {command: set() for command in commands}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        option, *marks = [cell.strip() for cell in line.split("|")[1:-2]]
        for command, mark in zip(commands, marks):
            if mark:
                table[command].add(option.strip("`"))
    return table


class TestOptionTables:
    @pytest.mark.parametrize("command, option, value", DROPPED,
                             ids=[f"{c}--{o}" for c, o, _ in DROPPED])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_dropped_option_is_rejected(self, tmp_path, monkeypatch,
                                        command, option, value, form):
        monkeypatch.chdir(tmp_path)
        if form == "flag":
            given = [f"--{option}", value]
        else:
            (tmp_path / "run.conf").write_text(f"{option} = {value}\n")
            given = ["--config", "run.conf"]
        assert run(command, "--n", "4", "--csv", "run.csv", *given) == 2
        assert [p.name for p in tmp_path.iterdir()] == (
            [] if form == "flag" else ["run.conf"])

    def test_wrong_typed_config_value(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("n = x\n")
        assert run("poisson", "--config", str(config)) == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_readme_table_matches_parser(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        accepted = {name: {flag for action in cmd._actions
                           for flag in action.option_strings} - {"-h", "--help"}
                    for name, cmd in sub.choices.items()}
        assert readme_option_table() == accepted


class TestAssembledSystems:
    """Only the control problem reads the mass matrix; the other solving
    commands assemble without it, and verify assembles nothing."""

    @pytest.fixture
    def systems(self, monkeypatch):
        built = []
        original = cli.assemble

        def recorded(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "assemble", recorded)
        return built

    def test_poisson_commands_build_no_mass(self, tmp_path, systems):
        csv, sol = str(tmp_path / "run.csv"), str(tmp_path / "u.txt")
        assert run("poisson", "--n", "8", "--csv", csv,
                   "--solution-out", sol, "--verify") == 0
        assert run("sparsa", "--n", "8", "--csv", str(tmp_path / "s.csv")) == 0
        assert run("sweep", "--n", "8", "--rhos", "1e3,1e9",
                   "--csv", str(tmp_path / "w.csv")) == 0
        assert len(systems) == 3
        # verify reads the element arrays only and assembles no system
        assert run("verify", "--csv", csv, "--solution-out", sol) == 0
        assert len(systems) == 3
        assert all(system.M is None for system in systems)
        # the stiffness of a system with its mass matrix less its stored
        # zeros, and the same load
        full = assemble(build_structured_mesh(8), default_load)
        expected = full.A.copy()
        expected.eliminate_zeros()
        assert expected.nnz < full.A.nnz
        for system in systems:
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(system.A, part),
                                      getattr(expected, part))
        assert np.array_equal(systems[0].b, full.b)

    def test_control_builds_mass(self, tmp_path, systems):
        assert run("control", "--n", "8",
                   "--csv", str(tmp_path / "c.csv")) == 0
        assert len(systems) == 1 and systems[0].M is not None


class TestExportedGrid:
    """An exported grid read through --mesh-file is the grid: the same
    sine-basis solves (and, for control, the same sine-basis Hessian
    action), so the same bytes as the --n run, except the summary CSV's n,
    which a mesh-file row leaves empty."""

    @pytest.mark.parametrize("command, extra", [
        ("poisson", ["--schedule", "0.9", "--iters-csv", "{out}/iters.csv",
                     "--solution-out", "{out}/u.txt",
                     "--multiplier-out", "{out}/mu.txt", "--verify"]),
        ("control", ["--beta", "1e-7,1e-9", "--iters-csv", "{out}/iters.csv",
                     "--solution-out", "{out}/u.txt",
                     "--multiplier-out", "{out}/mu.txt", "--verify"]),
        ("sweep", ["--rhos", "1e3,1e9", "--solution-out", "{out}/u.txt"]),
        ("sparsa", ["--solution-out", "{out}/u.txt",
                    "--multiplier-out", "{out}/mu.txt", "--verify"]),
    ])
    def test_same_bytes_as_the_grid(self, tmp_path, capsys, monkeypatch,
                                    command, extra):
        meshes = []
        original = cli.assemble

        def recorded(mesh, *args, **kwargs):
            meshes.append(mesh)
            return original(mesh, *args, **kwargs)

        monkeypatch.setattr(cli, "assemble", recorded)
        sandwiches = []
        sandwich = fem._GridLaplacianSolver.mass_sandwich

        def recorded_sandwich(grid, m_ii):
            sandwiches.append(grid.m)
            return sandwich(grid, m_ii)

        monkeypatch.setattr(fem._GridLaplacianSolver, "mass_sandwich",
                            recorded_sandwich)
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(build_structured_mesh(16), mesh_path)
        outputs = {}
        for name, mesh in (("grid", ["--n", "16"]),
                           ("file", ["--mesh-file", str(mesh_path)])):
            out = tmp_path / name
            out.mkdir()
            argv = [arg.format(out=out) for arg in extra]
            assert run(command, *mesh, "--csv", str(out / "run.csv"),
                       *argv) == 0
            outputs[name] = ({path.name: path.read_text()
                              for path in out.iterdir()},
                             capsys.readouterr())
        assert [mesh.grid_n for mesh in meshes] == [16, 16]
        # one control problem per beta, in each of the two runs
        assert sandwiches == ([15] * 4 if command == "control" else [])
        (grid_files, grid_std), (file_files, file_std) = outputs.values()
        assert grid_std == file_std
        grid_csv = grid_files.pop("run.csv").splitlines()
        file_csv = file_files.pop("run.csv").splitlines()
        assert all(line.startswith("16,") for line in grid_csv[1:])
        assert file_csv == [grid_csv[0]] + [line[2:] for line in grid_csv[1:]]
        assert sorted(grid_files) == sorted(
            arg.split("/")[-1] for arg in extra if arg.startswith("{out}"))
        assert file_files == grid_files


def thread_counts(controls):
    return [get() for get, _ in controls]


class TestBlasThreads:
    """The solving commands run every loaded OpenBLAS on one thread, unless
    the mesh is a grid whose sine basis has at least THREADED_BASIS_M rows,
    and give each library its own count back."""

    @pytest.fixture
    def controls(self):
        # each OpenBLAS at its own count above one, as a caller may set them
        controls = cli._openblas_thread_counts()
        if not controls:
            pytest.skip("no OpenBLAS with thread-count functions is loaded")
        before = thread_counts(controls)
        for count, (_, set_threads) in enumerate(controls, 2):
            set_threads(count)
        yield controls
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)

    def test_one_thread_inside_the_count_back_after(self, controls):
        caller = thread_counts(controls)
        with cli._one_blas_thread():
            assert thread_counts(controls) == [1] * len(controls)
        assert thread_counts(controls) == caller
        with pytest.raises(KeyError):
            with cli._one_blas_thread():
                assert thread_counts(controls) == [1] * len(controls)
                raise KeyError
        assert thread_counts(controls) == caller

    def test_no_library_no_change(self, controls, monkeypatch):
        caller = thread_counts(controls)
        monkeypatch.setattr(cli, "_openblas_thread_counts", lambda: [])
        with cli._one_blas_thread():
            assert thread_counts(controls) == caller

    def test_finds_nothing_without_maps_or_symbols(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
        assert cli._openblas_thread_counts() == []
        monkeypatch.undo()

        def no_maps(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(cli, "open", no_maps, raising=False)
        assert cli._openblas_thread_counts() == []
        with cli._one_blas_thread():
            pass

    def test_importing_dcl0_changes_no_thread_count(self):
        # OpenBLAS caps its start count at the CPUs this process may use
        if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
            pytest.skip("fewer than 2 CPUs, or no CPU affinity to read")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))
        script = ("import json, dcl0, dcl0.cli; "
                  "print(json.dumps([get() for get, _ in "
                  "dcl0.cli._openblas_thread_counts()]))")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        counts = json.loads(result.stdout)
        if not counts:
            pytest.skip("no OpenBLAS with thread-count functions is loaded")
        assert counts == [2] * len(counts)

    @pytest.fixture
    def seen(self, controls, monkeypatch):
        """The thread counts inside each solve call of a command."""
        seen = []
        for name in ("solve_l0_penalized", "penalty_sweep", "sparsa_solve"):
            def recorded(*args, original=getattr(cli, name)):
                seen.append(thread_counts(controls))
                return original(*args)
            monkeypatch.setattr(cli, name, recorded)
        return seen

    @pytest.mark.parametrize("command", ["poisson", "control", "sparsa",
                                         "sweep"])
    def test_pins_a_small_grid(self, tmp_path, controls, seen, command):
        caller = thread_counts(controls)
        assert run(command, "--n", "32", "--csv", str(tmp_path / "r.csv")) == 0
        assert seen == [[1] * len(controls)]
        assert thread_counts(controls) == caller

    def test_pins_an_imported_mesh(self, tmp_path, controls, seen):
        mesh_path = tmp_path / "mesh.txt"
        export_mesh(jittered_mesh(12, seed=3), mesh_path)
        assert run("control", "--mesh-file", str(mesh_path),
                   "--csv", str(tmp_path / "r.csv")) == 0
        assert seen == [[1] * len(controls)]

    @pytest.mark.parametrize("n, pinned", [(31, True), (32, False)])
    def test_leaves_a_large_basis_alone(self, tmp_path, monkeypatch,
                                        controls, seen, n, pinned):
        # the grid of --n 32 has a sine basis of 31 rows
        monkeypatch.setattr(cli, "THREADED_BASIS_M", 31)
        caller = thread_counts(controls)
        assert run("control", "--n", str(n),
                   "--csv", str(tmp_path / "r.csv")) == 0
        assert seen == [[1] * len(controls) if pinned else caller]
        assert thread_counts(controls) == caller

    def test_outputs_do_not_depend_on_the_caller_threads(self, tmp_path,
                                                          controls):
        outputs = []
        for count in (1, 2):
            for _, set_threads in controls:
                set_threads(count)
            out = tmp_path / str(count)
            out.mkdir()
            assert run("control", "--n", "128", "--csv", str(out / "r.csv"),
                       "--iters-csv", str(out / "iters.csv"),
                       "--solution-out", str(out / "u.txt"),
                       "--multiplier-out", str(out / "mu.txt")) == 0
            outputs.append({path.name: path.read_bytes()
                            for path in out.iterdir()})
        assert outputs[0] == outputs[1]
