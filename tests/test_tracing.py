"""The benchmark (perfbench/) patches dcl0 names by attribute in its tracer
(spans.py) and reads solution fields in its checks (ops.py); a refactor that
drops one would otherwise only break a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from dcl0 import cli, solver
from dcl0.fem import assemble, build_structured_mesh
from dcl0.problems import (ControlConfig, control_reduced, default_load,
                           poisson_prototype)
from dcl0.solver import L0PenaltyConfig, solve_l0_penalized

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans():
    return load("spans")


def test_tracer_patches_and_counts(spans, tmp_path):
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_tracing(tracer, patches)
        assert cli.main(["poisson", "--n", "8", "--csv", str(tmp_path / "p.csv"),
                         "--solution-out", str(tmp_path / "u.txt"),
                         "--multiplier-out", str(tmp_path / "m.txt"),
                         "--verify"]) == 0
        assert cli.main(["control", "--n", "8",
                         "--csv", str(tmp_path / "c.csv")]) == 0
    finally:
        patches.undo()
    layers = spans.layer_metrics(tracer.spans, tracer.counts)
    for metric in ("fem.w_of_calls", "measures.greedy_calls",
                   "measures.oracle_calls"):
        assert layers[metric] > 0, metric
    assert not hasattr(cli.w_of, "__wrapped__")


@pytest.mark.parametrize("build", [
    lambda: poisson_prototype(assemble(build_structured_mesh(8), default_load)),
    lambda: control_reduced(assemble(build_structured_mesh(8)), ControlConfig()),
], ids=["poisson", "control"])
def test_benchmark_checks_pass(build, monkeypatch):
    ops = load("ops")
    converged = []
    original = solver.ssn_solve

    def ssn_solve(*args, **kwargs):
        result = original(*args, **kwargs)
        converged.append(bool(result.converged))
        return result

    monkeypatch.setattr(solver, "ssn_solve", ssn_solve)
    problem = build()
    sol = solve_l0_penalized(problem, problem.system,
                             L0PenaltyConfig(K=ops.K, rho=ops.RHO))
    assert ops.check_solution(sol, problem.system, ops.K, converged) == []


def test_benchmark_commands_parse(tmp_path):
    # argparse exits on an option the CLI no longer has
    ops = load("ops")
    parser = cli.build_parser()
    for name in ops.WORKLOADS:
        argv = ops.command(name, tmp_path)
        assert parser.parse_args(argv).command == argv[0], name


def test_field_check_passes_and_sees_a_corrupted_field(tmp_path, monkeypatch):
    # the check poisson-grid's ops run on the written fields, on the CLI's
    # own system and solution
    ops = load("ops")
    solves = []
    original = cli.solve_l0_penalized

    def capture(problem, system, cfg):
        sol = original(problem, system, cfg)
        solves.append((system, sol))
        return sol

    monkeypatch.setattr(cli, "solve_l0_penalized", capture)
    assert cli.main(["poisson", "--n", "16", "--K", repr(ops.K),
                     "--rho", repr(ops.RHO), "--csv", str(tmp_path / "run.csv"),
                     "--solution-out", str(tmp_path / "u.txt"),
                     "--multiplier-out", str(tmp_path / "mult.txt")]) == 0
    [(system, sol)] = solves
    assert ops.check_fields(tmp_path, sol, system, ops.K) == []

    field = tmp_path / "u.txt"
    lines = field.read_text().splitlines()
    zero = next(i for i, line in enumerate(lines)
                if line in ("0.0", "-0.0"))
    lines[zero] = "0.001"
    field.write_text("\n".join(lines) + "\n")
    failures = ops.check_fields(tmp_path, sol, system, ops.K)
    assert any("differs from the solution" in f for f in failures)
    assert any("l0 from the field" in f for f in failures)
