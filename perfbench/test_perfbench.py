"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from dataclasses import replace

import numpy as np
import pytest

import ops
from meshgen import jittered_mesh, signed_areas, write_jittered_mesh
from run import run_child
from spans import Tracer, layer_metrics, self_times

ops.import_dcl0()


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: the union 1..6 counts once
        ["a.inner", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nests_spans_and_sums_self_time_per_layer():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    solve = tracer.wrap("ssn.solve", lambda: tracer.wrap("ssn.factor",
                                                         lambda: 7)())
    with tracer.span("op"):
        assert solve() == 7
        assert solve() == 7
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("op", -1), ("ssn.solve", 0), ("ssn.factor", 1),
                     ("ssn.solve", 0), ("ssn.factor", 3)]
    metrics = layer_metrics(tracer.spans, tracer.counts)
    assert metrics["ssn.calls"] == 2
    assert metrics["ssn.factorizations"] == 2
    assert metrics["ssn.self_s"] == pytest.approx(4.0)
    assert metrics["ssn.factor_s"] == pytest.approx(2.0)
    assert metrics["fem.stiffness_solves"] == 0


def test_jittered_mesh_is_deterministic_and_valid(tmp_path):
    from dcl0.fem import import_mesh

    paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
    for path, seed in zip(paths, (5, 5, 6)):
        write_jittered_mesh(path, 16, 0.2, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    mesh = import_mesh(paths[0])
    assert mesh.num_triangles == 2 * 16 * 16
    assert mesh.boundary_nodes.size == 4 * 16
    areas = signed_areas(*jittered_mesh(16, 0.2, 5))
    assert np.all(areas > 0.0)
    assert np.ptp(areas) > 0.1 * areas.mean()


def test_jittered_mesh_rejects_inverted_elements(tmp_path):
    with pytest.raises(ValueError, match="non-positive"):
        write_jittered_mesh(tmp_path / "m.txt", 8, 3.0, 1)


@pytest.fixture(scope="module")
def small_solve():
    from dcl0 import (L0PenaltyConfig, assemble, build_structured_mesh,
                      poisson_prototype, solve_l0_penalized)
    from dcl0.problems import default_load

    system = assemble(build_structured_mesh(16), default_load)
    problem = poisson_prototype(system)
    sol = solve_l0_penalized(problem, system, L0PenaltyConfig(K=ops.K))
    return problem, system, sol


def test_check_accepts_the_solver_result(small_solve):
    _, system, sol = small_solve
    assert ops.check_solution(sol, system, ops.K, [True]) == []


def test_check_rejects_doctored_infeasible_solution(small_solve):
    problem, system, sol = small_solve
    doctored = replace(sol, u=problem.unconstrained_minimizer())
    failures = ops.check_solution(doctored, system, ops.K, [True])
    assert any("exceeds the budget" in f for f in failures)


def test_check_rejects_unconverged_subproblem_and_bad_status(small_solve):
    _, system, sol = small_solve
    failures = ops.check_solution(replace(sol, status="max_iter"), system,
                                  ops.K, [True, False])
    assert any("status max_iter" in f for f in failures)
    assert any("1 of 2" in f for f in failures)


def test_field_check_rejects_a_corrupted_field(tmp_path, small_solve):
    from dcl0.cli import main
    from dcl0.fem import read_field, write_field

    assert main(["poisson", "--n", "16", "--K", repr(ops.K),
                 "--csv", str(tmp_path / "run.csv"),
                 "--solution-out", str(tmp_path / "u.txt"),
                 "--multiplier-out", str(tmp_path / "mult.txt")]) == 0
    _, system, sol = small_solve
    assert ops.check_fields(tmp_path, sol, system, ops.K) == []
    u = read_field(tmp_path / "u.txt")
    u[np.flatnonzero(u == 0.0)[system.mesh.num_nodes // 3]] = 1e-3
    write_field(tmp_path / "u.txt", u)
    failures = ops.check_fields(tmp_path, sol, system, ops.K)
    assert any("differs from the solution" in f for f in failures)
    assert any("l0 from the field" in f for f in failures)


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    results = {}
    for name, spec in ops.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        if spec["mesh"] is not None:
            write_jittered_mesh(ops.mesh_path(work), *spec["mesh"], seed=1)
        results[name] = run_child(name, work, traced=True, timeout=170)
    return results


def test_traced_ops_pass_their_checks(traced_ops):
    for name, result in traced_ops.items():
        assert result["failures"] == [], name


def test_hooks_are_bound_where_the_callers_look(traced_ops):
    layers = {name: result["layers"] for name, result in traced_ops.items()}
    assert layers["poisson-grid"]["fem.stiffness_solves"] == 0
    assert layers["poisson-jitter-sched"]["fem.stiffness_solves"] == 0
    assert layers["control-grid"]["fem.stiffness_solves"] > 0
    assert layers["control-grid"]["problems.hess_actions"] > 0
    jitter = layers["poisson-jitter-sched"]
    assert jitter["ssn.factorizations"] >= 15
    assert jitter["measures.greedy_calls"] > 0
    assert jitter["dc.sweeps"] >= 15
    assert layers["poisson-grid"]["fem.field_bytes"] > 0
    assert layers["poisson-grid"]["measures.oracle_calls"] > 0
