import dataclasses

import numpy as np
import pytest

from conftest import jittered_mesh
from dcl0 import solver, ssn
from dcl0.dc import DcError
from dcl0.fem import assemble, build_structured_mesh, w_of
from dcl0.measures import (DiscreteMeasureSpace, largest_k_auto,
                           unselected_sum, weighted_l0, weighted_l1)
from dcl0.problems import default_load, poisson_prototype
from dcl0.solver import (L0PenaltyConfig, optimality_report, penalty_sweep,
                         solve_l0_penalized, start_point, support_metrics)


@pytest.fixture(scope="module")
def setup16():
    system = assemble(build_structured_mesh(16), default_load)
    return poisson_prototype(system), system


@pytest.fixture(scope="module")
def solution16(setup16):
    problem, system = setup16
    cfg = L0PenaltyConfig(K=0.25, rho=1e9)
    return solve_l0_penalized(problem, system, cfg)


class TestConfigValidation:
    def test_bounds(self, setup16):
        problem, system = setup16
        for bad in (L0PenaltyConfig(K=0.0), L0PenaltyConfig(K=1.5),
                    L0PenaltyConfig(K=0.25, rho=0.0),
                    L0PenaltyConfig(K=0.25, rho=np.nan),
                    L0PenaltyConfig(K=0.25, rho=np.inf),
                    L0PenaltyConfig(K=0.25, schedule_lambda=1.0),
                    L0PenaltyConfig(K=0.25, zero_sign_policy="maybe"),
                    L0PenaltyConfig(K=0.25, u0=np.zeros(3))):
            with pytest.raises(ValueError):
                solve_l0_penalized(problem, system, bad)

    def test_start_off_the_boundary_condition(self, setup16):
        problem, system = setup16
        u0 = np.zeros(system.mesh.num_nodes)
        u0[system.mesh.boundary_nodes[-1]] = 1.0
        with pytest.raises(ValueError, match="vanish on the Dirichlet"):
            solve_l0_penalized(problem, system, L0PenaltyConfig(K=0.25, u0=u0))
        # the start is a copy: the iteration cannot write into the caller's
        u0[:] = 0.0
        assert start_point(problem, u0) is not u0


class TestPrototypeSolve:
    def test_converges_and_feasible(self, solution16):
        sol = solution16
        assert sol.status == "converged_fixed_point"
        assert sol.gap_selection_exact
        assert sol.l0 <= 0.25 + 1e-12
        assert abs(sol.gap) <= 1e-12 * max(1.0, sol.l0)

    def test_support_measure_within_budget(self, solution16, setup16):
        _, system = setup16
        assert solution16.l0 <= 0.25 + system.elem_measure.max()

    def test_history_rows_complete(self, solution16):
        rows = solution16.history
        assert len(rows) == solution16.dc_iters
        assert sum(r.newton_iters for r in rows) == solution16.newton_iters
        for r in rows:
            assert np.isfinite(r.objective)
            assert np.isfinite(r.gap)
            assert np.isfinite(r.ssn_residual)

    def test_penalized_objective_monotone(self, solution16):
        assert solution16.max_ascent_at_target(0.25) <= 1e-12 * (
            1.0 + abs(solution16.history[0].objective))

    def test_objective_not_worse_than_zero(self, solution16):
        assert solution16.objective <= 0.0

    def test_vacuous_budget_reproduces_unconstrained(self, setup16):
        problem, system = setup16
        cfg = L0PenaltyConfig(K=1.0, rho=1e9)
        sol = solve_l0_penalized(problem, system, cfg)
        expected = problem.unconstrained_minimizer()
        assert np.allclose(sol.u, expected, atol=1e-12)
        assert abs(sol.gap) <= 1e-15  # summation-order noise only

    def test_zero_start_zero_policy_degenerates(self, setup16):
        # with the zero subgradient policy the first subproblem is a pure
        # weighted-L1 problem whose solution is 0 for large rho
        problem, system = setup16
        cfg = L0PenaltyConfig(K=0.25, rho=1e9,
                              u0=np.zeros(system.mesh.num_nodes))
        sol = solve_l0_penalized(problem, system, cfg)
        assert np.array_equal(sol.u, np.zeros_like(sol.u))
        assert sol.status == "converged_fixed_point"

    def test_zero_start_load_sign_escapes(self, setup16):
        problem, system = setup16
        cfg = L0PenaltyConfig(K=0.25, rho=1e9,
                              u0=np.zeros(system.mesh.num_nodes),
                              zero_sign_policy="sign_of_load",
                              schedule_lambda=0.9)
        sol = solve_l0_penalized(problem, system, cfg)
        assert np.max(np.abs(sol.u)) > 0.0
        assert abs(sol.gap) <= 1e-12 * max(1.0, sol.l0)


class TestSchedule:
    def test_reduction_count(self, setup16):
        problem, system = setup16
        cfg = L0PenaltyConfig(K=0.25, rho=1e9, schedule_lambda=0.9)
        sol = solve_l0_penalized(problem, system, cfg)
        assert sol.schedule_steps == 14
        assert 0.9 ** 14 < 0.25 <= 0.9 ** 13
        ks = [row.K for row in sol.history]
        assert ks[0] == pytest.approx(0.9)
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert ks[-1] == 0.25
        assert sol.dc_iters >= 14

    def test_termination_gated_until_target(self, setup16):
        problem, system = setup16
        cfg = L0PenaltyConfig(K=0.25, rho=1e9, schedule_lambda=0.5)
        sol = solve_l0_penalized(problem, system, cfg)
        reached = [row.K == 0.25 for row in sol.history]
        assert reached[-1]
        # every non-target iteration must have been followed by another one
        assert all(reached[i] or i + 1 < len(reached)
                   for i in range(len(reached)))

    def test_unconverged_subproblem_is_an_error(self, setup16, monkeypatch):
        # no Newton step at all: the first subproblem stops at its start
        # (one step solves every subproblem of this run)
        problem, system = setup16
        monkeypatch.setattr(ssn, "MAX_NEWTON", 0)
        cfg = L0PenaltyConfig(K=0.25, rho=1e9, schedule_lambda=0.9)
        with pytest.raises(DcError, match="semismooth Newton stopped"):
            solve_l0_penalized(problem, system, cfg)

    def test_iteration_cap_is_an_error(self, setup16, monkeypatch):
        # the unscheduled n=16 run needs 2 sweeps to confirm its fixed point
        problem, system = setup16
        monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
        cfg = L0PenaltyConfig(K=0.25, rho=1e9)
        with pytest.raises(DcError, match="after 1 sweeps"):
            solve_l0_penalized(problem, system, cfg)

    def test_sweep_cap_counts_after_the_schedule(self):
        # lambda = 0.9975 takes 554 steps from the full measure down to K,
        # more than MAX_SWEEPS sweeps
        system = assemble(build_structured_mesh(8), default_load)
        cfg = L0PenaltyConfig(K=0.25, rho=1e9, schedule_lambda=0.9975)
        sol = solve_l0_penalized(poisson_prototype(system), system, cfg)
        assert sol.schedule_steps == 554 > solver.MAX_SWEEPS
        assert sol.dc_iters >= 554
        assert sol.l0 <= 0.25


class TestOptimalityReport:
    def test_zero_candidate(self, setup16):
        problem, system = setup16
        u = np.zeros(system.mesh.num_nodes)
        _, _, selection = support_metrics(u, system, 0.25)
        report = optimality_report(u, problem, system, rho=1e9,
                                   selection=selection)
        assert report.pairing == 0.0
        assert report.support_in_selection_max == 0.0
        assert report.support_off_selection_max == 0.0
        assert report.off_support_max > 0.0

    def test_converged_run_conditions(self, solution16):
        rep = solution16.diagnostics
        assert abs(rep.pairing) <= 1e-10 * (1.0 + abs(solution16.objective))
        assert rep.support_in_selection_max <= 1e-10
        assert rep.support_off_selection_max == 0.0
        assert rep.off_support_max <= 1e9 * (1.0 + 1e-9)
        assert rep.exact_penalty

    def test_feasible_candidate_has_empty_off_selection(self, setup16, rng):
        problem, system = setup16
        u = np.zeros(system.mesh.num_nodes)
        j = system.free_nodes[len(system.free_nodes) // 2]
        u[j] = 1.0
        _, _, selection = support_metrics(u, system, 0.25)
        report = optimality_report(u, problem, system, rho=1e9,
                                   selection=selection)
        assert report.support_off_selection_max == 0.0


class TestPenaltySweep:
    def test_matches_single_solve(self, setup16, solution16):
        problem, system = setup16
        sols = penalty_sweep(problem, system, L0PenaltyConfig(K=0.25), [1e9])
        assert len(sols) == 1
        assert np.allclose(sols[0].u, solution16.u, atol=1e-12)

    def test_requires_increasing(self, setup16):
        problem, system = setup16
        with pytest.raises(ValueError):
            penalty_sweep(problem, system, L0PenaltyConfig(K=0.25),
                          [1e6, 1e3])

    def test_requires_a_penalty(self, setup16):
        problem, system = setup16
        with pytest.raises(ValueError, match="no penalty values"):
            penalty_sweep(problem, system, L0PenaltyConfig(K=0.25), [])

    def test_feasible_across_penalties(self, setup16):
        problem, system = setup16
        sols = penalty_sweep(problem, system, L0PenaltyConfig(K=0.25),
                             [1e3, 1e6, 1e9])
        for sol in sols:
            w = w_of(sol.u, system)
            elems = DiscreteMeasureSpace(system.elem_measure)
            assert abs(sol.gap) <= 1e-12 * max(weighted_l1(w, elems), 1.0)
            assert sol.l0 <= 0.25 + system.elem_measure.max()

    def test_ladder_from_small_penalty(self):
        # the penalty method's ladder passes through moderate rho, where the
        # subproblems need several Newton steps from each warm start
        system = assemble(build_structured_mesh(32), default_load)
        problem = poisson_prototype(system)
        rhos = [0.1 * 3.0 ** k for k in range(11)]
        assert rhos[-1] <= 1e4
        sol = penalty_sweep(problem, system, L0PenaltyConfig(K=0.25), rhos)[-1]
        l1 = weighted_l1(w_of(sol.u, system),
                         DiscreteMeasureSpace(system.elem_measure))
        assert sol.l0 <= 0.25
        assert abs(sol.gap) <= 1e-12 * max(l1, 1.0)

    def test_irregular_mesh_greedy_selection(self, rng, tmp_path):
        # perturbed interior nodes give incommensurate element measures, so
        # subgradient selection and diagnostics run on the greedy path
        from dcl0.fem import export_mesh, import_mesh
        mesh = build_structured_mesh(8)
        nodes = mesh.nodes.copy()
        interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_nodes)
        nodes[interior] += (rng.random((interior.size, 2)) - 0.5) / 32.0
        path = tmp_path / "warped.txt"
        export_mesh(dataclasses.replace(mesh, nodes=nodes), path)
        system = assemble(import_mesh(path), default_load)
        assert np.ptp(system.elem_measure) > 0.0
        problem = poisson_prototype(system)
        sol = solve_l0_penalized(problem, system,
                                 L0PenaltyConfig(K=0.25, rho=1e9))
        assert sol.status == "converged_fixed_point"
        assert not sol.gap_selection_exact
        w = w_of(sol.u, system)
        elems = DiscreteMeasureSpace(system.elem_measure)
        assert abs(sol.gap) <= 1e-12 * max(weighted_l1(w, elems), 1.0)
        assert sol.l0 <= 0.25 + system.elem_measure.max()

    def test_weak_penalty_leaves_positive_gap(self):
        # when rho is far below the gradient scale the penalty cannot
        # enforce the support budget
        system = assemble(build_structured_mesh(4), default_load)
        problem = poisson_prototype(system)
        cfg = L0PenaltyConfig(K=2.0 / 32.0, rho=1e-4)
        sol = solve_l0_penalized(problem, system, cfg)
        assert sol.gap > 0.0
        assert sol.l0 > cfg.K


class TestSupportMetrics:
    def test_matches_inline_formula_on_jittered_mesh(self):
        system = assemble(jittered_mesh(12, seed=2), default_load)
        problem = poisson_prototype(system)
        u = problem.unconstrained_minimizer()
        u[np.abs(u) < np.quantile(np.abs(u), 0.6)] = 0.0
        l0, gap, selection = support_metrics(u, system, 0.25)
        elems = DiscreteMeasureSpace(system.elem_measure)
        w = w_of(u, system)
        expected = largest_k_auto(w, elems, 0.25)
        assert not selection.exact
        assert np.array_equal(selection.indices, expected.indices)
        assert l0 == weighted_l0(w, elems)
        assert gap == unselected_sum(w, elems, expected)
        assert gap + selection.value == pytest.approx(weighted_l1(w, elems),
                                                      rel=1e-15)

    # runs on which the difference l1 - |w|_K went negative: poisson --n 16
    # --schedule 0.9, the pinned sign_of_load schedule and two jittered runs
    @pytest.mark.parametrize("mesh, cfg", [
        (lambda: build_structured_mesh(16),
         L0PenaltyConfig(K=0.25, schedule_lambda=0.9)),
        (lambda: build_structured_mesh(16),
         L0PenaltyConfig(K=0.25, schedule_lambda=0.8,
                         zero_sign_policy="sign_of_load")),
        (lambda: jittered_mesh(12, seed=7),
         L0PenaltyConfig(K=0.25, schedule_lambda=0.9)),
        (lambda: jittered_mesh(16, seed=1), L0PenaltyConfig(K=0.25)),
    ], ids=["grid-schedule", "grid-sign-of-load", "jitter-schedule",
            "jitter"])
    def test_no_reported_gap_is_negative(self, mesh, cfg):
        system = assemble(mesh(), default_load, mass=False)
        sol = solve_l0_penalized(poisson_prototype(system), system, cfg)
        assert sol.gap >= 0.0
        assert min(row.gap for row in sol.history) >= 0.0


class TestCallCounts:
    def test_one_selection_per_iterate(self, monkeypatch):
        # unscheduled Poisson n=32 takes 2 sweeps: the objective at the start
        # point and after the first sweep selects once, the subgradient
        # reuses that selection, the second sweep returns the same values
        # and reuses it too, and the report shares the final oracle call
        system = assemble(build_structured_mesh(32), default_load)
        problem = poisson_prototype(system)
        calls = {}

        def counted(name):
            original = getattr(solver, name)

            def run(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(solver, name, run)

        for name in ("largest_k_greedy", "largest_k_auto", "w_of"):
            counted(name)
        sol = solve_l0_penalized(problem, system, L0PenaltyConfig(K=0.25))
        assert sol.dc_iters == 2
        assert calls == {"largest_k_greedy": 2, "largest_k_auto": 1,
                         "w_of": 3}

    def test_one_sort_per_iterate_on_a_schedule(self, monkeypatch):
        # on a schedule the objective and the next subgradient scan one
        # iterate's element sums at two budgets; both scans share one
        # greedy order and select what a scan with its own sort selects
        from dcl0 import measures
        system = assemble(jittered_mesh(12, seed=3), default_load)
        problem = poisson_prototype(system)
        calls = {"greedy_order": 0, "largest_k_greedy": 0, "w_of": 0}
        originals = {name: getattr(solver, name) for name in calls}

        def counted(name):
            def run(*args, **kwargs):
                calls[name] += 1
                result = originals[name](*args, **kwargs)
                if name == "largest_k_greedy":
                    own = measures.largest_k_greedy(*args[:3])
                    assert np.array_equal(result.indices, own.indices)
                    assert (result.value, result.weight) == (own.value,
                                                            own.weight)
                return result
            monkeypatch.setattr(solver, name, run)

        for name in calls:
            counted(name)
        sol = solve_l0_penalized(problem, system,
                                 L0PenaltyConfig(K=0.25, schedule_lambda=0.7))
        assert sol.schedule_steps >= 2
        # one sort per iterate: every w_of call but support_metrics' one
        assert calls["greedy_order"] == calls["w_of"] - 1
        assert calls["largest_k_greedy"] > calls["greedy_order"]
