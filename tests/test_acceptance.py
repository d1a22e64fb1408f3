"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with `pytest -s`
or in captured output).  Expensive solves are shared through module-scoped
fixtures; the runtime-bounded criteria time their own work.
"""

import time

import numpy as np
import pytest

from dcl0.fem import assemble, build_structured_mesh, w_of
from dcl0.measures import (DiscreteMeasureSpace, largest_k_exact,
                           largest_k_greedy, largest_k_relaxed,
                           reformulation_gap, subgradient_largest_k,
                           weighted_l0, weighted_l1)
from dcl0.problems import (ControlConfig, control_reduced, default_load,
                           poisson_prototype)
from dcl0.solver import L0PenaltyConfig, penalty_sweep, solve_l0_penalized
from dcl0.sparsa import node_l1_weights, sparsa_solve
from dcl0.ssn import L1Weights, QuadraticOperator, prox_grad_oracle, ssn_solve

PAPER_F = {16: -0.0058, 32: -0.0075, 64: -0.0083}


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def run_case(problem, system, cfg):
    """Solve and return (solution, penalized objective at the start)."""
    if cfg.u0_policy == "zero":
        u0 = np.zeros(system.mesh.num_nodes)
    elif cfg.u0_policy == "custom":
        u0 = cfg.u0
    else:
        u0 = problem.unconstrained_minimizer()
    elems = DiscreteMeasureSpace(system.elem_measure)
    gap0 = reformulation_gap(w_of(u0, system), elems, cfg.K)
    val0 = problem.smooth_value(u0) + cfg.rho * gap0
    return solve_l0_penalized(problem, system, cfg), val0


@pytest.fixture(scope="module")
def prototype_runs():
    runs = {}
    t0 = time.monotonic()
    for n in (16, 32, 64):
        system = assemble(build_structured_mesh(n), default_load)
        problem = poisson_prototype(system)
        cfg = L0PenaltyConfig(K=0.25, rho=1e9)
        sol, val0 = run_case(problem, system, cfg)
        runs[n] = (problem, system, cfg, sol, val0)
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def system32():
    return assemble(build_structured_mesh(32), default_load)


@pytest.fixture(scope="module")
def sweep_runs(system32):
    problem = poisson_prototype(system32)
    cfg = L0PenaltyConfig(K=0.25)
    rhos = [1e3, 1e6, 1e9, 1e12]
    return problem, cfg, rhos, penalty_sweep(problem, system32, cfg, rhos)


@pytest.fixture(scope="module")
def schedule_run(system32):
    problem = poisson_prototype(system32)
    cfg = L0PenaltyConfig(K=0.25, rho=1e9, schedule_lambda=0.9)
    sol, val0 = run_case(problem, system32, cfg)
    return problem, cfg, sol, val0


@pytest.fixture(scope="module")
def sparsa_runs():
    system = assemble(build_structured_mesh(16), default_load)
    problem = poisson_prototype(system)
    u0 = system.restrict(problem.unconstrained_minimizer())
    res = sparsa_solve(problem.hessian, problem.q_smooth,
                       node_l1_weights(system, 4.360), u0)
    cfg = L0PenaltyConfig(K=0.25, rho=1e9, u0_policy="custom",
                          u0=system.expand(res.u))
    sol, val0 = run_case(problem, system, cfg)
    return problem, system, res, cfg, sol, val0


@pytest.fixture(scope="module")
def control_runs():
    system = assemble(build_structured_mesh(32))
    fixed_k = {}
    for K in (0.5, 0.25, 0.1):
        problem = control_reduced(system, ControlConfig())
        cfg = L0PenaltyConfig(K=K, rho=1e9)
        fixed_k[K] = (problem, cfg) + run_case(problem, system, cfg)
    beta_sweep = []
    for beta in (1e-7, 1e-9, 1e-11):
        problem = control_reduced(system, ControlConfig(beta=beta))
        cfg = L0PenaltyConfig(K=0.25, rho=1e9, schedule_lambda=0.9)
        sol, val0 = run_case(problem, system, cfg)
        beta_sweep.append((beta, problem, cfg, sol, val0))
    return system, fixed_k, beta_sweep


def test_criterion_1_reformulation_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 21))
        lam = rng.integers(1, 10, size=n).astype(float)
        x = rng.integers(-5, 6, size=n).astype(float)
        x[rng.random(n) < 0.35] = 0.0
        space = DiscreteMeasureSpace(lam)
        K = float(rng.integers(0, int(lam.sum()) + 1))
        sel = largest_k_exact(x, space, K)
        l1 = weighted_l1(x, space)
        gap_zero = (l1 - sel.value) <= 1e-12 * max(l1, 1.0)
        feasible = weighted_l0(x, space) <= K
        mismatches += gap_zero != feasible
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(1, ok, f"10000 instances, {mismatches} mismatches, "
                         f"{elapsed:.2f}s")


def test_criterion_2_counterexample_regression():
    space = DiscreteMeasureSpace([1.0, 2.0, 3.0])
    x = np.array([4.0, 4.0, 3.0])
    exact = largest_k_exact(x, space, 4.0).value
    greedy = largest_k_greedy(x, space, 4.0).value
    relaxed = largest_k_relaxed(x, space, 4.0)
    gap = reformulation_gap(x, space, 4.0)
    at_h = largest_k_exact(x, space, 4.5).value
    l0 = weighted_l0(x, space)
    ok = (exact == 13.0 and greedy == 12.0 and relaxed == 15.0
          and gap == 8.0 and at_h == exact and l0 == 6.0 > 4.0)
    assert report(2, ok, f"exact={exact} greedy={greedy} relaxed={relaxed} "
                         f"gap={gap} |u|_4.5={at_h} l0={l0}")


def test_criterion_3_subgradient_properties():
    rng = np.random.default_rng(7)
    worst_violation = -np.inf
    bound_ok = True
    for _ in range(5):
        n = int(rng.integers(3, 13))
        lam = rng.integers(1, 9, size=n).astype(float)
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.2] = 0.0
        space = DiscreteMeasureSpace(lam)
        K = float(rng.integers(1, int(lam.sum()) + 1))
        sel = largest_k_exact(x, space, K)
        s = subgradient_largest_k(x, space, K, sel)
        bound_ok &= bool(np.all(np.abs(s) <= lam + 1e-15))
        bound_ok &= lam[s != 0.0].sum() <= K + 1e-12
        bound_ok &= abs(float(s @ x) - sel.value) <= 1e-9
        for _ in range(1000):
            v = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
            slack = largest_k_exact(v, space, K).value - float(s @ v)
            worst_violation = max(worst_violation, -slack)
    ok = bound_ok and worst_violation <= 1e-9
    assert report(3, ok, f"worst inequality violation {worst_violation:.2e}, "
                         f"inclusion bounds {'ok' if bound_ok else 'broken'}")


def test_criterion_4_fem_identities():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (4, 8, 16):
        system = assemble(build_structured_mesh(n), default_load)
        elems = DiscreteMeasureSpace(system.elem_measure)
        basis_err = np.max(np.abs(system.basis_integral
                                  - system.patch_measure / 3.0))
        worst = max(worst, basis_err / np.max(system.basis_integral))
        for _ in range(100):
            u = system.expand(rng.standard_normal(system.num_free))
            lhs = float(np.abs(u) @ system.basis_integral)
            rhs = weighted_l1(w_of(u, system), elems) / 3.0
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-12
    assert report(4, ok, f"worst relative identity error {worst:.2e}")


def test_criterion_5_subproblem_cross_check():
    from conftest import random_spd
    rng = np.random.default_rng(23)
    t0 = time.monotonic()
    worst_diff = 0.0
    worst_res = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 201))
        H = QuadraticOperator.from_matrix(random_spd(rng, n))
        # data scale ~0.2 keeps the rounding floor of the residual
        # evaluation itself safely below the 1e-14 requirement
        q = rng.standard_normal(n) * 0.2
        c = rng.random(n) * rng.choice([0.0, 0.05, 0.2])
        res = ssn_solve(H, q, L1Weights(c))
        oracle = prox_grad_oracle(H, q, L1Weights(c), tol=1e-12)
        worst_res = max(worst_res, res.residual)
        worst_diff = max(worst_diff, float(np.max(np.abs(res.u - oracle))))
    for n, beta in ((8, 2.0), (16, 4.36), (16, 2.0), (32, 4.26), (32, 8.0)):
        system = assemble(build_structured_mesh(n), default_load)
        problem = poisson_prototype(system)
        weights = L1Weights(beta * system.basis_integral[system.free_nodes])
        res = ssn_solve(problem.hessian, problem.q_smooth, weights)
        oracle = prox_grad_oracle(problem.hessian, problem.q_smooth, weights,
                                  tol=1e-12)
        worst_res = max(worst_res, res.residual)
        worst_diff = max(worst_diff, float(np.max(np.abs(res.u - oracle))))
    elapsed = time.monotonic() - t0
    ok = worst_diff <= 1e-8 and worst_res <= 1e-14 and elapsed < 60.0
    assert report(5, ok, f"max |ssn - oracle| {worst_diff:.2e}, "
                         f"max residual {worst_res:.2e}, {elapsed:.1f}s")


def test_criterion_6_prototype_reproduction(prototype_runs):
    runs, elapsed = prototype_runs
    details = []
    ok = elapsed < 120.0
    for n, (problem, system, cfg, sol, _) in runs.items():
        w = w_of(sol.u, system)
        elems = DiscreteMeasureSpace(system.elem_measure)
        scale = max(weighted_l1(w, elems), 1.0)
        ok &= abs(sol.objective - PAPER_F[n]) <= 0.002
        ok &= 0.25 - 0.02 <= sol.l0 <= 0.25
        ok &= abs(sol.gap) <= 1e-12 * scale
        ok &= sol.dc_iters <= 8
        details.append(f"n={n}: f={sol.objective:.4f} l0={sol.l0:.3f} "
                       f"dc={sol.dc_iters}")
    assert report(6, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_7_penalty_robustness(sweep_runs, system32):
    problem, cfg, rhos, sols = sweep_runs
    elems = DiscreteMeasureSpace(system32.elem_measure)
    ok = True
    for sol in sols:
        w = w_of(sol.u, system32)
        ok &= abs(sol.gap) <= 1e-12 * max(weighted_l1(w, elems), 1.0)
    spread = max(s.objective for s in sols) - min(s.objective for s in sols)
    ok &= spread <= 0.001
    assert report(7, ok, f"f spread {spread:.2e} over rho {rhos}")


def test_criterion_8_schedule_behaviour(schedule_run, prototype_runs,
                                        system32):
    problem, cfg, sol, _ = schedule_run
    runs, _ = prototype_runs
    unscheduled = runs[32][3]
    elems = DiscreteMeasureSpace(system32.elem_measure)
    w = w_of(sol.u, system32)
    feasible = abs(sol.gap) <= 1e-12 * max(weighted_l1(w, elems), 1.0)
    helped = sol.objective <= unscheduled.objective + 1e-12
    ok = (sol.schedule_steps == 14 and 14 <= sol.dc_iters <= 25 and feasible
          and sol.status == "converged_fixed_point")
    assert report(8, ok, f"steps={sol.schedule_steps} dc={sol.dc_iters} "
                         f"f={sol.objective:.4f} vs unscheduled "
                         f"{unscheduled.objective:.4f} "
                         f"({'helped' if helped else 'flagged: did not help'})")


def test_criterion_9_optimality_diagnostics(prototype_runs):
    runs, _ = prototype_runs
    ok = True
    details = []
    for n, (problem, system, cfg, sol, _) in runs.items():
        rep = sol.diagnostics
        pairing_ok = abs(rep.pairing) <= 1e-10 * (1.0 + abs(sol.objective))
        zero_ok = rep.off_support_max <= cfg.rho * (1.0 + 1e-9)
        ok &= pairing_ok and zero_ok
        details.append(f"n={n}: pairing={rep.pairing:.1e} "
                       f"max0={rep.off_support_max:.2g}")
    assert report(9, ok, "; ".join(details))


def test_criterion_10_sparsa_baseline(sparsa_runs):
    problem, system, res, cfg, warm_sol, _ = sparsa_runs
    u_full = system.expand(res.u)
    elems = DiscreteMeasureSpace(system.elem_measure)
    l0 = weighted_l0(w_of(u_full, system), elems)
    f_val = problem.smooth_value(u_full)
    ok = (0.20 <= l0 <= 0.25 and -0.010 <= f_val <= -0.005
          and res.iters <= 200 and warm_sol.dc_iters <= 5)
    assert report(10, ok, f"l0={l0:.3f} f={f_val:.4f} iters={res.iters}; "
                          f"warm-started dc={warm_sol.dc_iters}")


def test_criterion_11_optimal_control(control_runs):
    system, fixed_k, beta_sweep = control_runs
    ok = all(entry[2].dc_iters <= 8 for entry in fixed_k.values())
    iters = {K: entry[2].dc_iters for K, entry in fixed_k.items()}
    errs = [problem.tracking_error(sol.u)
            for _, problem, _, sol, _ in beta_sweep]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok &= decreasing

    rng = np.random.default_rng(3)
    problem = fixed_k[0.25][0]
    u = system.expand(rng.standard_normal(system.num_free))
    grad = problem.smooth_grad(u)
    fd_ok = True
    for _ in range(5):
        d = system.expand(rng.standard_normal(system.num_free))
        d /= np.linalg.norm(d)
        # central differences: h = 1e-4 balances the h^2 truncation error
        # against cancellation in the nearly flat regularization terms
        h = 1e-4
        fd = (problem.smooth_value(u + h * d)
              - problem.smooth_value(u - h * d)) / (2.0 * h)
        exact = float(grad @ d)
        fd_ok &= abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-10)
    ok &= fd_ok
    assert report(11, ok, f"dc iters {iters}; tracking "
                          + " > ".join(f"{e:.2e}" for e in errs)
                          + f"; fd {'ok' if fd_ok else 'broken'}")


def test_criterion_12_dc_monotonicity(prototype_runs, sweep_runs,
                                      schedule_run, sparsa_runs,
                                      control_runs):
    runs, _ = prototype_runs
    cases = []
    for n, (problem, system, cfg, sol, val0) in runs.items():
        cases.append((f"poisson n={n}", cfg.K, sol, val0))
    _, sweep_cfg, rhos, sols = sweep_runs
    for rho, sol in zip(rhos, sols):
        cases.append((f"sweep rho={rho:g}", sweep_cfg.K, sol,
                      sol.history[0].objective))
    _, sched_cfg, sched_sol, sched_val0 = schedule_run
    cases.append(("schedule", sched_cfg.K, sched_sol, sched_val0))
    _, _, _, warm_cfg, warm_sol, warm_val0 = sparsa_runs
    cases.append(("sparsa warm start", warm_cfg.K, warm_sol, warm_val0))
    _, fixed_k, beta_sweep = control_runs
    for K, (problem, cfg, sol, val0) in fixed_k.items():
        cases.append((f"control K={K}", cfg.K, sol, val0))
    for beta, problem, cfg, sol, val0 in beta_sweep:
        cases.append((f"control beta={beta:g}", cfg.K, sol, val0))

    worst = ("", 0.0)
    ok = True
    for label, K, sol, val0 in cases:
        ascent = sol.max_ascent_at_target(K)
        tol = 1e-12 * (1.0 + abs(val0))
        if ascent > worst[1]:
            worst = (label, ascent)
        ok &= ascent <= tol
    assert report(12, ok, f"{len(cases)} runs, worst ascent "
                          f"{worst[1]:.2e} ({worst[0] or 'none'})")
