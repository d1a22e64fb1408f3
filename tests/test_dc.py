import numpy as np
import pytest

from dcl0.dc import DcError, DcProblem, dc_solve


def run(problem, u0, **kwargs):
    """``dc_solve`` with a no-op hook and no veto on termination."""
    return dc_solve(problem, u0, iteration_hook=lambda k: None,
                    stop_allowed=lambda k: True, **kwargs)


def quadratic_minus_abs():
    """1-d toy: g(u) = u^2, h(u) = |u|; critical points at +-1/2 and 0."""

    def g_solve(s, warm):
        return np.array([s[0] / 2.0])

    def h_subgrad(u):
        return np.sign(u)

    def objective(u):
        return float(u[0] ** 2 - abs(u[0]))

    return DcProblem(g_solve=g_solve, h_subgrad=h_subgrad, objective=objective)


def pure_quadratic(H, q):
    Hinv = np.linalg.inv(H)

    def g_solve(s, warm):
        return Hinv @ (q + s)

    def h_subgrad(u):
        return np.zeros_like(u)

    def objective(u):
        return 0.5 * float(u @ H @ u) - float(q @ u)

    return DcProblem(g_solve=g_solve, h_subgrad=h_subgrad, objective=objective)


class TestDcSolve:
    def test_toy_hand_iteration(self):
        # u0=1: s=1, u1 = 1/2; s=1, u2 = 1/2 -> fixed point at 1/2
        state = run(quadratic_minus_abs(), np.array([1.0]))
        assert state.status == "converged_fixed_point"
        assert state.u[0] == 0.5
        assert state.k == 2
        assert state.objectives == [-0.25, -0.25]

    def test_vanishing_h_solves_in_one_sweep(self, rng):
        H = np.diag([2.0, 5.0, 1.0])
        q = np.array([1.0, -2.0, 0.5])
        state = run(pure_quadratic(H, q), rng.standard_normal(3))
        expected = np.linalg.solve(H, q)
        assert np.allclose(state.u, expected, rtol=1e-14)
        assert np.allclose(state.objectives[0], state.objectives[-1])
        assert state.k <= 2

    def test_fixed_point_start_confirms_immediately(self):
        state = run(quadratic_minus_abs(), np.array([0.5]))
        assert state.status == "converged_fixed_point"
        assert state.k == 1
        assert state.u[0] == 0.5

    def test_monotone_descent(self, rng):
        # descent holds for every DC run with exact subproblem solves
        for _ in range(10):
            state = run(quadratic_minus_abs(), rng.standard_normal(1) * 10.0)
            vals = state.objectives
            assert np.all(np.diff(vals) <= 1e-12 * (1.0 + abs(vals[0])))

    def test_equal_objectives_imply_fixed_point(self, rng):
        # strongly convex g: equal consecutive values only at a fixed point
        state = run(quadratic_minus_abs(), np.array([3.0]))
        vals = state.objectives
        for i in range(len(vals) - 1):
            if vals[i + 1] == vals[i]:
                # sweep i + 1 reproduced its iterate: the run ends there
                assert state.k == i + 2

    def test_max_iter_guard(self):
        # oscillating fake solver never reaches a fixed point
        flip = DcProblem(g_solve=lambda s, w: -w,
                         h_subgrad=lambda u: np.zeros_like(u),
                         objective=lambda u: 0.0)
        state = run(flip, np.array([1.0]), max_iter=7)
        assert state.status == "max_iter"
        assert state.k == 7

    def test_nonfinite_objective_rejected(self):
        bad = DcProblem(g_solve=lambda s, w: w,
                        h_subgrad=lambda u: u,
                        objective=lambda u: np.inf)
        with pytest.raises(DcError):
            run(bad, np.array([1.0]))

    def test_subproblem_failure_carries_iteration(self):
        def broken(s, warm):
            raise RuntimeError("boom")

        problem = DcProblem(g_solve=broken, h_subgrad=lambda u: u,
                            objective=lambda u: 0.0)
        with pytest.raises(DcError) as err:
            run(problem, np.array([1.0]))
        assert err.value.iteration == 0


class TestHooks:
    def test_iteration_hook_and_stop_gate(self):
        seen = []
        # refuse to stop before iteration 3 even though every sweep is a
        # fixed point
        problem = DcProblem(g_solve=lambda s, w: w.copy(),
                            h_subgrad=lambda u: np.zeros_like(u),
                            objective=lambda u: 0.0)
        state = dc_solve(problem, np.array([2.0]),
                         iteration_hook=seen.append,
                         stop_allowed=lambda k: k >= 3)
        assert seen == [0, 1, 2, 3]
        assert state.k == 4


class TestSubgradientContract:
    def test_h_subgrad_satisfies_inequality(self, rng):
        # |v| >= |u| + s (v - u) for s = sign(u)
        problem = quadratic_minus_abs()
        for _ in range(100):
            u = rng.standard_normal(1)
            s = problem.h_subgrad(u)
            v = rng.standard_normal(1) * 3.0
            assert abs(v[0]) - abs(u[0]) >= float(s @ (v - u)) - 1e-12
