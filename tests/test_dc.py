import numpy as np
import pytest

from dcl0.dc import DcError, DcProblem, dc_solve


def run(problem, u0, **kwargs):
    """``dc_solve`` with every objective value recorded: returns the final
    iterate, the sweep count and the values after each sweep."""
    values = []

    def objective(u, k):
        value = problem.objective(u, k)
        if k >= 0:
            values.append(value)
        return value

    recorded = DcProblem(g_solve=problem.g_solve,
                         h_subgrad=problem.h_subgrad, objective=objective)
    u, sweeps = dc_solve(recorded, u0, **kwargs)
    return u, sweeps, values


def quadratic_minus_abs():
    """1-d toy: g(u) = u^2, h(u) = |u|; critical points at +-1/2 and 0."""

    def g_solve(s, warm):
        return np.array([s[0] / 2.0])

    def h_subgrad(u, k):
        return np.sign(u)

    def objective(u, k):
        return float(u[0] ** 2 - abs(u[0]))

    return DcProblem(g_solve=g_solve, h_subgrad=h_subgrad, objective=objective)


def pure_quadratic(H, q):
    Hinv = np.linalg.inv(H)

    def g_solve(s, warm):
        return Hinv @ (q + s)

    def h_subgrad(u, k):
        return np.zeros_like(u)

    def objective(u, k):
        return 0.5 * float(u @ H @ u) - float(q @ u)

    return DcProblem(g_solve=g_solve, h_subgrad=h_subgrad, objective=objective)


class TestDcSolve:
    def test_toy_hand_iteration(self):
        # u0=1: s=1, u1 = 1/2; s=1, u2 = 1/2 -> fixed point at 1/2
        u, sweeps, values = run(quadratic_minus_abs(), np.array([1.0]))
        assert u[0] == 0.5
        assert sweeps == 2
        assert values == [-0.25, -0.25]

    def test_vanishing_h_solves_in_one_sweep(self, rng):
        H = np.diag([2.0, 5.0, 1.0])
        q = np.array([1.0, -2.0, 0.5])
        u, sweeps, values = run(pure_quadratic(H, q), rng.standard_normal(3))
        expected = np.linalg.solve(H, q)
        assert np.allclose(u, expected, rtol=1e-14)
        assert np.allclose(values[0], values[-1])
        assert sweeps <= 2

    def test_fixed_point_start_confirms_immediately(self):
        u, sweeps, _ = run(quadratic_minus_abs(), np.array([0.5]))
        assert sweeps == 1
        assert u[0] == 0.5

    def test_monotone_descent(self, rng):
        # descent holds for every DC run with exact subproblem solves
        for _ in range(10):
            _, _, vals = run(quadratic_minus_abs(),
                             rng.standard_normal(1) * 10.0)
            assert np.all(np.diff(vals) <= 1e-12 * (1.0 + abs(vals[0])))

    def test_equal_objectives_imply_fixed_point(self, rng):
        # strongly convex g: equal consecutive values only at a fixed point
        _, sweeps, vals = run(quadratic_minus_abs(), np.array([3.0]))
        for i in range(len(vals) - 1):
            if vals[i + 1] == vals[i]:
                # sweep i + 1 reproduced its iterate: the run ends there
                assert sweeps == i + 2

    def test_max_iter_guard(self):
        # oscillating fake solver never reaches a fixed point
        flip = DcProblem(g_solve=lambda s, w: -w,
                         h_subgrad=lambda u, k: np.zeros_like(u),
                         objective=lambda u, k: 0.0)
        with pytest.raises(DcError, match="after 7 sweeps") as err:
            run(flip, np.array([1.0]), max_iter=7)
        assert err.value.iteration == 7

    def test_nonfinite_objective_rejected(self):
        bad = DcProblem(g_solve=lambda s, w: w,
                        h_subgrad=lambda u, k: u,
                        objective=lambda u, k: np.inf)
        with pytest.raises(DcError):
            run(bad, np.array([1.0]))

    def test_subproblem_failure_carries_iteration(self):
        def broken(s, warm):
            raise RuntimeError("boom")

        problem = DcProblem(g_solve=broken, h_subgrad=lambda u, k: u,
                            objective=lambda u, k: 0.0)
        with pytest.raises(DcError) as err:
            run(problem, np.array([1.0]))
        assert err.value.iteration == 0


class TestSweepIndex:
    def test_sweep_index_and_min_sweeps(self):
        subgrad_at, objective_at = [], []

        def h_subgrad(u, k):
            subgrad_at.append(k)
            return np.zeros_like(u)

        def objective(u, k):
            objective_at.append(k)
            return 0.0

        # refuse to stop before four sweeps even though every sweep is a
        # fixed point
        problem = DcProblem(g_solve=lambda s, w: w.copy(),
                            h_subgrad=h_subgrad, objective=objective)
        u, sweeps = dc_solve(problem, np.array([2.0]), min_sweeps=4)
        assert subgrad_at == [0, 1, 2, 3]
        assert objective_at == [-1, 0, 1, 2, 3]
        assert sweeps == 4
        assert u[0] == 2.0


class TestSubgradientContract:
    def test_h_subgrad_satisfies_inequality(self, rng):
        # |v| >= |u| + s (v - u) for s = sign(u)
        problem = quadratic_minus_abs()
        for _ in range(100):
            u = rng.standard_normal(1)
            s = problem.h_subgrad(u, 0)
            v = rng.standard_normal(1) * 3.0
            assert abs(v[0]) - abs(u[0]) >= float(s @ (v - u)) - 1e-12
