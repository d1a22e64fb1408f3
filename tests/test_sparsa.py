import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_spd
from dcl0.fem import assemble, build_structured_mesh
from dcl0.problems import default_load, poisson_prototype
from dcl0 import sparsa
from dcl0.sparsa import SparsaError, node_l1_weights, sparsa_solve
from dcl0.ssn import L1Weights, QuadraticOperator, f_tau_residual


class TestDefaults:
    def test_parameter_defaults(self):
        assert sparsa.WINDOW == 5
        assert sparsa.ETA == 2.0
        assert sparsa.SIGMA == 0.01
        assert sparsa.ALPHA_MIN == 1e-20
        assert sparsa.ALPHA_MAX == 1e20
        assert sparsa.REL_TOL == 1e-5
        assert sparsa.MAX_ITER == 20_000


class TestSparsaSolve:
    def test_zero_weights_reach_linear_solution(self, rng, monkeypatch):
        monkeypatch.setattr(sparsa, "REL_TOL", 1e-10)
        mat = random_spd(rng, 20)
        q = rng.standard_normal(20)
        H = QuadraticOperator.from_matrix(mat)
        res = sparsa_solve(H, q, np.zeros(20), u0=np.zeros(20))
        assert np.allclose(res.u, np.linalg.solve(mat.toarray(), q),
                           atol=1e-6)

    def test_scalar_soft_threshold_fixed_point(self, monkeypatch):
        monkeypatch.setattr(sparsa, "REL_TOL", 1e-10)
        H = QuadraticOperator.from_matrix(sp.csr_matrix(np.array([[2.0]])))
        res = sparsa_solve(H, np.array([3.0]), np.array([1.0]),
                           u0=np.array([0.0]))
        assert res.u[0] == pytest.approx(1.0, abs=1e-6)

    def test_nonmonotone_acceptance_window(self, rng):
        # every accepted value obeys the sufficient decrease against the
        # maximum of the previous WINDOW objective values, and only those
        mat = random_spd(rng, 30)
        q = rng.standard_normal(30) * 3.0
        H = QuadraticOperator.from_matrix(mat)
        res = sparsa_solve(H, q, np.full(30, 0.3), u0=np.zeros(30))
        values = [v for v, _, _ in res.history]
        alphas = [a for _, a, _ in res.history]
        steps = [s for _, _, s in res.history]
        for k in range(1, len(values)):
            window = values[max(0, k - sparsa.WINDOW):k]
            assert values[k] <= max(window) \
                - 0.5 * sparsa.SIGMA * alphas[k] * steps[k] ** 2 + 1e-10

    def test_final_stationarity_residual(self, rng, monkeypatch):
        monkeypatch.setattr(sparsa, "REL_TOL", 1e-9)
        mat = random_spd(rng, 25)
        q = rng.standard_normal(25)
        H = QuadraticOperator.from_matrix(mat)
        w = np.full(25, 0.2)
        res = sparsa_solve(H, q, w, u0=np.zeros(25))
        alpha_final = res.history[-1][1]
        F = f_tau_residual(res.u, H, q, L1Weights(w), tau=1.0 / alpha_final)
        assert np.linalg.norm(F) <= 1e-6 * (1.0 + np.linalg.norm(q))

    def test_rejects_negative_weights(self):
        H = QuadraticOperator.from_matrix(sp.csr_matrix(np.eye(2)))
        with pytest.raises(ValueError, match="nonnegative"):
            sparsa_solve(H, np.ones(2), np.array([1.0, -1.0]),
                         u0=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        H = QuadraticOperator.from_matrix(sp.csr_matrix(np.eye(2)))
        with pytest.raises(ValueError, match="finite"):
            sparsa_solve(H, np.ones(2), np.array([1.0, bad]),
                         u0=np.zeros(2))

    def test_iteration_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(sparsa, "MAX_ITER", 5)
        monkeypatch.setattr(sparsa, "REL_TOL", 1e-300)
        mat = random_spd(rng, 10)
        H = QuadraticOperator.from_matrix(mat)
        with pytest.raises(SparsaError, match="within 5 iterations"):
            sparsa_solve(H, rng.standard_normal(10), np.zeros(10),
                         u0=np.zeros(10))


class TestPrototypeBaseline:
    def test_node_weights_are_scaled_basis_integrals(self):
        system = assemble(build_structured_mesh(8), default_load)
        w = node_l1_weights(system, 4.0)
        expected = 4.0 * system.patch_measure[system.free_nodes] / 3.0
        assert np.allclose(w, expected, rtol=1e-14)

    def test_prototype_run_is_sparse(self):
        system = assemble(build_structured_mesh(16), default_load)
        problem = poisson_prototype(system)
        u0 = system.restrict(problem.unconstrained_minimizer())
        res = sparsa_solve(problem.hessian, problem.q_smooth,
                           node_l1_weights(system, 4.360), u0)
        assert res.iters <= 200
        sparse_share = np.mean(np.abs(res.u) <= 1e-10)
        assert sparse_share > 0.5
