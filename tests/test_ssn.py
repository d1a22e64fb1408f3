import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import jittered_mesh, random_spd, random_spd_operator
from dcl0 import ssn
from dcl0.fem import assemble
from dcl0.ssn import (L1Weights, QuadraticOperator, SsnError, default_tau,
                      ssn_solve)
from oracles import f_tau_residual, prox_grad_oracle


def scalar_op(h):
    return QuadraticOperator.from_matrix(sp.csr_matrix(np.array([[h]])))


class TestQuadraticOperator:
    def test_symmetry_on_random_pairs(self, rng):
        H = random_spd_operator(rng, 30)
        for _ in range(10):
            u, v = rng.standard_normal(30), rng.standard_normal(30)
            assert float(H.apply(u) @ v) == pytest.approx(
                float(u @ H.apply(v)), rel=1e-10)

    def test_positive_definite_on_random_vectors(self, rng):
        H = random_spd_operator(rng, 30)
        for _ in range(10):
            u = rng.standard_normal(30)
            assert float(u @ H.apply(u)) > 0.0

    def test_action_principal_solve_matches_direct(self, rng):
        mat = random_spd(rng, 40)
        explicit = QuadraticOperator.from_matrix(mat)
        action = QuadraticOperator(lambda u: mat @ u, n=40)
        active = np.sort(rng.choice(40, size=17, replace=False))
        rhs = rng.standard_normal(17)
        x_direct = explicit.solve_principal(active, rhs)
        x_cg = action.solve_principal(active, rhs)
        assert np.allclose(x_cg, x_direct, atol=1e-9)

    def test_principal_solve_residual_on_jittered_stiffness(self, rng):
        A = assemble(jittered_mesh(20, seed=5)).A
        H = QuadraticOperator.from_matrix(A)
        active = np.flatnonzero(rng.random(A.shape[0]) < 0.6)
        rhs = rng.standard_normal(active.size)
        x = H.solve_principal(active, rhs)
        sub = A[active][:, active]
        assert np.linalg.norm(sub @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_narrow_panels_keep_ordering_and_fill(self):
        assert 1 <= ssn.PANEL_SIZE <= 20
        A = assemble(jittered_mesh(24, seed=7)).A
        rng = np.random.default_rng(17)
        active = np.flatnonzero(rng.random(A.shape[0]) < 0.7)
        sub = A[active][:, active].tocsc()
        lu = ssn.factor_spd(sub)
        default = spla.splu(sub, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_c, default.perm_c)
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
        rhs = rng.standard_normal(active.size)
        x = QuadraticOperator.from_matrix(A).solve_principal(active, rhs)
        assert np.linalg.norm(sub @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_singular_principal_system_raises(self):
        H = QuadraticOperator.from_matrix(sp.csr_matrix(np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])))
        with pytest.raises(SsnError, match="singular principal system"):
            H.solve_principal(np.array([0, 1]), np.ones(2))

    def test_norm_estimate_close_to_spectral_norm(self, rng):
        mat = random_spd(rng, 25)
        op = QuadraticOperator.from_matrix(mat)
        true = np.linalg.norm(mat.toarray(), 2)
        assert op.norm_estimate(iters=200) == pytest.approx(true, rel=1e-6)


class TestL1Weights:
    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            L1Weights([1.0, -1e-300])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_threshold(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            L1Weights([1.0, bad])


class TestFTauResidual:
    def test_zero_when_origin_optimal(self, rng):
        H = random_spd_operator(rng, 12)
        q = rng.standard_normal(12) * 0.1
        weights = L1Weights(np.abs(q) + 0.5)
        F = f_tau_residual(np.zeros(12), H, q, weights, tau=1.0)
        assert np.array_equal(F, np.zeros(12))

    def test_scalar_active_optimum(self):
        # 2u - 3 + sign(u) = 0 at u = 1
        F = f_tau_residual(np.array([1.0]), scalar_op(2.0), np.array([3.0]),
                           L1Weights([1.0]), tau=1.0)
        assert F[0] == 0.0

    def test_scalar_threshold_beats_load(self):
        F = f_tau_residual(np.array([0.0]), scalar_op(2.0), np.array([3.0]),
                           L1Weights([5.0]), tau=1.0)
        assert F[0] == 0.0

    def test_rejects_bad_tau(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                f_tau_residual(np.zeros(1), scalar_op(1.0), np.zeros(1),
                               L1Weights([1.0]), tau=tau)

    def test_permutation_equivariance(self, rng):
        n = 15
        mat = random_spd(rng, n)
        q = rng.standard_normal(n)
        c = rng.random(n)
        u = rng.standard_normal(n)
        base = np.linalg.norm(f_tau_residual(
            u, QuadraticOperator.from_matrix(mat), q, L1Weights(c), tau=0.7))
        for _ in range(5):
            p = rng.permutation(n)
            mat_p = mat.toarray()[np.ix_(p, p)]
            permuted = np.linalg.norm(f_tau_residual(
                u[p], QuadraticOperator.from_matrix(sp.csr_matrix(mat_p)),
                q[p], L1Weights(c[p]), tau=0.7))
            assert permuted == pytest.approx(base, rel=1e-12)


class TestSsnSolve:
    def test_small_load_gives_zero(self, rng):
        H = random_spd_operator(rng, 10)
        q = rng.standard_normal(10) * 0.01
        res = ssn_solve(H, q, L1Weights(np.abs(q) + 1.0))
        assert np.array_equal(res.u, np.zeros(10))
        assert res.converged

    def test_zero_weights_plain_solve(self, rng):
        mat = random_spd(rng, 15)
        q = rng.standard_normal(15)
        res = ssn_solve(QuadraticOperator.from_matrix(mat), q,
                        L1Weights(np.zeros(15)))
        assert np.allclose(res.u, np.linalg.solve(mat.toarray(), q),
                           rtol=1e-10)

    def test_scalar_closed_form(self):
        res = ssn_solve(scalar_op(2.0), np.array([3.0]), L1Weights([1.0]))
        assert res.u[0] == pytest.approx(1.0, abs=1e-15)
        assert res.converged

    def test_matches_prox_oracle_random_instances(self, rng):
        for trial in range(10):
            n = int(rng.integers(5, 25))
            H = random_spd_operator(rng, n)
            q = rng.standard_normal(n) * 2.0
            c = rng.random(n) * rng.choice([0.1, 1.0, 5.0])
            res = ssn_solve(H, q, L1Weights(c))
            assert res.converged
            assert res.residual <= 1e-14
            oracle = prox_grad_oracle(H, q, L1Weights(c), tol=1e-13)
            assert np.max(np.abs(res.u - oracle)) <= 1e-8

    def test_componentwise_optimality(self, rng):
        # |(Hu-q)_i| <= c_i where u_i = 0, (Hu-q)_i = -c_i sign(u_i) else
        for _ in range(10):
            n = 20
            H = random_spd_operator(rng, n)
            q = rng.standard_normal(n) * 3.0
            c = rng.random(n) + 0.1
            res = ssn_solve(H, q, L1Weights(c))
            assert res.converged
            g = H.apply(res.u) - q
            on = res.u != 0.0
            assert np.all(np.abs(g[~on]) <= c[~on] + 1e-10)
            assert np.allclose(g[on], -c[on] * np.sign(res.u[on]), atol=1e-10)

    def test_objective_not_worse_than_oracle(self, rng):
        def objective(u, H, q, c):
            return 0.5 * float(u @ H.apply(u)) - float(q @ u) \
                + float(c @ np.abs(u))

        for _ in range(5):
            n = 30
            H = random_spd_operator(rng, n)
            q = rng.standard_normal(n)
            c = rng.random(n)
            res = ssn_solve(H, q, L1Weights(c))
            oracle = prox_grad_oracle(H, q, L1Weights(c), tol=1e-12)
            assert objective(res.u, H, q, c) <= \
                objective(oracle, H, q, c) + 1e-9

    def test_tilt_matches_summed_load(self, rng):
        n = 18
        H = random_spd_operator(rng, n)
        q = rng.standard_normal(n)
        tilt = rng.standard_normal(n) * 5.0
        c = rng.random(n) + 0.5
        res_tilt = ssn_solve(H, q, L1Weights(c), tilt=tilt)
        res_sum = ssn_solve(H, q + tilt, L1Weights(c))
        assert res_tilt.converged and res_sum.converged
        assert np.allclose(res_tilt.u, res_sum.u, atol=1e-10)

    def test_warm_start_at_solution_returns_unchanged(self, rng):
        n = 12
        H = random_spd_operator(rng, n)
        q = rng.standard_normal(n) * 2.0
        c = np.full(n, 0.5)
        first = ssn_solve(H, q, L1Weights(c))
        second = ssn_solve(H, q, L1Weights(c), u0=first.u)
        assert second.iters == 0
        assert np.array_equal(second.u, first.u)

    def test_newton_steps_on_acceptance_instances(self):
        # the random instances of acceptance criterion 5, from a zero start
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            H = QuadraticOperator.from_matrix(random_spd(rng, n))
            q = rng.standard_normal(n) * 0.2
            c = rng.random(n) * rng.choice([0.0, 0.05, 0.2])
            res = ssn_solve(H, q, L1Weights(c))
            assert res.converged
            assert res.iters <= 6

    def test_nonzero_warm_start_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            H = random_spd_operator(rng, n)
            q = rng.standard_normal(n)
            c = 1.0 + 0.1 * rng.standard_normal(n) ** 2
            u0 = 1e-3 * rng.standard_normal(n)
            res = ssn_solve(H, q, L1Weights(c), u0=u0)
            assert res.converged and res.residual <= ssn.SSN_TOL
            oracle = prox_grad_oracle(H, q, L1Weights(c), tol=1e-13)
            assert np.max(np.abs(res.u - oracle)) <= 1e-8

    def test_max_newton_flag(self, rng, monkeypatch):
        monkeypatch.setattr(ssn, "MAX_NEWTON", 0)
        n = 10
        H = random_spd_operator(rng, n)
        q = rng.standard_normal(n) * 10.0
        res = ssn_solve(H, q, L1Weights(np.full(n, 0.1)))
        assert not res.converged

    def test_unconverged_returns_last_evaluated_iterate(self, rng,
                                                        monkeypatch):
        monkeypatch.setattr(ssn, "MAX_NEWTON", 2)
        n = 40
        H = random_spd_operator(rng, n)
        q = rng.standard_normal(n) * 10.0
        weights = L1Weights(np.full(n, 0.1))
        res = ssn_solve(H, q, weights)
        assert not res.converged and res.iters == 2
        # the iterate after the two Newton steps, with its own residual
        F = f_tau_residual(res.u, H, q, weights, default_tau(res.u, weights))
        assert res.residual == float(np.linalg.norm(F)) > ssn.SSN_TOL
        assert np.any(res.u != 0.0)

    def test_rejects_bad_tau(self, rng):
        # tau is not a caller's choice: a supplied value is refused, and the
        # one ssn_solve derives from each iterate is positive even at zero
        H = random_spd_operator(rng, 3)
        weights = L1Weights(np.ones(3))
        with pytest.raises(TypeError):
            ssn_solve(H, np.ones(3), weights, tau=-1.0)
        assert default_tau(np.zeros(3), weights) > 0.0
        assert ssn_solve(H, np.ones(3), weights, u0=np.zeros(3)).converged


def holds_factor(value):
    """Whether ``value`` is a SuperLU factor or a tuple or list that holds
    one."""
    if isinstance(value, spla.SuperLU):
        return True
    return isinstance(value, (tuple, list)) and any(map(holds_factor, value))


def keeps_a_factor(H):
    """Whether an attribute of the operator holds a principal factor."""
    return any(map(holds_factor, vars(H).values()))


class TestRepeatedClassification:
    @staticmethod
    def factorizations(monkeypatch):
        """Per principal solve, the active set's bytes and the number of
        factorizations the solve made."""
        calls = []
        solve, factor = QuadraticOperator.solve_principal, ssn.factor_spd

        def recorded_solve(self, active, rhs, x0=None):
            calls.append([active.tobytes(), 0])
            return solve(self, active, rhs, x0=x0)

        def recorded_factor(csc):
            calls[-1][1] += 1
            return factor(csc)

        monkeypatch.setattr(QuadraticOperator, "solve_principal",
                            recorded_solve)
        monkeypatch.setattr(ssn, "factor_spd", recorded_factor)
        return calls

    @staticmethod
    def assert_one_factor_per_solve(calls):
        """Every principal solve of an explicit Hessian factors exactly
        once; returns the solves whose active set repeats the last one's."""
        assert all(factored == 1 for _, factored in calls)
        return sum(active == last
                   for (last, _), (active, _) in zip(calls, calls[1:]))

    @pytest.mark.parametrize("scale", [10.0, 50.0])
    def test_scaled_acceptance_instances_converge(self, scale, monkeypatch):
        # criterion 5's generator (seed 10, 65 instances) with q and c
        # scaled: the residual's rounding floor then lies above SSN_TOL, and
        # an absolute test left 2 (x10) and 56 (x50) solves unconverged
        calls = self.factorizations(monkeypatch)
        rng = np.random.default_rng(10)
        for _ in range(65):
            n = int(rng.integers(5, 201))
            H = QuadraticOperator.from_matrix(random_spd(rng, n))
            q = rng.standard_normal(n) * 0.2 * scale
            c = rng.random(n) * rng.choice([0.0, 0.05, 0.2]) * scale
            systems = []
            solve = H.solve_principal

            def recorded(active, rhs, x0=None, solve=solve, systems=systems):
                systems.append((active.tobytes(), rhs.tobytes()))
                return solve(active, rhs, x0=x0)
            H.solve_principal = recorded
            calls.clear()
            res = ssn_solve(H, q, L1Weights(c))
            assert res.converged
            assert res.residual <= ssn.repeat_tolerance(q, c, np.zeros(n))
            assert res.iters <= 6
            # no Newton system is solved twice
            assert len(set(systems)) == len(systems)
            # every step factors its block once, also where a solve returns
            # to an earlier active set (A B A'), and no step keeps the last
            # step's active set here; no factor outlives the solve
            assert self.assert_one_factor_per_solve(calls) == 0
            assert not keeps_a_factor(H)

    def test_sign_flip_factors_again(self, monkeypatch):
        # thresholds of very different sizes: a clamped component with a
        # tiny threshold can change sign and stay clamped, so that a Newton
        # step keeps its predecessor's active set (5 of these 60 instances);
        # such a step factors its block again
        calls = self.factorizations(monkeypatch)
        repeated = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 12))
            H = QuadraticOperator.from_matrix(random_spd(rng, n))
            q = rng.standard_normal(n)
            c = rng.random(n) * 0.2
            c[rng.random(n) < 0.3] *= 1e-4
            calls.clear()
            res = ssn_solve(H, q, L1Weights(c))
            assert res.converged and not keeps_a_factor(H)
            repeated += self.assert_one_factor_per_solve(calls)
        assert repeated == 5

    def test_factor_lives_one_call(self, rng, monkeypatch):
        H = random_spd_operator(rng, 20)
        factored = []
        factor = ssn.factor_spd
        monkeypatch.setattr(ssn, "factor_spd",
                            lambda csc: factored.append(1) or factor(csc))
        active = np.arange(0, 20, 2)
        first = H.solve_principal(active, np.ones(10))
        assert not keeps_a_factor(H)
        second = H.solve_principal(active, np.ones(10))
        assert len(factored) == 2 and not keeps_a_factor(H)
        assert np.array_equal(first, second)

    def test_the_check_sees_a_kept_factor(self, rng):
        H = random_spd_operator(rng, 6)
        assert not keeps_a_factor(H)
        lu = ssn.factor_spd(H.explicit.T)
        H._last = (np.arange(6), [lu])
        assert keeps_a_factor(H)
        H._last = lu
        assert keeps_a_factor(H)

    def test_repeat_with_large_residual_fails(self, rng):
        # inexact principal solves, as from conjugate gradients stopped
        # early: the classification repeats, the residual stays large
        n = 30
        H = random_spd_operator(rng, n)
        q = rng.standard_normal(n)
        c = np.full(n, 0.3)
        solve = H.solve_principal
        H.solve_principal = lambda active, rhs, x0=None: (
            solve(active, rhs) + 1e-6)
        res = ssn_solve(H, q, L1Weights(c))
        assert not res.converged
        assert res.iters < ssn.MAX_NEWTON
        assert res.residual > ssn.repeat_tolerance(q, c, np.zeros(n))

    def test_repeat_tolerance_scales_with_the_data(self):
        small, large = np.array([0.5, -1.0]), np.array([3.0, -30.0])
        zero = np.zeros(2)
        assert ssn.repeat_tolerance(small, small, zero) == ssn.SSN_TOL
        assert ssn.repeat_tolerance(zero, zero, zero) == ssn.SSN_TOL
        assert ssn.repeat_tolerance(np.zeros(0), np.zeros(0),
                                    np.zeros(0)) == ssn.SSN_TOL
        assert ssn.repeat_tolerance(small, zero, large) == 30.0 * ssn.SSN_TOL


class TestDefaultTau:
    def test_scales_with_iterate_and_thresholds(self):
        weights = L1Weights(np.array([2.0, 4.0]))
        assert default_tau(np.array([0.5, -1.0]), weights) == 25.0

    def test_zero_warm_start_floor(self):
        weights = L1Weights(np.array([1e9]))
        tau = default_tau(np.zeros(1), weights)
        assert tau >= 1e-16

    def test_no_thresholds(self):
        assert default_tau(np.ones(2), L1Weights(np.zeros(2))) == 1.0


class TestProxOracle:
    def test_zero_weights_converges_to_linear_solve(self, rng):
        mat = random_spd(rng, 12)
        q = rng.standard_normal(12)
        u = prox_grad_oracle(QuadraticOperator.from_matrix(mat), q,
                             L1Weights(np.zeros(12)), tol=1e-13)
        assert np.allclose(u, np.linalg.solve(mat.toarray(), q), atol=1e-9)

    def test_scalar_closed_form(self):
        u = prox_grad_oracle(scalar_op(2.0), np.array([3.0]),
                             L1Weights([1.0]), tol=1e-14)
        assert u[0] == pytest.approx(1.0, abs=1e-12)

    def test_ssn_solution_is_oracle_fixed_point(self, rng):
        n = 16
        H = random_spd_operator(rng, n)
        q = rng.standard_normal(n)
        c = rng.random(n)
        res = ssn_solve(H, q, L1Weights(c))
        lipschitz = 1.01 * H.norm_estimate()
        from dcl0.ssn import _soft_threshold
        step = _soft_threshold(res.u - (H.apply(res.u) - q) / lipschitz,
                               c / lipschitz)
        assert np.max(np.abs(step - res.u)) <= 1e-12

    def test_iteration_cap(self, rng):
        H = random_spd_operator(rng, 8)
        with pytest.raises(SsnError):
            prox_grad_oracle(H, rng.standard_normal(8),
                             L1Weights(np.zeros(8)), tol=1e-300, max_iter=5)
