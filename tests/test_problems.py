import numpy as np
import pytest

from conftest import jittered_mesh
from dcl0.fem import assemble, build_structured_mesh
from dcl0.problems import (ControlConfig, control_reduced, default_load,
                           poisson_prototype)
from dcl0.ssn import QuadraticOperator


@pytest.fixture(scope="module")
def system16():
    return assemble(build_structured_mesh(16), default_load)


@pytest.fixture(scope="module")
def system8():
    return assemble(build_structured_mesh(8), default_load)


def directional_fd(value, u, d, h=1e-4):
    # central differences; h trades the h^2 truncation term against
    # cancellation when the objective is nearly flat along d
    return (value(u + h * d) - value(u - h * d)) / (2.0 * h)


def check_gradient(problem, system, rng, rel=1e-6):
    u = system.expand(rng.standard_normal(system.num_free))
    grad = problem.smooth_grad(u)
    for _ in range(5):
        d = system.expand(rng.standard_normal(system.num_free))
        d /= np.linalg.norm(d)
        fd = directional_fd(problem.smooth_value, u, d)
        exact = float(grad @ d)
        assert fd == pytest.approx(exact, rel=rel, abs=1e-10)


def check_hessian_consistency(problem, system, rng, rel=1e-10):
    u_free = rng.standard_normal(system.num_free)
    lhs = problem.smooth_grad(system.expand(u_free))[system.free_nodes] \
        - problem.smooth_grad(system.expand(np.zeros(system.num_free)))[system.free_nodes]
    rhs = problem.hessian.apply(u_free)
    assert np.linalg.norm(lhs - rhs) <= rel * max(np.linalg.norm(rhs), 1.0)


class TestPoissonPrototype:
    def test_value_at_zero(self, system16):
        problem = poisson_prototype(system16)
        assert problem.smooth_value(np.zeros(system16.mesh.num_nodes)) == 0.0

    def test_gradient_vanishes_at_minimizer(self, system16):
        problem = poisson_prototype(system16)
        u = problem.unconstrained_minimizer()
        assert np.max(np.abs(problem.smooth_grad(u))) <= 1e-11

    def test_minimizer_beats_zero(self, system16):
        problem = poisson_prototype(system16)
        u = problem.unconstrained_minimizer()
        assert problem.smooth_value(u) < 0.0

    def test_gradient_finite_differences(self, system8, rng):
        check_gradient(poisson_prototype(system8), system8, rng)

    def test_hessian_consistency(self, system8, rng):
        check_hessian_consistency(poisson_prototype(system8), system8, rng)


class TestControlReduced:
    def test_zero_target_zero_solution(self, system8):
        problem = control_reduced(system8, ControlConfig(y_d=lambda x, y: 0.0 * x))
        assert problem.smooth_value(np.zeros(system8.mesh.num_nodes)) == 0.0
        u = problem.unconstrained_minimizer()
        assert np.max(np.abs(u)) <= 1e-12

    def test_gradient_finite_differences(self, system8, rng):
        check_gradient(control_reduced(system8, ControlConfig()), system8, rng)

    def test_hessian_consistency(self, system8, rng):
        check_hessian_consistency(control_reduced(system8, ControlConfig()),
                                  system8, rng, rel=1e-9)

    def test_hessian_symmetric_positive_definite(self, system8, rng):
        problem = control_reduced(system8, ControlConfig())
        H = problem.hessian
        for _ in range(5):
            u = rng.standard_normal(system8.num_free)
            v = rng.standard_normal(system8.num_free)
            assert float(H.apply(u) @ v) == pytest.approx(
                float(u @ H.apply(v)), rel=1e-10)
            assert float(u @ H.apply(u)) > 0.0

    def test_nodal_target_array_accepted(self, system8):
        yd = np.zeros(system8.mesh.num_nodes)
        problem = control_reduced(system8, ControlConfig(y_d=yd))
        assert np.max(np.abs(problem.unconstrained_minimizer())) <= 1e-12

    def test_tracking_error_at_zero_control(self, system8):
        problem = control_reduced(system8, ControlConfig())
        xy = system8.mesh.nodes[system8.free_nodes]
        yd = ControlConfig().y_d(xy[:, 0], xy[:, 1])
        expected = np.sqrt(float(yd @ (system8.M @ yd)))
        zero = np.zeros(system8.mesh.num_nodes)
        assert problem.tracking_error(zero) == pytest.approx(expected, rel=1e-12)

    def test_needs_the_mass_matrix(self):
        system = assemble(build_structured_mesh(4), mass=False)
        with pytest.raises(ValueError, match="needs the mass matrix"):
            control_reduced(system, ControlConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ControlConfig(alpha=1e-7, beta=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ControlConfig(alpha=bad)
            with pytest.raises(ValueError, match="finite"):
                ControlConfig(alpha=1e-7, beta=bad)

    def test_beta_defaults_to_alpha(self):
        cfg = ControlConfig(alpha=1e-5)
        assert cfg.beta == 1e-5


def counting_hessian(problem):
    """Wrap the Hessian action of ``problem`` with a call counter."""
    calls = [0]
    action = problem.hessian.apply

    def counted(v):
        calls[0] += 1
        return action(v)

    problem.hessian.apply = counted
    return calls


def restricted_residual(problem, active, x, rhs):
    full = np.zeros(problem.hessian.n)
    full[active] = x
    return (np.linalg.norm(problem.hessian.apply(full)[active] - rhs)
            / np.linalg.norm(rhs))


class TestGridPreconditioner:
    def test_sine_diagonal_of_hessian_parts(self):
        # the preconditioner is V diag(1 / (mu^3/lam^2 + alpha mu + beta lam))
        # V' with lam and mu the sine-basis diagonals of A and M
        system = assemble(build_structured_mesh(8))
        cfg = ControlConfig(alpha=1e-3, beta=1e-4)
        P = control_reduced(system, cfg).hessian.preconditioner
        n = system.num_free
        dense = np.column_stack([P(e) for e in np.eye(n)])
        m = 7
        k = np.arange(1, m + 1)
        S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
        V = np.kron(S, S)
        lam = np.diag(V.T @ system.A.toarray() @ V)
        mu = np.diag(V.T @ system.M.toarray() @ V)
        symbol = 1.0 / (mu ** 3 / lam ** 2 + cfg.alpha * mu + cfg.beta * lam)
        expected = V @ np.diag(symbol) @ V.T
        assert (np.max(np.abs(dense - expected))
                <= 1e-12 * np.max(np.abs(expected)))
        assert np.min(np.linalg.eigvalsh(0.5 * (dense + dense.T))) > 0.0

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("subset", ["full", "quarter"])
    def test_matches_plain_cg(self, n, subset):
        system = assemble(build_structured_mesh(n))
        problem = control_reduced(system, ControlConfig())
        assert problem.hessian.preconditioner is not None
        plain = QuadraticOperator(problem.hessian.apply, n=system.num_free)
        rng = np.random.default_rng(n)
        active = np.arange(system.num_free)
        if subset == "quarter":
            active = np.sort(rng.choice(active, size=active.size // 4,
                                        replace=False))
        rhs = rng.standard_normal(active.size)
        x = problem.hessian.solve_principal(active, rhs)
        reference = plain.solve_principal(active, rhs)
        assert (np.linalg.norm(x - reference)
                <= 1e-10 * np.linalg.norm(reference))
        assert restricted_residual(problem, active, x, rhs) <= 1e-12

    def test_full_solve_takes_few_hessian_actions(self):
        # unpreconditioned CG takes 57 actions here, the sine-basis
        # preconditioner 6
        system = assemble(build_structured_mesh(32))
        problem = control_reduced(system, ControlConfig())
        calls = counting_hessian(problem)
        u = system.restrict(problem.unconstrained_minimizer())
        assert calls[0] <= 10
        everything = np.arange(system.num_free)
        assert restricted_residual(problem, everything, u,
                                   problem.q_smooth) <= 1e-12

    def test_off_grid_plain_cg(self):
        system = assemble(jittered_mesh(24))
        problem = control_reduced(system, ControlConfig())
        assert problem.hessian.preconditioner is None
        u = system.restrict(problem.unconstrained_minimizer())
        everything = np.arange(system.num_free)
        assert restricted_residual(problem, everything, u,
                                   problem.q_smooth) <= 1e-12
