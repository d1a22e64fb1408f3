"""Concrete smooth objectives sharing one quadratic interface.

Both the Poisson energy prototype and the reduced tracking-type control
objective expose value/gradient on full-length nodal vectors plus a
:class:`~dcl0.ssn.QuadraticOperator` Hessian and linear term on the free
degrees of freedom, so the penalized solver can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FemSystem
from .ssn import QuadraticOperator

__all__ = ["ProblemDef", "ControlConfig", "poisson_prototype",
           "control_reduced", "default_load", "default_desired_state"]


def default_load(x, y):
    """Forcing term of the prototype problem."""
    return 10.0 * x * np.sin(5.0 * x) * np.sin(7.0 * y)


def default_desired_state(x, y):
    """Desired state of the control problem."""
    return np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y) * np.exp(2.0 * x) / 6.0


@dataclass
class ProblemDef:
    """Convex quadratic smooth part of an L0-constrained problem.

    ``smooth_value`` and ``smooth_grad`` act on full-length nodal vectors
    (boundary entries zero); ``hessian`` and ``q_smooth`` describe the same
    function on the free dofs via ``grad_free(u) = H u_free - q_smooth``.
    """

    system: FemSystem
    hessian: QuadraticOperator
    q_smooth: np.ndarray
    smooth_value: object
    smooth_grad: object
    tracking_error: object = None

    def unconstrained_minimizer(self):
        """Full-length minimizer of the smooth part, ``H^{-1} q``."""
        n = self.q_smooth.size
        u_free = self.hessian.solve_principal(np.arange(n), self.q_smooth)
        return self.system.expand(u_free)


def poisson_prototype(system: FemSystem) -> ProblemDef:
    """Dirichlet energy minus the load pairing, ``0.5 u'Au - b'u``."""
    A, b = system.A, system.b

    def value(u_full):
        u = system.restrict(u_full)
        return 0.5 * float(u @ (A @ u)) - float(b @ u)

    def grad(u_full):
        u = system.restrict(u_full)
        return system.expand(A @ u - b)

    hessian = QuadraticOperator.from_matrix(A, full_solver=system.grid_solver)
    return ProblemDef(system=system, hessian=hessian, q_smooth=b,
                      smooth_value=value, smooth_grad=grad)


@dataclass
class ControlConfig:
    """Regularization weights and desired state of the control problem."""

    alpha: float = 1e-7
    beta: float = None
    y_d: object = None

    def __post_init__(self):
        if self.beta is None:
            self.beta = self.alpha
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("regularization weights must be positive")
        if not np.isfinite([self.alpha, self.beta]).all():
            raise ValueError("regularization weights must be finite")
        if self.y_d is None:
            self.y_d = default_desired_state


def control_reduced(system: FemSystem, cfg: ControlConfig = None) -> ProblemDef:
    """Reduced tracking objective of the Poisson-constrained control problem.

    The state solves ``A y = M u``; the reduced objective is

        0.5 |y - y_d|_M^2  +  alpha/2 |u|_M^2  +  beta/2 |u|_A^2

    with the desired state interpolated at the nodes.  Gradients come from
    the adjoint equation; the Hessian action costs two stiffness solves
    (see :meth:`~dcl0.fem.FemSystem.stiffness_solve`).  On
    :func:`~dcl0.fem.build_structured_mesh`'s grid its principal solves are
    preconditioned by :func:`_grid_hessian_inverse`.
    """
    cfg = cfg or ControlConfig()
    A, M = system.A, system.M
    if M is None:
        raise ValueError("the control problem needs the mass matrix: "
                         "assemble(mesh, mass=True)")
    if callable(cfg.y_d):
        xy = system.mesh.nodes[system.free_nodes]
        yd = np.asarray(cfg.y_d(xy[:, 0], xy[:, 1]), dtype=float)
    else:
        yd = system.restrict(cfg.y_d)
    # the regularization alpha M + beta A, applied as one matrix
    R = (cfg.alpha * M + cfg.beta * A).tocsr()

    def state(u):
        return system.stiffness_solve(M @ u)

    def value(u_full):
        u = system.restrict(u_full)
        r = state(u) - yd
        return 0.5 * float(r @ (M @ r)) + 0.5 * float(u @ (R @ u))

    def grad(u_full):
        u = system.restrict(u_full)
        adjoint = system.stiffness_solve(M @ (state(u) - yd))
        return system.expand(M @ adjoint + R @ u)

    def hess_action(v):
        return M @ system.stiffness_solve(M @ state(v)) + R @ v

    def tracking_error(u_full):
        u = system.restrict(u_full)
        r = state(u) - yd
        return float(np.sqrt(r @ (M @ r)))

    q_smooth = M @ system.stiffness_solve(M @ yd)
    hessian = QuadraticOperator(
        hess_action, n=system.num_free,
        preconditioner=_grid_hessian_inverse(system, cfg))
    return ProblemDef(system=system, hessian=hessian, q_smooth=q_smooth,
                      smooth_value=value, smooth_grad=grad,
                      tracking_error=tracking_error)


def _grid_hessian_inverse(system: FemSystem, cfg: ControlConfig):
    """Sine-basis approximate inverse of the reduced Hessian
    ``H = M A^-1 M A^-1 M + alpha M + beta A`` on
    :func:`~dcl0.fem.build_structured_mesh`'s grid (see
    :meth:`~dcl0.fem.FemSystem.grid_solver`), otherwise None.

    The sine basis diagonalizes ``A`` exactly (eigenvalues ``lam``).  On
    the grid's triangulation (every cell cut along one diagonal) the P1
    mass matrix couples each node with weight ``M_ii / 6`` to its four axis
    neighbours and its two neighbours along that diagonal; its diagonal in
    the sine basis is ``mu_kl = (M_ii / 6)(6 + 2 c_k + 2 c_l + 2 c_k c_l)``,
    and what it drops of ``M`` has a zero diagonal there.  The result
    applies ``1 / (mu^3 / lam^2 + alpha mu + beta lam)`` in the sine basis.
    Every value is positive, so it is symmetric positive definite and only
    changes the iteration count of conjugate gradients.  (Chan, SIAM J.
    Sci. Stat. Comput. 1988, for the fast-transform approximation; Rees,
    Dollar & Wathen, SIAM J. Sci. Comput. 2010, for spectrally equivalent
    control preconditioners.)
    """
    grid = system.grid_solver()
    if grid is None:
        return None
    c_k, c_l = grid.cosines[:, None], grid.cosines[None, :]
    lam = grid.eigenvalues
    mu = (float(system.M.diagonal().mean()) / 6.0) * (
        6.0 + 2.0 * c_k + 2.0 * c_l + 2.0 * c_k * c_l)
    return grid.sine_diagonal(
        1.0 / (mu ** 3 / lam ** 2 + cfg.alpha * mu + cfg.beta * lam))
