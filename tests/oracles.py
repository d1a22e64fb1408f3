"""Reference solvers and residuals that the tests and the acceptance
criteria compare dcl0 against; no command runs them."""

import numpy as np

from dcl0.measures import DiscreteMeasureSpace, largest_k_auto, weighted_l1
from dcl0.ssn import (L1Weights, QuadraticOperator, SsnError, _residual_parts,
                      _soft_threshold)


def f_tau_residual(u, H: QuadraticOperator, q, weights: L1Weights, tau,
                   tilt=None):
    """Projected optimality residual of the weighted-L1 quadratic problem."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    u = np.asarray(u, dtype=float)
    tilt = np.zeros_like(u) if tilt is None else tilt
    base_g = H.apply(u) - q
    F, _, _ = _residual_parts(u, base_g, tilt, weights.c, tau)
    return F


def prox_grad_oracle(H: QuadraticOperator, q, weights: L1Weights, tol=1e-12,
                     max_iter=500_000, u0=None):
    """Independent proximal-gradient (ISTA) solver of the same subproblem.

    Iterates ``u <- soft(u - (Hu - q)/L, c/L)`` with ``L`` an upper bound on
    the largest eigenvalue of H, until the fixed-point update moves less
    than ``tol`` in the max norm.
    """
    q = np.asarray(q, dtype=float)
    c = weights.c
    lipschitz = 1.01 * max(H.norm_estimate(), 1e-300)
    u = np.zeros(q.size) if u0 is None else np.asarray(u0, dtype=float).copy()
    for _ in range(max_iter):
        grad = H.apply(u) - q
        u_next = _soft_threshold(u - grad / lipschitz, c / lipschitz)
        step = float(np.max(np.abs(u_next - u))) if u.size else 0.0
        u = u_next
        if step <= tol:
            return u
    raise SsnError(f"proximal gradient did not reach tol={tol} "
                   f"within {max_iter} iterations")


def reformulation_gap(x, space: DiscreteMeasureSpace, budget) -> float:
    """Gap ``l1 - largest_k``; zero exactly when the support measure fits
    the budget (nonnegative whenever the exact oracle was used)."""
    sel = largest_k_auto(x, space, budget)
    return weighted_l1(x, space) - sel.value
