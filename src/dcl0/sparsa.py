"""Nonmonotone Barzilai-Borwein proximal gradient (SpaRSA) for

    min_u  0.5 u'Hu - q'u + sum_j w_j |u_j|.

Serves as the weighted-L1 comparison baseline: candidate steps are
soft-threshold steps with a BB step length, accepted against the maximum of
the last few objective values minus a quadratic sufficient-decrease term.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .ssn import L1Weights, QuadraticOperator

__all__ = ["SparsaResult", "SparsaError", "sparsa_solve",
           "node_l1_weights"]


#: step rule: accept against the last WINDOW objective values with
#: sufficient decrease SIGMA, grow a rejected step length by ETA, and clip
#: the Barzilai-Borwein step length to [ALPHA_MIN, ALPHA_MAX]
WINDOW, ETA, SIGMA = 5, 2.0, 0.01
ALPHA_MIN, ALPHA_MAX = 1e-20, 1e20

#: stopping rule: both the relative objective change and the relative step
#: at most REL_TOL, within MAX_ITER iterations
REL_TOL, MAX_ITER = 1e-5, 20_000


class SparsaError(RuntimeError):
    """Iteration cap reached before the stopping test was met."""


@dataclass
class SparsaResult:
    u: np.ndarray
    iters: int
    history: list = field(default_factory=list)  # (objective, alpha, step)


def node_l1_weights(system, beta):
    """Per-node thresholds of the mesh-dependent L1 term on the free dofs:
    ``beta`` times the basis-function integrals, as :class:`L1Weights`."""
    return L1Weights(beta * system.basis_integral[system.free_nodes])


def sparsa_solve(H: QuadraticOperator, q, weights: L1Weights,
                 u0) -> SparsaResult:
    """Run SpaRSA from ``u0`` with the L1 thresholds ``weights.c``; stops
    when both the relative objective change and the relative step fall
    below ``REL_TOL``, and raises :class:`SparsaError` after ``MAX_ITER``
    iterations without that."""
    q = np.asarray(q, dtype=float)
    w = weights.c
    u = np.asarray(u0, dtype=float).copy()

    def phi(v):
        Hv = H.apply(v)
        return 0.5 * float(v @ Hv) - float(q @ v) + float(w @ np.abs(v)), Hv

    value, Hu = phi(u)
    grad = Hu - q
    window = deque([value], maxlen=WINDOW)
    history = [(value, np.nan, np.nan)]
    alpha = 1.0
    tiny = np.finfo(float).eps  # zero-denominator guard for the stop test
    for k in range(1, MAX_ITER + 1):
        ref = max(window)
        while True:
            u_next = _soft_threshold(u - grad / alpha, w / alpha)
            step = u_next - u
            step_sq = float(step @ step)
            value_next, Hu_next = phi(u_next)
            if value_next <= ref - 0.5 * SIGMA * alpha * step_sq:
                break
            if alpha >= ALPHA_MAX:
                break
            alpha = min(alpha * ETA, ALPHA_MAX)

        grad_next = Hu_next - q
        rel_obj = abs(value_next - value) / max(abs(value), tiny)
        rel_step = np.sqrt(step_sq) / max(float(np.linalg.norm(u_next)), tiny)
        history.append((value_next, alpha, float(np.sqrt(step_sq))))
        window.append(value_next)

        if step_sq > 0.0:
            dg = grad_next - grad
            alpha = float(step @ dg) / step_sq
            alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
        else:
            alpha = 1.0
        u, value, grad = u_next, value_next, grad_next
        if rel_obj <= REL_TOL and rel_step <= REL_TOL:
            return SparsaResult(u=u, iters=k, history=history)
    raise SparsaError(f"no convergence within {MAX_ITER} iterations")


def _soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
