"""Generic difference-of-convex iteration for objectives ``g - h``.

The caller supplies a subproblem solver for the convex majorant (minimize
``g(u) - <s, u>`` given a tilt ``s``), a subgradient map for ``h``, and the
objective.  Each sweep linearizes ``h`` at the current iterate and minimizes
the resulting convex model; the iteration stops at a fixed point of the map.
An inexact mode tracks the subproblem stationarity residuals against a
summability budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DcProblem", "DcRecord", "DcState", "DcError", "dc_solve",
           "criticality_residual"]


class DcError(RuntimeError):
    """DC iteration failure; carries the iteration index."""

    def __init__(self, message, iteration):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class DcProblem:
    """Decomposition ``objective = g - h`` given through its solver pieces.

    ``g_solve(s, warm_start) -> (u, residual)`` returns an (approximate)
    minimizer of ``g(u) - <s, u>`` together with its stationarity residual
    (0 for an exact solve); ``h_subgrad(u)`` returns some subgradient of
    ``h`` at ``u``.
    """

    g_solve: object
    h_subgrad: object
    objective: object


@dataclass
class DcRecord:
    objective: float
    step_norm: float
    residual: float


@dataclass
class DcState:
    u: np.ndarray
    s: np.ndarray
    k: int
    history: list[DcRecord] = field(default_factory=list)
    status: str = "running"

    @property
    def objectives(self):
        return np.array([rec.objective for rec in self.history])


def dc_solve(problem: DcProblem, u0, max_iter=500, fixed_point_tol=0.0,
             residual_budget=None, iteration_hook=None,
             stop_allowed=None) -> DcState:
    """Run the DC iteration from ``u0``.

    Stops when the new iterate equals the previous one (exact comparison for
    ``fixed_point_tol == 0``, the default, otherwise a norm test) or after
    ``max_iter`` sweeps.  ``iteration_hook(k)`` fires before sweep ``k``;
    ``stop_allowed(k)`` can veto termination (used by parameter schedules).
    With ``residual_budget`` set, the accumulated squared subproblem
    residuals must stay within the budget or the run aborts.
    """
    u = np.asarray(u0, dtype=float).copy()
    if not np.isfinite(problem.objective(u)):
        raise DcError("objective not finite at the starting point", 0)
    state = DcState(u=u, s=np.zeros_like(u), k=0)
    residual_sq = 0.0
    for k in range(max_iter):
        if iteration_hook is not None:
            iteration_hook(k)
        s = problem.h_subgrad(u)
        try:
            u_next, eps = problem.g_solve(s, u)
        except Exception as exc:
            raise DcError(f"subproblem solver failed: {exc}", k) from exc
        u_next = np.asarray(u_next, dtype=float)
        residual_sq += float(eps) ** 2
        if residual_budget is not None and residual_sq > residual_budget:
            raise DcError(
                f"residual budget exhausted ({residual_sq:.3e} > "
                f"{residual_budget:.3e})", k)
        step = float(np.linalg.norm(u_next - u))
        state.history.append(DcRecord(objective=float(problem.objective(u_next)),
                                      step_norm=step, residual=float(eps)))
        state.k = k + 1
        state.s = s
        if fixed_point_tol == 0.0:
            at_fixed_point = np.array_equal(u_next, u)
        else:
            at_fixed_point = step <= fixed_point_tol
        u = u_next
        state.u = u
        if at_fixed_point and (stop_allowed is None or stop_allowed(k)):
            state.status = "converged_fixed_point"
            return state
    state.status = "max_iter"
    return state


def criticality_residual(problem: DcProblem, u, s) -> float:
    """Distance of ``u`` from being a critical point along subgradient ``s``:
    re-solve the convex model tilted by ``s`` from ``u`` and measure how far
    the solver moves plus its reported stationarity residual."""
    u = np.asarray(u, dtype=float)
    v, eps = problem.g_solve(s, u)
    return float(np.linalg.norm(np.asarray(v) - u)) + float(eps)
