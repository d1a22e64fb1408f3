"""Generic difference-of-convex iteration for objectives ``g - h``.

The caller supplies a subproblem solver for the convex majorant (minimize
``g(u) - <s, u>`` given a tilt ``s``), a subgradient map for ``h``, and the
objective.  Each sweep linearizes ``h`` at the current iterate and minimizes
the resulting convex model; the iteration stops at a fixed point of the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DcProblem", "DcState", "DcError", "dc_solve"]


class DcError(RuntimeError):
    """DC iteration failure; carries the iteration index."""

    def __init__(self, message, iteration):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class DcProblem:
    """Decomposition ``objective = g - h`` given through its solver pieces.

    ``g_solve(s, warm_start)`` returns a minimizer of ``g(u) - <s, u>``;
    ``h_subgrad(u)`` returns some subgradient of ``h`` at ``u``.
    """

    g_solve: object
    h_subgrad: object
    objective: object


@dataclass
class DcState:
    """Final iterate, sweep count, the objective after every sweep and the
    way the run ended."""

    u: np.ndarray
    k: int
    objectives: list[float] = field(default_factory=list)
    status: str = "running"


def dc_solve(problem: DcProblem, u0, max_iter=500, *, iteration_hook,
             stop_allowed) -> DcState:
    """Run the DC iteration from ``u0``.

    Stops when the new iterate equals the previous one exactly or after
    ``max_iter`` sweeps.  ``iteration_hook(k)`` fires before sweep ``k``;
    ``stop_allowed(k)`` can veto termination (used by parameter schedules).
    """
    u = np.asarray(u0, dtype=float).copy()
    if not np.isfinite(problem.objective(u)):
        raise DcError("objective not finite at the starting point", 0)
    state = DcState(u=u, k=0)
    for k in range(max_iter):
        iteration_hook(k)
        s = problem.h_subgrad(u)
        try:
            u_next = np.asarray(problem.g_solve(s, u), dtype=float)
        except Exception as exc:
            raise DcError(f"subproblem solver failed: {exc}", k) from exc
        state.objectives.append(float(problem.objective(u_next)))
        state.k = k + 1
        at_fixed_point = np.array_equal(u_next, u)
        u = state.u = u_next
        if at_fixed_point and stop_allowed(k):
            state.status = "converged_fixed_point"
            return state
    state.status = "max_iter"
    return state
