"""Generic difference-of-convex iteration for objectives ``g - h``.

The caller supplies a subproblem solver for the convex majorant (minimize
``g(u) - <s, u>`` given a tilt ``s``), a subgradient map for ``h``, and the
objective.  Each sweep linearizes ``h`` at the current iterate and minimizes
the resulting convex model; the iteration stops at a fixed point of the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DcProblem", "DcError", "dc_solve"]


class DcError(RuntimeError):
    """DC iteration failure; carries the iteration index."""

    def __init__(self, message, iteration):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class DcProblem:
    """Decomposition ``objective = g - h`` given through its solver pieces.

    ``g_solve(s, warm_start)`` returns a minimizer of ``g(u) - <s, u>``;
    ``h_subgrad(u, k)`` returns some subgradient of ``h`` at the iterate
    ``u`` that sweep ``k`` linearizes; ``objective(u, k)`` is the objective
    at the iterate sweep ``k`` produced, with ``k = -1`` for the start point.
    The sweep index lets a caller vary ``h`` from sweep to sweep.
    """

    g_solve: object
    h_subgrad: object
    objective: object


def dc_solve(problem: DcProblem, u0, max_iter=500, min_sweeps=1):
    """Run the DC iteration from ``u0``; returns ``(u, sweeps)``.

    Stops at the first sweep whose new iterate equals the previous one
    exactly, once at least ``min_sweeps`` sweeps have run, and raises
    :class:`DcError` after ``max_iter`` sweeps without that.  Only the
    objective at the start point is checked (it must be finite); the values
    after each sweep are left to the caller's ``objective``.
    """
    u = np.asarray(u0, dtype=float).copy()
    if not np.isfinite(problem.objective(u, -1)):
        raise DcError("objective not finite at the starting point", 0)
    for k in range(max_iter):
        s = problem.h_subgrad(u, k)
        try:
            u_next = np.asarray(problem.g_solve(s, u), dtype=float)
        except Exception as exc:
            raise DcError(f"subproblem solver failed: {exc}", k) from exc
        problem.objective(u_next, k)
        at_fixed_point = np.array_equal(u_next, u)
        u = u_next
        if at_fixed_point and k + 1 >= min_sweeps:
            return u, k + 1
    raise DcError(f"no fixed point after {max_iter} sweeps", max_iter)
