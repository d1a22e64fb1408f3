"""Penalized solver for support-measure constrained quadratic problems.

The support constraint (measure of the support of the piecewise linear
function at most K) is reformulated through per-element absolute-value sums
as a difference of the weighted L1 norm and the largest-K-norm, penalized
with a factor rho, and minimized by the DC iteration: each sweep picks a
knapsack selection for the largest-K term, tilts the convex remainder by the
corresponding subgradient, and solves the resulting weighted-L1 quadratic
subproblem with the semismooth Newton method.  A continuation schedule can
tighten the budget from the full domain measure down to K.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dc
from .fem import FemSystem, w_of
from .measures import (BUDGET_RTOL, DiscreteMeasureSpace, KSelection,
                       complete_selection, greedy_order, largest_k_auto,
                       largest_k_greedy, subgradient_largest_k,
                       unselected_sum, weighted_l0)
from .problems import ProblemDef
from .ssn import SSN_TOL, L1Weights, SsnError, ssn_solve

__all__ = ["L0PenaltyConfig", "L0Solution", "IterationRow",
           "OptimalityReport", "solve_l0_penalized", "support_metrics",
           "scaled_gradient", "optimality_report", "penalty_sweep",
           "start_point"]

ZERO_SIGN_POLICIES = ("zero", "plus", "minus", "sign_of_load")

#: DC sweeps allowed after the budget schedule has reached the target K
MAX_SWEEPS = 500


@dataclass
class L0PenaltyConfig:
    """Parameters of one penalized solve.

    ``K`` is the support-measure budget, ``rho`` the penalty factor.  With
    ``schedule_lambda`` set, the budget starts at the full domain measure
    and shrinks geometrically until it reaches ``K``; termination is only
    allowed afterwards, and at most ``MAX_SWEEPS`` sweeps follow the
    schedule's last step.  ``zero_sign_policy`` chooses the sign the
    subgradient tilt takes on zero nodal components.  The iteration starts
    from ``u0`` (see :func:`start_point`), or from the unconstrained
    minimizer when ``u0`` is None.
    """

    K: float
    rho: float = 1e9
    schedule_lambda: float = None
    zero_sign_policy: str = "zero"
    u0: np.ndarray = None

    def validate(self, total_measure):
        if not 0.0 < self.K <= total_measure * (1.0 + BUDGET_RTOL):
            raise ValueError(f"K={self.K} outside (0, {total_measure}]")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if not np.isfinite(self.rho):
            raise ValueError("rho must be finite")
        if self.schedule_lambda is not None and not 0.0 < self.schedule_lambda < 1.0:
            raise ValueError("schedule_lambda must lie in (0, 1)")
        if self.zero_sign_policy not in ZERO_SIGN_POLICIES:
            raise ValueError(f"unknown zero_sign_policy {self.zero_sign_policy!r}")


@dataclass
class IterationRow:
    k: int
    K: float
    objective: float
    gap: float
    newton_iters: int
    ssn_residual: float


@dataclass
class OptimalityReport:
    """Discrete counterparts of the stationarity conditions of the penalized
    problem, from the scaled gradient ``ghat_j = grad_j / patch_measure_j``.

    ``support_in_selection_max`` should be near zero, ``support_off_selection_max``
    near zero as well (it measures ``|ghat + rho sign(u)|`` where the support
    leaks out of the selection), and ``off_support_max`` at most rho.  The
    exact-penalty flag checks ``rho > max_j |ghat_j|``.
    """

    pairing: float
    support_in_selection_max: float
    support_off_selection_max: float
    off_support_max: float
    max_scaled_gradient: float
    exact_penalty: bool


@dataclass
class L0Solution:
    u: np.ndarray
    objective: float
    l0: float
    gap: float
    gap_selection_exact: bool
    dc_iters: int
    newton_iters: int
    schedule_steps: int
    diagnostics: OptimalityReport
    history: list[IterationRow] = field(default_factory=list)
    # the only ending a solution can have: every other one raises DcError
    status: str = "converged_fixed_point"

    def max_ascent_at_target(self, K):
        """Largest objective increase between consecutive iterations whose
        budget already equals the target K; acceptance criterion 12 and
        ``perfbench/ops.py`` read it."""
        vals = [row.objective for row in self.history if row.K == K]
        if len(vals) < 2:
            return 0.0
        return float(np.max(np.diff(vals), initial=0.0))


def _budgets(total, K, lam):
    """Selection budgets of the continuation schedule: the full measure,
    shrunk geometrically by ``lam`` down to ``K``; just ``[K]`` without a
    schedule.  Sweep ``k`` selects at entry ``min(k + 1, steps)``."""
    budgets = [total if lam is not None else K]
    while budgets[-1] != K:
        budgets.append(max(lam * budgets[-1], K))
    return budgets


def start_point(problem: ProblemDef, u0):
    """A copy of ``u0``, a full-length nodal vector that must vanish on the
    Dirichlet nodes, or the unconstrained minimizer when ``u0`` is None."""
    if u0 is None:
        return problem.unconstrained_minimizer()
    u0 = np.array(u0, dtype=float)
    mesh = problem.system.mesh
    if u0.shape != (mesh.num_nodes,):
        raise ValueError("u0 must be a full-length nodal vector")
    if np.any(u0[mesh.boundary_nodes] != 0.0):
        raise ValueError("u0 must vanish on the Dirichlet boundary nodes")
    return u0


def solve_l0_penalized(problem: ProblemDef, system: FemSystem,
                       cfg: L0PenaltyConfig) -> L0Solution:
    """Run the penalized DC iteration and assemble the solution report;
    raises DcError unless the run ends at a fixed point at the target K."""
    elems = DiscreteMeasureSpace(system.elem_measure)
    cfg.validate(elems.total_measure())
    free = system.free_nodes
    weights = L1Weights(cfg.rho * system.patch_measure[free])
    budgets = _budgets(elems.total_measure(), cfg.K, cfg.schedule_lambda)
    steps = len(budgets) - 1
    if cfg.zero_sign_policy == "sign_of_load":
        zero_sign = np.sign(system.expand(problem.q_smooth))
    else:
        zero_sign = {"zero": 0.0, "plus": 1.0,
                     "minus": -1.0}[cfg.zero_sign_policy]

    rows, ssn_results = [], []
    # the objective at the iterate of sweep k and the subgradient that
    # sweep k + 1 takes there share its element sums and their greedy
    # order, and its selection unless the schedule moves the budget between
    # them; so does the iterate of a sweep that returns the same values,
    # as the last sweep does at the fixed point
    last = {"u": None, "w": None, "order": None, "budget": None, "sel": None}

    def selection_at(u_full, budget):
        if not np.array_equal(last["u"], u_full):
            w = w_of(u_full, system)
            last.update(u=u_full, w=w, order=greedy_order(w), budget=None)
        if last["budget"] != budget:
            last.update(budget=budget,
                        sel=largest_k_greedy(last["w"], elems, budget,
                                             order=last["order"]))
        return last["w"], last["sel"]

    def h_subgrad(u_full, k):
        budget = budgets[min(k + 1, steps)]
        w, sel = selection_at(u_full, budget)
        # a maximizing set may be completed with zero-valued atoms at no
        # cost; without them the tilt vanishes on zero components and the
        # nonzero sign policies could never act from a zero iterate
        r = subgradient_largest_k(
            w, elems, complete_selection(sel, w, elems, budget))
        a = np.where(u_full == 0.0, zero_sign, np.sign(u_full))
        return cfg.rho * (system.node_sums(r) * a)

    def g_solve(s_full, warm_full):
        warm = system.restrict(warm_full)
        res = ssn_solve(problem.hessian, problem.q_smooth, weights,
                        u0=warm, tilt=s_full[free])
        if not res.converged:
            # dc_solve reports this as a DcError of the current sweep
            raise SsnError(f"semismooth Newton stopped after {res.iters} "
                           f"steps at residual {res.residual:.3e} "
                           f"(tol {SSN_TOL:g}, scaled to the data once "
                           "the classification repeats)")
        ssn_results.append(res)
        return system.expand(res.u)

    def objective(u_full, k):
        budget = budgets[min(k + 1, steps)]
        w, sel = selection_at(u_full, budget)
        gap = unselected_sum(w, elems, sel)
        value = problem.smooth_value(u_full) + cfg.rho * gap
        if k >= 0:
            res = ssn_results[k]
            rows.append(IterationRow(k=k, K=budget, objective=float(value),
                                     gap=gap, newton_iters=res.iters,
                                     ssn_residual=res.residual))
        return value

    u0 = start_point(problem, cfg.u0)
    dc_problem = dc.DcProblem(g_solve=g_solve, h_subgrad=h_subgrad,
                              objective=objective)
    u, sweeps = dc.dc_solve(dc_problem, u0, max_iter=steps + MAX_SWEEPS,
                            min_sweeps=steps)

    l0, gap, final_sel = support_metrics(u, system, cfg.K)
    report = optimality_report(u, problem, system, cfg.rho, final_sel)
    return L0Solution(u=u, objective=float(problem.smooth_value(u)),
                      l0=l0, gap=float(gap),
                      gap_selection_exact=final_sel.exact, dc_iters=sweeps,
                      newton_iters=sum(row.newton_iters for row in rows),
                      schedule_steps=steps, diagnostics=report, history=rows)


def support_metrics(u, system: FemSystem, K):
    """``(l0, gap, selection)`` of the element sums ``w`` of a nodal field:
    support measure, gap ``l1 - |w|_K`` (:func:`unselected_sum`) and the
    largest-K selection (exact where an oracle applies, else greedy)."""
    elems = DiscreteMeasureSpace(system.elem_measure)
    w = w_of(u, system)
    sel = largest_k_auto(w, elems, K)
    return weighted_l0(w, elems), unselected_sum(w, elems, sel), sel


def scaled_gradient(grad_full, system: FemSystem):
    """Full-length gradient divided by the patch measures on the free
    nodes, zero on the boundary: the discrete multiplier field."""
    out = np.zeros_like(grad_full)
    free = system.free_nodes
    out[free] = grad_full[free] / system.patch_measure[free]
    return out


def optimality_report(u, problem: ProblemDef, system: FemSystem, rho,
                      selection: KSelection) -> OptimalityReport:
    """Evaluate the discrete stationarity conditions at a candidate ``u``
    against a largest-K ``selection`` of its element sums (the one
    :func:`support_metrics` returns)."""
    u = np.asarray(u, dtype=float)
    grad_full = problem.smooth_grad(u)
    free = system.free_nodes
    ghat = scaled_gradient(grad_full, system)[free]
    pairing = float(grad_full @ u)

    selected = np.zeros(system.elem_measure.size)
    selected[selection.indices] = 1.0
    covered = system.node_sums(selected)[free]
    patch_count = system.node_sums(np.ones_like(selected))[free]
    u_free = u[free]
    supported = u_free != 0.0
    fully_in = covered == patch_count
    none_in = covered == 0.0

    def max_over(mask, values):
        return float(np.max(np.abs(values[mask]))) if np.any(mask) else 0.0

    in_sel = max_over(supported & fully_in, ghat)
    off_sel = max_over(supported & none_in, ghat + rho * np.sign(u_free))
    off_supp = max_over(~supported, ghat)
    gmax = float(np.max(np.abs(ghat))) if ghat.size else 0.0
    return OptimalityReport(pairing=pairing, support_in_selection_max=in_sel,
                            support_off_selection_max=off_sel,
                            off_support_max=off_supp, max_scaled_gradient=gmax,
                            exact_penalty=bool(rho > gmax))


def penalty_sweep(problem: ProblemDef, system: FemSystem,
                  cfg: L0PenaltyConfig, rhos) -> list[L0Solution]:
    """Solve for each penalty value in increasing order, warm-starting every
    solve from the previous solution."""
    rhos = [float(r) for r in rhos]
    if not rhos:
        raise ValueError("no penalty values to sweep")
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("penalty values must be strictly increasing")
    solutions = []
    current = cfg
    for rho in rhos:
        current = replace(current, rho=rho)
        sol = solve_l0_penalized(problem, system, current)
        solutions.append(sol)
        current = replace(current, u0=sol.u, schedule_lambda=None)
    return solutions
