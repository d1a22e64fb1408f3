"""In-memory span tracer and the per-layer metrics derived from it.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans are opened by wrappers that the
benchmark installs around calls into dcl0's layers, at the name each caller
resolves at call time; nothing inside ``dcl0`` knows about them.  A span's
self time is its duration minus the part of its interval covered by its
child spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

#: span name of the bookkeeping a wrapper does after a call returns (for
#: example counting factor nonzeros); it is a child of the enclosing span, so
#: no layer's self time contains it
BOOKKEEPING = "trace"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` runs in a
        bookkeeping span once the call has returned."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    with self.span(BOOKKEEPING):
                        after(result, args, kwargs)
            return result
        return wrapper


def self_times(spans):
    """Self time of every span: duration minus the union of the child
    intervals, clipped to the span's own interval."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_tracing(tracer: Tracer, patches: Patches):
    """Wrap the layer entry points of dcl0 at the names their callers use.

    Every callee is looked up where the caller resolves it at call time:
    module globals of ``dcl0.cli``/``dcl0.solver``/``dcl0.dc``, methods on
    ``FemSystem``/``QuadraticOperator``/``ProblemDef``, and the
    ``scipy.sparse.linalg`` module attributes ``splu``/``cg`` used by
    ``dcl0.fem`` and ``dcl0.ssn``.  ``splu`` spans count every SuperLU
    factorization; their parent span tells which layer asked for it.
    """
    import scipy.sparse.linalg as spla

    from dcl0 import cli, dc, fem, problems, solver, ssn

    counts = tracer.counts

    def wrap(owner, attr, name, after=None):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    def count_ssn(result, args, kwargs):
        counts["ssn.newton_steps"] += result.iters
        counts["ssn.converged"] += bool(result.converged)

    def count_active(result, args, kwargs):
        counts["ssn.active_dofs"] += len(args[1])

    def count_fill(lu, args, kwargs):
        # L and U are built as CSC copies; take one at a time
        counts["ssn.factor_nnz"] += lu.L.nnz
        counts["ssn.factor_nnz"] += lu.U.nnz

    def count_exact(selection, args, kwargs):
        counts["measures.exact"] += bool(selection.exact)

    def count_bytes(result, args, kwargs):
        counts["fem.field_bytes"] += os.path.getsize(args[0])

    def wrap_problem(problem, args, kwargs):
        # the Hessian action belongs to the problems layer only where
        # dcl0.problems defines it (matrix-free control); a matrix Hessian
        # is ssn's own sparse product
        hessian = problem.hessian
        if getattr(hessian.apply, "__module__", None) == problems.__name__:
            hessian.apply = tracer.wrap("problems.hess_action", hessian.apply)
        problem.smooth_value = tracer.wrap("problems.value", problem.smooth_value)

    def traced_dc_solve(original):
        @functools.wraps(original)
        def run(problem, u0, *args, **kwargs):
            wrapped = dc.DcProblem(
                g_solve=tracer.wrap("dc.subproblem", problem.g_solve),
                h_subgrad=tracer.wrap("dc.subgrad", problem.h_subgrad),
                objective=tracer.wrap("dc.objective", problem.objective))
            return original(wrapped, u0, *args, **kwargs)
        return tracer.wrap("dc.solve", run)

    for attr in ("build_structured_mesh", "import_mesh"):
        wrap(cli, attr, "fem.mesh")
    wrap(cli, "assemble", "fem.assemble")
    for attr in ("write_field", "read_field"):
        wrap(cli, attr, "fem.field_io", count_bytes)
    for module in (cli, solver):
        wrap(module, "w_of", "fem.w_of")
        wrap(module, "largest_k_auto", "measures.oracle", count_exact)
    for attr in ("poisson_prototype", "control_reduced"):
        wrap(cli, attr, "problems.build", wrap_problem)
    wrap(cli, "solve_l0_penalized", "solver.solve")
    wrap(solver, "optimality_report", "solver.report")
    wrap(solver, "largest_k_greedy", "measures.greedy")
    wrap(solver, "ssn_solve", "ssn.solve", count_ssn)
    patches.set(dc, "dc_solve", traced_dc_solve(dc.dc_solve))
    wrap(fem.FemSystem, "stiffness_solve", "fem.stiffness_solve")
    wrap(ssn.QuadraticOperator, "solve_principal", "ssn.principal", count_active)
    # ssn_solve estimates the norm once per call, when it first enters its
    # proximal-gradient fallback; nothing else on the solve path calls it
    wrap(ssn.QuadraticOperator, "norm_estimate", "ssn.norm_estimate")
    wrap(problems.ProblemDef, "unconstrained_minimizer", "problems.unconstrained")
    wrap(spla, "splu", "ssn.factor", count_fill)
    wrap(spla, "cg", "ssn.cg")


#: per-layer metric -> (kind, span name or counter); kinds: "calls" counts
#: spans, "self" sums their self time, "count" reads a counter, "ratio" is a
#: counter over the span count
LAYER_METRICS = {
    "fem.mesh_s": ("self", "fem.mesh"),
    "fem.assemble_s": ("self", "fem.assemble"),
    "fem.stiffness_solves": ("calls", "fem.stiffness_solve"),
    "fem.stiffness_solve_s": ("self", "fem.stiffness_solve"),
    "fem.w_of_calls": ("calls", "fem.w_of"),
    "fem.w_of_s": ("self", "fem.w_of"),
    "fem.field_io_s": ("self", "fem.field_io"),
    "fem.field_bytes": ("count", "fem.field_bytes"),
    "ssn.calls": ("calls", "ssn.solve"),
    "ssn.newton_steps": ("count", "ssn.newton_steps"),
    "ssn.self_s": ("self", "ssn.solve"),
    "ssn.principal_solves": ("calls", "ssn.principal"),
    "ssn.principal_s": ("self", "ssn.principal"),
    "ssn.active_dofs": ("count", "ssn.active_dofs"),
    "ssn.factorizations": ("calls", "ssn.factor"),
    "ssn.factor_s": ("self", "ssn.factor"),
    "ssn.factor_nnz": ("count", "ssn.factor_nnz"),
    "ssn.cg_s": ("self", "ssn.cg"),
    "ssn.converged_ratio": ("ratio", "ssn.converged", "ssn.solve"),
    "ssn.prox_fallbacks": ("calls", "ssn.norm_estimate"),
    "problems.build_s": ("self", "problems.build"),
    "problems.unconstrained_s": ("self", "problems.unconstrained"),
    "problems.hess_actions": ("calls", "problems.hess_action"),
    "problems.hess_action_s": ("self", "problems.hess_action"),
    "problems.value_calls": ("calls", "problems.value"),
    "problems.value_s": ("self", "problems.value"),
    "measures.greedy_calls": ("calls", "measures.greedy"),
    "measures.greedy_s": ("self", "measures.greedy"),
    "measures.oracle_calls": ("calls", "measures.oracle"),
    "measures.oracle_s": ("self", "measures.oracle"),
    "measures.exact_ratio": ("ratio", "measures.exact", "measures.oracle"),
    "dc.sweeps": ("calls", "dc.subproblem"),
    "dc.self_s": ("self", "dc.solve"),
    "dc.subgrad_s": ("self", "dc.subgrad"),
    "dc.subproblem_s": ("self", "dc.subproblem"),
    "dc.objective_s": ("self", "dc.objective"),
    "solver.self_s": ("self", "solver.solve"),
    "solver.report_s": ("self", "solver.report"),
}


def layer_metrics(spans, counts):
    """Evaluate :data:`LAYER_METRICS` on one op's spans and counters."""
    calls = Counter(span[0] for span in spans)
    self_s = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own
    out = {}
    for metric, (kind, key, *base) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = calls[key]
        elif kind == "self":
            out[metric] = self_s[key]
        elif kind == "count":
            out[metric] = counts[key]
        else:
            attempts = calls[base[0]]
            out[metric] = counts[key] / attempts if attempts else 0.0
    return out
