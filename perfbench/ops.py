"""One benchmark op: a single dcl0 CLI run in a fresh process.

``python3 perfbench/ops.py --workload NAME --work-dir DIR [--traced]`` runs
the workload's command through ``dcl0.cli.main`` in this process, times its
phases, checks the result and prints one JSON object as its last line.  The
parent (``run.py``) starts one such process per op, so the peak RSS of each
op comes from a process that ran nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

K = 0.25
RHO = 1e9

#: per workload: CLI arguments besides the common budget/penalty/CSV ones,
#: whether the run writes and verifies nodal fields, and the jittered mesh
#: (grid size, jitter as a share of h) it imports, if any
WORKLOADS = {
    "poisson-grid": {"argv": ["poisson", "--n", "384"], "fields": True,
                     "mesh": None},
    "poisson-jitter-sched": {"argv": ["poisson", "--schedule", "0.9"],
                             "fields": False, "mesh": (192, 0.2)},
    "control-grid": {"argv": ["control", "--n", "128", "--alpha", "1e-7",
                              "--beta", "1e-7"],
                     "fields": False, "mesh": None},
}

# tolerances of ``dcl0 verify`` (cmd_verify) for l0 and gap recomputed from
# a written field
VERIFY_L0_TOL = 1e-9
VERIFY_GAP_RTOL = 1e-9


def mesh_path(work_dir):
    return Path(work_dir) / "mesh.txt"


def command(name, work_dir):
    """CLI arguments of one op of workload ``name``."""
    spec = WORKLOADS[name]
    work = Path(work_dir)
    argv = spec["argv"] + ["--K", repr(K), "--rho", repr(RHO),
                           "--csv", str(work / "run.csv")]
    if spec["fields"]:
        argv += ["--solution-out", str(work / "u.txt"),
                 "--multiplier-out", str(work / "mult.txt"), "--verify"]
    if spec["mesh"] is not None:
        argv += ["--mesh-file", str(mesh_path(work))]
    return argv


def element_sums(u, triangles):
    """Per-element sum of absolute nodal values (what ``w_of`` computes)."""
    return np.abs(np.asarray(u, dtype=float))[triangles].sum(axis=1)


def support_measure(w, areas):
    """Total area of the elements whose sum ``w`` is above dcl0's zero
    threshold: the l0 support measure."""
    from dcl0.measures import ZERO_THRESHOLD
    return float(areas[w > ZERO_THRESHOLD].sum())


def check_solution(sol, system, K, ssn_converged):
    """Failures of one penalized solve, as messages (empty when correct)."""
    failures = []
    if sol.status != "converged_fixed_point":
        failures.append(f"status {sol.status}")
    areas = system.elem_measure
    l0 = support_measure(element_sums(sol.u, system.mesh.triangles), areas)
    if l0 > K + 1e-12 * float(areas.sum()):
        failures.append(f"l0 {l0:.12g} exceeds the budget {K}")
    if not ssn_converged:
        failures.append("no semismooth Newton solve was observed")
    elif not all(ssn_converged):
        failures.append(f"{ssn_converged.count(False)} of {len(ssn_converged)} "
                        "semismooth Newton solves did not converge")
    scale = max((abs(row.objective) for row in sol.history), default=0.0)
    ascent = sol.max_ascent_at_target(K)
    if ascent > 1e-12 * (1.0 + scale):
        failures.append(f"penalized objective rose by {ascent:.3e} at the "
                        "target budget")
    return failures


def check_fields(work_dir, sol, system, K):
    """Recompute l0 and gap from the written solution field and compare them
    with the run's CSV row at ``dcl0 verify``'s tolerances."""
    from dcl0.fem import read_field
    from dcl0.measures import DiscreteMeasureSpace, largest_k_auto, weighted_l1

    work = Path(work_dir)
    failures = []
    u = read_field(work / "u.txt")
    if not np.array_equal(u, sol.u):
        failures.append("written solution field differs from the solution")
    if read_field(work / "mult.txt").size != u.size:
        failures.append("multiplier field has the wrong length")
    header, *rows = (work / "run.csv").read_text().splitlines()
    row = dict(zip(header.split(","), rows[-1].split(",")))
    elems = DiscreteMeasureSpace(system.elem_measure)
    w = element_sums(u, system.mesh.triangles)
    l1 = weighted_l1(w, elems)
    l0 = support_measure(w, system.elem_measure)
    gap = l1 - largest_k_auto(w, elems, K).value
    if abs(l0 - float(row["l0"])) > VERIFY_L0_TOL:
        failures.append(f"l0 from the field {l0!r} != reported {row['l0']}")
    if abs(gap - float(row["gap"])) > VERIFY_GAP_RTOL * max(l1, 1.0):
        failures.append(f"gap from the field {gap!r} != reported {row['gap']}")
    return failures


def run_op(name, work_dir, traced):
    """Run one op; returns a JSON-ready dict of metrics, failures and, when
    traced, per-layer metrics and spans."""
    from dcl0 import cli, solver
    from spans import Patches, Tracer, install_tracing, layer_metrics

    solves = []
    ssn_converged = []
    patches = Patches()

    def capture_solve(original):
        def run(problem, system, cfg):
            start = time.perf_counter()
            sol = original(problem, system, cfg)
            solves.append((problem, system, sol, start, time.perf_counter()))
            return sol
        return run

    def capture_ssn(original):
        def run(*args, **kwargs):
            result = original(*args, **kwargs)
            ssn_converged.append(bool(result.converged))
            return result
        return run

    patches.set(cli, "solve_l0_penalized", capture_solve(cli.solve_l0_penalized))
    patches.set(solver, "ssn_solve", capture_ssn(solver.ssn_solve))
    tracer = Tracer() if traced else None
    argv = command(name, work_dir)
    try:
        if tracer is not None:
            install_tracing(tracer, patches)
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("op"):
                    code = cli.main(argv)
            end = time.perf_counter()
    finally:
        patches.undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"failures": [], "metrics": {}, "layers": None, "spans": None}
    if code != 0:
        out["failures"].append(f"dcl0 exited with code {code}")
    if len(solves) != 1:
        out["failures"].append(f"expected one solve, saw {len(solves)}")
        return out
    problem, system, sol, solve_start, solve_end = solves[0]
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, tracer.counts)
        out["layers"]["solver.schedule_steps"] = sol.schedule_steps
        out["spans"] = tracer.spans[:]
    out["failures"] += check_solution(sol, system, K, ssn_converged)
    if WORKLOADS[name]["fields"]:
        out["failures"] += check_fields(work_dir, sol, system, K)
    f_zero = problem.smooth_value(np.zeros(system.mesh.num_nodes))
    out["metrics"] = {
        "setup_s": solve_start - start,
        "solve_s": solve_end - solve_start,
        "total_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "objective_drop": float(f_zero - sol.objective),
    }
    return out


def import_dcl0():
    """Import dcl0 from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import dcl0
    if Path(dcl0.__file__).resolve().parent != SRC / "dcl0":
        raise ImportError(f"dcl0 imported from {dcl0.__file__}, not {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    import_dcl0()
    print(json.dumps(run_op(args.workload, args.work_dir, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
