"""dcl0 benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a dcl0 checkout; dcl0 is imported from its ``src``.
``--workload all`` runs every workload in turn, each reported as below.
Ops run one after another, each in a fresh process (``ops.py``), until the
next op would overrun ``--seconds``.  Every op is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics
(medians over the ops), with ``--trace 1`` the per-layer metrics (medians
over the traced ops, which alternate with untraced ones so that the tracing
overhead is measured in the same run).  The exit code is 0 only when every
op passed its checks.  Spans of a traced run are written to
``.perfbench/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from meshgen import write_jittered_mesh
from ops import ROOT, SRC, WORKLOADS, mesh_path

OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
#: a run, including its last op, must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "total_s": "s",
              "peak_rss_mb": "MB", "objective_drop": "1"}


def thread_caps():
    """Environment of an op: BLAS/OpenMP threads capped at the CPU count."""
    cpus = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cpus
    return env


def machine_info():
    import numpy
    import scipy
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"machine={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def run_child(workload, work_dir, traced, timeout):
    """One op in its own process; returns its result dict with a ``wall_s``
    entry, or a failed result when the process crashes or times out."""
    argv = [sys.executable, str(Path(__file__).with_name("ops.py")),
            "--workload", workload, "--work-dir", str(work_dir)]
    if traced:
        argv.append("--traced")
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=thread_caps(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"op timed out after {timeout:.0f} s"],
                "wall_s": time.monotonic() - start, "traced": traced}
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"failures": [f"op process exited with code {proc.returncode}"],
                "wall_s": wall, "traced": traced}
    result = json.loads(lines[-1])
    result.update(wall_s=wall, traced=traced)
    return result


def run_ops(workload, work_dir, seconds, trace):
    """Ops until the next one would end after ``seconds``; with ``trace``
    every second op is traced.  Returns the op results."""
    ops = []
    min_ops = 2 if trace else 1
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = trace and len(ops) % 2 == 1
        ops.append(run_child(workload, work_dir, traced,
                             timeout=max(RUN_LIMIT_S - elapsed, 1.0)))
        elapsed = time.monotonic() - start
        longest = max(op["wall_s"] for op in ops)
        if elapsed + longest > (seconds if len(ops) >= min_ops else RUN_LIMIT_S):
            break
    return ops


def medians(results, key):
    names = results[0][key].keys() if results else ()
    return {name: statistics.median(r[key][name] for r in results)
            for name in names}


def summarize(ops, trace):
    """Metric name -> (value, unit) from the passing ops."""
    passed = [op for op in ops if not op["failures"]]
    if not trace:
        return {name: (value, END_TO_END[name])
                for name, value in medians(passed, "metrics").items()}
    from spans import LAYER_METRICS
    traced = [op for op in passed if op["traced"]]
    untraced = [op for op in passed if not op["traced"]]
    metrics = {}
    for name, value in medians(traced, "layers").items():
        kind = LAYER_METRICS.get(name, ("calls",))[0]
        unit = {"self": "s", "ratio": "ratio"}.get(kind, "count")
        metrics[name] = (value, unit)
    if traced and untraced:
        ratio = (statistics.median(op["metrics"]["total_s"] for op in traced)
                 / statistics.median(op["metrics"]["total_s"] for op in untraced))
        metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    return metrics


def run_workload(workload, seed, seconds, trace):
    """One benchmark run of ``workload``: prints its metrics, the JSON result
    line last, and returns whether every op passed."""
    work_dir = OUT / f"work-{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        mesh = WORKLOADS[workload]["mesh"]
        if mesh is not None:
            write_jittered_mesh(mesh_path(work_dir), *mesh, seed=seed)
        ops = run_ops(workload, work_dir, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [op for op in ops if op["failures"]]
    metrics = summarize(ops, trace)
    print(f"workload {workload} seed {seed}: {len(ops)} ops, "
          f"{len(failed)} failed; {machine_info()}; "
          f"threads capped at {len(os.sched_getaffinity(0))}")
    for i, op in enumerate(failed):
        print(f"  failed op {i}: {'; '.join(op['failures'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    if trace:
        trace_file = OUT / f"spans-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": seed,
             "span_fields": ["name", "start", "end", "parent"],
             "ops": [op["spans"] for op in ops if op.get("spans")]}))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return not failed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run dcl0 benchmark workloads")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default "
                             f"{DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills the running op and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dcl0" / "__init__.py").is_file():
        print(f"run.py: no dcl0 sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passed = [run_workload(name, args.seed, args.seconds, bool(args.trace))
              for name in workloads]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
