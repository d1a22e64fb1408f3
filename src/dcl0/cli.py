"""Experiment driver: reproduces the solver study tables and emits CSV rows
plus plain-text nodal fields for plotting.

Subcommands: poisson | control | sparsa | sweep | verify.  Each accepts only
the options of its own table in ``COMMANDS``.  The ``key = value`` lines of
``--config FILE`` act as ``--key=value`` flags placed ahead of the command
line, so a flag given on the command line wins; a key that is not an option
of the command is an error.  Exit codes: 0 success, 1 solver failure,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys

from .dc import DcError
# w_of and largest_k_auto are not called here: perfbench/spans.py patches them
from .fem import (FemSystem, MeshFormatError, assemble,
                  build_structured_mesh, import_mesh, read_field, w_of,
                  write_field)
from .measures import largest_k_auto
from .problems import ControlConfig, control_reduced, default_load, poisson_prototype
from .solver import (L0PenaltyConfig, penalty_sweep, scaled_gradient,
                     solve_l0_penalized, start_point, support_metrics)
from .sparsa import SparsaError, node_l1_weights, sparsa_solve
from .ssn import SsnError

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path, rows):
    """Write ``{column: value}`` rows under one header to a path or stdout."""
    lines = [",".join(rows[0])]
    lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_flags(path, spec):
    """The ``key = value`` lines of a config file as ``--key=value`` flags;
    every key must name an option of ``spec``."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    flags, unknown = [], set()
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in spec:
            unknown.add(name)
        flags.append(f"--{name.replace('_', '-')}={val.strip()}")
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return flags


def boolean(text):
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return word in ("1", "true", "yes")


def _float_list(text):
    # "" and "," are the empty list; an empty value among others is an error
    tokens = text.split(",")
    if not any(map(str.strip, tokens)):
        return []
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers") from None


def _mesh_from(opts):
    if opts.mesh_file:
        return import_mesh(opts.mesh_file)
    return build_structured_mesh(opts.n)


def _mesh_size(opts):
    """The summary CSV's ``n``: empty for a mesh file, which ignores it."""
    return "" if opts.mesh_file else opts.n


def _solver_config(opts, **settings):
    """The solve's settings, which solve_l0_penalized validates; ``u0`` is
    the ``--u0-file`` field, or None without one."""
    u0 = read_field(opts.u0_file) if opts.u0_file else None
    return L0PenaltyConfig(K=opts.K, schedule_lambda=opts.schedule,
                           zero_sign_policy=opts.zero_sign, u0=u0,
                           **settings)


def _write_iters(path, solution):
    if not path:
        return
    _write_csv(path, [{"k": row.k, "K_k": row.K, "objective": row.objective,
                       "gap": row.gap, "newton_iters": row.newton_iters,
                       "ssn_residual": row.ssn_residual}
                      for row in solution.history])


def _write_fields(opts, problem, system, u):
    if opts.solution_out:
        write_field(opts.solution_out, u)
    if opts.multiplier_out:
        write_field(opts.multiplier_out,
                    scaled_gradient(problem.smooth_grad(u), system))


#: verification tolerance: absolute on l0, relative to max(l1, 1) on the gap
VERIFY_TOL = 1e-9


def _recheck_field(path, system, K, reported_l0, reported_gap):
    """Recompute l0 and gap from a written solution field and compare them
    with the reported values; returns ``(ok, l0, gap)``."""
    l0, gap, sel = support_metrics(read_field(path), system, K)
    scale = max(gap + sel.value, 1.0)
    ok = (abs(l0 - reported_l0) <= VERIFY_TOL
          and abs(gap - reported_gap) <= VERIFY_TOL * scale)
    return ok, l0, gap


def _self_check(opts, system, reported_l0, reported_gap):
    """Re-derive l0 and gap from the emitted solution field."""
    if not opts.verify:
        return True
    ok, l0, gap = _recheck_field(opts.solution_out, system, opts.K,
                                 reported_l0, reported_gap)
    if not ok:
        print(f"verify: mismatch (l0 {l0} vs {reported_l0}, "
              f"gap {gap} vs {reported_gap})", file=sys.stderr)
    return ok


# option tables: {dest: (type, default)}, one per command, from three groups

#: mesh, budget and summary CSV: every command but verify
MESH_SPEC = {
    "n": (int, 128),
    "mesh_file": (str, None),
    "K": (float, 0.25),
    "csv": (str, None),
}

#: DC-solve settings: poisson, control and sweep; the --u0-file field is
#: the start point, the unconstrained minimizer without one
DC_SPEC = {
    "schedule": (float, None),
    "zero_sign": (str, "zero"),
    "u0_file": (str, None),
}

#: outputs of a single run: poisson, control and sparsa
RUN_OUTPUT_SPEC = {
    "solution_out": (str, None),
    "multiplier_out": (str, None),
    "verify": (boolean, False),
}


def _summary_row(opts, rho, sol, schedule, settings=(), errors=()):
    """Summary CSV columns of one penalized solve, in order: the setting
    (``settings`` after the penalty), the solution (``errors`` after the
    gap), its counters and, for a scheduled solve, the schedule."""
    row = {"n": _mesh_size(opts), "K": opts.K, "rho": rho, **dict(settings),
           "f": sol.objective, "l0": sol.l0, "gap": sol.gap, **dict(errors),
           "dc_iters": sol.dc_iters, "ssn_iters": sol.newton_iters,
           "selection_mode": "exact" if sol.gap_selection_exact else "greedy"}
    if schedule is not None:
        row.update(schedule_lambda=schedule, sched_steps=sol.schedule_steps)
    return row


def _penalized_runs(opts, system, runs):
    """Solve each ``(problem, settings)`` of ``runs``, one summary row each;
    the last solve writes the iteration CSV and fields and is verified."""
    cfg = _solver_config(opts, rho=opts.rho)
    rows = []
    for problem, settings in runs:
        sol = solve_l0_penalized(problem, system, cfg)
        errors = ({} if problem.tracking_error is None
                  else {"tracking_error": problem.tracking_error(sol.u)})
        rows.append(_summary_row(opts, opts.rho, sol, opts.schedule,
                                 settings, errors))
    _write_csv(opts.csv, rows)
    _write_iters(opts.iters_csv, sol)
    _write_fields(opts, problem, system, sol.u)
    return 0 if _self_check(opts, system, sol.l0, sol.gap) else 1


POISSON_SPEC = {**MESH_SPEC, "rho": (float, 1e9), **DC_SPEC,
                "iters_csv": (str, None), **RUN_OUTPUT_SPEC}


def cmd_poisson(opts):
    system = assemble(_mesh_from(opts), default_load, mass=False)
    return _penalized_runs(opts, system, [(poisson_prototype(system), {})])


CONTROL_SPEC = {**POISSON_SPEC,
                "alpha": (float, 1e-7),
                "beta": (_float_list, None),
                "y_d_file": (str, None)}


def cmd_control(opts):
    if opts.beta == []:
        raise ConfigError("no beta values in --beta")
    system = assemble(_mesh_from(opts))
    y_d = read_field(opts.y_d_file) if opts.y_d_file else None
    # one problem per beta, built just before its solve; beta None is alpha
    ctrls = (ControlConfig(alpha=opts.alpha, beta=beta, y_d=y_d)
             for beta in opts.beta or [None])
    runs = ((control_reduced(system, ctrl),
             {"alpha": ctrl.alpha, "beta": ctrl.beta}) for ctrl in ctrls)
    return _penalized_runs(opts, system, runs)


SPARSA_SPEC = {**MESH_SPEC, "u0_file": DC_SPEC["u0_file"], **RUN_OUTPUT_SPEC,
               "beta": (float, 4.360)}


def cmd_sparsa(opts):
    system = assemble(_mesh_from(opts), default_load, mass=False)
    problem = poisson_prototype(system)
    given = read_field(opts.u0_file) if opts.u0_file else None
    # check a given start point even where beta = 0 ignores it
    u0 = start_point(problem, given)
    if opts.beta == 0.0:
        # without the L1 term the answer is the unconstrained minimizer
        u_full = u0 if given is None else problem.unconstrained_minimizer()
        iters = 0
    else:
        res = sparsa_solve(problem.hessian, problem.q_smooth,
                           node_l1_weights(system, opts.beta),
                           system.restrict(u0))
        u_full, iters = system.expand(res.u), res.iters
    l0, gap, _ = support_metrics(u_full, system, opts.K)
    f = problem.smooth_value(u_full)
    _write_csv(opts.csv, [{"n": _mesh_size(opts), "K": opts.K,
                           "beta": opts.beta, "f": f, "l0": l0, "gap": gap,
                           "iters": iters}])
    _write_fields(opts, problem, system, u_full)
    return 0 if _self_check(opts, system, l0, gap) else 1


SWEEP_SPEC = {**MESH_SPEC, **DC_SPEC,
              "solution_out": RUN_OUTPUT_SPEC["solution_out"],
              "rhos": (_float_list, [1e3, 1e6, 1e9, 1e12])}


def cmd_sweep(opts):
    system = assemble(_mesh_from(opts), default_load, mass=False)
    problem = poisson_prototype(system)
    solutions = penalty_sweep(problem, system, _solver_config(opts),
                              opts.rhos)
    # only the first solve of a sweep runs the schedule: no schedule columns
    _write_csv(opts.csv, [_summary_row(opts, rho, sol, None)
                          for rho, sol in zip(opts.rhos, solutions)])
    if opts.solution_out:
        write_field(opts.solution_out, solutions[-1].u)
    return 0


#: the run's mesh size and budget come from its summary row
VERIFY_SPEC = {"mesh_file": MESH_SPEC["mesh_file"], "csv": MESH_SPEC["csv"],
               "solution_out": RUN_OUTPUT_SPEC["solution_out"]}


def cmd_verify(opts):
    if not opts.csv or not opts.solution_out:
        raise ConfigError("verify needs --csv and --solution-out")
    with open(opts.csv) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{opts.csv}: expected a header and a data row")
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    needed = ["K", "l0", "gap"] + ([] if opts.mesh_file else ["n"])
    missing = [name for name in needed if not row.get(name)]
    if missing:
        raise ConfigError(f"{opts.csv}: no {' or '.join(missing)} value")
    system = FemSystem(import_mesh(opts.mesh_file) if opts.mesh_file
                       else build_structured_mesh(int(row["n"])))
    ok, l0, gap = _recheck_field(opts.solution_out, system, float(row["K"]),
                                 float(row["l0"]), float(row["gap"]))
    print(f"l0 recomputed {l0:.12g} reported {row['l0']}; "
          f"gap recomputed {gap:.12g} reported {row['gap']}: "
          f"{'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


COMMANDS = {
    "poisson": (cmd_poisson, POISSON_SPEC),
    "control": (cmd_control, CONTROL_SPEC),
    "sparsa": (cmd_sparsa, SPARSA_SPEC),
    "sweep": (cmd_sweep, SWEEP_SPEC),
    "verify": (cmd_verify, VERIFY_SPEC),
}


def _add_options(parser, spec):
    for name, (convert, default) in spec.items():
        # a bare --verify means --verify=true, the form a config line gives
        bare = {"nargs": "?", "const": True} if convert is boolean else {}
        parser.add_argument("--" + name.replace("_", "-"), type=convert,
                            default=default, **bare)
    parser.add_argument("--config", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcl0",
        description="support-measure constrained quadratic solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, spec) in COMMANDS.items():
        # no abbreviations: --rho must not stand for sweep's --rhos
        _add_options(sub.add_parser(name, allow_abbrev=False), spec)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
        run, spec = COMMANDS[opts.command]
        if opts.config:
            at = argv.index(opts.command) + 1
            opts = parser.parse_args(
                argv[:at] + _config_flags(opts.config, spec) + argv[at:])
        if getattr(opts, "verify", False) and not opts.solution_out:
            raise ConfigError(f"{opts.command} --verify needs --solution-out")
        return run(opts)
    except SystemExit as exc:
        # argparse has printed the usage error (status 2) or --help (0)
        return exc.code
    # MeshFormatError subclasses ValueError (as does ConfigError): catch it
    # before the configuration errors
    except (DcError, SsnError, SparsaError, MeshFormatError, OSError) as exc:
        print(f"dcl0: solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"dcl0: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
