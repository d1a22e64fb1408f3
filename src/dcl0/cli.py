"""Experiment driver: reproduces the solver study tables and emits CSV rows
plus plain-text nodal fields for plotting.

Subcommands: poisson | control | sparsa | sweep | verify.  Options resolve
as flags > config file (key=value lines) > defaults.  Exit codes: 0 success,
1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .dc import DcError
# w_of and largest_k_auto are not called here: perfbench/spans.py patches them
from .fem import (MeshFormatError, assemble, build_structured_mesh,
                  import_mesh, read_field, w_of, write_field)
from .measures import OracleLimitError, largest_k_auto
from .problems import ControlConfig, control_reduced, default_load, poisson_prototype
from .solver import (L0PenaltyConfig, penalty_sweep, scaled_gradient,
                     solve_l0_penalized, support_metrics)
from .sparsa import SparsaConfig, SparsaError, node_l1_weights, sparsa_solve
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


def _load_config_file(path):
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args, option_spec):
    """Merge CLI flags, config-file entries and defaults."""
    from_file = {}
    if getattr(args, "config", None):
        from_file = _load_config_file(args.config)
    resolved = {}
    for name, (convert, default) in option_spec.items():
        flag = getattr(args, name, None)
        if flag is not None:
            resolved[name] = flag
        elif name in from_file:
            raw = from_file[name]
            try:
                resolved[name] = convert(raw)
            except ValueError as exc:
                raise ConfigError(f"config value {name}={raw!r}: {exc}") from exc
        else:
            resolved[name] = default
    unknown = set(from_file) - set(option_spec)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return argparse.Namespace(**resolved)


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _mesh_from(opts):
    if opts.mesh_file:
        return import_mesh(opts.mesh_file)
    return build_structured_mesh(opts.n)


def _solver_config(opts):
    # solve_l0_penalized validates the settings
    policy = opts.u0
    u0 = None
    if opts.u0_file:
        policy = "custom"
        u0 = read_field(opts.u0_file)
    return L0PenaltyConfig(K=opts.K, rho=opts.rho,
                           schedule_lambda=opts.schedule,
                           zero_sign_policy=opts.zero_sign,
                           u0_policy=policy, u0=u0, max_iter=opts.max_iter)


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


COMMON_SPEC = {
    "n": (int, 128),
    "mesh_file": (str, None),
    "K": (float, 0.25),
    "rho": (float, 1e9),
    "schedule": (float, None),
    "zero_sign": (str, "zero"),
    "u0": (str, "unconstrained_solve"),
    "u0_file": (str, None),
    "max_iter": (int, 500),
    "csv": (str, None),
    "iters_csv": (str, None),
    "solution_out": (str, None),
    "multiplier_out": (str, None),
    "verify": (lambda s: s.lower() in ("1", "true", "yes"), False),
}


def _summary_row(opts, rho, sol, schedule, settings=(), errors=()):
    """Summary CSV columns of one penalized solve, in order: the setting
    (``settings`` after the penalty), the solution (``errors`` after the
    gap), its counters and, for a scheduled solve, the schedule."""
    row = {"n": opts.n, "K": opts.K, "rho": rho, **dict(settings),
           "f": sol.objective, "l0": sol.l0, "gap": sol.gap, **dict(errors),
           "dc_iters": sol.dc_iters, "ssn_iters": sol.newton_iters,
           "selection_mode": "exact" if sol.gap_selection_exact else "greedy"}
    if schedule is not None:
        row.update(schedule_lambda=schedule, sched_steps=sol.schedule_steps)
    return row


def _penalized_runs(opts, system, runs):
    """Solve each ``(problem, settings)`` of ``runs``, one summary row each;
    the last solve writes the iteration CSV and fields and is verified."""
    cfg = _solver_config(opts)
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


def cmd_poisson(opts):
    system = assemble(_mesh_from(opts), default_load)
    return _penalized_runs(opts, system, [(poisson_prototype(system), {})])


CONTROL_SPEC = dict(COMMON_SPEC)
CONTROL_SPEC.update({
    "alpha": (float, 1e-7),
    "beta": (float, None),
    "betas": (_float_list, None),
    "y_d_file": (str, None),
})


def cmd_control(opts):
    system = assemble(_mesh_from(opts))
    y_d = read_field(opts.y_d_file) if opts.y_d_file else None
    # one problem at a time, built just before its solve
    ctrls = (ControlConfig(alpha=opts.alpha, beta=beta, y_d=y_d)
             for beta in opts.betas or [opts.beta])
    runs = ((control_reduced(system, ctrl),
             {"alpha": ctrl.alpha, "beta": ctrl.beta}) for ctrl in ctrls)
    return _penalized_runs(opts, system, runs)


SPARSA_SPEC = dict(COMMON_SPEC)
SPARSA_SPEC.update({
    "beta": (float, 4.360),
    "rel_tol": (float, 1e-5),
    "sparsa_max_iter": (int, 20_000),
})


def cmd_sparsa(opts):
    system = assemble(_mesh_from(opts), default_load)
    problem = poisson_prototype(system)
    cfg = SparsaConfig(rel_tol=opts.rel_tol, max_iter=opts.sparsa_max_iter)
    # read and length-check the start point even where beta = 0 ignores it
    u0 = system.restrict(read_field(opts.u0_file)) if opts.u0_file else None
    if opts.beta == 0.0:
        u_full, iters = problem.unconstrained_minimizer(), 0
    else:
        if u0 is None:
            u0 = system.restrict(problem.unconstrained_minimizer())
        res = sparsa_solve(problem.hessian, problem.q_smooth,
                           node_l1_weights(system, opts.beta), cfg, u0)
        u_full, iters = system.expand(res.u), res.iters
    l0, gap, _ = support_metrics(u_full, system, opts.K)
    _write_csv(opts.csv, [{"n": opts.n, "K": opts.K, "beta": opts.beta,
                           "f": problem.smooth_value(u_full), "l0": l0,
                           "gap": gap, "iters": iters}])
    _write_fields(opts, problem, system, u_full)
    return 0 if _self_check(opts, system, l0, gap) else 1


SWEEP_SPEC = dict(COMMON_SPEC)
SWEEP_SPEC.update({
    "rhos": (_float_list, [1e3, 1e6, 1e9, 1e12]),
})


#: options of COMMON_SPEC that a sweep has no single run to apply to
SWEEP_UNSUPPORTED = ("verify", "iters_csv", "multiplier_out")


def cmd_sweep(opts):
    system = assemble(_mesh_from(opts), default_load)
    problem = poisson_prototype(system)
    solutions = penalty_sweep(problem, system, _solver_config(opts), opts.rhos)
    # only the first solve of a sweep runs the schedule: no schedule columns
    _write_csv(opts.csv, [_summary_row(opts, rho, sol, None)
                          for rho, sol in zip(opts.rhos, solutions)])
    if opts.solution_out:
        write_field(opts.solution_out, solutions[-1].u)
    return 0


VERIFY_SPEC = {name: COMMON_SPEC[name]
               for name in ("n", "mesh_file", "K", "csv", "solution_out")}


def cmd_verify(opts):
    if not opts.csv or not opts.solution_out:
        raise ConfigError("verify needs --csv and --solution-out")
    with open(opts.csv) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{opts.csv}: expected a header and a data row")
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    missing = [name for name in ("l0", "gap") if name not in row]
    if missing:
        raise ConfigError(f"{opts.csv}: no {' or '.join(missing)} column")
    system = assemble(_mesh_from(opts))
    ok, l0, gap = _recheck_field(opts.solution_out, system, opts.K,
                                 float(row["l0"]), float(row["gap"]))
    print(f"l0 recomputed {l0:.12g} reported {row['l0']}; "
          f"gap recomputed {gap:.12g} reported {row['gap']}: "
          f"{'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


COMMANDS = {
    "poisson": (cmd_poisson, COMMON_SPEC),
    "control": (cmd_control, CONTROL_SPEC),
    "sparsa": (cmd_sparsa, SPARSA_SPEC),
    "sweep": (cmd_sweep, SWEEP_SPEC),
    "verify": (cmd_verify, VERIFY_SPEC),
}


def _add_options(parser, spec):
    for name, (convert, _default) in spec.items():
        flag = "--" + name.replace("_", "-")
        if name == "verify":
            parser.add_argument(flag, action="store_const", const=True,
                                dest=name, default=None)
        else:
            parser.add_argument(flag, type=convert, dest=name, default=None)
    parser.add_argument("--config", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcl0",
        description="support-measure constrained quadratic solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, spec) in COMMANDS.items():
        _add_options(sub.add_parser(name), spec)
    return parser


def _check_outputs(command, opts):
    """Reject output options that the command cannot honour."""
    if command == "sweep":
        given = [name for name in SWEEP_UNSUPPORTED if getattr(opts, name)]
        if given:
            raise ConfigError("sweep does not support " + ", ".join(
                "--" + name.replace("_", "-") for name in given))
    elif getattr(opts, "verify", False) and not opts.solution_out:
        raise ConfigError(f"{command} --verify needs --solution-out")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, spec = COMMANDS[args.command]
    try:
        opts = _resolve(args, spec)
        if not opts.mesh_file and opts.n < 2:
            raise ConfigError("mesh resolution must be at least 2")
        _check_outputs(args.command, opts)
        return run(opts)
    # MeshFormatError and OracleLimitError subclass ValueError (as does
    # ConfigError): catch them before the configuration errors
    except (DcError, SsnError, SparsaError, OracleLimitError,
            MeshFormatError, OSError) as exc:
        print(f"dcl0: solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"dcl0: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
