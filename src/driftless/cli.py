"""Command-line front end.

Subcommands: simulate, closed-form, fit, compare, analyze, switch (analyze's
--rho-theta and --t-end default to 1 and 10 / max(rho_theta, 1) for --what
rho-positive, else -1 and 30).
Outputs use the fixed CSV schema (t, x_c, y_c, theta, energy) or a JSON
mirror with metadata.  Angles are radians.  A value may start with a minus
sign: --rho-pos -1e-3 and --q0 -1,0,1 read as --rho-pos=-1e-3 and --q0=-1,0,1.
Exit codes:

    0  success
    2  invalid configuration (argparse errors also exit 2): a number that
       is not finite, or a --t-end, --step, --abs-tol, --rel-tol,
       --sample-dt, --tol or --switch-radius that is not positive
       (closed-form's --t-end may be 0); an --out that is empty, a directory
       or in a missing one; --rho with --rho-pos or --rho-theta; a repeated
       --config; a run over the node budget; an analyze --what stability
       run too short for its windowed energy check
    3  divergence guard tripped
    4  switching condition never met
       (on 3 and 4, --out receives the trajectory up to the stop)
    5  degenerate attitude without --degenerate
    6  requested check or comparison failed
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, analysis, closedform, simulate
from .errors import (
    DegenerateAttitudeError,
    DivergenceError,
    DriftlessError,
    StoppedRunError,
    SwitchTimeoutError,
)
from .simulate import GainConfig, IntegratorConfig, Trajectory

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DIVERGED = 3
EXIT_TIMEOUT = 4
EXIT_DEGENERATE = 5
EXIT_FAILED = 6
# errors that escape a command, checked in order; anything else is EXIT_INVALID
ERROR_EXITS = (
    (DegenerateAttitudeError, EXIT_DEGENERATE),
    (DivergenceError, EXIT_DIVERGED),
    (SwitchTimeoutError, EXIT_TIMEOUT),
)

OUT_DIR_ENV = "DRIFTLESS_OUT_DIR"
POSITIVE = {"t_end", "step", "abs_tol", "rel_tol", "sample_dt", "tol", "switch_radius"}
NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class ConfigError(ValueError):
    pass


def _parse_q0(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--q0 needs 3 comma-separated values, got {text!r}")
    try:
        q0 = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"--q0: {exc}") from exc
    if not np.all(np.isfinite(q0)):
        raise ConfigError(f"--q0 values must be finite, got {text!r}")
    return q0


def _out_path(path: str | None, default_name: str) -> str:
    """The output path, in a directory that exists (checked before any run)."""
    if path == "":  # not the default name, which would replace ./<name> unasked
        raise ConfigError("--out needs a file path, got ''")
    base = os.environ.get(OUT_DIR_ENV, ".")
    if path is None or not (os.path.isabs(path) or os.path.dirname(path)):
        path = os.path.join(base, path or default_name)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output directory {os.path.dirname(path)!r} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory")
    return path


def _check_numbers(args) -> None:
    """One rule for every numeric flag, before any run: finite, and positive
    where POSITIVE names it (closed-form's --t-end may be 0: one sample)."""
    for key, value in vars(args).items():
        if not isinstance(value, float):
            continue
        if key == "t_end" and args.command == "closed-form":
            ok, what = 0.0 <= value < math.inf, "nonnegative and "
        elif key in POSITIVE:
            ok, what = 0.0 < value < math.inf, "positive and "
        else:
            ok, what = math.isfinite(value), ""
        if not ok:
            raise ConfigError(f"--{key.replace('_', '-')} must be {what}finite, got {value}")


def _integrator_config(args) -> IntegratorConfig:
    return IntegratorConfig(method=args.method, step=args.step, abs_tol=args.abs_tol,
                            rel_tol=args.rel_tol, t_end=args.t_end)


def _write(traj: Trajectory, path: str, args, **meta) -> None:
    """Write a finished or stopped run in --format; JSON echoes the flags that are set."""
    if args.format == "csv":
        traj.to_csv(path)
    else:
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "out_name") and v is not None}
        traj.to_json(path, meta={"config": config, **meta})


def cmd_simulate(args, q0, path) -> int:
    if args.rho is not None:  # one gain for both loops, echoed as the pair
        if args.rho_pos is not None or args.rho_theta is not None:
            raise ConfigError("--rho cannot be combined with --rho-pos or --rho-theta")
        args.rho_pos = args.rho_theta = args.rho
    if args.rho_pos is None or args.rho_theta is None:
        raise ConfigError("simulate needs --rho or both --rho-pos/--rho-theta")
    gains = GainConfig(rho_pos=args.rho_pos, rho_theta=args.rho_theta)
    traj = simulate.integrate_unicycle(q0, gains, _integrator_config(args))
    _write(traj, path, args)
    print(path)
    return EXIT_OK


def _closed_form_states(args, q0):
    """The start's closed form, fitted before any run: t -> (x_c, y_c, theta) rows at t."""
    sol = None if q0[2] == 0.0 and args.degenerate else closedform.fit_solution(q0[:2], q0[2])

    def states(t):
        if len(t) > simulate.EXPORT_BLOCK:  # block by block: a grid's temporaries stay small
            return np.concatenate([states(t[i : i + simulate.EXPORT_BLOCK])
                                   for i in range(0, len(t), simulate.EXPORT_BLOCK)])
        if sol is None:
            return np.column_stack((closedform.degenerate_eval(q0[0], q0[1], t), np.zeros_like(t)))
        st = closedform.eval_solution(sol, t)  # its z1, z2, X go on return, before any write
        return np.column_stack((st.X, st.theta))
    return states


def cmd_closed_form(args, q0, path) -> int:
    dt = args.sample_dt
    stop = args.t_end + 0.5 * dt
    # np.arange's length, ceil(stop / dt), less the start: counted before any sample is made
    n = math.ceil(stop / dt) - 1 if stop / dt < math.inf else math.inf
    if n > simulate.MAX_NODES:
        raise ConfigError(f"--t-end / --sample-dt gives {n:.15g} samples after the start, "
                          f"over the budget of {simulate.MAX_NODES}")
    times = np.arange(0.0, stop, dt)
    states = _closed_form_states(args, q0)(times)
    # energy via the closed-loop identity E = (rho/2)(||q||^2 - ||q0||^2), in
    # this order so that E(0) = +0.0; Trajectory refuses one that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        norms2 = np.sum(states**2, axis=1)
        energy = -0.5 * closedform.RHO * (norms2[0] - norms2)
    _write(Trajectory(times, states, energy), path, args)
    print(path)
    return EXIT_OK


def cmd_fit(args, q0, path) -> int:
    c1, c2 = closedform.fit_constants(q0[:2], q0[2])
    print(json.dumps({"theta0": q0[2], "c1": c1, "c2": c2}, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_compare(args, q0, path) -> int:
    cfg = _integrator_config(args)
    closed_form = _closed_form_states(args, q0)
    traj = simulate.integrate_unicycle(q0, GainConfig(closedform.RHO, closedform.RHO), cfg)
    # adaptive nodes have no spacing to stride over; a stride past the end (even inf) keeps node 0
    ratio = args.sample_dt / cfg.step if cfg.method == "rk4" else 1.0
    stride = max(1, round(min(ratio, len(traj.times))))
    ref = closed_form(traj.times[::stride])[:, :2]
    err = np.abs(ref - traj.states[::stride, :2])
    report = {
        "sup_norm_error": float(np.max(err)),
        "max_error_x": float(np.max(err[:, 0])),
        "max_error_y": float(np.max(err[:, 1])),
        "n_samples": len(ref),
        "tol": args.tol,
        "passed": bool(np.max(err) <= args.tol),
    }
    print(json.dumps(report, indent=2, allow_nan=False))
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_analyze(args, q0, path) -> int:
    if args.rho_theta is None:  # rho-positive studies the spinning attitude, rho_theta > 0
        args.rho_theta = 1.0 if args.what == "rho-positive" else -1.0
    if args.t_end is None:  # rho-positive: e^10 attitude growth (|theta0| e^10 < MAX_ARG = 1e8
        # up to |theta0| of 4.5e3), but no more than T = 10, as the steps grow like |rho_pos| T
        args.t_end = 10.0 / max(args.rho_theta, 1.0) if args.what == "rho-positive" else 30.0
    # fitted for rho = -1; every equal negative pair traces the same path in theta
    if args.what in ("asymptotics", "brockett") and not args.rho_pos == args.rho_theta < 0.0:
        raise ConfigError(f"--what {args.what} needs equal negative gains, got "
                          f"--rho-pos {args.rho_pos:g} --rho-theta {args.rho_theta:g}")
    if args.what == "stability":
        gains = GainConfig(rho_pos=args.rho_pos, rho_theta=args.rho_theta)
        try:
            traj = simulate.integrate_unicycle(q0, gains, _integrator_config(args))
        except DivergenceError as exc:
            report = {"energy_bounded": False, "diverged": True, "detail": str(exc)}
            print(json.dumps(report, indent=2, allow_nan=False))
            return EXIT_FAILED
        cert = analysis.certify_stability(
            traj, lambda q: simulate.unicycle_field(q, gains), tol=args.tol
        )
        print(analysis.report_json(cert))
        return EXIT_OK if cert.passed else EXIT_FAILED
    if args.what == "asymptotics":
        report = analysis.asymptotics(closedform.fit_solution(q0[:2], q0[2]))
        print(analysis.report_json(report))
        return EXIT_OK
    if args.what == "rho-positive":
        report = analysis.rho_positive_study(q0, args.rho_pos, args.rho_theta, args.t_end)
        print(analysis.report_json(report))
        ok = report.position_decays and report.attitude_grows
        return EXIT_OK if ok else EXIT_FAILED
    report = analysis.brockett_scan(q0[2])  # --what brockett
    print(analysis.report_json(report))
    return EXIT_OK if report.all_feasible_aligned else EXIT_FAILED


def cmd_switch(args, q0, path) -> int:
    gains = GainConfig(
        rho_pos=args.rho_pos,
        rho_theta=args.rho_theta,
        switch_enabled=True,
        switch_radius=args.switch_radius,
        rho_theta_after_switch=args.rho_theta_after_switch,
    )
    result = simulate.run_switching(q0, gains, _integrator_config(args))
    _write(result.trajectory, path, args, switch_time=result.switch_time)
    print(json.dumps({"switch_time": result.switch_time, "output": path}, allow_nan=False))
    return EXIT_OK


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` or ``--config=FILE`` (key = value lines), anywhere
    on the line, into CLI flags right after the subcommand: explicit flags win.
    """
    argv = [w for a in argv for w in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if argv.count("--config") > 1:  # a second one would be taken for the subcommand
        raise ConfigError("--config may be given only once")
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv) or not argv[i + 1]:
        raise ConfigError("--config needs a file path")
    path, argv = argv[i + 1], argv[:i] + argv[i + 2 :]
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from exc
    extra = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        # one token, so that a value with a leading minus is not read as an option
        extra.append(f"--{key.replace('_', '-')}={value}")
    cmd = next((j + 1 for j, a in enumerate(argv) if not a.startswith("-")), len(argv))
    return argv[:cmd] + extra + argv[cmd:]  # the subcommand is the first non-flag word


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write a word that starts like a negative number (-1e-3, -.5, -inf, -1,0,1) as
    the value of the flag before it, --flag=-1e-3: argparse reads such a word as an
    option unless it looks like -1 or -0.5."""
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and NEGATIVE_VALUE.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _add_common(p, t_end=10.0, t_end_help=None):
    p.add_argument("--q0", required=True, help="initial state x_c,y_c,theta (radians)")
    p.add_argument("--t-end", type=float, default=t_end, help=t_end_help)
    p.add_argument("--method", choices=["rk4", "rk45"], default="rk4")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--abs-tol", type=float, default=1e-10)
    p.add_argument("--rel-tol", type=float, default=1e-10)


def _add_output(p, name):
    p.add_argument("--out", help=f"output path (default under ${OUT_DIR_ENV} or cwd)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(out_name=name)  # the default file is <name>.<format>


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args returns a fresh Namespace each call
    and every default is immutable, so no main() call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="driftless",
        description=__doc__,
        allow_abbrev=False,  # --conf F would parse as --config F, which is never expanded
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", metavar="FILE",
                        help="key = value file expanded into flags after the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the closed-loop unicycle")
    _add_common(p)
    p.add_argument("--rho", type=float, help="single gain for both loops")
    p.add_argument("--rho-pos", type=float)
    p.add_argument("--rho-theta", type=float)
    _add_output(p, "trajectory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("closed-form", help="evaluate the analytic trajectory")
    p.add_argument("--q0", required=True)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--sample-dt", type=float, default=1e-2)
    p.add_argument("--degenerate", action="store_true")
    _add_output(p, "closed_form")
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("fit", help="fit closed-form constants from the start state")
    p.add_argument("--q0", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="closed form vs numerical oracle")
    _add_common(p)
    p.add_argument("--sample-dt", type=float, default=1e-2, help="rk45 compares every node")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--degenerate", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="stability / asymptotics / brockett reports")
    p.add_argument(
        "--what",
        choices=["stability", "asymptotics", "rho-positive", "brockett"],
        required=True,
    )
    _add_common(p, t_end=None,
                t_end_help="default 10 / max(rho_theta, 1) for rho-positive, else 30")
    p.add_argument("--rho-pos", type=float, default=-1.0)
    p.add_argument("--rho-theta", type=float, help="default 1 for rho-positive, else -1")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("switch", help="two-phase gain switching run")
    _add_common(p, t_end=25.0)
    p.add_argument("--rho-pos", type=float, default=-1.0)
    p.add_argument("--rho-theta", type=float, default=1.0)
    p.add_argument("--rho-theta-after-switch", type=float, default=-1.0)
    p.add_argument("--switch-radius", type=float, default=0.05)
    _add_output(p, "switch")
    p.set_defaults(func=cmd_switch)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = path = None
    try:
        argv = _join_negative_values(_apply_config_file(argv))
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits itself; keep main() returning
            return int(exc.code or 0)
        q0 = _parse_q0(args.q0)
        _check_numbers(args)
        if "out" in args:
            path = _out_path(args.out, f"{args.out_name}.{args.format}")
        return args.func(args, q0, path)
    except (ValueError, DriftlessError, OSError) as exc:  # OSError: an unwritable --out
        code = next((c for cls, c in ERROR_EXITS if isinstance(exc, cls)), EXIT_INVALID)
        partial = exc.trajectory if isinstance(exc, StoppedRunError) else None
        if partial is not None and getattr(args, "out", None):
            try:
                _write(partial, path, args, stopped=str(exc))
            except OSError as write_error:
                exc, code = f"{write_error} (writing the run that stopped: {exc})", EXIT_INVALID
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
