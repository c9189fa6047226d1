"""Command-line front end.

Subcommands: simulate, closed-form, fit, compare, analyze, switch.
Outputs use the fixed CSV schema (t, x_c, y_c, theta, energy) or a JSON
mirror with metadata.  Angles are radians.  Exit codes:

    0  success
    2  invalid configuration (argparse errors also exit 2)
    3  divergence guard tripped
    4  switching condition never met
    5  degenerate attitude without --degenerate
    6  requested check or comparison failed
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis, closedform, simulate
from .errors import (
    DegenerateAttitudeError,
    DivergenceError,
    DriftlessError,
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


class ConfigError(ValueError):
    pass


def _parse_q0(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--q0 needs 3 comma-separated values, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"--q0: {exc}") from exc


def _out_path(path: str | None, default_name: str) -> str:
    base = os.environ.get(OUT_DIR_ENV, ".")
    if path is None:
        return os.path.join(base, default_name)
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(base, path)


def _integrator_config(args) -> IntegratorConfig:
    return IntegratorConfig(
        method=args.method,
        step=args.step,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        t_end=args.t_end,
    )


def _write_trajectory(traj: Trajectory, path: str, fmt: str, meta: dict) -> None:
    if fmt == "csv":
        traj.to_csv(path)
    else:
        traj.to_json(path, meta=meta)


def _config_echo(args) -> dict:
    skip = {"func"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def cmd_simulate(args) -> int:
    q0 = _parse_q0(args.q0)
    gains = GainConfig(rho_pos=args.rho_pos, rho_theta=args.rho_theta)
    cfg = _integrator_config(args)
    try:
        traj = simulate.integrate_unicycle(q0, gains, cfg)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trajectory is not None and args.out:
            _write_trajectory(
                exc.trajectory, _out_path(args.out, "trajectory.csv"), args.format,
                {"config": _config_echo(args), "diverged": True},
            )
        return EXIT_DIVERGED
    path = _out_path(args.out, f"trajectory.{args.format}")
    _write_trajectory(traj, path, args.format, {"config": _config_echo(args)})
    print(path)
    return EXIT_OK


def _sample_dt(args) -> float:
    if not 0.0 < args.sample_dt < math.inf:
        raise ConfigError(f"--sample-dt must be positive, got {args.sample_dt}")
    return args.sample_dt


def cmd_closed_form(args) -> int:
    q0 = _parse_q0(args.q0)
    dt = _sample_dt(args)
    if not 0.0 <= args.t_end < math.inf:
        raise ConfigError(f"--t-end must be nonnegative, got {args.t_end}")
    times = np.arange(0.0, args.t_end + 0.5 * dt, dt)
    if q0[2] == 0.0 and args.degenerate:
        states = [
            np.append(closedform.degenerate_eval(q0[0], q0[1], -1.0, t), 0.0)
            for t in times
        ]
    else:
        sol = closedform.fit_solution(q0[:2], q0[2])
        states = []
        for t in times:
            st = closedform.eval_solution(sol, t)
            states.append(np.array([st.X[0], st.X[1], st.theta]))
    states = np.asarray(states)
    # energy via the closed-loop identity E = (rho/2)(||q||^2 - ||q0||^2), rho=-1
    norms2 = np.sum(states**2, axis=1)
    energy = 0.5 * (norms2[0] - norms2)
    traj = Trajectory(times, states, energy)
    path = _out_path(args.out, f"closed_form.{args.format}")
    _write_trajectory(traj, path, args.format, {"config": _config_echo(args)})
    print(path)
    return EXIT_OK


def cmd_fit(args) -> int:
    q0 = _parse_q0(args.q0)
    c1, c2 = closedform.fit_constants(q0[:2], q0[2])
    print(json.dumps({"theta0": q0[2], "c1": c1, "c2": c2}, indent=2))
    return EXIT_OK


def cmd_compare(args) -> int:
    q0 = _parse_q0(args.q0)
    dt = _sample_dt(args)
    cfg = _integrator_config(args)
    if q0[2] == 0.0 and args.degenerate:
        position = lambda t: closedform.degenerate_eval(q0[0], q0[1], -1.0, t)
    else:
        # fit before integrating: a degenerate start fails before the RK4 run
        sol = closedform.fit_solution(q0[:2], q0[2])
        position = lambda t: closedform.eval_solution(sol, t).X
    traj = simulate.integrate_unicycle(q0, GainConfig(-1.0, -1.0), cfg)
    # adaptive nodes have no fixed spacing to stride over
    stride = max(1, int(round(dt / cfg.step))) if cfg.method == "rk4" else 1
    ref = np.array([position(t) for t in traj.times[::stride]])
    err = np.abs(ref - traj.states[::stride, :2])
    report = {
        "sup_norm_error": float(np.max(err)),
        "max_error_x": float(np.max(err[:, 0])),
        "max_error_y": float(np.max(err[:, 1])),
        "n_samples": len(ref),
        "tol": args.tol,
        "passed": bool(np.max(err) <= args.tol),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_analyze(args) -> int:
    q0 = _parse_q0(args.q0)
    # fitted for rho = -1; every equal negative pair traces the same path in theta
    if args.what in ("asymptotics", "brockett") and not args.rho_pos == args.rho_theta < 0.0:
        raise ConfigError(f"--what {args.what} needs equal negative gains, got "
                          f"--rho-pos {args.rho_pos:g} --rho-theta {args.rho_theta:g}")
    if args.what == "stability":
        gains = GainConfig(rho_pos=args.rho_pos, rho_theta=args.rho_theta)
        cfg = _integrator_config(args)
        try:
            traj = simulate.integrate_unicycle(q0, gains, cfg)
        except DivergenceError as exc:
            print(
                json.dumps(
                    {"energy_bounded": False, "diverged": True, "detail": str(exc)},
                    indent=2,
                )
            )
            return EXIT_FAILED
        cert = analysis.certify_stability(
            traj, lambda q: simulate.unicycle_field(q, gains), tol=args.tol
        )
        print(analysis.report_json(cert))
        return EXIT_OK if cert.passed else EXIT_FAILED
    if args.what == "asymptotics":
        sol = closedform.fit_solution(q0[:2], q0[2])
        report = analysis.asymptotics(sol)
        print(analysis.report_json(report))
        return EXIT_OK
    if args.what == "rho-positive":
        report = analysis.rho_positive_study(
            q0, rho_pos=args.rho_pos, rho_theta=args.rho_theta, horizon=args.t_end
        )
        print(analysis.report_json(report))
        ok = report.position_decays and report.attitude_grows
        return EXIT_OK if ok else EXIT_FAILED
    if args.what == "brockett":
        report = analysis.brockett_scan(q0[2])
        print(analysis.report_json(report))
        return EXIT_OK if report.all_feasible_aligned else EXIT_FAILED
    raise ConfigError(f"unknown analysis {args.what!r}")


def cmd_switch(args) -> int:
    q0 = _parse_q0(args.q0)
    gains = GainConfig(
        rho_pos=args.rho_pos,
        rho_theta=args.rho_theta,
        switch_enabled=True,
        switch_radius=args.switch_radius,
        rho_theta_after_switch=args.rho_theta_after_switch,
    )
    result = simulate.run_switching(q0, gains, _integrator_config(args))
    path = _out_path(args.out, f"switch.{args.format}")
    _write_trajectory(
        result.trajectory,
        path,
        args.format,
        {"config": _config_echo(args), "switch_time": result.switch_time},
    )
    print(json.dumps({"switch_time": result.switch_time, "output": path}))
    return EXIT_OK


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` (key = value lines) into CLI flags.

    Explicit flags win because they come later on the synthesized line.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[i + 1]
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
        extra.extend([f"--{key.replace('_', '-')}", value])
    return argv[:i] + extra + argv[i + 2 :]


def _add_common(p, t_end=10.0):
    p.add_argument("--q0", required=True, help="initial state x_c,y_c,theta (radians)")
    p.add_argument("--t-end", type=float, default=t_end)
    p.add_argument("--method", choices=["rk4", "rk45"], default="rk4")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--abs-tol", type=float, default=1e-10)
    p.add_argument("--rel-tol", type=float, default=1e-10)


def _add_output(p):
    p.add_argument("--out", help=f"output path (default under ${OUT_DIR_ENV} or cwd)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftless",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config", help="key = value file expanded into flags", metavar="FILE"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the closed-loop unicycle")
    _add_common(p)
    p.add_argument("--rho", type=float, help="single gain for both loops")
    p.add_argument("--rho-pos", type=float)
    p.add_argument("--rho-theta", type=float)
    _add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("closed-form", help="evaluate the analytic trajectory")
    p.add_argument("--q0", required=True)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--sample-dt", type=float, default=1e-2)
    p.add_argument("--degenerate", action="store_true")
    _add_output(p)
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
    _add_common(p, t_end=30.0)
    p.add_argument("--rho-pos", type=float, default=-1.0)
    p.add_argument("--rho-theta", type=float, default=-1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("switch", help="two-phase gain switching run")
    _add_common(p, t_end=25.0)
    p.add_argument("--rho-pos", type=float, default=-1.0)
    p.add_argument("--rho-theta", type=float, default=1.0)
    p.add_argument("--rho-theta-after-switch", type=float, default=-1.0)
    p.add_argument("--switch-radius", type=float, default=0.05)
    _add_output(p)
    p.set_defaults(func=cmd_switch)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits itself; keep main() returning
            return int(exc.code or 0)
        if args.command == "simulate":
            if args.rho is not None:
                args.rho_pos = args.rho
                args.rho_theta = args.rho
            if args.rho_pos is None or args.rho_theta is None:
                raise ConfigError("simulate needs --rho or both --rho-pos/--rho-theta")
        return args.func(args)
    except (ValueError, DriftlessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((c for cls, c in ERROR_EXITS if isinstance(exc, cls)), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
