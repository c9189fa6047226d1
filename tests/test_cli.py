"""CLI behavior: exit codes, file outputs, determinism, config handling."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftless.cli import (
    EXIT_DEGENERATE,
    EXIT_DIVERGED,
    EXIT_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TIMEOUT,
    main,
)
import driftless
from driftless import cli, simulate
from driftless.closedform import degenerate_eval, eval_solution, fit_solution
from driftless.simulate import GainConfig, IntegratorConfig, Trajectory, integrate_unicycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def never(*args, **kwargs):
    raise RuntimeError("integration started")


def test_simulate_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(
        capsys, "simulate", "--q0", "1,0,0.5", "--rho", "-1", "--t-end", "20",
        "--out", str(out),
    )
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[-1, 3] == pytest.approx(0.5 * math.exp(-20.0), abs=1e-12)


def test_simulate_zero_start_constant(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _, _ = run(capsys, "simulate", "--q0", "0,0,0", "--rho", "-1", "--out", str(out))
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(rows[:, 1:] == 0.0)


def test_missing_q0_is_invalid_config(capsys):
    code = main(["simulate", "--rho", "-1"])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert "--q0" in err


def test_missing_gain_is_invalid_config(capsys):
    code, _, err = run(capsys, "simulate", "--q0", "1,0,0.5")
    assert code == EXIT_INVALID
    assert "--rho" in err


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["simulate", "--q0", "1,0,0.5", "--rho", "-1", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_compare_passes_within_tolerance(capsys):
    code, out, _ = run(
        capsys, "compare", "--q0", "1,0,1", "--t-end", "10", "--tol", "1e-4"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["passed"]
    assert report["sup_norm_error"] <= 1e-4


def test_compare_degenerate_needs_flag(capsys):
    code, _, err = run(capsys, "compare", "--q0", "1,0,0")
    assert code == EXIT_DEGENERATE
    assert "degenerate" in err


def test_compare_degenerate_path(capsys):
    code, out, _ = run(capsys, "compare", "--q0", "1,2,0", "--degenerate", "--t-end", "5")
    assert code == EXIT_OK
    assert json.loads(out)["passed"]


def test_compare_sample_spacing_beyond_the_run(capsys):
    # sample_dt / step overflows to inf: the start is the only sample
    code, out, _ = run(capsys, "compare", "--q0", "1,0,1", "--t-end", "1e-300",
                       "--step", "1e-300", "--sample-dt", "1e300")
    assert code == EXIT_OK
    assert json.loads(out)["n_samples"] == 1


def test_compare_impossible_tolerance_fails(capsys):
    code, out, _ = run(
        capsys, "compare", "--q0", "1,0,1", "--t-end", "10", "--tol", "1e-18"
    )
    assert code == EXIT_FAILED
    assert not json.loads(out)["passed"]


def test_fit_outputs_constants(capsys):
    code, out, _ = run(capsys, "fit", "--q0", "1,0,1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"theta0", "c1", "c2"}


def test_closed_form_export(tmp_path, capsys):
    out = tmp_path / "cf.csv"
    code, _, _ = run(
        capsys, "closed-form", "--q0", "1,0,1", "--t-end", "5", "--out", str(out)
    )
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert rows[0, 3] == 1.0


@pytest.mark.parametrize("t_end", ["730", "760"])
def test_closed_form_at_vanishing_attitude(tmp_path, capsys, t_end):
    # theta = exp(-t) is subnormal at t = 730 and 0 at t = 760
    out = tmp_path / "cf.csv"
    code, _, _ = run(
        capsys, "closed-form", "--q0", "1,0.5,1", "--t-end", t_end,
        "--sample-dt", "10", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("closed-form", "--sample-dt", "0"),
        ("closed-form", "--sample-dt", "-1"),
        ("closed-form", "--t-end", "-5"),
        ("compare", "--sample-dt", "0"),
    ],
)
def test_bad_sample_grid_is_invalid_config(capsys, command, flag, value):
    code, _, err = run(capsys, command, "--q0", "1,0,1", flag, value)
    assert code == EXIT_INVALID
    assert flag in err


def per_sample_closed_form(path, q0, t_end, dt, degenerate):
    """cmd_closed_form as a loop of point evaluations, the reference for the grid."""
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    if degenerate:
        states = [(*degenerate_eval(q0[0], q0[1], t).tolist(), 0.0) for t in times]
    else:
        sol = fit_solution(np.array(q0[:2]), q0[2])
        points = (eval_solution(sol, t) for t in times)
        states = [(*s.X.tolist(), s.theta) for s in points]
    states = np.array(states)
    norms2 = np.sum(states**2, axis=1)
    Trajectory(times, states, 0.5 * (norms2[0] - norms2)).to_csv(str(path))


@pytest.mark.parametrize(
    "q0, degenerate, block",
    [((1.0, -0.5, 5.0), False, None), ((-0.7, 1.1, 20.0), False, None), ((2.2, 0.3, 48.0), False, None),
     ((0.7, -0.4, 0.0), True, None), ((1.0, -0.5, 5.0), False, 300), ((0.7, -0.4, 0.0), True, 300)],
    ids=["q00-False", "q01-False", "q02-False", "q03-True", "q00-False-blocks-of-300",
         "q03-True-blocks-of-300"],
)
def test_closed_form_csv_equals_point_loop(tmp_path, capsys, monkeypatch, q0, degenerate, block):
    # the 2,001 samples are one block of simulate.EXPORT_BLOCK, or six of 300 and one of 201
    if block:
        monkeypatch.setattr(simulate, "EXPORT_BLOCK", block)
    out, ref = tmp_path / "grid.csv", tmp_path / "points.csv"
    flags = ["--degenerate"] if degenerate else []
    code, _, _ = run(capsys, "closed-form", "--q0=" + ",".join(map(repr, q0)), "--t-end", "10",
                     "--sample-dt", "0.005", "--out", str(out), *flags)
    assert code == EXIT_OK
    per_sample_closed_form(ref, q0, 10.0, 0.005, degenerate)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("q0", ["nan,0,1", "inf,0,1", "1,-inf,1", "1,0,nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["closed-form", "--t-end", "1"],
        ["compare", "--t-end", "1"],
        ["analyze", "--what", "rho-positive", "--rho-theta", "1", "--t-end", "5"],
        ["analyze", "--what", "brockett"],
    ],
    ids=["fit", "closed-form", "compare", "rho-positive", "brockett"],
)
def test_non_finite_q0_is_invalid_config(tmp_path, capsys, monkeypatch, argv, q0):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv, f"--q0={q0}")
    assert code == EXIT_INVALID
    assert "--q0" in err and out == ""


@pytest.mark.parametrize("flag", ["--t-end", "--step", "--abs-tol", "--rel-tol"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rho", "-1"],
        ["compare"],
        ["analyze", "--what", "stability"],
        ["switch"],
        ["simulate", "--rho", "-1", "--method", "rk45"],
    ],
    ids=["simulate", "compare", "stability", "switch", "simulate-rk45"],
)
def test_non_finite_integrator_setting_is_invalid_config(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv, "--q0", "1,0,1", flag, "inf")
    assert code == EXIT_INVALID
    assert "finite" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["analyze", "--what", "asymptotics"],
        ["analyze", "--what", "brockett"],
        ["closed-form", "--t-end", "1"],
        ["compare", "--t-end", "1"],
    ],
    ids=["fit", "asymptotics", "brockett", "closed-form", "compare"],
)
def test_subnormal_attitude_is_degenerate(tmp_path, capsys, monkeypatch, argv):
    # c1 ~ x / theta0 overflows: no finite fit exists
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv, "--q0", "1,0.5,1e-320")
    assert code == EXIT_DEGENERATE
    assert "degenerate" in err and out == ""


@pytest.mark.parametrize(
    "q0", ["1e308,1e308,20", "1e308,-1e308,45", "1.7e308,0,30", "1e308,1e308,1e6"]
)
def test_fit_at_largest_starts_is_finite(capsys, q0):
    # the pivoting solve stays finite; Cramer's rule with det = 2 theta0 / pi
    # overflows on each of these
    code, out, _ = run(capsys, "fit", f"--q0={q0}")
    assert code == EXIT_OK
    payload = strict_json(out)
    assert math.isfinite(payload["c1"]) and math.isfinite(payload["c2"])


@pytest.mark.parametrize("q0, code", [("0,0,1e-320", EXIT_OK), ("1,0,1e-320", EXIT_DEGENERATE)])
def test_fit_at_subnormal_attitude(capsys, q0, code):
    # the zero start fits with c1 = c2 = 0 (adj(B) / det is infinite here, and
    # inf * 0 is NaN); any other start overflows c1 ~ x / theta0
    got, out, _ = run(capsys, "fit", f"--q0={q0}")
    assert got == code
    if code == EXIT_OK:
        payload = strict_json(out)
        assert payload["c1"] == 0.0 and payload["c2"] == 0.0


@pytest.mark.parametrize("what", ["asymptotics", "brockett"])
def test_feasible_direction_at_tiny_attitude(capsys, what):
    # |direction| ~ theta0 = 1e-300, whose square underflows
    code, out, _ = run(capsys, "analyze", "--what", what, "--q0", "1,0.5,1e-300")
    assert code == EXIT_OK
    direction = json.loads(out)["feasible_direction"]
    assert all(math.isfinite(v) for v in direction)
    assert math.hypot(*direction) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("theta0", ["67028.98240884578", "-67028.98240884578"])
def test_brockett_scan_at_large_attitude(capsys, theta0):
    # the grid ray 1.6e-6 rad off the feasible line has |c2| / |X0| = 7.6e-9 here:
    # only c2's share of the start, |c2| |B e2| / |X0|, tells it from the line
    code, out, _ = run(capsys, "analyze", "--what", "brockett", f"--q0=1,0,{theta0}")
    report = strict_json(out)
    assert code == EXIT_OK and report["all_feasible_aligned"]
    assert report["n_feasible"] <= 27


@pytest.mark.parametrize("theta0", ["0.47577739320959117", "-0.47577739320959117"])
def test_brockett_scan_where_a_grid_ray_holds_the_feasible_line(capsys, theta0):
    # the feasible line lies on the 13.5 degree ray (166.5 below 0): its 50 starts
    # are rightly c2 = 0, so n_feasible passes criterion 5's 27, yet every feasible
    # start is on the line, which is the claim the exit code checks
    code, out, _ = run(capsys, "analyze", "--what", "brockett", f"--q0=1,0,{theta0}")
    report = strict_json(out)
    assert code == EXIT_OK and report["all_feasible_aligned"]
    assert report["n_feasible"] == 75


def test_analyze_asymptotics(capsys):
    code, out, _ = run(capsys, "analyze", "--what", "asymptotics", "--q0", "1,0,1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["x_infinity"][0] == 0.0


@pytest.mark.parametrize("what", ["asymptotics", "brockett"])
@pytest.mark.parametrize(
    "rho_pos, rho_theta", [("-2", "-0.5"), ("1", "1"), ("-1", "1"), ("0", "0")]
)
def test_analyze_closed_form_rejects_other_gains(capsys, what, rho_pos, rho_theta):
    # the limits are those of rho = -1; other gain pairs have other limits or none
    code, out, err = run(
        capsys, "analyze", "--what", what, "--q0", "1,0,1",
        "--rho-pos", rho_pos, "--rho-theta", rho_theta,
    )
    assert code == EXIT_INVALID and out == ""
    assert f"--rho-pos {rho_pos}" in err and f"--rho-theta {rho_theta}" in err


@pytest.mark.parametrize("what", ["asymptotics", "brockett"])
def test_analyze_equal_negative_gains_give_default_report(capsys, what):
    argv = ["analyze", "--what", what, "--q0", "1,0,1"]
    code, default, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, out, _ = run(capsys, *argv, "--rho-pos", "-3", "--rho-theta", "-3")
    assert code == EXIT_OK and out == default


def test_compare_rk45_checks_every_node(capsys):
    cfg = IntegratorConfig(method="rk45", t_end=10.0)
    nodes = len(integrate_unicycle([1.0, 0.0, 1.0], GainConfig(-1.0, -1.0), cfg).times)
    code, out, _ = run(
        capsys, "compare", "--q0", "1,0,1", "--method", "rk45", "--t-end", "10",
        "--sample-dt", "0.05",
    )
    assert code == EXIT_OK
    assert json.loads(out)["n_samples"] == nodes > 100


def test_rho_positive_horizon_beyond_range_is_invalid(capsys, monkeypatch):
    # |theta| = 0.5 e^30 = 5.3e12; the propagator would run for months, so
    # no transition product may be built
    monkeypatch.setattr(simulate, "_rotation_chunk_propagator", never)
    code, out, err = run(
        capsys, "analyze", "--what", "rho-positive", "--q0", "1,0,0.5", "--rho-theta", "1",
        "--t-end", "30",
    )
    assert code == EXIT_INVALID and out == ""
    t_max = math.log(1e8 / 0.5)
    assert f"t = {t_max:.6g}" in err


@pytest.mark.parametrize("rho_pos", [-1e9, -1e308])
def test_rho_positive_step_budget_is_invalid(capsys, monkeypatch, rho_pos):
    # |rho_pos| dt <= 1e-3 would take 1e12 steps or more to t = 1
    monkeypatch.setattr(simulate, "_rotation_chunk_propagator", never)
    code, out, err = run(
        capsys, "analyze", "--what", "rho-positive", f"--rho-pos={rho_pos!r}",
        "--rho-theta", "1", "--q0", "1,0,0.5", "--t-end", "1",
    )
    assert code == EXIT_INVALID and out == ""
    assert f"rho_pos = {rho_pos:g}" in err


@pytest.mark.parametrize("t_end", ["-1", "0", "nan"])
def test_rho_positive_bad_horizon_is_invalid(capsys, monkeypatch, t_end):
    # a horizon of -1 would integrate backwards
    monkeypatch.setattr(simulate, "_rotation_chunk_propagator", never)
    code, out, err = run(
        capsys, "analyze", "--what", "rho-positive", "--rho-theta", "1",
        "--q0", "1,0,1", "--t-end", t_end,
    )
    assert code == EXIT_INVALID and out == ""
    assert "--t-end must be positive and finite" in err


@pytest.mark.parametrize(
    "q0, rho_theta, t_end, code, theta_final",
    [("1,0,0", "10", "80", EXIT_FAILED, 0.0), ("1,0,5e-324", "1", "750", EXIT_OK, 259.8041501776537),
     ("1,0,0.5", "1e-300", "10", EXIT_FAILED, 0.5), ("1,0,0.5", "1e-320", "10", EXIT_FAILED, 0.5)],
    ids=["zero-attitude", "subnormal-attitude", "tiny-gain", "subnormal-gain"],
)
def test_rho_positive_attitude_past_exp_overflow(capsys, q0, rho_theta, t_end, code, theta_final):
    # rho_theta T > 709.78 overflows exp(rho_theta T), yet |theta0| exp(rho_theta T)
    # stays below 1e8; theta0 = 0 stays 0, so the attitude does not grow, nor does it
    # at a tiny rho_theta; a subnormal one overflows the step clock's s_c to inf
    got, out, err = run(capsys, "analyze", "--what", "rho-positive", "--q0", q0,
                        "--rho-theta", rho_theta, "--t-end", t_end)
    assert got == code, err
    report = strict_json(out)
    assert report["theta_final"] == pytest.approx(theta_final, rel=1e-12, abs=0.0)
    assert report["attitude_grows"] is (code == EXIT_OK) and report["position_decays"]


def test_rho_positive_default_gain_spins(capsys):
    # --rho-theta defaults to 1 for rho-positive, to -1 for the other analyses
    argv = ["analyze", "--what", "rho-positive", "--q0", "1,0,0.5", "--t-end", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out == run(capsys, *argv, "--rho-theta", "1")[1]
    code, out, _ = run(capsys, "analyze", "--what", "asymptotics", "--q0", "1,0,1")
    assert code == EXIT_OK and out == run(capsys, "analyze", "--what", "asymptotics",
                                          "--q0", "1,0,1", "--rho-theta", "-1")[1]


@pytest.mark.parametrize("flags, t_end", [
    (["--what", "rho-positive"], "10"),
    (["--what", "stability"], "30"),
    (["--what", "rho-positive", "--rho-theta", "3"], repr(10 / 3)),
    (["--what", "rho-positive", "--rho-theta", "0.5"], "10"),
], ids=["rho-positive-10", "stability-30", "rho-positive-rho-theta-3",
        "rho-positive-rho-theta-0.5"])
def test_analyze_default_horizon(capsys, flags, t_end):
    # --t-end defaults to 10 / max(rho_theta, 1) for rho-positive, where |theta0| e^10
    # stays below 1e8 up to |theta0| of about 4.5e3, and to 30 for the other analyses
    argv = ["analyze", *flags, "--q0", "1,0,0.5"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    assert out == run(capsys, *argv, "--t-end", t_end)[1]


def test_stability_too_short_is_invalid(capsys):
    code, out, err = run(capsys, "analyze", "--what", "stability", "--q0", "1,0,0.5",
                         "--t-end", "0.01")
    assert code == EXIT_INVALID and out == ""
    assert "trajectory too short for a windowed energy check" in err


def test_rho_positive_stiff_gain_ratio_decays(capsys):
    # rho_pos / rho_theta = -1000: a step bounded only by the attitude turn
    # leaves RK4's stability interval; RK45 gives |X(0.5)| = 0.18189
    code, out, _ = run(
        capsys, "analyze", "--what", "rho-positive", "--rho-pos", "-1000",
        "--rho-theta", "1", "--q0", "1,0,40", "--t-end", "0.5",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["position_decays"]
    assert report["position_norms"][-1] == pytest.approx(0.1818938296, rel=1e-8)


def test_analyze_stability_pass(capsys):
    code, out, _ = run(
        capsys, "analyze", "--what", "stability", "--q0", "1,0,0.5",
        "--rho-pos", "-1", "--rho-theta", "-1",
    )
    assert code == EXIT_OK
    assert json.loads(out)["energy_bounded"]


def test_analyze_stability_destabilizing_fails(capsys):
    code, out, _ = run(
        capsys, "analyze", "--what", "stability", "--q0", "1,0,0.5",
        "--rho-pos", "1", "--rho-theta", "1",
    )
    assert code == EXIT_FAILED
    assert not json.loads(out)["energy_bounded"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["compare", "--t-end", "1"],
        ["analyze", "--what", "stability"],
        ["analyze", "--what", "asymptotics"],
        ["analyze", "--what", "rho-positive", "--rho-theta", "1", "--t-end", "5"],
        ["analyze", "--what", "brockett"],
        ["switch", "--method", "rk45"],
    ],
    ids=["fit", "compare", "stability", "asymptotics", "rho-positive", "brockett", "switch"],
)
def test_json_output_is_strict(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, *argv, "--q0", "1,1,0.5")
    assert code == EXIT_OK
    assert isinstance(strict_json(out), dict)


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize(
    "argv", [["compare"], ["analyze", "--what", "stability"]], ids=["compare", "stability"]
)
def test_bad_tol_is_invalid_config(capsys, monkeypatch, argv, tol):
    # rejected before the integration, so no report prints NaN or Infinity
    monkeypatch.setattr(simulate, "integrate_unicycle", never)
    code, out, err = run(capsys, *argv, "--q0", "1,0,1", "--tol", tol)
    assert code == EXIT_INVALID and out == ""
    assert "--tol must be positive and finite" in err


def test_switch_command(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    code, stdout, _ = run(
        capsys, "switch", "--q0", "1,1,0.5", "--method", "rk45", "--out", str(out)
    )
    assert code == EXIT_OK
    assert json.loads(stdout.splitlines()[-1])["switch_time"] > 0.0
    assert out.exists()


def test_switch_timeout(capsys):
    code, _, err = run(
        capsys, "switch", "--q0", "1,1,0.5", "--method", "rk45", "--t-end", "0.1"
    )
    assert code == EXIT_TIMEOUT
    assert "never" in err


def test_switch_divergence(capsys):
    # with a 0.5 step the spin phase blows up before the radius is reached
    code, _, err = run(
        capsys, "switch", "--q0", "1,1,0.5", "--method", "rk4", "--step", "0.5",
        "--switch-radius", "1e-9",
    )
    assert code == EXIT_DIVERGED
    assert "guard" in err


def test_config_file_expansion(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q0 = 1,0,0.5\nrho = -1\nt_end = 2.0\n# comment\n")
    out = tmp_path / "c.csv"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[-1, 0] == 2.0


def test_config_value_with_leading_minus(tmp_path, capsys):
    # a value such as -1,0,0.5 is not read as an option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q0 = -1,0,0.5\nrho = -1\nt_end = 1\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "c.csv"))
    assert code == EXIT_OK, err


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_INVALID
    assert "key = value" in err


@pytest.mark.parametrize("where", [
    lambda cfg, rest: ["--config", cfg, "simulate", *rest],
    lambda cfg, rest: [f"--config={cfg}", "simulate", *rest],
    lambda cfg, rest: ["simulate", *rest, "--config", cfg],
    lambda cfg, rest: ["simulate", f"--config={cfg}", *rest],
], ids=["before-command", "before-command-joined", "after-flags", "after-command-joined"])
def test_config_file_anywhere_on_the_line(tmp_path, capsys, where):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0.5\n")
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, *where(str(cfg), ["--q0", "1,0,1", "--rho", "-1", "--out", str(out)]))
    assert code == EXIT_OK, err
    assert len(np.loadtxt(out, delimiter=",", skiprows=1)) == 501


@pytest.mark.parametrize("where", [
    lambda cfg: ["simulate", "--t-end", "0.2", "--config", cfg],
    lambda cfg: ["--config", cfg, "simulate", "--t-end", "0.2"],
    lambda cfg: ["simulate", f"--config={cfg}", "--t-end", "0.2"],
], ids=["config-last", "config-first", "config-joined-between"])
def test_explicit_flags_win_over_the_config_file(tmp_path, capsys, where):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0.5\nrho = -1\n")
    out = tmp_path / "c.csv"
    code, _, err = run(capsys, *where(str(cfg)), "--q0", "1,0,1", "--out", str(out))
    assert code == EXIT_OK, err
    assert len(np.loadtxt(out, delimiter=",", skiprows=1)) == 201


def test_config_file_before_a_command_without_integrator_flags(tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("q0 = 1,0,1\n")
    code, out, err = run(capsys, "--config", str(cfg), "fit")
    assert code == EXIT_OK, err
    assert json.loads(out)["theta0"] == 1.0


def test_config_key_the_subcommand_does_not_take_is_refused(tmp_path, capsys):
    # one file per subcommand: argparse names the expanded flag it does not know
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0.5\n")
    code, out, err = run(capsys, "--config", str(cfg), "fit", "--q0", "1,0,1")
    assert code == EXIT_INVALID and out == ""
    assert "unrecognized arguments: --t-end=0.5" in err


def test_config_flag_is_not_abbreviated(tmp_path, capsys, monkeypatch):
    # an abbreviated --conf would be parsed as --config and its file ignored
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0.5\n")
    code, _, _ = run(capsys, "--conf", str(cfg), "simulate", "--q0", "1,0,1", "--rho", "-1")
    assert code == EXIT_INVALID
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("config", [["--config"], ["--config="], ["--config", "missing.cfg"],
                                    ["--config", "."]],
                         ids=["no-path", "empty-path", "missing-file", "directory"])
def test_config_without_a_readable_file_is_invalid(tmp_path, capsys, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, "simulate", "--q0", "1,0,1", "--rho", "-1", *config)
    assert code == EXIT_INVALID and out == ""
    assert "--config" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gains, cfg", [
    (["--rho", "-1", "--rho-pos", "-2"], None),
    (["--rho-theta", "-2", "--rho", "-1"], None),
    (["--rho", "-1"], "rho_pos = -2\n"),
    ([], "rho = -1\nrho_theta = -2\n"),
], ids=["rho-pos", "rho-theta", "rho-pos-from-config", "both-from-config"])
def test_rho_with_an_explicit_gain_is_invalid(tmp_path, capsys, monkeypatch, gains, cfg):
    # else --rho would override the explicit gain and echo the override as rho_pos
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--q0", "1,0,1", "--t-end", "0.1", "--out", "t.json", *gains]
    if cfg is not None:
        (tmp_path / "g.cfg").write_text(cfg)
        argv += ["--config", "g.cfg"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert "--rho cannot be combined with --rho-pos or --rho-theta" in err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("configs", [["--config", "a.cfg", "--config", "b.cfg"],
                                     ["--config=a.cfg", "--config", "b.cfg"],
                                     ["--config=a.cfg", "--config=a.cfg"]],
                         ids=["spaced", "mixed", "joined-same-file"])
def test_repeated_config_is_invalid(tmp_path, capsys, monkeypatch, configs):
    # the second --config FILE would be taken for the subcommand and never read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("t_end = 0.5\n")
    (tmp_path / "b.cfg").write_text("rho = -1\n")
    code, out, err = run(capsys, *configs, "simulate", "--q0", "1,0,1", "--out", "t.csv")
    assert code == EXIT_INVALID and out == ""
    assert "--config may be given only once" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg"]


@pytest.mark.parametrize("argv", [["--out", ""], ["--out="], ["--config", "o.cfg"]],
                         ids=["spaced", "joined", "config"])
def test_empty_out_is_invalid(tmp_path, capsys, monkeypatch, argv):
    # an empty path would fall back to ./trajectory.csv and replace it
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DRIFTLESS_OUT_DIR", raising=False)
    (tmp_path / "o.cfg").write_text("out =\n")
    code, out, err = run(capsys, "simulate", "--q0", "1,0,1", "--rho", "-1", "--t-end", "0.1",
                         *argv)
    assert code == EXIT_INVALID and out == ""
    assert "--out needs a file path" in err
    assert [p.name for p in tmp_path.iterdir()] == ["o.cfg"]


@pytest.mark.parametrize("q0", ["1,0", "1,0,1,2", "1,x,1", "1,,1"])
def test_malformed_q0_is_invalid_config(tmp_path, capsys, monkeypatch, q0):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, "simulate", "--rho", "-1", "--t-end", "0.1", f"--q0={q0}")
    assert code == EXIT_INVALID and out == ""
    assert "--q0" in err
    assert list(tmp_path.iterdir()) == []


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, stdout, _ = run(
        capsys, "simulate", "--q0", "1,0,0.5", "--rho", "-1", "--t-end", "1",
        "--out", "envtest.csv",
    )
    assert code == EXIT_OK
    assert (tmp_path / "envtest.csv").exists()


PARTIAL_RUNS = [
    # the attitude 0.5 e^t passes the guard 1.5e6 near t = 15
    (["simulate", "--q0", "1,1,0.5", "--rho-pos", "-1", "--rho-theta", "1", "--t-end", "30"],
     EXIT_DIVERGED),
    (["switch", "--q0", "1,1,0.5", "--step", "0.5", "--switch-radius", "1e-9", "--t-end", "30"],
     EXIT_DIVERGED),
    (["switch", "--q0", "1,1,0.5", "--method", "rk45", "--t-end", "0.1"], EXIT_TIMEOUT),
]


def read_trajectory(path, fmt):
    """(meta or None, rows) of a written trajectory, refusing non-JSON numbers."""
    if fmt == "json":
        payload = strict_json(path.read_text())
        return payload["meta"], np.array(payload["rows"], float)
    assert path.read_text().splitlines()[0] == simulate.CSV_HEADER
    return None, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, code", PARTIAL_RUNS,
                         ids=["simulate-diverged", "switch-diverged", "switch-timeout"])
def test_stopped_run_writes_partial_trajectory(tmp_path, capsys, argv, code, fmt):
    out = tmp_path / f"partial.{fmt}"
    got, stdout, err = run(capsys, *argv, "--format", fmt, "--out", str(out))
    assert got == code and stdout == ""
    t_stop = float(re.search(r"t=(\S+)", err).group(1))
    meta, rows = read_trajectory(out, fmt)
    assert rows.shape[0] > 1 and rows.shape[1] == 5 and np.all(np.isfinite(rows))
    # a diverged run keeps no node from the guard on; a timed-out one ends at the horizon
    if code == EXIT_DIVERGED:
        assert rows[-1, 0] < t_stop
    else:
        assert rows[-1, 0] == pytest.approx(t_stop, rel=1e-12)
    if meta is not None:
        assert "error: " + meta["stopped"] == err.strip()


@pytest.mark.parametrize("argv", [
    ["simulate", "--q0", "1,0,1", "--rho-pos", "-1", "--rho-theta", "1e300", "--t-end", "1"],
    ["switch", "--q0", "1,1,1", "--method", "rk4", "--rho-theta", "1e300", "--t-end", "1"],
], ids=["simulate", "switch"])
def test_overflowing_attitude_stage_diverges(tmp_path, capsys, argv):
    # the first step's attitude stages overflow to inf: a diverged run, not an
    # invalid input ("math domain error" from cos(inf))
    out = tmp_path / "partial.csv"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == EXIT_DIVERGED and stdout == ""
    assert "guard at t=0.001" in err
    _, rows = read_trajectory(out, "csv")
    assert rows.tolist() == [[0.0, *map(float, argv[2].split(",")), 0.0]]


def test_out_in_missing_directory_is_invalid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "integrate_unicycle", never)
    missing = tmp_path / "missing"
    code, stdout, err = run(
        capsys, "simulate", "--q0", "1,0,1", "--rho", "-1", "--out", str(missing / "x.csv")
    )
    assert code == EXIT_INVALID and stdout == ""
    assert f"output directory {str(missing)!r} does not exist" in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_invalid(tmp_path, capsys, monkeypatch):
    # the path is a directory: refused before the run, and no .part file stays
    monkeypatch.setattr(simulate, "integrate_unicycle", never)
    (tmp_path / "x.csv").mkdir()
    code, stdout, err = run(
        capsys, "simulate", "--q0", "1,0,1", "--rho", "-1", "--t-end", "0.1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == EXIT_INVALID and stdout == "" and err.startswith("error: ")
    assert "is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_stopped_run_with_directory_out_is_invalid(tmp_path, capsys):
    # the run would diverge (exit 3); its --out is refused before it starts
    code, stdout, err = run(capsys, *PARTIAL_RUNS[0][0], "--out", str(tmp_path))
    assert code == EXIT_INVALID and stdout == ""
    assert err.count("error: ") == 1 and "is a directory" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_partial_write_is_invalid(tmp_path, capsys, monkeypatch):
    # any OSError from writing a stopped run: one error line, exit 2, no traceback
    def refuse(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(Trajectory, "to_csv", refuse)
    code, stdout, err = run(capsys, *PARTIAL_RUNS[0][0], "--out", str(tmp_path / "p.csv"))
    assert code == EXIT_INVALID and stdout == ""
    assert err.count("error: ") == 1 and "disk full" in err and "guard" in err
    assert list(tmp_path.iterdir()) == []


def test_stopped_run_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, *PARTIAL_RUNS[0][0])
    assert code == EXIT_DIVERGED and list(tmp_path.iterdir()) == []


LARGE_START_RUNS = [
    ["simulate", "--rho", "-1", "--format", "json"],
    ["compare"],
    ["analyze", "--what", "stability"],
    ["closed-form", "--format", "json"],
    ["switch", "--format", "json"],
]
LARGE_START_IDS = ["simulate", "compare", "stability", "closed-form", "switch"]


@pytest.mark.parametrize("argv", LARGE_START_RUNS, ids=LARGE_START_IDS)
def test_overflowing_energy_is_invalid(tmp_path, capsys, monkeypatch, argv):
    # |q0|^2 = 1e400 overflows a double, so the energy integral does
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv, "--q0", "1e200,0,1", "--t-end", "1")
    assert code == EXIT_INVALID and out == ""
    assert "energy integral overflows" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", LARGE_START_RUNS[:4], ids=LARGE_START_IDS[:4])
def test_large_start_that_fits_is_finite(tmp_path, capsys, monkeypatch, argv):
    # |q0|^2 = 1e300 fits: the run is answered, with finite numbers only
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv, "--q0", "1e150,0,1", "--t-end", "1")
    assert code in (EXIT_OK, EXIT_FAILED), err
    if argv[0] in ("simulate", "closed-form"):
        _, rows = read_trajectory(Path(out.strip()), "json")
        assert np.all(np.isfinite(rows))
    else:
        strict_json(out)


def test_rho_positive_large_start_is_finite(capsys):
    code, out, _ = run(capsys, "analyze", "--what", "rho-positive", "--q0", "1e200,0,1",
                       "--rho-theta", "1", "--t-end", "5")
    assert code == EXIT_OK
    assert strict_json(out)["position_norms"][0] == 1e200


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--q0", "1,0,1", "--t-end", "1e15", "--sample-dt", "1e-3"],
        ["simulate", "--q0", "1,0,1", "--rho", "-1", "--t-end", "1e7"],
        ["compare", "--q0", "1,0,1", "--step", "1e-300"],
        ["switch", "--q0", "1,1,0.5", "--t-end", "1e300"],
    ],
    ids=["closed-form", "simulate", "compare", "switch"],
)
def test_node_budget_is_invalid(tmp_path, capsys, monkeypatch, argv):
    # refused before anything is allocated or integrated
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    monkeypatch.setattr(simulate, "integrate_unicycle", never)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["switch", "--method", "rk45", "--q0=-1,-1,1e8", "--t-end", "1"],
    ["simulate", "--rho", "-1", "--method", "rk45", "--q0=-1,-1,1e8", "--t-end", "1"],
], ids=["switch", "simulate"])
def test_rk45_node_budget_is_invalid(tmp_path, capsys, monkeypatch, argv):
    # a fast-spinning start needs about 3e7 adaptive steps to t = 1
    monkeypatch.setattr(simulate, "MAX_NODES", 3000)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_INVALID and out == ""
    assert "budget" in err
    assert list(tmp_path.iterdir()) == []


def test_closed_form_budget_boundary(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    monkeypatch.setattr(simulate, "MAX_NODES", 8)
    code, _, _ = run(capsys, "closed-form", "--q0", "1,0,1", "--t-end", "2", "--sample-dt", "0.25")
    assert code == EXIT_OK
    code, _, err = run(capsys, "closed-form", "--q0", "1,0,1", "--t-end", "2.25", "--sample-dt", "0.25")
    assert code == EXIT_INVALID and "budget" in err


def test_closed_form_budget_counts_the_samples(tmp_path, capsys, monkeypatch):
    # --t-end / --sample-dt = 8.4 is over a budget of 8, but np.arange makes 8 samples after
    # the start; 2.25 / 0.25 makes 9
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    monkeypatch.setattr(simulate, "MAX_NODES", 8)
    code, _, _ = run(capsys, "closed-form", "--q0", "1,0,1", "--t-end", "2.1", "--sample-dt", "0.25")
    assert code == EXIT_OK
    assert len((tmp_path / "closed_form.csv").read_text().splitlines()) == 1 + 9
    code, _, err = run(capsys, "closed-form", "--q0", "1,0,1", "--t-end", "2.25", "--sample-dt", "0.25")
    assert code == EXIT_INVALID and "gives 9 samples after the start, over the budget of 8" in err


@pytest.mark.parametrize("argv, code, message", [
    (["fit", "--q0", "1,0,1"], EXIT_OK, ""),
    (["analyze", "--what", "asymptotics", "--q0", "1,0,1", "--step", "nan"], EXIT_INVALID,
     "error: --step must be positive and finite, got nan"),
    (["compare", "--q0", "1,0,1", "--method", "rk5"], EXIT_INVALID, "invalid choice: 'rk5'"),
], ids=["ok", "invalid-number", "argparse"])
def test_module_entry_point_exit_codes(argv, code, message):
    # a real process: the exit code must come through sys.exit(main())
    path = [str(Path(driftless.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "driftless.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_flags_between_calls(tmp_path, capsys):
    code, _, err = run(capsys, "compare", "--q0", "1,0,1", "--method", "rk5")
    assert code == EXIT_INVALID and "invalid choice" in err
    configs = []
    for name, gains in (("one", ["--rho", "-1"]), ("two", ["--rho-pos", "-1", "--rho-theta", "-0.5"])):
        path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "simulate", "--q0", "1,0,0.5", *gains, "--t-end", "0.1",
                         "--format", "json", "--out", str(path))
        assert code == EXIT_OK
        configs.append(strict_json(path.read_text())["meta"]["config"])
    assert configs[0]["rho"] == configs[0]["rho_pos"] == configs[0]["rho_theta"] == -1.0
    assert "rho" not in configs[1]
    assert (configs[1]["rho_pos"], configs[1]["rho_theta"]) == (-1.0, -0.5)


def test_each_subcommand_keeps_its_t_end_default():
    # analyze fills a missing --t-end from --what (test_analyze_default_horizon)
    defaults = {"analyze": None, "switch": 25.0, "simulate": 10.0, "compare": 10.0,
                "closed-form": 10.0}
    extra = {"analyze": ["--what", "stability"]}
    for command, t_end in defaults.items():
        argv = [command, "--q0", "1,0,1", *extra.get(command, [])]
        assert cli.build_parser().parse_args([*argv, "--t-end", "3"]).t_end == 3.0
        assert cli.build_parser().parse_args(argv).t_end == t_end


# every numeric flag of every subcommand (--q0 is three numbers)
NUMERIC_FLAGS = {
    "simulate": ["--q0", "--t-end", "--step", "--abs-tol", "--rel-tol", "--rho", "--rho-pos",
                 "--rho-theta"],
    "closed-form": ["--q0", "--t-end", "--sample-dt"],
    "fit": ["--q0"],
    "compare": ["--q0", "--t-end", "--step", "--abs-tol", "--rel-tol", "--sample-dt", "--tol"],
    "analyze": ["--q0", "--t-end", "--step", "--abs-tol", "--rel-tol", "--rho-pos", "--rho-theta",
                "--tol"],
    "switch": ["--q0", "--t-end", "--step", "--abs-tol", "--rel-tol", "--rho-pos", "--rho-theta",
               "--rho-theta-after-switch", "--switch-radius"],
}


def test_numeric_flag_table_is_complete():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: sorted(a.option_strings[0] for a in sub._actions
                          if a.type is float or a.dest == "q0")
             for name, sub in commands.choices.items()}
    assert found == {name: sorted(flags) for name, flags in NUMERIC_FLAGS.items()}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in NUMERIC_FLAGS.items()
                                           for f in flags])
def test_value_with_a_leading_minus_is_not_an_option(capsys, monkeypatch, command, flag):
    # -1e0 and -1,0,1 do not look like argparse's negative numbers (-1, -0.5); the
    # flags reach the number checks, which stop the run here
    seen = []

    def stop(args):
        seen.append(args)
        raise cli.ConfigError("checked")

    monkeypatch.setattr(cli, "_check_numbers", stop)
    value = "-1,0,1" if flag == "--q0" else "-1e0"
    argv = [command] + (["--q0", "1,0,1"] if flag != "--q0" else [])
    argv += ["--what", "asymptotics"] if command == "analyze" else []
    code, _, err = run(capsys, *argv, flag, value)
    assert code == EXIT_INVALID and err == "error: checked\n"
    dest = flag[2:].replace("-", "_")
    assert getattr(seen[0], dest) == (value if flag == "--q0" else -1.0)


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--q0", "1,0,1", "--rho-pos", "-1e-3", "--rho-theta", "-1", "--t-end", "1"],
     EXIT_OK, ""),
    (["simulate", "--q0", "1,0,1", "--rho", "-1e0", "--t-end", "1"], EXIT_OK, ""),
    (["switch", "--rho-theta-after-switch", "-2e0", "--q0", "-1,0,1"], EXIT_OK, ""),
    (["fit", "--q0", "-1,0,1"], EXIT_OK, ""),
    (["closed-form", "--q0", "1,0,1", "--t-end", "-1e0"], EXIT_INVALID,
     "error: --t-end must be nonnegative and finite, got -1.0"),
    (["compare", "--q0", "1,0,1", "--step", "-1e-3"], EXIT_INVALID,
     "error: --step must be positive and finite, got -0.001"),
    (["analyze", "--what", "asymptotics", "--q0", "1,0,1", "--rho-pos", "-inf"], EXIT_INVALID,
     "error: --rho-pos must be finite, got -inf"),
], ids=["rho-pos", "rho", "switch", "fit", "closed-form-t-end", "step", "minus-inf"])
def test_negative_values_run_or_meet_the_number_checks(tmp_path, capsys, monkeypatch, argv,
                                                       code, message):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    got, _, err = run(capsys, *argv)
    assert got == code, err
    assert message in err


def test_rho_positive_study_exits_promptly_in_a_process():
    # horizon 12 runs its chunk products on a thread pool, which must not hold up exit
    path = [str(Path(driftless.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["analyze", "--what", "rho-positive", "--q0", "1,0,0.5", "--t-end", "12"]
    proc = subprocess.run([sys.executable, "-m", "driftless.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["position_decays"]
