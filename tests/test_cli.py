"""CLI behavior: exit codes, file outputs, determinism, config handling."""

import json
import math

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
from driftless import simulate
from driftless.simulate import GainConfig, IntegratorConfig, integrate_unicycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("what", ["asymptotics", "brockett"])
def test_feasible_direction_at_tiny_attitude(capsys, what):
    # |direction| ~ theta0 = 1e-300, whose square underflows
    code, out, _ = run(capsys, "analyze", "--what", what, "--q0", "1,0.5,1e-300")
    assert code == EXIT_OK
    direction = json.loads(out)["feasible_direction"]
    assert all(math.isfinite(v) for v in direction)
    assert math.hypot(*direction) == pytest.approx(1.0, rel=1e-15)


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
    # the attitude-clock phase must not start
    def never(*args):
        raise RuntimeError("attitude-clock phase started")

    monkeypatch.setattr(simulate, "_rotation_chunk_propagator", never)
    code, out, err = run(
        capsys, "analyze", "--what", "rho-positive", "--q0", "1,0,0.5", "--rho-theta", "1"
    )
    assert code == EXIT_INVALID and out == ""
    t_max = math.log(1e8 / 0.5)
    assert f"t = {t_max:.6g}" in err


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


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_INVALID
    assert "key = value" in err


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTLESS_OUT_DIR", str(tmp_path))
    code, stdout, _ = run(
        capsys, "simulate", "--q0", "1,0,0.5", "--rho", "-1", "--t-end", "1",
        "--out", "envtest.csv",
    )
    assert code == EXIT_OK
    assert (tmp_path / "envtest.csv").exists()
