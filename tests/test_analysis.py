"""Stability certificates, asymptotic reports, Brockett scan."""

import json
import math

import numpy as np
import pytest

from driftless.analysis import (
    C2_TOL,
    asymptotics,
    brockett_scan,
    certify_stability,
    report_json,
    rho_positive_study,
)
from driftless.closedform import ClosedFormSolution, fit_constants, fit_solution
from driftless.errors import DivergenceError, InconclusiveError
from driftless.simulate import (
    GainConfig,
    IntegratorConfig,
    integrate_unicycle,
    unicycle_field,
)

STABLE = GainConfig(-1.0, -1.0)


def stable_run(q0, t_end=30.0):
    return integrate_unicycle(q0, STABLE, IntegratorConfig(step=1e-3, t_end=t_end))


class TestCertifyStability:
    def test_stable_run_certified(self):
        traj = stable_run([1.0, 0.0, 0.5])
        cert = certify_stability(traj, lambda q: unicycle_field(q, STABLE), tol=1e-6)
        assert cert.energy_bounded
        assert cert.norm_monotone
        assert cert.final_speed < 1e-6
        assert cert.passed

    def test_zero_state_trivially_bounded(self):
        traj = stable_run([0.0, 0.0, 0.0], t_end=5.0)
        cert = certify_stability(traj, lambda q: unicycle_field(q, STABLE), tol=1e-6)
        assert cert.energy_bounded
        assert cert.final_speed == 0.0

    def test_destabilizing_gain_diverges(self):
        bad = GainConfig(1.0, 1.0)
        with pytest.raises(DivergenceError) as excinfo:
            integrate_unicycle([1.0, 0.0, 0.5], bad, IntegratorConfig(step=1e-3, t_end=30.0))
        assert excinfo.value.trajectory is not None

    def test_short_trajectory_inconclusive(self):
        traj = stable_run([1.0, 0.0, 0.5], t_end=30.0)
        from driftless.simulate import Trajectory

        stub = Trajectory(traj.times[:5], traj.states[:5], traj.energy[:5])
        with pytest.raises(InconclusiveError):
            certify_stability(stub, lambda q: unicycle_field(q, STABLE), tol=1e-6)


class TestAsymptotics:
    def test_zero_c2_lands_at_origin(self):
        sol = ClosedFormSolution(theta0=1.0, c1=0.7, c2=0.0)
        report = asymptotics(sol)
        assert report.x_infinity == (0.0, 0.0)
        assert report.c2_zero_feasible

    def test_half_pi_c2(self):
        sol = ClosedFormSolution(theta0=1.0, c1=0.0, c2=math.pi / 2)
        report = asymptotics(sol)
        assert report.x_infinity[1] == pytest.approx(1.0)
        assert report.z1_limit == 0.0

    def test_limit_matches_oracle(self):
        rng = np.random.default_rng(9)
        cfg = IntegratorConfig(step=1e-3, t_end=40.0)
        for _ in range(5):
            X0 = rng.uniform(-2, 2, 2)
            theta0 = rng.uniform(0.3, 2.0)
            sol = fit_solution(X0, theta0)
            report = asymptotics(sol)
            traj = integrate_unicycle([X0[0], X0[1], theta0], STABLE, cfg)
            assert np.allclose(
                traj.final_state[:2], report.x_infinity, atol=1e-3
            )
            assert abs(traj.final_state[0]) < 1e-6

    def test_feasible_direction_is_unit(self):
        report = asymptotics(ClosedFormSolution(theta0=0.9, c1=1.0, c2=1.0))
        assert math.hypot(*report.feasible_direction) == pytest.approx(1.0)


class TestRhoPositiveStudy:
    def test_position_collapses_attitude_spins(self):
        report = rho_positive_study([1.0, 0.0, 0.5], -1.0, 1.0, horizon=15.0)
        assert report.position_norms[-1] < 1e-3
        assert report.attitude_grows
        assert report.theta_final == pytest.approx(0.5 * math.e**15, rel=1e-12)
        assert report.position_decays

    def test_zero_position_is_invariant(self):
        report = rho_positive_study([0.0, 0.0, 0.5], -1.0, 1.0, horizon=10.0)
        assert all(n == 0.0 for n in report.position_norms)

    def test_other_start(self):
        report = rho_positive_study([0.1, -0.2, 1.0], -1.0, 1.0, horizon=15.0)
        assert report.position_norms[-1] < 1e-3
        assert report.attitude_grows

    def test_gain_signs_enforced(self):
        with pytest.raises(ValueError):
            rho_positive_study([1, 0, 0.5], 1.0, 1.0, horizon=5.0)


class TestBrockettScan:
    def test_feasible_set_is_one_line(self):
        for theta0 in [0.6, 1.0, -1.7]:
            report = brockett_scan(theta0)
            assert report.n_points >= 1000
            assert report.all_feasible_aligned
            # only the deliberately injected on-line points qualify
            assert report.n_feasible <= 25 + 2
            assert report.feasible_fraction < 0.05

    def test_matches_per_point_fit(self):
        # the scan solves every start at once; refitting each start on its
        # own is the reference
        radii = np.linspace(0.1, 3.0, 25)
        angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        ring = [r * np.array([math.cos(a), math.sin(a)]) for a in angles for r in radii]
        for theta0 in [0.5, -1.7]:
            report = brockett_scan(theta0)
            starts = ring + [r * np.array(report.feasible_direction) for r in radii]
            c2 = np.array([fit_constants(x, theta0)[1] for x in starts])
            assert report.n_points == len(starts)
            assert report.n_feasible == np.count_nonzero(np.abs(c2) < C2_TOL)

    def test_on_line_points_reach_origin(self):
        report = brockett_scan(1.0)
        d = np.array(report.feasible_direction)
        for r in [0.5, 1.0, 2.0]:
            _, c2 = fit_constants(r * d, 1.0)
            assert abs(c2) < 1e-10


def test_reports_serialize_to_json():
    report = asymptotics(ClosedFormSolution(theta0=1.0, c1=1.0, c2=0.5))
    payload = json.loads(report_json(report))
    assert payload["z2_limit"] == pytest.approx(1.0 / math.pi)
    assert payload["x_infinity"][0] == 0.0
