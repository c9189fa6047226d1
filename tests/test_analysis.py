"""Stability certificates, asymptotic reports, Brockett scan."""

import json
import math

import numpy as np
import pytest

from driftless.analysis import (
    C2_TOL,
    SCAN_ANGLES,
    asymptotics,
    brockett_scan,
    certify_stability,
    report_json,
    rho_positive_study,
)
from driftless.closedform import (
    ClosedFormSolution, basis_matrix, feasible_direction, fit_constants, fit_solution
)
from driftless.errors import DivergenceError, InconclusiveError
from driftless.simulate import (
    GainConfig,
    IntegratorConfig,
    Trajectory,
    integrate_unicycle,
    propagate_fast_attitude,
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

    def test_final_decile_without_samples_inconclusive(self):
        # 20 nodes up to t = 0.19, then one at t = 10: none from t = 9 on but the last
        times = np.append(0.01 * np.arange(20), 10.0)
        stub = Trajectory(times, np.zeros((21, 3)), np.zeros(21))
        with pytest.raises(InconclusiveError, match="final decile contains too few samples"):
            certify_stability(stub, lambda q: unicycle_field(q, STABLE), tol=1e-6)

    def test_state_norm_beyond_sqrt_of_max_double(self):
        # zero position gain: the position stays at 1e300, |q|^2 overflows
        # but the energy integral does not
        gains = GainConfig(0.0, -1.0)
        traj = integrate_unicycle([1e300, 0.0, 0.5], gains, IntegratorConfig(step=1e-2, t_end=5.0))
        cert = certify_stability(traj, lambda q: unicycle_field(q, gains), tol=1e-6)
        assert cert.norm_monotone and math.isfinite(cert.final_speed)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # NaN would fail every run and inf pass every run
        traj = stable_run([1.0, 0.0, 0.5], t_end=5.0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            certify_stability(traj, lambda q: unicycle_field(q, STABLE), tol=tol)


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

    @pytest.mark.parametrize("scale, on_line", [(1e12, True), (1e-12, False)])
    def test_c2_zero_rule_does_not_depend_on_scale(self, scale, on_line):
        # an absolute |c2| < C2_TOL called the far on-line start off the line
        # (c2 = -6.0e-5) and the tiny perpendicular one on it
        dx, dy = feasible_direction(1.0)
        X0 = scale * (np.array([dx, dy]) if on_line else np.array([-dy, dx]))
        assert asymptotics(fit_solution(X0, 1.0)).c2_zero_feasible is on_line

    @pytest.mark.parametrize("theta0", [67028.98240884578, -67028.98240884578])
    def test_c2_zero_rule_measures_the_angle_off_the_line(self, theta0):
        # 1e-6 rad off the line, |c2| / |X0| is 4.8e-9 here (|B e2| = 207), which
        # an absolute or |X0|-relative rule calls zero; c2's share is 1e-6
        dx, dy = feasible_direction(theta0)
        c, s = math.cos(1e-6), math.sin(1e-6)
        X0 = np.array([c * dx - s * dy, s * dx + c * dy])
        assert not asymptotics(fit_solution(X0, theta0)).c2_zero_feasible
        assert asymptotics(fit_solution(np.array([dx, dy]), theta0)).c2_zero_feasible


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

    def test_theta_final_is_the_propagators_last_attitude(self):
        # one law for the attitude: a copy of it in math.exp would differ from the
        # propagator's np.exp by one ulp on some of these starts
        rng = np.random.default_rng(23)
        theta0s = rng.choice([-1.0, 1.0], 40) * rng.uniform(1e-3, 3.0, 40)
        cases = list(zip(theta0s, rng.uniform(0.5, 6.0, 40)))
        cases += [(0.0, 3.0), (-0.0, 3.0), (5e-324, 3.0)]
        for theta0, horizon in cases:
            q0 = [1.0, -0.5, theta0]
            report = rho_positive_study(q0, -1.0, 1.0, horizon)
            _, states = propagate_fast_attitude(q0, -1.0, 1.0, horizon)
            assert report.theta_final.hex() == states[-1, 2].hex(), (theta0, horizon)


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
            norms = np.array([math.hypot(*x) for x in starts])
            e2_norm = math.hypot(*basis_matrix(theta0)[:, 1])
            assert report.n_points == len(starts)
            assert report.n_feasible == np.count_nonzero(np.abs(c2) * e2_norm <= C2_TOL * norms)

    def test_criterion_5_over_a_sweep_of_attitudes(self):
        # 401 log-spaced |theta0| in [1e-3, 1e8], both signs. A grid ray counts
        # only within about C2_TOL rad of the feasible line (c2's share of a
        # start is at least the sine of its angle off the line). That line tends
        # to 45 (135) degrees as theta0 grows; the rays sit half a step off those
        # angles, and over the sweep none comes within 6e-4 rad of the line.
        step = math.pi / (SCAN_ANGLES // 2)
        for theta0 in [s * t for t in np.logspace(-3, 8, 401) for s in (1.0, -1.0)]:
            report = brockett_scan(float(theta0))
            assert report.all_feasible_aligned
            angle = (math.atan2(report.feasible_direction[1], report.feasible_direction[0])
                     - 0.5 * step) % step
            assert min(angle, step - angle) > 1.01 * C2_TOL, theta0
            assert report.n_feasible <= 27, theta0

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
