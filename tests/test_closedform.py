"""Rotation frame, constant fitting, and closed-form trajectory checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftless.closedform import (
    ClosedFormSolution,
    basis_matrix,
    degenerate_eval,
    eval_solution,
    fit_constants,
    fit_solution,
    from_z_frame,
    ode_residual,
    to_z_frame,
)
from driftless.errors import DegenerateAttitudeError
from driftless.simulate import GainConfig, IntegratorConfig, integrate_unicycle


class TestFrameChange:
    def test_identity_at_zero(self):
        assert np.allclose(to_z_frame([1.5, -2.0], 0.0), [1.5, -2.0])

    def test_quarter_turn(self):
        assert np.allclose(to_z_frame([1.0, 0.0], math.pi / 2), [0.0, -1.0], atol=1e-15)

    @given(
        x=st.floats(-5, 5), y=st.floats(-5, 5), th=st.floats(-10, 10)
    )
    def test_round_trip_and_norm(self, x, y, th):
        z = to_z_frame([x, y], th)
        back = from_z_frame(z, th)
        assert np.allclose(back, [x, y], atol=1e-12)
        assert np.linalg.norm(z) == pytest.approx(math.hypot(x, y), abs=1e-12)


class TestFitConstants:
    def test_constructed_preimage(self):
        theta0 = 0.8
        X0 = from_z_frame(basis_matrix(theta0) @ np.array([1.0, 0.0]), theta0)
        c1, c2 = fit_constants(X0, theta0)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_start(self):
        c1, c2 = fit_constants([0.0, 0.0], 1.3)
        assert c1 == 0.0 and c2 == 0.0

    def test_determinant_is_wronskian(self):
        for theta0 in [-2.5, -0.3, 0.4, 1.0, 3.0]:
            det = np.linalg.det(basis_matrix(theta0))
            assert det == pytest.approx(2.0 * theta0 / math.pi, rel=1e-10)

    def test_fit_matches_oracle_trajectory(self):
        # the constants must reproduce the rk4 trajectory, not just t=0
        theta0 = 1.0
        c1, c2 = fit_constants([1.0, 0.0], theta0)
        traj = integrate_unicycle(
            [1.0, 0.0, theta0], GainConfig(-1, -1), IntegratorConfig(step=1e-3, t_end=5.0)
        )
        sol = ClosedFormSolution(theta0=theta0, c1=c1, c2=c2)
        for i in range(0, len(traj.times), 500):
            st_ = eval_solution(sol, traj.times[i])
            assert np.allclose(st_.X, traj.states[i][:2], atol=1e-6)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateAttitudeError):
            fit_constants([1.0, 0.0], 0.0)


class TestEval:
    def test_reproduces_initial_condition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X0 = rng.uniform(-3, 3, 2)
            theta0 = rng.uniform(-3, 3)
            if abs(theta0) < 1e-3:
                continue
            sol = fit_solution(X0, theta0)
            assert np.allclose(eval_solution(sol, 0.0).X, X0, atol=1e-12)

    def test_pure_first_kind_vanishes(self):
        sol = ClosedFormSolution(theta0=1.0, c1=1.0, c2=0.0)
        st_ = eval_solution(sol, 30.0)
        assert abs(st_.z1) < 1e-12
        assert abs(st_.z2) < 1e-12

    def test_second_kind_limit(self):
        sol = ClosedFormSolution(theta0=1.0, c1=0.0, c2=1.0)
        st_ = eval_solution(sol, 40.0)
        assert st_.z2 == pytest.approx(2.0 / math.pi, abs=1e-10)

    def test_z_system_consistency(self):
        # finite-difference check of z1' = rho z1 + theta' z2, z2' = -theta' z1
        sol = fit_solution([1.0, -0.5], 1.2)
        h = 1e-5
        for t in [0.5, 1.0, 2.0, 4.0]:
            sm, s0, sp = (eval_solution(sol, t + d) for d in (-h, 0.0, h))
            theta_dot = -s0.theta
            dz1 = (sp.z1 - sm.z1) / (2 * h)
            dz2 = (sp.z2 - sm.z2) / (2 * h)
            assert abs(dz1 - (-s0.z1 + theta_dot * s0.z2)) < 1e-5
            assert abs(dz2 - (-theta_dot * s0.z1)) < 1e-5

    def test_bessel_form_equals_quotient_form(self):
        # z2 from the Bessel expression agrees with (z1' - rho z1)/theta'
        # wherever the quotient is well conditioned
        sol = fit_solution([0.7, 0.4], -1.4)
        h = 1e-6
        for t in [0.2, 1.0, 2.5]:
            sm, s0, sp = (eval_solution(sol, t + d) for d in (-h, 0.0, h))
            dz1 = (sp.z1 - sm.z1) / (2 * h)
            quotient = (dz1 + s0.z1) / (-s0.theta)
            assert quotient == pytest.approx(s0.z2, abs=1e-6)

    def test_negative_time_rejected(self):
        sol = ClosedFormSolution(theta0=1.0, c1=1.0, c2=0.0)
        with pytest.raises(ValueError):
            eval_solution(sol, -0.1)


class TestDegenerateEval:
    def test_exact_exponential(self):
        X = degenerate_eval(1.0, 2.0, -1.0, 1.0)
        assert np.allclose(X, [math.exp(-1.0), 2.0])

    def test_y_axis_equilibrium(self):
        assert np.allclose(degenerate_eval(0.0, 5.0, -2.0, 7.0), [0.0, 5.0])

    def test_matches_rk4_oracle(self):
        traj = integrate_unicycle(
            [1.0, 2.0, 0.0], GainConfig(-1, -1), IntegratorConfig(step=1e-3, t_end=1.0)
        )
        assert np.allclose(
            degenerate_eval(1.0, 2.0, -1.0, 1.0), traj.final_state[:2], atol=1e-8
        )


class TestOdeResidual:
    def test_residual_is_discretization_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sol = ClosedFormSolution(
                theta0=rng.uniform(0.2, 2.5), c1=rng.normal(), c2=rng.normal()
            )
            z1 = eval_solution(sol, 1.0).z1
            assert ode_residual(sol, 1.0, 1e-4) <= 1e-5 * max(1.0, abs(z1))

    def test_zero_solution(self):
        sol = ClosedFormSolution(theta0=1.0, c1=0.0, c2=0.0)
        assert ode_residual(sol, 1.0, 1e-4) == 0.0

    def test_h_squared_scaling(self):
        sol = ClosedFormSolution(theta0=1.5, c1=1.0, c2=0.5)
        # use coarse steps so truncation error dominates roundoff
        r1 = ode_residual(sol, 1.0, 2e-2)
        r2 = ode_residual(sol, 1.0, 1e-2)
        assert 2.5 < r1 / r2 < 5.5

    def test_requires_room_for_stencil(self):
        sol = ClosedFormSolution(theta0=1.0, c1=1.0, c2=0.0)
        with pytest.raises(ValueError):
            ode_residual(sol, 1e-5, 1e-4)


def test_frame_equivalence_random_fits():
    # closed form vs rk4 oracle, moderate battery (the full one lives in
    # the acceptance suite)
    rng = np.random.default_rng(42)
    cfg = IntegratorConfig(step=1e-3, t_end=10.0)
    for _ in range(10):
        X0 = rng.uniform(-3, 3, 2)
        theta0 = rng.uniform(-3, 3)
        if abs(theta0) < 0.05:
            theta0 = 0.5
        sol = fit_solution(X0, theta0)
        traj = integrate_unicycle([X0[0], X0[1], theta0], GainConfig(-1, -1), cfg)
        sup = 0.0
        for i in range(0, len(traj.times), 200):
            st_ = eval_solution(sol, traj.times[i])
            sup = max(sup, float(np.max(np.abs(st_.X - traj.states[i][:2]))))
        assert sup <= 1e-4
