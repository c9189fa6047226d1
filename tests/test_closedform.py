"""Rotation frame, constant fitting, and closed-form trajectory checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftless.closedform import (
    RHO,
    ClosedFormSolution,
    basis_matrix,
    degenerate_eval,
    eval_solution,
    fit_constants,
    fit_solution,
    from_z_frame,
    to_z_frame,
)
from driftless.errors import DegenerateAttitudeError, DomainError
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

    @pytest.mark.parametrize("theta0", [-1.7, 1.3, 30.0])
    def test_batch_matches_single_starts(self, theta0):
        starts = np.array([[1.0, -0.5], [0.0, 2.0], [3.0, 0.25], [0.0, 0.0]])
        c = fit_constants(starts.T, theta0)
        assert c.shape == (2, len(starts))
        for col, X0 in zip(c.T, starts):
            # LAPACK may round a column of several right-hand sides 1 ulp apart
            np.testing.assert_allclose(col, fit_constants(X0, theta0), rtol=1e-15, atol=0.0)

    def test_determinant_is_wronskian(self):
        for theta0 in [-2.5, -0.3, 0.4, 1.0, 3.0, 60.0]:
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

    @pytest.mark.parametrize("theta0", [0.0, -0.0])
    def test_solution_refuses_zero_attitude(self, theta0):
        with pytest.raises(DegenerateAttitudeError, match="degenerate_eval"):
            ClosedFormSolution(theta0=theta0, c1=1.0, c2=0.0)


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
        # at t = 720 theta is subnormal, at t = 760 it is 0
        sol = ClosedFormSolution(theta0=1.0, c1=0.0, c2=1.0)
        for t in [40.0, 720.0, 760.0]:
            st_ = eval_solution(sol, t)
            assert np.all(np.isfinite(st_.X))
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


class TestGridEval:
    @settings(deadline=None)
    @given(
        x=st.floats(-3, 3), y=st.floats(-3, 3), sign=st.sampled_from([-1.0, 1.0]),
        log_theta0=st.floats(-3, 6), times=st.lists(st.floats(0, 40), max_size=40),
    )
    def test_grid_matches_points(self, x, y, sign, log_theta0, times):
        # |theta0| up to 1e6, across the series/Hankel cutoff; t = 400 has
        # |theta| < 1e-150 (small-attitude limit), t = 800 and inf theta = 0
        sol = fit_solution([x, y], sign * 10.0**log_theta0)
        t = np.array(sorted(times) + [400.0, 800.0, math.inf])
        grid = eval_solution(sol, t)
        points = [eval_solution(sol, v) for v in t]
        # a bound set from float64 beforehand: numpy's vector exp, cos and sin
        # may differ from math's by an ulp (the grid uses math today, and
        # test_closed_form_csv_equals_point_loop checks bytes)
        for name in ("theta", "z1", "z2", "X"):
            want = np.array([getattr(p, name) for p in points])
            got = getattr(grid, name)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 4.5e-16 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_bad_time_raises_as_point(self, bad):
        sol = ClosedFormSolution(theta0=1.0, c1=1.0, c2=0.5)
        with pytest.raises((ValueError, DomainError)) as point:
            eval_solution(sol, bad)
        with pytest.raises(type(point.value), match=str(point.value)):
            eval_solution(sol, np.array([0.0, 1.0, bad, 2.0]))

    @pytest.mark.parametrize("theta0", [1.5, -20.0])
    def test_zero_dimensional_time_is_a_point(self, theta0):
        # the series and the Hankel branch; the same bits as the float time
        sol = fit_solution([1.0, 0.5], theta0)
        got, want = eval_solution(sol, np.array(0.5)), eval_solution(sol, 0.5)
        assert type(got.theta) is float and got.X.shape == (2,)
        for name in ("theta", "z1", "z2", "X"):
            assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (2, 0)])
    def test_time_array_of_other_shape_is_refused(self, shape):
        sol = ClosedFormSolution(theta0=1.0, c1=1.0, c2=0.5)
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\)"):
            eval_solution(sol, np.ones(shape))

    def test_degenerate_grid_matches_points(self):
        t = np.linspace(0.0, 800.0, 57)
        want = np.array([degenerate_eval(1.0, 2.0, v) for v in t])
        assert degenerate_eval(1.0, 2.0, t).tobytes() == want.tobytes()

    def test_state_is_immutable_with_fixed_fields(self):
        state = eval_solution(fit_solution([1.0, 0.5], 1.5), 0.5)
        assert state._fields == ("theta", "z1", "z2", "X")
        for name in state._fields:
            with pytest.raises(AttributeError):
                setattr(state, name, 0.0)


class TestDegenerateEval:
    def test_zero_dimensional_time_is_a_point(self):
        got, want = degenerate_eval(1.0, 2.0, np.array(0.5)), degenerate_eval(1.0, 2.0, 0.5)
        assert got.shape == want.shape == (2,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (2, 0)])
    def test_time_array_of_other_shape_is_refused(self, shape):
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\)"):
            degenerate_eval(1.0, 2.0, np.ones(shape))

    @pytest.mark.parametrize("t", [-1.0, np.array(-1.0), np.array([0.0, 1.0, -1.0])])
    def test_negative_time_is_refused(self, t):
        with pytest.raises(ValueError, match="nonnegative"):
            degenerate_eval(1.0, 2.0, t)

    def test_exact_exponential(self):
        X = degenerate_eval(1.0, 2.0, 1.0)
        assert np.allclose(X, [math.exp(-1.0), 2.0])

    def test_y_axis_equilibrium(self):
        assert np.allclose(degenerate_eval(0.0, 5.0, 7.0), [0.0, 5.0])

    def test_matches_rk4_oracle(self):
        traj = integrate_unicycle(
            [1.0, 2.0, 0.0], GainConfig(-1, -1), IntegratorConfig(step=1e-3, t_end=1.0)
        )
        assert np.allclose(
            degenerate_eval(1.0, 2.0, 1.0), traj.final_state[:2], atol=1e-8
        )


def ode_residual(sol: ClosedFormSolution, t: float, h: float = 1e-4) -> float:
    """Finite-difference residual of the decoupled second-order equation
    (acceptance criterion 2 reads it too).

    Checks |z1'' - 2 rho z1' + rho^2 (1 + theta'^2) z1| with central
    differences on the closed-form z1; the true residual is zero, so the
    returned value is pure O(h^2) discretization error.
    """
    if t < 2.0 * h:
        raise ValueError("need t >= 2h for central differences")
    stencil = eval_solution(sol, t + np.array((-h, 0.0, h)))
    zm, z0, zp = stencil.z1.tolist()
    d1 = (zp - zm) / (2.0 * h)
    d2 = (zp - 2.0 * z0 + zm) / (h * h)
    theta_dot = RHO * stencil.theta[1].item()  # theta' = RHO theta, at the stencil's centre
    return abs(d2 - 2.0 * RHO * d1 + RHO * RHO * (1.0 + theta_dot * theta_dot) * z0)


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
