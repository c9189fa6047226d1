"""Integrators, unicycle field, switching, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftless.core import closed_loop_field
from driftless.errors import DivergenceError, SwitchTimeoutError
from driftless.simulate import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    GainConfig,
    IntegratorConfig,
    Trajectory,
    _dp45_step,
    integrate,
    integrate_unicycle,
    propagate_fast_attitude,
    run_switching,
    unicycle_field,
    unicycle_field_set,
)

EQUAL_GAINS = GainConfig(-1.0, -1.0)


class TestUnicycleField:
    def test_origin_position_kills_position_rows(self):
        for th in [-2.0, 0.3, 1.5]:
            qdot = unicycle_field([0.0, 0.0, th], EQUAL_GAINS)
            assert np.allclose(qdot, [0.0, 0.0, -th])

    def test_axis(self):
        assert np.allclose(unicycle_field([1, 0, 0], EQUAL_GAINS), [-1, 0, 0])

    def test_diagonal(self):
        qdot = unicycle_field([1.0, 1.0, math.pi / 4], EQUAL_GAINS)
        assert np.allclose(qdot, [-1.0, -1.0, -math.pi / 4])

    @given(
        q=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
        rho=st.floats(-10.0, 10.0, allow_subnormal=False),
    )
    def test_matches_definitional_closed_loop(self, q, rho):
        # core's oracle: q' = rho * S (S' q) with the unicycle's two columns;
        # a subnormal rho would leave a bound below one unit of rounding
        got = unicycle_field(q, GainConfig(rho, rho))
        ref = closed_loop_field(q, unicycle_field_set(), rho)
        assert all(type(v) is float for v in got)
        bound = 1e-15 * abs(rho) * (1.0 + math.hypot(*q))
        assert np.max(np.abs(np.array(got) - ref)) <= bound

    def test_split_gains(self):
        g = GainConfig(rho_pos=-2.0, rho_theta=0.5)
        qdot = unicycle_field([1.0, 0.0, 0.0], g)
        assert np.allclose(qdot, [-2.0, 0.0, 0.0])
        assert unicycle_field([0, 0, 1.0], g)[2] == pytest.approx(0.5)


class TestIntegrate:
    def test_zero_field_constant(self):
        traj = integrate(lambda q: np.zeros(3), [1.0, 2.0, 3.0], IntegratorConfig(t_end=2.0, step=0.1))
        assert np.allclose(traj.states, [1.0, 2.0, 3.0])
        assert np.all(traj.energy == 0.0)

    def test_exponential_decay_exact(self):
        traj = integrate(lambda q: -q, np.array([1.0]), IntegratorConfig(step=1e-3, t_end=1.0))
        assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_rk4_order_four(self):
        # halving the step should shrink the end-state error ~16x
        errs = []
        for step in (2e-2, 1e-2):
            traj = integrate(lambda q: -q, np.array([1.0]), IntegratorConfig(step=step, t_end=1.0))
            errs.append(abs(traj.final_state[0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_unicycle_long_run(self):
        traj = integrate_unicycle([1.0, 0.0, 0.5], EQUAL_GAINS, IntegratorConfig(step=1e-3, t_end=20.0))
        assert np.linalg.norm(traj.final_state) < np.linalg.norm([1.0, 0.0, 0.5])
        assert traj.final_state[2] == pytest.approx(0.5 * math.exp(-20.0), abs=1e-12)

    def test_attitude_decoupling(self):
        g = GainConfig(rho_pos=-1.0, rho_theta=-0.7)
        traj = integrate_unicycle([2.0, -1.0, 1.1], g, IntegratorConfig(step=1e-3, t_end=5.0))
        expected = 1.1 * np.exp(-0.7 * traj.times)
        assert np.max(np.abs(traj.states[:, 2] - expected)) < 1e-9

    def test_fast_path_matches_generic(self):
        cfg = IntegratorConfig(step=1e-3, t_end=3.0)
        fast = integrate_unicycle([1.0, 0.3, 0.9], EQUAL_GAINS, cfg)
        slow = integrate(lambda q: unicycle_field(q, EQUAL_GAINS), [1.0, 0.3, 0.9], cfg)
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.states, slow.states)
        # the generic path sums the squared speed with np.dot
        assert np.allclose(fast.energy, slow.energy, atol=1e-12)

    def test_rk45_matches_rk4(self):
        f = lambda q: unicycle_field(q, EQUAL_GAINS)
        a = integrate(f, [1.0, 0.0, 0.5], IntegratorConfig(method="rk45", t_end=5.0))
        b = integrate(f, [1.0, 0.0, 0.5], IntegratorConfig(step=1e-3, t_end=5.0))
        assert np.allclose(a.final_state, b.final_state, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 5])
    def test_rk45_other_dimensions(self, n):
        q0 = np.linspace(1.0, -2.0, n)
        traj = integrate(lambda q: -q, q0, IntegratorConfig(method="rk45", t_end=3.0))
        assert traj.states.shape[1] == n
        assert np.allclose(traj.final_state, q0 * math.exp(-3.0), rtol=1e-8, atol=0.0)

    def test_rk45_nan_field_raises(self):
        # every attempt that meets the NaN has a NaN error estimate; rejecting
        # it and growing the step would repeat forever
        calls = []

        def field(q):
            calls.append(1)
            if len(calls) > 100_000:
                raise RuntimeError("rk45 still retrying a NaN field")
            return -q if q[0] >= 0.5 else np.array([np.nan])

        with pytest.raises(DivergenceError, match="NaN") as excinfo:
            integrate(field, [1.0], IntegratorConfig(method="rk45", t_end=5.0))
        traj = excinfo.value.trajectory
        assert 0.5 < traj.times[-1] <= math.log(2.0) + 1e-6

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError) as excinfo:
            integrate(lambda q: q, np.array([1.0]), IntegratorConfig(step=1e-2, t_end=50.0))
        assert excinfo.value.trajectory is not None
        assert len(excinfo.value.trajectory.times) > 1

    def test_energy_column_monotone(self):
        traj = integrate_unicycle([1.0, 1.0, -0.8], EQUAL_GAINS, IntegratorConfig(step=1e-3, t_end=8.0))
        assert np.all(np.diff(traj.energy) >= 0.0)


def _dp45_reference(f, t, q, h):
    """The array form of one Dormand-Prince attempt, kept as the reference."""
    ks = []
    for i in range(7):
        qi = q.copy()
        for aij, kj in zip(_DP_A[i], ks):
            qi += h * aij * kj
        ks.append(f(t + _DP_C[i] * h, qi))
    q5 = q + h * sum(b * k for b, k in zip(_DP_B5, ks))
    q4 = q + h * sum(b * k for b, k in zip(_DP_B4, ks))
    return q5, q5 - q4


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDP45Step:
    finite = st.floats(-10.0, 10.0)
    steps = st.floats(1e-6, 1.0)

    @given(data=st.data(), n=st.sampled_from([1, 3, 5]), t=finite, h=steps)
    def test_linear_fields_match_array_form(self, data, n, t, h):
        q = np.array(data.draw(st.lists(self.finite, min_size=n, max_size=n)))
        A = np.array(data.draw(st.lists(self.finite, min_size=n * n, max_size=n * n)))
        A = A.reshape(n, n)
        f = lambda t, y: A @ y  # noqa: E731
        f_floats = lambda t, y: f(t, np.array(y)).tolist()  # noqa: E731
        got, ref = _dp45_step(f_floats, t, q.tolist(), h), _dp45_reference(f, t, q, h)
        assert all(type(v) is float for part in got for v in part)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])

    @given(
        q=st.tuples(finite, finite, finite),
        rho_pos=st.floats(-5.0, -0.01),
        rho_theta=st.floats(-5.0, 5.0),
        h=steps,
    )
    def test_unicycle_field_matches_array_form(self, q, rho_pos, rho_theta, h):
        gains = GainConfig(rho_pos, rho_theta)
        f = lambda t, y: unicycle_field(y, gains)  # noqa: E731
        f_array = lambda t, y: np.array(f(t, y))  # noqa: E731
        got, ref = _dp45_step(f, 0.0, list(q), h), _dp45_reference(f_array, 0.0, np.array(q), h)
        assert all(type(v) is float for part in got for v in part)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])

    def test_orders_of_solution_and_estimate(self):
        # y' = -2 t y^2, y = 1 / (1 + t^2): a fifth-order step has local
        # error O(h^6) and its embedded estimate is O(h^5)
        f = lambda t, y: [-2.0 * t * y[0] * y[0]]  # noqa: E731
        t0 = 0.5
        local, estimate = [], []
        for h in (0.1, 0.05):
            q5, err = _dp45_step(f, t0, [1.0 / (1.0 + t0 * t0)], h)
            local.append(abs(q5[0] - 1.0 / (1.0 + (t0 + h) ** 2)))
            estimate.append(abs(err[0]))
        assert 48.0 < local[0] / local[1] < 96.0
        assert 24.0 < estimate[0] / estimate[1] < 48.0


class TestSwitching:
    CFG = IntegratorConfig(method="rk45", abs_tol=1e-10, rel_tol=1e-10, t_end=25.0)
    GAINS = GainConfig(
        rho_pos=-1.0,
        rho_theta=1.0,
        switch_enabled=True,
        switch_radius=0.05,
        rho_theta_after_switch=-1.0,
    )

    def test_immediate_switch_when_inside_radius(self):
        result = run_switching([0.0, 0.0, 0.5], self.GAINS, self.CFG)
        assert result.switch_time == 0.0

    def test_switch_from_unit_box(self):
        result = run_switching([1.0, 1.0, 0.5], self.GAINS, self.CFG)
        assert 0.0 < result.switch_time < 25.0
        traj = result.trajectory
        xy = np.linalg.norm(traj.final_state[:2])
        assert xy <= 0.05 * (1.0 + 1e-6)
        # attitude decays exponentially after the switch
        post = traj.times >= result.switch_time
        th_post = traj.states[post, 2]
        t_post = traj.times[post]
        expected = th_post[0] * np.exp(-(t_post - t_post[0]))
        assert np.max(np.abs(th_post - expected)) < 1e-4 * max(1.0, abs(th_post[0]))

    @pytest.mark.parametrize(
        "q0, cfg",
        [
            ((1.0, 1.0, 0.5), CFG),
            ((0.5, 0.0, 0.25), CFG),
            ((1.0, 1.0, 0.5), IntegratorConfig(step=1e-3, t_end=8.0)),
        ],
        ids=["rk45-unit-box", "rk45-near-axis", "rk4-unit-box"],
    )
    def test_switch_point_on_radius(self, q0, cfg):
        result = run_switching(q0, self.GAINS, cfg)
        traj, t_s = result.trajectory, result.switch_time
        x_s, y_s, th_s = traj.states[np.searchsorted(traj.times, t_s)]
        assert th_s == pytest.approx(q0[2] * math.exp(t_s), rel=1e-9)
        assert math.hypot(x_s, y_s) == pytest.approx(0.05, rel=1e-12)

    def test_switch_far_start(self):
        result = run_switching([10.0, -3.0, 2.0], self.GAINS, self.CFG)
        traj = result.trajectory
        assert np.linalg.norm(traj.final_state[:2]) <= 0.05 * (1.0 + 1e-6)

    def test_timeout(self):
        cfg = IntegratorConfig(method="rk45", t_end=0.1)
        with pytest.raises(SwitchTimeoutError) as excinfo:
            run_switching([1.0, 1.0, 0.5], self.GAINS, cfg)
        assert excinfo.value.trajectory is not None

    def test_precondition_checks(self):
        with pytest.raises(ValueError):
            run_switching([1, 1, 0.5], GainConfig(-1.0, 1.0), self.CFG)
        bad = GainConfig(-1.0, -1.0, switch_enabled=True, switch_radius=0.05, rho_theta_after_switch=-1.0)
        with pytest.raises(ValueError):
            run_switching([1, 1, 0.5], bad, self.CFG)


class TestFastAttitudePropagator:
    def test_matches_adaptive_oracle_on_short_horizon(self):
        ts, Xs = propagate_fast_attitude([1.0, 0.0], 0.5, -1.0, 1.0, 8.0)
        f = lambda q: unicycle_field(q, GainConfig(-1.0, 1.0))
        ref = integrate(f, [1.0, 0.0, 0.5], IntegratorConfig(method="rk45", t_end=8.0))
        assert np.allclose(Xs[-1], ref.final_state[:2], atol=1e-6)

    def test_zero_position_invariant(self):
        _, Xs = propagate_fast_attitude([0.0, 0.0], 0.5, -1.0, 1.0, 10.0)
        assert np.all(Xs == 0.0)

    def test_negative_attitude_sign_handling(self):
        ts, Xs = propagate_fast_attitude([0.5, -0.5], -0.7, -1.0, 1.0, 8.0)
        f = lambda q: unicycle_field(q, GainConfig(-1.0, 1.0))
        ref = integrate(f, [0.5, -0.5, -0.7], IntegratorConfig(method="rk45", t_end=8.0))
        assert np.allclose(Xs[-1], ref.final_state[:2], atol=1e-6)


class TestTrajectoryIO:
    def make(self):
        return integrate_unicycle([1.0, 0.0, 0.5], EQUAL_GAINS, IntegratorConfig(step=1e-2, t_end=1.0))

    def test_csv_schema(self, tmp_path):
        traj = self.make()
        path = tmp_path / "out.csv"
        traj.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_c,y_c,theta,energy"
        assert len(lines) == len(traj.times) + 1
        row = [float(v) for v in lines[-1].split(",")]
        assert row[0] == traj.times[-1]
        assert row[3] == traj.final_state[2]

    def test_csv_17_digit_round_trip(self, tmp_path):
        traj = self.make()
        path = tmp_path / "out.csv"
        traj.to_csv(str(path))
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1:4], traj.states)

    def test_json_mirror(self, tmp_path):
        traj = self.make()
        path = tmp_path / "out.json"
        traj.to_json(str(path), meta={"note": "x"})
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["t", "x_c", "y_c", "theta", "energy"]
        assert payload["meta"]["note"] == "x"
        assert payload["rows"][0][1] == 1.0

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)), np.zeros(2))
