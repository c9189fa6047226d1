"""Integrators, unicycle field, switching, serialization."""

import _thread
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

import driftless
from driftless import closedform, simulate
from driftless.analysis import rho_positive_study
from driftless.core import closed_loop_field
from driftless.errors import DivergenceError, RangeError, SwitchTimeoutError
from driftless.simulate import (
    EXPORT_BLOCK,
    FAST_CHUNK,
    MAX_NODES,
    _DP_A,
    _DP_B4,
    _DP_B5,
    GainConfig,
    IntegratorConfig,
    Trajectory,
    _dp45_step,
    _mul,
    _ordered_product,
    _rk4_step,
    _rk4_transitions,
    integrate,
    integrate_unicycle,
    propagate_fast_attitude,
    run_switching,
    unicycle_field,
    unicycle_field_set,
)

EQUAL_GAINS = GainConfig(-1.0, -1.0)


def on_arrays(field):
    """A field on numpy arrays, as integrate's float-list field: q in and q' out as lists."""
    return lambda q: np.asarray(field(np.array(q, float)), float).tolist()


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
        traj = integrate(on_arrays(lambda q: np.zeros(3)), [1.0, 2.0, 3.0],
                         IntegratorConfig(t_end=2.0, step=0.1))
        assert np.allclose(traj.states, [1.0, 2.0, 3.0])
        assert np.all(traj.energy == 0.0)

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_field_is_called_on_float_lists(self, method):
        seen = []

        def field(q):
            seen.append(q)
            return [-v for v in q]

        integrate(field, np.array([1.0, 2.0]), IntegratorConfig(method, step=0.01, t_end=0.1))
        assert all(type(q) is list and all(type(v) is float for v in q) for q in seen)

    def test_exponential_decay_exact(self):
        traj = integrate(on_arrays(lambda q: -q), [1.0], IntegratorConfig(step=1e-3, t_end=1.0))
        assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_rk4_order_four(self):
        # halving the step should shrink the end-state error ~16x
        errs = []
        for step in (2e-2, 1e-2):
            traj = integrate(on_arrays(lambda q: -q), [1.0], IntegratorConfig(step=step, t_end=1.0))
            errs.append(abs(traj.final_state[0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    @pytest.mark.parametrize("run", [
        lambda q0, cfg: integrate_unicycle(q0, EQUAL_GAINS, cfg),
        lambda q0, cfg: integrate(lambda q: unicycle_field(q, EQUAL_GAINS), q0, cfg),
    ], ids=["integrate_unicycle", "integrate"])
    def test_rk4_observed_order_against_the_closed_form(self, run):
        # a consistent stepper of lower order passes criterion 1's 1e-4 at h = 1e-3 with
        # room to spare: scaling a stage product by 1.001 in _rk4_transitions left errors
        # of 1e-7 to 3e-7 there, and ratios of 2.00-2.04 per halving here; RK4 reads 16.1-16.5
        rng = np.random.default_rng(2024)
        signs, sizes = rng.choice((-1.0, 1.0), 10), rng.uniform(0.3, 3.0, 10)
        for q0 in [[*rng.uniform(-2.0, 2.0, 2), s * m] for s, m in zip(signs, sizes)]:
            sol = closedform.fit_solution(q0[:2], q0[2])
            errs = []
            for h in (0.04, 0.02, 0.01):
                traj = run(q0, IntegratorConfig(step=h, t_end=10.0))
                X = [closedform.eval_solution(sol, t).X for t in traj.times]
                errs.append(np.max(np.abs(np.array(X) - traj.states[:, :2])))
            assert 15.0 < errs[0] / errs[1] < 17.5 and 15.0 < errs[1] / errs[2] < 17.5, (q0, errs)

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
        # the transition form is the same RK4 with its sums reordered, so the
        # states agree to rounding (8.4e-15 and 1.4e-14 measured), not bit for bit
        cfg = IntegratorConfig(step=1e-3, t_end=3.0)
        for gains in (EQUAL_GAINS, GainConfig(-1.0, -0.7)):
            fast = integrate_unicycle([1.0, 0.3, 0.9], gains, cfg)
            slow = integrate(lambda q: unicycle_field(q, gains), [1.0, 0.3, 0.9], cfg)
            assert np.array_equal(fast.times, slow.times)
            assert np.max(np.abs(fast.states - slow.states)) <= 1e-13
            # the generic path sums the squared speed of each node's stage field
            assert np.max(np.abs(fast.energy - slow.energy)) <= 1e-12

    @staticmethod
    def assert_steps_are_rk4(q0, gains, step, t_end):
        """Each step equals _rk4_step from the same node to 4 ulp of the node."""
        g = GainConfig(*gains)
        traj = integrate_unicycle(q0, g, IntegratorConfig(step=step, t_end=t_end))
        f = lambda q: unicycle_field(q, g)
        for q, q_next in zip(traj.states[:-1].tolist(), traj.states[1:]):
            want = np.array(_rk4_step(f, q, step, f(q))[0])
            assert np.max(np.abs(q_next - want)) <= 4 * np.spacing(max(map(abs, q)))

    @pytest.mark.parametrize("gains", [(-1.0, -1.0), (-2.0, -0.5), (1.0, 1.0), (-1.0, 0.7)])
    @pytest.mark.parametrize("q0", [(1.0, 0.3, 0.9), (-0.4, 2.0, -3.0), (0.0, 1.0, 25.0)])
    def test_every_transition_step_is_rk4(self, gains, q0):
        # 2 ulp measured; another 4th-order method would miss by about h^5 = 3e-7
        self.assert_steps_are_rk4(q0, gains, 0.05, 5.0)

    @pytest.mark.parametrize("q0, gains, t_end", [
        ((0.460198, 2.83014, 16.479848), (-0.5, -2.0), 8.0),
        ((20.819902, -2.253238, 14.015428), (-0.5, -2.0), 8.0),
        ((1.0, 0.3, 0.9), (-1.0, -1.0), 7.999),
        ((-0.4, 2.0, -3.0), (-1.0, 0.7), 7.999),
    ])
    def test_every_transition_step_is_rk4_at_depth(self, q0, gains, t_end):
        # the steps pair up through 6 levels below each 4,096-step chunk (7,999 steps
        # leave a chunk of 3,903, odd at every level); 3 ulp measured on 40 random starts.
        # Pairing the transition matrices I + D in place of the increments D reached
        # 5 ulp at the first start
        self.assert_steps_are_rk4(q0, gains, 1e-3, t_end)

    @staticmethod
    def stage_product_transitions(h, rho, *thetas):
        """The RK4 increments by 2 x 2 stage products, kept as the reference: A = rho v v'
        at each stage attitude, K_1 = A_1, K_i = A_i (I + s K_{i-1}), D = h/6 (K_1 + 2 K_2
        + 2 K_3 + K_4), as 4 row-major arrays."""

        def coeffs(th):
            c, s = np.cos(th), np.sin(th)
            cs = rho * c * s
            return rho * c * c, cs, cs, rho * s * s

        def stage(a, k, s):  # A (I + s K)
            return _mul(a, (1.0 + s * k[0], s * k[1], s * k[2], 1.0 + s * k[3]))

        a1, a2, a3, a4 = map(coeffs, thetas)
        k2 = stage(a2, a1, 0.5 * h)
        k3 = stage(a3, k2, 0.5 * h)
        k4 = stage(a4, k3, h)
        return tuple(h / 6.0 * (p + 2 * q + 2 * r + w) for p, q, r, w in zip(a1, k2, k3, k4))

    @pytest.mark.parametrize("rho_sign", [-1.0, 1.0])
    @pytest.mark.parametrize("rho_theta_sign", [-1.0, 1.0])
    def test_rank_one_increments_match_stage_products(self, rho_sign, rho_theta_sign):
        # stage attitudes as integrate_unicycle forms them, h |rho_pos| and h |rho_theta|
        # up to 1, |theta| up to 1e6, one step size per step as in the propagator.  Over
        # 3.2e6 such steps (40 seeds) the largest difference was 7.1e-16 of the step's
        # largest entry (3.2 eps)
        rng = np.random.default_rng(17)
        n = 20_000
        rho = rho_sign * 10.0 ** rng.uniform(-2.0, 3.0)
        h = 10.0 ** rng.uniform(-6.0, 0.0, n) / abs(rho)
        z = rho_theta_sign * 10.0 ** rng.uniform(-6.0, 0.0, n)
        f2 = 1.0 + 0.5 * z
        f3 = 1.0 + 0.5 * z * f2
        th = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 6.0, n)
        thetas = (th, th * f2, th * f3, th * (1.0 + z * f3))
        got = np.array(_rk4_transitions(h, rho, *((np.cos(u), np.sin(u)) for u in thetas)))
        want = np.array(self.stage_product_transitions(h, rho, *thetas))
        assert np.all(np.abs(got - want) <= 1e-15 * np.max(np.abs(want), axis=0))

    @staticmethod
    def stopped_runs(gains, t_stop, step):
        """The partial runs of the transition form and of the generic RK4 from (1, 0.5,
        0.3), which must both stop at the node t_stop, with finite states and energy."""
        g, cfg = GainConfig(*gains), IntegratorConfig(step=step, t_end=30.0)
        with pytest.raises(DivergenceError, match=f"guard at t={t_stop:g}$") as fast:
            integrate_unicycle([1.0, 0.5, 0.3], g, cfg)
        with pytest.raises(DivergenceError, match=f"guard at t={t_stop:g}$") as slow:
            integrate(lambda q: unicycle_field(q, g), [1.0, 0.5, 0.3], cfg)
        a, b = fast.value.trajectory, slow.value.trajectory
        assert np.array_equal(a.times, b.times) and a.times[-1] < t_stop
        assert np.all(np.isfinite(a.states)) and np.all(np.isfinite(a.energy))
        assert np.all(np.diff(a.energy) >= 0.0)
        return a, b

    @pytest.mark.parametrize("gains, t_stop", [((1.0, 1.0), 15.17), ((2.0, -1.0), 6.95)])
    def test_divergence_stops_at_the_rk4_node(self, gains, t_stop):
        # the stop times are the scalar RK4 loop's, before the transition form
        a, b = self.stopped_runs(gains, t_stop, 1e-2)
        assert np.allclose(a.states[-1], b.states[-1], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("gains, t_stop", [((1.0, 1.0), 15.166), ((2.0, -1.0), 6.948)])
    def test_divergence_stops_at_the_rk4_node_at_depth(self, gains, t_stop):
        # at step 1e-3 the pairing runs several levels deep below each chunk.  The last
        # states differ from the generic run's by 6.3e-11 and 6.0e-15 of their largest
        # entry: from (1, 1) the attitude passes 1e6 rad, so its rounding turns the position
        # (3.2e-8 of x), as it did in the sequential transition loop
        a, b = self.stopped_runs(gains, t_stop, 1e-3)
        assert np.max(np.abs(a.states[-1] - b.states[-1])) <= 1e-9 * np.max(np.abs(b.states[-1]))

    @pytest.mark.parametrize("rho_theta", [1e300, -1e300])
    def test_zero_attitude_survives_overflowing_attitude_gain(self, rho_theta):
        # theta' = rho_theta theta keeps theta = 0; the stage factors overflow
        g = GainConfig(-1.0, rho_theta)
        traj = integrate_unicycle([1.0, 0.5, 0.0], g, IntegratorConfig(step=1e-2, t_end=1.0))
        assert np.all(traj.states[:, 2] == 0.0) and np.all(traj.states[:, 1] == 0.5)
        assert traj.final_state[0] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_rk45_matches_rk4(self):
        f = lambda q: unicycle_field(q, EQUAL_GAINS)
        a = integrate(f, [1.0, 0.0, 0.5], IntegratorConfig(method="rk45", t_end=5.0))
        b = integrate(f, [1.0, 0.0, 0.5], IntegratorConfig(step=1e-3, t_end=5.0))
        assert np.allclose(a.final_state, b.final_state, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 5])
    def test_rk45_other_dimensions(self, n):
        q0 = np.linspace(1.0, -2.0, n)
        traj = integrate(on_arrays(lambda q: -q), q0, IntegratorConfig(method="rk45", t_end=3.0))
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
            integrate(on_arrays(field), [1.0], IntegratorConfig(method="rk45", t_end=5.0))
        traj = excinfo.value.trajectory
        assert 0.5 < traj.times[-1] <= math.log(2.0) + 1e-6

    def test_rk45_divergence_guard(self):
        # q' = q^2 from 1 blows up at t = 1; the guard (1e6 |q0|) stops it just before
        with pytest.raises(DivergenceError, match="guard at t=0.999999$") as excinfo:
            integrate(on_arrays(lambda q: q * q), [1.0], IntegratorConfig(method="rk45", t_end=2.0))
        traj = excinfo.value.trajectory
        assert 0.99 < traj.times[-1] < 1.0
        assert 1.0 < traj.final_state[0] <= 1e6

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_field_of_the_wrong_length_is_refused_before_a_step(self, method):
        calls = []

        def field(q):
            calls.append(q)
            return [-q[0], -q[1]]

        with pytest.raises(ValueError, match="the field has 2 entries at a start of 3"):
            integrate(field, [1.0, 2.0, 3.0], IntegratorConfig(method=method, t_end=1.0))
        assert calls == [[1.0, 2.0, 3.0]]

    def test_rk45_collapsed_step(self):
        # the field flips sign at q = 0.5: no step across it is ever accepted
        field = lambda q: np.where(q < 0.5, 1e4, -1e4)
        with pytest.raises(DivergenceError, match="collapsed below floor") as excinfo:
            integrate(on_arrays(field), [0.0], IntegratorConfig(method="rk45", t_end=1.0))
        traj = excinfo.value.trajectory
        # the last accepted node lies just below the jump
        assert 0.0 < traj.times[-1] < 1e-4
        assert 0.5 - 1e-8 < traj.final_state[0] < 0.5

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError) as excinfo:
            integrate(on_arrays(lambda q: q), np.array([1.0]), IntegratorConfig(step=1e-2, t_end=50.0))
        assert excinfo.value.trajectory is not None
        assert len(excinfo.value.trajectory.times) > 1

    def test_rk4_nan_state_diverges(self):
        # a NaN state fails the guard as an infinite one does, and the run stops
        # there instead of carrying NaN to the horizon
        field = lambda q: np.full_like(q, np.nan) if q[0] > 1.2 else q
        with pytest.raises(DivergenceError, match="guard at t=0.2$") as excinfo:
            integrate(on_arrays(field), np.array([1.0]), IntegratorConfig(step=0.1, t_end=1.0))
        assert excinfo.value.trajectory.times.tolist() == [0.0, 0.1]

    def test_energy_column_monotone(self):
        traj = integrate_unicycle([1.0, 1.0, -0.8], EQUAL_GAINS, IntegratorConfig(step=1e-3, t_end=8.0))
        assert np.all(np.diff(traj.energy) >= 0.0)


def _dp45_reference(f, q, h):
    """The array form of one Dormand-Prince attempt, kept as the reference."""
    ks = []
    for i in range(7):
        qi = q.copy()
        for aij, kj in zip(_DP_A[i], ks):
            qi += h * aij * kj
        ks.append(f(qi))
    q5 = q + h * sum(b * k for b, k in zip(_DP_B5, ks))
    q4 = q + h * sum(b * k for b, k in zip(_DP_B4, ks))
    return q5, q5 - q4


def _rooted_trees(n):
    """Rooted trees with n nodes, each a sorted tuple of the root's subtrees."""
    if n == 1:
        return {()}
    return {tuple(sorted(t + (s,))) for k in range(1, n)
            for t in _rooted_trees(n - k) for s in _rooted_trees(k)}


def _elementary_weights(a, tree):
    """Phi(tree) per stage: the product over subtrees s of A Phi(s), ones for a leaf."""
    phi = np.ones(len(a))
    for s in tree:
        phi = phi * (a @ _elementary_weights(a, s))
    return phi


def _density(tree):
    """gamma(tree): its node count times the densities of its subtrees."""
    nodes = lambda t: 1 + sum(nodes(s) for s in t)  # noqa: E731
    return nodes(tree) * math.prod(_density(s) for s in tree)


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDP45Step:
    finite = st.floats(-10.0, 10.0)
    steps = st.floats(1e-6, 1.0)

    @given(data=st.data(), n=st.sampled_from([1, 3, 5]), h=steps)
    def test_linear_fields_match_array_form(self, data, n, h):
        q = np.array(data.draw(st.lists(self.finite, min_size=n, max_size=n)))
        A = np.array(data.draw(st.lists(self.finite, min_size=n * n, max_size=n * n)))
        A = A.reshape(n, n)
        f = lambda y: A @ y  # noqa: E731
        f_floats = lambda y: f(np.array(y)).tolist()  # noqa: E731
        got, ref = _dp45_step(f_floats, q.tolist(), h)[:2], _dp45_reference(f, q, h)
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
        f = lambda y: unicycle_field(y, gains)  # noqa: E731
        f_array = lambda y: np.array(f(y))  # noqa: E731
        got, ref = _dp45_step(f, list(q), h)[:2], _dp45_reference(f_array, np.array(q), h)
        assert all(type(v) is float for part in got for v in part)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])

    def test_weights_meet_the_order_conditions(self):
        # b . Phi(t) = 1 / gamma(t) for every rooted tree t up to the order
        assert [len(_rooted_trees(n)) for n in range(1, 6)] == [1, 1, 2, 4, 9]
        a = np.zeros((7, 7))
        for i, row in enumerate(_DP_A):
            a[i, : len(row)] = row

        def residuals(b, order):
            return [abs(np.dot(b, _elementary_weights(a, t)) - 1.0 / _density(t))
                    for n in range(1, order + 1) for t in _rooted_trees(n)]

        assert max(residuals(_DP_B5, 5)) <= 1e-15
        assert max(residuals(_DP_B4, 4)) <= 1e-15
        assert max(residuals(_DP_B4, 5)) > 1e-4  # the embedded pair differs at order 5

    def test_last_stage_is_the_fifth_order_solution(self):
        # so k7, the field at the 7th stage input, is the field at the node q5
        assert _DP_A[6] + (0.0,) == _DP_B5

    def test_orders_of_solution_and_estimate(self):
        # y' = -y^2, y = 1 / (1 + t): a fifth-order step has local
        # error O(h^6) and its embedded estimate is O(h^5)
        f = lambda y: [-y[0] * y[0]]  # noqa: E731
        t0 = 0.5
        local, estimate = [], []
        for h in (0.05, 0.025):
            q5, err, _ = _dp45_step(f, [1.0 / (1.0 + t0)], h)
            local.append(abs(q5[0] - 1.0 / (1.0 + t0 + h)))
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

    @pytest.mark.parametrize(
        "radius, rho_after, step, diverged_at",
        [(1e-9, -1.0, 0.5, 15.0), (0.05, -20.0, 0.2, 7.95242)],
        ids=["before-switch", "after-switch"],
    )
    def test_divergence_keeps_partial_trajectory(self, radius, rho_after, step, diverged_at):
        # before the switch the attitude, 0.5 e^t, passes the guard as the
        # radius 1e-9 is never reached; after it the stabilizing gain -20 puts
        # h = 0.2 outside RK4's stability interval (|z| = 4)
        gains = GainConfig(-1.0, 1.0, switch_enabled=True, switch_radius=radius,
                           rho_theta_after_switch=rho_after)
        with pytest.raises(DivergenceError, match=f"guard at t={diverged_at:g}") as excinfo:
            run_switching([1.0, 1.0, 0.5], gains, IntegratorConfig(step=step, t_end=30.0))
        traj = excinfo.value.trajectory
        assert traj is not None and traj.times[-1] < diverged_at
        assert np.all(np.isfinite(traj.energy)) and np.all(np.diff(traj.energy) >= 0.0)

    def test_node_budget_counts_both_phases(self, monkeypatch):
        # 888 steps before the switch node and 819 after it: each phase alone
        # fits in 1,200, both together do not
        nodes = len(run_switching([1.0, 1.0, 0.5], self.GAINS, self.CFG).trajectory.times)
        assert nodes == 1708
        monkeypatch.setattr("driftless.simulate.MAX_NODES", nodes - 1)
        run_switching([1.0, 1.0, 0.5], self.GAINS, self.CFG)
        monkeypatch.setattr("driftless.simulate.MAX_NODES", 1200)
        with pytest.raises(RangeError, match="budget"):
            run_switching([1.0, 1.0, 0.5], self.GAINS, self.CFG)

    def test_precondition_checks(self):
        with pytest.raises(ValueError):
            run_switching([1, 1, 0.5], GainConfig(-1.0, 1.0), self.CFG)
        bad = GainConfig(-1.0, -1.0, switch_enabled=True, switch_radius=0.05, rho_theta_after_switch=-1.0)
        with pytest.raises(ValueError):
            run_switching([1, 1, 0.5], bad, self.CFG)
        still = GainConfig(0.0, 1.0, switch_enabled=True, switch_radius=0.05, rho_theta_after_switch=-1.0)
        with pytest.raises(ValueError, match="rho_pos must be negative"):
            run_switching([1, 1, 0.5], still, self.CFG)


class TestNodeFields:
    """Each node's energy integrand is the field its step evaluated there: no
    field is evaluated again over the stored nodes after a run."""

    @pytest.fixture
    def field_calls(self, monkeypatch):
        calls = []
        real = simulate.unicycle_field

        def counting(q, gains):
            calls.append(1)
            return real(q, gains)

        monkeypatch.setattr(simulate, "unicycle_field", counting)
        return calls

    def test_rk4_calls_four_per_step_and_one_at_the_start(self, field_calls):
        g = GainConfig(-1.0, -0.7)
        traj = integrate(lambda q: simulate.unicycle_field(q, g), [1.0, 0.3, 0.9],
                         IntegratorConfig(step=0.01, t_end=2.0))
        n = len(traj.times) - 1
        assert n == 200 and len(field_calls) == 4 * n + 1

    def test_rk45_switching_calls_seven_per_attempt_and_two_outside(self, field_calls, monkeypatch):
        attempts = []
        real_step = simulate._dp45_step

        def counting_step(*args):
            attempts.append(1)
            return real_step(*args)

        monkeypatch.setattr(simulate, "_dp45_step", counting_step)
        result = run_switching([1.0, 1.0, 0.5], TestSwitching.GAINS, TestSwitching.CFG)
        assert 0.0 < result.switch_time < TestSwitching.CFG.t_end
        # the start and the interpolated switch node; the attempts never reuse a stage
        assert len(field_calls) == 7 * len(attempts) + 2

    @pytest.mark.parametrize("cfg", [TestSwitching.CFG, IntegratorConfig(step=1e-3, t_end=8.0)],
                             ids=["rk45", "rk4"])
    def test_node_rates_are_the_node_fields(self, monkeypatch, cfg):
        # rk45's 7th stage input is the node to rounding (8.6e-16 measured)
        samples = []
        real = Trajectory.from_samples

        def capture(times, states, rates):
            samples.append((times, states, rates))
            return real(times, states, rates)

        monkeypatch.setattr(Trajectory, "from_samples", staticmethod(capture))
        # |rho_theta_after_switch| != rho_theta, so the two fields' rates differ
        gains = GainConfig(-1.0, 1.0, switch_enabled=True, switch_radius=0.05,
                           rho_theta_after_switch=-2.0)
        t_s = run_switching([1.0, 1.0, 0.5], gains, cfg).switch_time
        times, states, rates = samples[-1]
        assert t_s in times
        pre = GainConfig(gains.rho_pos, gains.rho_theta)
        post = GainConfig(gains.rho_pos, gains.rho_theta_after_switch)
        want = np.array([np.dot(k, k) for k in (unicycle_field(q, pre if t <= t_s else post)
                                                 for t, q in zip(times, states))])
        assert np.max(np.abs(np.array(rates) - want) / want) <= 1e-15


class TestStoredNodes:
    """A stepped run keeps its nodes in flat arrays of doubles, states row after row."""

    STARTS = {1: [1.0], 3: [1.0, 0.5, -0.25], 5: [1.0, 0.5, -0.25, 0.125, 0.75]}

    def test_rk45_node_memory(self):
        # 20,151 nodes of 3 states: 74 B per node at the tracemalloc peak, the returned
        # arrays included; per-node lists of Python floats took 305 B
        f = lambda q: [q[1], -q[0], 0.1 * q[0]]
        tracemalloc.start()
        try:
            traj = integrate(f, [1.0, 0.0, 0.5], IntegratorConfig(method="rk45", t_end=900.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) > 20_000 and traj.states.shape == (len(traj.times), 3)
        assert peak / len(traj.times) < 100.0

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_divergence_keeps_the_rows(self, d, method):
        # q_i' = q_i^2 gives q_i(t) = q_i0 / (1 - q_i0 t): the first state diverges at t = 1
        q0 = self.STARTS[d]
        cfg = IntegratorConfig(method=method, step=1e-3, t_end=2.0)
        with pytest.raises(DivergenceError) as excinfo:
            integrate(lambda q: [v * v for v in q], q0, cfg)
        traj = excinfo.value.trajectory
        assert traj.states.shape == (len(traj.times), d) and len(traj.times) > 100
        t = traj.times[traj.times < 0.9][:, None]
        assert np.allclose(traj.states[: len(t)], np.array(q0) / (1.0 - np.array(q0) * t),
                           rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_node_budget_counts_nodes_not_values(self, monkeypatch, d):
        f = lambda q: [-v for v in q]
        cfg = IntegratorConfig(method="rk45", t_end=5.0)
        traj = integrate(f, self.STARTS[d], cfg)
        nodes = len(traj.times) - 1
        monkeypatch.setattr(simulate, "MAX_NODES", nodes)
        again = integrate(f, self.STARTS[d], cfg)
        assert again.states.shape == (nodes + 1, d)
        assert np.array_equal(again.states, traj.states)
        monkeypatch.setattr(simulate, "MAX_NODES", nodes - 1)
        with pytest.raises(RangeError, match="budget"):
            integrate(f, self.STARTS[d], cfg)

    def test_switch_timeout_keeps_the_first_phase(self):
        # phase 1 steps the pre-switch field as integrate does, node for node
        gains = GainConfig(-1.0, 1.0, switch_enabled=True, switch_radius=1e-9,
                           rho_theta_after_switch=-1.0)
        cfg = IntegratorConfig(method="rk45", t_end=5.0)
        with pytest.raises(SwitchTimeoutError) as excinfo:
            run_switching([1.0, 1.0, 0.5], gains, cfg)
        traj = excinfo.value.trajectory
        ref = integrate(lambda q: unicycle_field(q, GainConfig(-1.0, 1.0)), [1.0, 1.0, 0.5], cfg)
        assert traj.states.shape == (len(traj.times), 3)
        for got, want in zip((traj.times, traj.states, traj.energy), (ref.times, ref.states, ref.energy)):
            assert np.array_equal(got, want)


class TestFastAttitudePropagator:
    @pytest.mark.parametrize(
        "q0, rho_pos, t_end",
        [
            ((1.0, 0.0, 0.5), -1.0, 8.0),
            ((0.5, -0.5, -0.7), -1.0, 8.0),
            ((1.0, 0.0, 0.5), -0.3, 8.0),
            ((1.0, 0.0, 40.0), -1000.0, 0.5),
            ((1.0, 0.0, 0.01), -1e-7, 8.0),
        ],
        ids=["paper-gains", "negative-attitude", "weak-position-gain", "stiff", "tiny-position-gain"],
    )
    def test_matches_adaptive_oracle_on_short_horizon(self, q0, rho_pos, t_end):
        ts, states = propagate_fast_attitude(q0, rho_pos, 1.0, t_end)
        Xs = states[:, :2]
        f = lambda q: unicycle_field(q, GainConfig(rho_pos, 1.0))
        ref = integrate(f, q0, IntegratorConfig(method="rk45", t_end=t_end))
        assert ts[-1] == t_end
        assert np.allclose(Xs[-1], ref.final_state[:2], atol=1e-6)

    @staticmethod
    def order_zero_position(q0, theta):
        # at gains (-1, +1), Z = R(theta)' X obeys dz1/dtheta = z2 - z1 / theta and
        # dz2/dtheta = -z1, so with s = |theta|: z2 = c J0(s) + d Y0(s) and
        # z1 = sign(theta) (c J1(s) + d Y1(s)), c and d fitted at theta0
        x0, y0, th0 = q0
        sign, s0 = math.copysign(1.0, th0), abs(th0)
        z0 = (math.cos(th0) * x0 + math.sin(th0) * y0, -math.sin(th0) * x0 + math.cos(th0) * y0)
        basis = [[sign * special.j1(s0), sign * special.y1(s0)], [special.j0(s0), special.y0(s0)]]
        c, d = np.linalg.solve(basis, z0)
        s = np.abs(theta)
        z1 = sign * (c * special.j1(s) + d * special.y1(s))
        z2 = c * special.j0(s) + d * special.y0(s)
        cos, sin = np.cos(theta), np.sin(theta)
        return np.column_stack((cos * z1 - sin * z2, sin * z1 + cos * z2))

    @pytest.mark.parametrize("q0, t_end, bound", [
        ((10.0, -3.0, 2.0), 8.0, 5e-8),
        ((1.0, 0.0, 0.5), 10.0, 3e-9),
        ((1.0, 1.0, 0.5), 10.0, 3e-9),
    ], ids=["far", "axis", "diagonal"])
    def test_matches_order_zero_bessel_form(self, q0, t_end, bound):
        # at FAST_STEP_S = 0.2 the errors are 1.8e-8, 1.1e-9 and 1.0e-9; a
        # turn of 0.4 rad per step gives 1.2e-7, 7.0e-9 and 4.3e-9
        ts, states = propagate_fast_attitude(q0, -1.0, 1.0, t_end)
        assert ts[-1] == t_end
        err = np.max(np.abs(states[:, :2] - self.order_zero_position(q0, states[:, 2])))
        assert err <= bound

    @pytest.mark.parametrize("n", [1, 2, 3, 7, FAST_CHUNK, FAST_CHUNK + 1])
    def test_ordered_product_matches_sequential_fold(self, n):
        # the propagator's transitions at the paper's gains, steps of 1e-3 from theta = 0.5;
        # the fold's own rounding reaches 1.1e-14 at FAST_CHUNK matrices, the pairwise
        # product is within 3.7e-15 of a long-double fold
        t = 1e-3 * np.arange(n + 1)
        h = np.diff(t)
        th, th_mid = 0.5 * np.exp(t), 0.5 * np.exp(t[:-1] + 0.5 * h)
        c, s, mid = np.cos(th), np.sin(th), (np.cos(th_mid), np.sin(th_mid))
        d = _rk4_transitions(h, -1.0, (c[:-1], s[:-1]), mid, mid, (c[1:], s[1:]))
        m = (1.0 + d[0], d[1], d[2], 1.0 + d[3])
        want = np.eye(2)
        for mat in np.column_stack(m).reshape(n, 2, 2):
            want = mat @ want
        got = _ordered_product(m)
        assert got.shape == (2, 2)
        assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))

    def test_chunk_seams(self, monkeypatch):
        # neighbouring chunks share their end node u; 7 steps a chunk puts about
        # 1,200 seams in the run and an odd length in every product
        ts, want = propagate_fast_attitude((1.0, 0.0, 0.5), -1.0, 1.0, 8.0)
        monkeypatch.setattr(simulate, "FAST_CHUNK", 7)
        got_ts, got = propagate_fast_attitude((1.0, 0.0, 0.5), -1.0, 1.0, 8.0)
        assert np.array_equal(got_ts, ts) and np.array_equal(got[:, 2], want[:, 2])
        assert np.max(np.abs(got - want)) <= 1e-13

    @staticmethod
    def spy_chunks(monkeypatch, product=None):
        """The threads that compute the chunk products, in call order; product, if
        given, replaces _rotation_chunk_propagator."""
        threads, product = [], product or simulate._rotation_chunk_propagator

        def spy(*args):
            threads.append(threading.current_thread())
            return product(*args)

        monkeypatch.setattr(simulate, "_rotation_chunk_propagator", spy)
        return threads

    @pytest.mark.parametrize("q0, t_end, chunk", [
        ((1.0, 0.0, 0.5), 10.0, FAST_CHUNK), ((1.0, 0.0, 0.5), 12.0, FAST_CHUNK),
        ((1.0, 0.0, 0.5), 15.0, FAST_CHUNK), ((2.0, -1.0, -2.0), 6.0, FAST_CHUNK),
        ((1.0, 0.0, 0.5), 8.0, 7),
    ], ids=["T10", "T12", "T15", "T6-negative-attitude", "T8-chunk-7"])
    def test_pooled_products_equal_serial_bit_for_bit(self, monkeypatch, q0, t_end, chunk):
        monkeypatch.setattr(simulate, "FAST_CHUNK", chunk)
        threads, runs = self.spy_chunks(monkeypatch), []
        for pool_from in (math.inf, 0):  # serial, then pooled from the first step
            monkeypatch.setattr(simulate, "FAST_POOL_STEPS", pool_from)
            threads.clear()
            ts, states = propagate_fast_attitude(q0, -1.0, 1.0, t_end)
            runs.append((ts.tobytes(), states.tobytes()))
            on_caller = [t is threading.main_thread() for t in threads]
            assert all(on_caller) if pool_from else not any(on_caller)
            assert not any(t.is_alive() for t in threads if t is not threading.main_thread())
        assert runs[0] == runs[1]

    def test_short_runs_stay_serial_and_import_no_pool(self):
        # the benchmark's set-up probe runs T = 1, and the studies T = 5, 8 and 10
        code = ("import sys; from driftless import simulate\n"
                "for t_end in (1.0, 5.0, 8.0, 10.0):\n"
                "    simulate.propagate_fast_attitude((1.0, 0.0, 0.5), -1.0, 1.0, t_end)\n"
                "assert 'concurrent.futures' not in sys.modules")
        path = [os.path.dirname(os.path.dirname(simulate.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_a_failing_chunk_fails_the_call_and_stops_the_pool(self, monkeypatch):
        # chunks are told apart by their first node, which grows with the chunk order
        lock, starts, real = threading.Lock(), [], simulate._rotation_chunk_propagator

        def fail_third(t, *args):
            with lock:
                starts.append(t[0])
                third = len(starts) == 3
            if third:
                raise ArithmeticError("chunk call 3")
            return real(t, *args)

        threads = self.spy_chunks(monkeypatch, fail_third)
        with pytest.raises(ArithmeticError, match="chunk call 3"):
            propagate_fast_attitude((1.0, 0.0, 0.5), -1.0, 1.0, 15.0)
        # the run stops early: of about 500 chunks, at most 12 started in 800 runs (switch
        # interval 1e-6 or the default, on 1 or 2 CPUs), 9 of them after the failed one
        assert len(starts) <= 40
        assert not any(t.is_alive() for t in threads)

    @pytest.mark.parametrize("when", ["waiting", "submitting"])
    def test_an_interrupt_in_the_calling_thread_stops_the_pool(self, monkeypatch, when):
        # a Ctrl-C while the caller waits for a result (_thread.interrupt_main from the 3rd
        # chunk; map's iterator cancels the rest) or between two of map's submits (raised
        # by the 100th; the pool's cancel on the way out stops the rest).  Neither lands
        # inside the pool's own code, where it can leave a lock held and the exit waiting
        from concurrent.futures import ThreadPoolExecutor

        lock, starts, at = threading.Lock(), [], []
        real, submit = simulate._rotation_chunk_propagator, ThreadPoolExecutor.submit
        caller, submits = threading.main_thread().ident, itertools.count(1)

        def waiting():  # the calling thread waits in a future's result()
            frame = sys._current_frames().get(caller)
            while frame and not (frame.f_code.co_name == "result"
                                 and "concurrent" in frame.f_code.co_filename):
                frame = frame.f_back
            return frame is not None

        def interrupt_third(t, *args):
            with lock:
                starts.append(t[0])
                third = len(starts) == 3 and when == "waiting"
            while third and not waiting():
                time.sleep(1e-4)
            if third:
                at.append(3)
                _thread.interrupt_main()
            return real(t, *args)

        def interrupt_100th(pool, *args):
            if next(submits) == 100 and when == "submitting":
                with lock:
                    at.append(len(starts))
                raise KeyboardInterrupt
            return submit(pool, *args)

        threads = self.spy_chunks(monkeypatch, interrupt_third)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", interrupt_100th)
        with pytest.raises(KeyboardInterrupt):
            propagate_fast_attitude((1.0, 0.0, 0.5), -1.0, 1.0, 15.0)
        # of about 500 chunks, at most 8 started after the interrupt in 1,000 runs of each
        # case on 1 or 2 CPUs; without the pool's cancel, submitting ran 99
        assert len(starts) - at[0] <= 20
        assert not any(t.is_alive() for t in threads)

    def test_a_warning_in_a_worker_fails_the_call(self, monkeypatch):
        # under the suite's filterwarnings = error::RuntimeWarning, as in the calling thread
        def overflow(*args):
            return np.exp(np.full((2, 2), 1e3))

        threads = self.spy_chunks(monkeypatch, overflow)
        with pytest.raises(RuntimeWarning, match="overflow"):
            propagate_fast_attitude((1.0, 0.0, 0.5), -1.0, 1.0, 12.0)
        assert threading.main_thread() not in threads

    def test_zero_position_invariant(self):
        Xs = propagate_fast_attitude([0.0, 0.0, 0.5], -1.0, 1.0, 10.0)[1][:, :2]
        assert np.all(Xs == 0.0)

    @pytest.mark.parametrize("theta0", [0.0, 1e-320, -1e-300])
    def test_tiny_attitude_follows_straight_line(self, theta0):
        # theta stays below one rounding unit of 1, so the closed loop is the
        # theta = 0 one: x decays at rate rho_pos and y is frozen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts, states = propagate_fast_attitude([1.0, -0.5, theta0], -1.0, 1.0, 10.0)
        Xs = states[:, :2]
        expected = np.stack([np.exp(-ts), np.full_like(ts, -0.5)], axis=1)
        assert np.allclose(Xs, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("q0", [(1.0, 0.0, 0.5), (-0.0, 0.3, -0.0), (0.1, -0.2, 5e-324),
                                    (2.5, 1.0, -2.7)])
    def test_first_row_is_the_start(self, q0):
        ts, states = propagate_fast_attitude(q0, -1.0, 1.0, 2.0)
        assert states.shape == (len(ts), 3)
        assert [x.hex() for x in states[0].tolist()] == [x.hex() for x in q0]


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

    def test_csv_bytes_match_per_value_writer(self, tmp_path):
        def per_value_csv(traj):
            # reference: one format() call per value
            lines = ["t,x_c,y_c,theta,energy"]
            for t, q, e in zip(traj.times, traj.states, traj.energy):
                lines.append(",".join(format(v, ".17g") for v in (t, q[0], q[1], q[2], e)))
            return "\n".join(lines) + "\n"

        special = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, -1.5e-300]
        states = np.array([special[i:i + 3] for i in range(6)])
        # a Trajectory refuses a non-finite energy, so that column takes the finite specials
        energy = np.array([v for v in special if math.isfinite(v)] + [0.0])
        traj = Trajectory(np.arange(6) * 0.1, states, energy)
        path = tmp_path / "out.csv"
        traj.to_csv(str(path))
        assert path.read_bytes() == per_value_csv(traj).encode()
        traj = self.make()
        traj.to_csv(str(path))
        assert path.read_bytes() == per_value_csv(traj).encode()

    def test_json_mirror(self, tmp_path):
        traj = self.make()
        path = tmp_path / "out.json"
        traj.to_json(str(path), meta={"note": "x"})
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["t", "x_c", "y_c", "theta", "energy"]
        assert payload["meta"]["note"] == "x"
        assert payload["rows"][0][1] == 1.0

    @staticmethod
    def dumps_json(traj, meta=None):
        # reference: the whole payload through json.dumps, rows included
        payload = {
            "meta": {"tool_version": driftless.__version__, **(meta or {})},
            "columns": ["t", "x_c", "y_c", "theta", "energy"],
            "rows": np.column_stack((traj.times, traj.states, traj.energy)).tolist(),
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    SPECIAL = [-0.0, 5e-324, 1e-310, 1e308, 1e16, 1e-5, 0.1, -1e308, -5e-324, 1e-7, 1e22]
    META = {"config": {"command": "switch", "q0": "1,0,0.5", "nested": {"tol": 1e-10, "ok": True,
                                                                       "gains": [-1.0, 1.0]}},
            "stopped": "divergence guard tripped at |q| = 1e6 — Ωmega “quoted” é %s %r"}

    @pytest.mark.parametrize("n", [0, 1, 2, 11])
    @pytest.mark.parametrize("meta", [None, META], ids=["no-meta", "meta"])
    def test_json_bytes_match_json_dumps(self, tmp_path, n, meta):
        states = np.array([self.SPECIAL[(3 * i + j) % len(self.SPECIAL)] for i in range(n)
                           for j in range(3)]).reshape(n, 3)
        energy = np.array([abs(self.SPECIAL[(i + 5) % len(self.SPECIAL)]) for i in range(n)])
        traj = Trajectory(np.arange(n) * 0.1, states, energy)
        path = tmp_path / "out.json"
        traj.to_json(str(path), meta=meta)
        assert path.read_bytes() == self.dumps_json(traj, meta).encode()
        if n == 0:
            assert '"rows": []\n}' in path.read_text()

    def test_json_bytes_of_a_run(self, tmp_path):
        traj = self.make()
        path = tmp_path / "out.json"
        traj.to_json(str(path), meta=self.META)
        assert path.read_bytes() == self.dumps_json(traj, self.META).encode()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_json_refuses_non_finite_states_and_writes_nothing(self, tmp_path, bad):
        states = np.zeros((4, 3))
        states[2, 1] = bad
        traj = Trajectory(np.arange(4.0), states, np.zeros(4))
        with pytest.raises(ValueError) as expected:
            self.dumps_json(traj)
        with pytest.raises(ValueError) as got:
            traj.to_json(str(tmp_path / "out.json"))
        assert str(got.value) == str(expected.value)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    def test_exports_refuse_a_run_without_3_states(self, tmp_path, writer):
        # the (t, x_c, y_c, theta, energy) columns would mislabel shorter rows
        traj = integrate(on_arrays(lambda q: -q), [1.0], IntegratorConfig(t_end=0.002, step=0.001))
        with pytest.raises(ValueError, match="3-state"):
            getattr(traj, writer)(str(tmp_path / "out"))
        assert os.listdir(tmp_path) == []

    @staticmethod
    def one_template(traj):
        # reference: every row through one template, CSV and JSON
        rows = np.column_stack((traj.times, traj.states, traj.energy))
        values = tuple(rows.ravel().tolist())
        csv = "t,x_c,y_c,theta,energy\n" + (",".join(["%.17g"] * 5) + "\n") * len(rows) % values
        head = json.dumps({"meta": {"tool_version": driftless.__version__},
                           "columns": ["t", "x_c", "y_c", "theta", "energy"], "rows": []}, indent=2)
        row = "    [\n" + ",\n".join(["      %r"] * 5) + "\n    ]"
        body = "[\n" + ",\n".join([row] * len(rows)) + "\n  ]"
        return csv.encode(), (head[:-4] + body % values + "\n}\n").encode()

    @pytest.mark.parametrize("n", [1, EXPORT_BLOCK - 1, EXPORT_BLOCK, EXPORT_BLOCK + 1,
                                   2 * EXPORT_BLOCK + 1])
    def test_blocks_match_one_template(self, tmp_path, n):
        values = np.array(self.SPECIAL * (3 * n // len(self.SPECIAL) + 1))
        states = values[: 3 * n].reshape(n, 3)
        traj = Trajectory(np.arange(n) * 0.1, states, np.abs(values[1 : n + 1]))
        traj.to_csv(str(tmp_path / "out.csv"))
        traj.to_json(str(tmp_path / "out.json"))
        csv, js = self.one_template(traj)
        assert (tmp_path / "out.csv").read_bytes() == csv
        assert (tmp_path / "out.json").read_bytes() == js

    def test_json_refusal_dumps_the_offending_row_only(self, tmp_path, monkeypatch):
        n = 2 * EXPORT_BLOCK + 1
        states = np.ones((n, 3))
        states[EXPORT_BLOCK + 5] = [1.0, math.nan, math.inf]
        traj = Trajectory(np.arange(n) * 0.1, states, np.zeros(n))
        with pytest.raises(ValueError) as expected:
            json.dumps([math.nan], indent=2, allow_nan=False)
        dumped, real = [], json.dumps

        def dumps(obj, **kwargs):
            dumped.append(obj)
            return real(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        with pytest.raises(ValueError) as got:
            traj.to_json(str(tmp_path / "out.json"))
        assert str(got.value) == str(expected.value)
        assert [len(o) for o in dumped if isinstance(o, list)] == [5]
        assert os.listdir(tmp_path) == []

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_energy_is_refused(self, bad):
        with pytest.raises(RangeError, match="energy integral overflows"):
            Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)), np.array([0.0, bad]))

    def test_overflowing_rates_are_refused(self):
        # r0 + r1 overflows in the trapezoid sum: a RangeError, not a RuntimeWarning
        with pytest.raises(RangeError, match="energy integral overflows"):
            Trajectory.from_samples([0.0, 1.0], np.zeros((2, 3)), [1e308, 1e308])

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    def test_file_mode_follows_umask(self, tmp_path, umask, writer):
        traj = self.make()
        old = os.umask(umask)
        try:
            getattr(traj, writer)(str(tmp_path / "out"))
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "out").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("writer", ["to_csv", "to_json"])
    def test_write_leaves_the_umask_alone(self, tmp_path, monkeypatch, writer):
        # setting the umask, even briefly, changes the mode of files other threads create
        def umask(mask):
            raise AssertionError("os.umask called during a write")

        monkeypatch.setattr(os, "umask", umask)
        getattr(self.make(), writer)(str(tmp_path / "out"))
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_replace_leaves_no_part_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("before\n")

        def replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="replace failed"):
            self.make().to_csv(str(target))
        assert os.listdir(tmp_path) == ["out.csv"]
        assert target.read_text() == "before\n"


@pytest.mark.parametrize("field", ["step", "abs_tol", "rel_tol", "t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_integrator_config_refuses_bad_numbers(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        IntegratorConfig(**{field: value})


@pytest.mark.parametrize("gains", [(math.nan, -1.0), (-1.0, math.inf), (-math.inf, 1.0)])
def test_gain_config_refuses_non_finite_gains(gains):
    with pytest.raises(ValueError, match="gains must be finite"):
        GainConfig(*gains)


@pytest.mark.parametrize("make, match", [
    (lambda: GainConfig(-1.0, 1.0, switch_enabled=True), "switch_radius must be positive"),
    (lambda: IntegratorConfig(method="rk5"), "unknown method 'rk5'"),
    (lambda: Trajectory(np.zeros(2), np.zeros((3, 3)), np.zeros(2)), "length mismatch"),
    (lambda: propagate_fast_attitude([1.0, 0.0, 0.5], -1.0, 0.0, 5.0), "growing attitude"),
    (lambda: propagate_fast_attitude([1.0, 0.0, 0.5], -1.0, -1.0, 5.0), "growing attitude"),
], ids=["switch-radius-0", "method-rk5", "trajectory-lengths", "fast-attitude-rho-theta-0",
        "fast-attitude-rho-theta-negative"])
def test_bad_settings_are_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -1.0])
def test_fast_attitude_refuses_bad_horizon(t_end):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        propagate_fast_attitude([1.0, 0.0, 0.5], -1.0, 1.0, t_end)


def _stepped(*args, **kwargs):
    raise AssertionError("a run stepped from a refused start")


@pytest.mark.parametrize("q0", [(1.0, 0.5), (1.0, 0.5, 0.3, 0.0)], ids=["2", "4"])
@pytest.mark.parametrize("run", [
    lambda q0: integrate_unicycle(q0, EQUAL_GAINS, IntegratorConfig(t_end=1.0)),
    lambda q0: integrate_unicycle(q0, EQUAL_GAINS, IntegratorConfig(method="rk45", t_end=1.0)),
    lambda q0: run_switching(q0, TestSwitching.GAINS, TestSwitching.CFG),
    lambda q0: propagate_fast_attitude(q0, -1.0, 1.0, 5.0),
    lambda q0: rho_positive_study(q0, -1.0, 1.0, 5.0),
], ids=["rk4", "rk45", "switch", "fast-attitude", "rho-positive"])
def test_unicycle_runs_refuse_a_start_without_3_entries(monkeypatch, run, q0):
    # every stepped path begins with a field or a transition coefficient
    monkeypatch.setattr(simulate, "unicycle_field", _stepped)
    monkeypatch.setattr(simulate, "_rk4_transitions", _stepped)
    with pytest.raises(ValueError, match="unicycle state must have 3 entries"):
        run(q0)


def test_rk4_nodes_beyond_budget_are_refused():
    IntegratorConfig(step=0.25, t_end=MAX_NODES * 0.25)
    IntegratorConfig(step=0.001, t_end=1500.0003)  # rounds to MAX_NODES steps
    with pytest.raises(RangeError, match="budget"):
        IntegratorConfig(step=0.25, t_end=(MAX_NODES + 1) * 0.25)


def test_rk4_budget_counts_the_steps_a_run_makes(monkeypatch):
    # t_end / step = 10.4 is over a budget of 10, but the run makes round(10.4) = 10 steps
    monkeypatch.setattr(simulate, "MAX_NODES", 10)
    cfg = IntegratorConfig(step=1.0, t_end=10.4)
    assert len(integrate_unicycle([1.0, 0.0, 0.5], EQUAL_GAINS, cfg).times) == 11
    assert len(integrate(lambda q: unicycle_field(q, EQUAL_GAINS), [1.0, 0.0, 0.5], cfg).times) == 11
    with pytest.raises(RangeError, match="gives 11 rk4 steps, over the budget of 10 stored"):
        IntegratorConfig(step=1.0, t_end=10.6)
