"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from driftless.analysis import (
    asymptotics,
    brockett_scan,
    certify_stability,
    rho_positive_study,
)
from driftless.bessel import bessel_j, bessel_y
from driftless.closedform import (
    ClosedFormSolution,
    eval_solution,
    fit_solution,
)
from driftless.core import closed_loop_field
from driftless.simulate import (
    GainConfig,
    IntegratorConfig,
    integrate_unicycle,
    run_switching,
    unicycle_field,
    unicycle_field_set,
)
from test_closedform import ode_residual

mp.mp.dps = 30

STABLE = GainConfig(-1.0, -1.0)


def report(criterion: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def random_initial_conditions(n, rng, radius=3.0):
    out = []
    while len(out) < n:
        X0 = rng.uniform(-radius, radius, 2)
        theta0 = rng.uniform(-3.0, 3.0)
        if np.linalg.norm(X0) > radius or abs(theta0) < 1e-2:
            continue
        out.append((X0, theta0))
    return out


def test_criterion_1_frame_equivalence():
    rng = np.random.default_rng(2024)
    cfg = IntegratorConfig(step=1e-3, t_end=10.0)
    start = time.time()
    worst = 0.0
    for X0, theta0 in random_initial_conditions(50, rng):
        sol = fit_solution(X0, theta0)
        traj = integrate_unicycle([X0[0], X0[1], theta0], STABLE, cfg)
        for i in range(0, len(traj.times), 20):
            st = eval_solution(sol, traj.times[i])
            worst = max(worst, float(np.max(np.abs(st.X - traj.states[i][:2]))))
    elapsed = time.time() - start
    report(
        1,
        f"closed form vs rk4 sup-norm {worst:.3e} <= 1e-4 over 50 fits "
        f"({elapsed:.1f}s < 10s)",
        worst <= 1e-4 and elapsed < 10.0,
    )


def test_criterion_2_ode_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        sol = ClosedFormSolution(
            theta0=rng.uniform(0.3, 2.5) * rng.choice([-1, 1]),
            c1=rng.normal(),
            c2=rng.normal(),
        )
        for t in np.linspace(0.05, 8.0, 100):
            z1 = eval_solution(sol, float(t)).z1
            r = ode_residual(sol, float(t), 1e-4)
            worst = max(worst, r / max(1.0, abs(z1)))
    sol = ClosedFormSolution(theta0=1.5, c1=1.0, c2=0.5)
    ratio = ode_residual(sol, 1.0, 2e-2) / ode_residual(sol, 1.0, 1e-2)
    quadratic = 2.5 < ratio < 5.5
    report(
        2,
        f"second-order ODE residual {worst:.3e} <= 1e-5 at 100 times, "
        f"h-halving ratio {ratio:.2f} ~ 4",
        worst <= 1e-5 and quadratic,
    )


def test_criterion_3_energy_identity():
    rng = np.random.default_rng(12)
    cfg = IntegratorConfig(step=1e-3, t_end=30.0)
    worst = 0.0
    for _ in range(5):
        q0 = rng.uniform(-2, 2, 3)
        traj = integrate_unicycle(q0, STABLE, cfg)
        expected = 0.5 * (q0 @ q0 - traj.final_state @ traj.final_state)
        worst = max(worst, abs(traj.energy[-1] - expected) / abs(expected))
    report(3, f"energy identity relative error {worst:.3e} <= 1e-6", worst <= 1e-6)


def test_criterion_4_asymptotic_limits():
    rng = np.random.default_rng(5)
    cfg = IntegratorConfig(step=1e-3, t_end=40.0)
    ok = True
    detail = []
    for _ in range(5):
        X0 = rng.uniform(-2, 2, 2)
        sol = fit_solution(X0, 1.0)
        st = eval_solution(sol, 40.0)
        limit = 2.0 * sol.c2 / math.pi
        traj = integrate_unicycle([X0[0], X0[1], 1.0], STABLE, cfg)
        ok &= abs(st.z1) <= 1e-10
        ok &= abs(st.z2 - limit) <= 1e-6
        ok &= abs(traj.final_state[0]) <= 1e-6
        detail.append(abs(st.z2 - limit))
        assert asymptotics(sol).x_infinity[0] == 0.0
    report(
        4,
        f"z1(40) -> 0, z2(40) within {max(detail):.2e} of 2*c2/pi, "
        "numerical x(40) on the vertical axis",
        ok,
    )


def test_criterion_5_brockett_feasibility():
    ok = True
    fractions = []
    for theta0 in [0.5, 1.0, 2.0, -1.3]:
        scan = brockett_scan(theta0)
        ok &= scan.n_points >= 1000
        ok &= scan.all_feasible_aligned
        # the only qualifying starts are the deliberately injected
        # on-line points: measure zero for a generic grid
        ok &= scan.n_feasible <= 27
        fractions.append(scan.feasible_fraction)
    report(
        5,
        f"origin-reaching fits confined to one line per theta0 "
        f"(feasible fraction <= {max(fractions):.3f})",
        ok,
    )


def test_criterion_6_mixed_gain_regime():
    study = rho_positive_study([1.0, 0.0, 0.5], -1.0, 1.0, horizon=15.0)
    final = study.position_norms[-1]
    report(
        6,
        f"rho_pos=-1, rho_theta=+1: |X(15)| = {final:.2e} <= 1e-3 "
        f"while |theta(15)| = {abs(study.theta_final):.3g} grows",
        final <= 1e-3 and study.attitude_grows,
    )


def test_criterion_7_switching_strategy():
    gains = GainConfig(
        rho_pos=-1.0,
        rho_theta=1.0,
        switch_enabled=True,
        switch_radius=0.05,
        rho_theta_after_switch=-1.0,
    )
    cfg = IntegratorConfig(method="rk45", abs_tol=1e-10, rel_tol=1e-10, t_end=30.0)
    result = run_switching([1.0, 1.0, 0.5], gains, cfg)
    traj = result.trajectory
    post = traj.times >= result.switch_time
    th_post = traj.states[post, 2]
    t_post = traj.times[post]
    decay_ref = th_post[0] * np.exp(-(t_post - t_post[0]))
    exp_decay = float(np.max(np.abs(th_post - decay_ref))) <= 1e-4 * max(
        1.0, abs(th_post[0])
    )
    final_norm = float(np.linalg.norm(traj.final_state))
    report(
        7,
        f"switch at t={result.switch_time:.3f}, final state norm "
        f"{final_norm:.3e} <= 0.06, attitude decays exponentially",
        0.0 < result.switch_time < 30.0 and final_norm <= 0.06 and exp_decay,
    )


def test_criterion_8_special_functions():
    worst = 0.0
    for x in np.linspace(0.05, 50.0, 400):
        x = float(x)
        for val, ref in [
            (bessel_j(0, x), mp.besselj(0, x)),
            (bessel_j(1, x), mp.besselj(1, x)),
            (bessel_y(0, x), mp.bessely(0, x)),
            (bessel_y(1, x), mp.bessely(1, x)),
        ]:
            ref = float(ref)
            worst = max(worst, abs(val - ref) / max(1e-12, 1e-12 * abs(ref)) * 1e-12)
    worst_w = 0.0
    for x in np.linspace(0.05, 50.0, 100):
        x = float(x)
        w = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
        worst_w = max(worst_w, abs(w - 2.0 / (math.pi * x)))
    report(
        8,
        f"J/Y worst error {worst:.2e} <= 1e-12, Wronskian defect "
        f"{worst_w:.2e} <= 1e-10",
        worst <= 1e-12 and worst_w <= 1e-10,
    )


def test_criterion_9_stability_battery():
    rng = np.random.default_rng(77)
    cfg = IntegratorConfig(step=1e-3, t_end=30.0)
    fields = unicycle_field_set()
    ok = True
    worst_speed_sq = 0.0
    for _ in range(50):
        q0 = rng.uniform(-1, 1, 3)
        q0 *= rng.uniform(0.2, 5.0) / np.linalg.norm(q0)
        traj = integrate_unicycle(q0, STABLE, cfg)
        norms = np.linalg.norm(traj.states, axis=1)
        ok &= bool(np.all(np.diff(norms) <= 1e-12))
        cert = certify_stability(
            traj, lambda q: unicycle_field(q, STABLE), tol=1e-6
        )
        ok &= cert.energy_bounded
        qdot = closed_loop_field(traj.final_state, fields, -1.0)
        speed_sq = float(qdot @ qdot)
        worst_speed_sq = max(worst_speed_sq, speed_sq)
        ok &= speed_sq < 1e-8
    report(
        9,
        f"50 runs: norms non-increasing, energy bounded, terminal speed^2 "
        f"{worst_speed_sq:.2e} < 1e-8",
        ok,
    )
