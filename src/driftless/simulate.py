"""Numerical integration of the unicycle closed loop and its variants.

This module is the independent oracle for every closed-form claim: a
classical fixed-step RK4 (default, step 1e-3) and an adaptive
Dormand-Prince RK45 for long-horizon runs.  It also provides the
gain-switching strategy and a specialized propagator for the regime where
the attitude is deliberately destabilized and the closed loop rotates
exponentially fast.  The closed loop is written once, as the float function
_unicycle_rhs, and the steppers carry lists of Python floats.  Costs on a
2-vCPU Xeon VM: one RK45 attempt about 22 us (its 7 field evaluations about
4 us); the switching run from (10, -3, 2) to T = 30, 158,424 nodes, 3.7-5.2 s.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .bessel import MAX_ARG
from .core import VectorFieldSet, as_state
from .errors import DivergenceError, RangeError, SwitchTimeoutError

DIVERGENCE_FACTOR = 1e6
# propagate_fast_attitude: time stepping below |theta| = FAST_SPLIT, attitude
# clock beyond; each phase records about FAST_SAMPLES positions
FAST_SPLIT = 50.0
FAST_STEP_T = 1e-3
FAST_STEP_S = 0.2
FAST_SAMPLES = 8
CSV_HEADER = "t,x_c,y_c,theta,energy"


@dataclass(frozen=True)
class GainConfig:
    """Feedback gains; equal gains reproduce the single-constant law."""

    rho_pos: float
    rho_theta: float
    switch_enabled: bool = False
    switch_radius: float = 0.0
    rho_theta_after_switch: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rho_pos) and math.isfinite(self.rho_theta)):
            raise ValueError("gains must be finite")
        if self.switch_enabled and not self.switch_radius > 0.0:
            raise ValueError("switch_radius must be positive when switching is enabled")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # "rk4" (fixed step) or "rk45" (adaptive)
    step: float = 1e-3
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    t_end: float = 10.0

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")


def _unicycle_rhs(x, y, th, rho_pos, rho_theta):
    """Closed-loop unicycle derivative (x_c', y_c', theta') in Python floats."""
    c, s = math.cos(th), math.sin(th)
    forward = rho_pos * (c * x + s * y)
    return c * forward, s * forward, rho_theta * th


def unicycle_field(q, gains: GainConfig) -> tuple[float, float, float]:
    """The closed-loop field at any 3-sequence q, as 3 floats."""
    return _unicycle_rhs(float(q[0]), float(q[1]), float(q[2]), gains.rho_pos, gains.rho_theta)


def unicycle_field_set() -> VectorFieldSet:
    """Control vector fields of the unicycle (unit forward and turn columns)."""

    def evaluate(q: np.ndarray) -> np.ndarray:
        th = q[2]
        return np.array([[math.cos(th), 0.0], [math.sin(th), 0.0], [0.0, 1.0]])

    return VectorFieldSet(n=3, k=2, evaluate=evaluate)


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states with the accumulated squared-speed integral."""

    times: np.ndarray
    states: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.energy)):
            raise ValueError("times/states/energy length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @staticmethod
    def from_samples(times, states, rates) -> "Trajectory":
        times = np.asarray(times, float)
        states = np.asarray(states, float)
        rates = np.asarray(rates, float)
        energy = np.zeros(len(times))
        if len(times) > 1:
            dt = np.diff(times)
            energy[1:] = np.cumsum(0.5 * (rates[:-1] + rates[1:]) * dt)
        return Trajectory(times, states, energy)

    def to_csv(self, path: str) -> None:
        """Write the fixed (t, x_c, y_c, theta, energy) schema, 17 sig digits."""
        if self.states.shape[1] != 3:
            raise ValueError("CSV schema is defined for 3-state trajectories")
        lines = [CSV_HEADER]
        for t, q, e in zip(self.times, self.states, self.energy):
            lines.append(
                ",".join(format(v, ".17g") for v in (t, q[0], q[1], q[2], e))
            )
        _atomic_write(path, "\n".join(lines) + "\n")

    def to_json(self, path: str, meta: dict | None = None) -> None:
        payload = {
            "meta": {"tool_version": __version__, **(meta or {})},
            "columns": ["t", "x_c", "y_c", "theta", "energy"],
            "rows": [
                [t, q[0], q[1], q[2], e]
                for t, q, e in zip(
                    self.times.tolist(), self.states.tolist(), self.energy.tolist()
                )
            ],
        }
        _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rk4_step(f, t, q, h):
    hh = 0.5 * h
    k1 = f(t, q)
    k2 = f(t + hh, [v + hh * k for v, k in zip(q, k1)])
    k3 = f(t + hh, [v + hh * k for v, k in zip(q, k2)])
    k4 = f(t + h, [v + h * k for v, k in zip(q, k3)])
    return [v + h / 6.0 * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(q, k1, k2, k3, k4)]


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def _dp45_step(f, t, q, h):
    """One Dormand-Prince attempt from (t, q): (q5, q5 - q4) as lists of floats.

    Python floats, as numpy's per-call overhead exceeds the arithmetic on
    3-vectors; the array form's order of operations (products h * a_ij, sums
    left to right, zero weights kept) makes the results equal bit for bit.
    f is called at all 7 stage inputs (the last stage is not reused).
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (
        a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = (
        [h * a for a in row] for row in _DP_A[1:])
    _, c2, c3, c4, c5, c6, c7 = _DP_C
    b1, b2, b3, b4, b5, b6, b7 = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = _DP_B4
    k1 = f(t, q)
    k2 = f(t + c2 * h, [v + a21 * p for v, p in zip(q, k1)])
    k3 = f(t + c3 * h, [v + a31 * p + a32 * r for v, p, r in zip(q, k1, k2)])
    k4 = f(t + c4 * h, [v + a41 * p + a42 * r + a43 * s for v, p, r, s in zip(q, k1, k2, k3)])
    k5 = f(t + c5 * h, [v + a51 * p + a52 * r + a53 * s + a54 * u
                        for v, p, r, s, u in zip(q, k1, k2, k3, k4)])
    k6 = f(t + c6 * h, [v + a61 * p + a62 * r + a63 * s + a64 * u + a65 * w
                        for v, p, r, s, u, w in zip(q, k1, k2, k3, k4, k5)])
    k7 = f(t + c7 * h, [v + a71 * p + a72 * r + a73 * s + a74 * u + a75 * w + a76 * x
                        for v, p, r, s, u, w, x in zip(q, k1, k2, k3, k4, k5, k6)])
    ks = list(zip(q, k1, k2, k3, k4, k5, k6, k7))
    # 0.0 + ...: the array form's sum() starts from 0, which maps -0.0 to 0.0
    q5 = [v + h * (0.0 + b1 * p + b2 * r + b3 * s + b4 * u + b5 * w + b6 * x + b7 * z)
          for v, p, r, s, u, w, x, z in ks]
    q4 = [v + h * (0.0 + e1 * p + e2 * r + e3 * s + e4 * u + e5 * w + e6 * x + e7 * z)
          for v, p, r, s, u, w, x, z in ks]
    return q5, [a - b for a, b in zip(q5, q4)]


def _step_stream(f, q0, cfg: IntegratorConfig, t0: float = 0.0):
    """Yield (t, q), q a new list of floats, at accepted nodes after t0.

    f(t, q) maps a float list to a float sequence.  Raises DivergenceError
    (with the partial trajectory attached by the caller) when the state norm
    explodes, or the adaptive step collapses or meets a NaN error estimate.
    """
    guard = DIVERGENCE_FACTOR * max(1.0, float(np.linalg.norm(q0)))
    t, q = t0, [float(v) for v in q0]
    if cfg.method == "rk4":
        n_steps = max(1, int(round((cfg.t_end - t0) / cfg.step)))
        h = (cfg.t_end - t0) / n_steps
        for i in range(1, n_steps + 1):
            q = _rk4_step(f, t, q, h)
            t = t0 + i * h
            if math.hypot(*q) > guard:
                raise DivergenceError(f"state norm exceeded guard at t={t:.6g}")
            yield t, q
        return
    # adaptive rk45; the RMS error norm is summed left to right in floats,
    # as numpy's mean does below 8 components
    h = min(1e-2, (cfg.t_end - t0) / 10.0)
    h_floor = 1e-12 * (cfg.t_end - t0)
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    while t < cfg.t_end:
        h = min(h, cfg.t_end - t)
        q_new, err_vec = _dp45_step(f, t, q, h)
        sq = 0.0
        for e, a, b in zip(err_vec, q, q_new):
            r = e / (atol + rtol * max(abs(a), abs(b)))
            sq += r * r
        err = math.sqrt(sq / len(q))
        if math.isnan(err):
            raise DivergenceError(f"error estimate is NaN at t={t:.6g}")
        if err <= 1.0:
            t, q = t + h, q_new
            if math.hypot(*q) > guard:
                raise DivergenceError(f"state norm exceeded guard at t={t:.6g}")
            yield t, q
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < h_floor:
            raise DivergenceError(f"adaptive step collapsed below floor at t={t:.6g}")


def _rates(f, states):
    """Squared speeds |f(q)|^2, the energy integrand, at the given states."""
    return [float(np.dot(d, d)) for d in (np.array(f(0.0, q)) for q in states)]


def integrate(field_fn: Callable, q0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate q' = field_fn(q) from q0 over [0, t_end].

    ``field_fn`` takes the state vector only (autonomous closed loops).
    """
    q0 = as_state(q0)
    # the steppers carry lists of floats; field_fn takes and returns arrays
    f = lambda t, q: np.asarray(field_fn(np.array(q, float)), float).tolist()
    times, states = [0.0], [q0]
    trajectory = lambda: Trajectory.from_samples(times, states, _rates(f, states))
    try:
        for t, q in _step_stream(f, q0, cfg):
            times.append(t)
            states.append(q)
    except DivergenceError as exc:
        exc.trajectory = trajectory()
        raise
    return trajectory()


def integrate_unicycle(q0, gains: GainConfig, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 specialized to the unicycle closed loop.

    Scalar arithmetic throughout: T = 30 at step 1e-3 takes 0.06-0.07 s, the
    generic path (``integrate``, an array field) 0.6-0.7 s, which matters for
    the oracle batteries.  ``rk45`` runs the generic path (about 130 nodes,
    4-6 ms from (1, 0, 0.5) to T = 30).
    """
    if cfg.method != "rk4":
        return integrate(lambda q: unicycle_field(q, gains), q0, cfg)
    q0 = as_state(q0)
    if q0.shape != (3,):
        raise ValueError("unicycle state must have 3 entries")
    rhs, rp, rt = _unicycle_rhs, gains.rho_pos, gains.rho_theta
    n_steps = max(1, int(round(cfg.t_end / cfg.step)))
    h = cfg.t_end / n_steps
    guard = DIVERGENCE_FACTOR * max(1.0, math.sqrt(float(q0 @ q0)))
    x, y, th = float(q0[0]), float(q0[1]), float(q0[2])
    times = [0.0]
    states = [(x, y, th)]
    ax, ay, at = rhs(x, y, th, rp, rt)
    rates = [ax * ax + ay * ay + at * at]
    for i in range(1, n_steps + 1):
        # (ax, ay, at) is the field at the current node: the rate stored
        # for it and this step's first stage
        bx, by, bt = rhs(x + 0.5 * h * ax, y + 0.5 * h * ay, th + 0.5 * h * at, rp, rt)
        cx, cy, ct = rhs(x + 0.5 * h * bx, y + 0.5 * h * by, th + 0.5 * h * bt, rp, rt)
        dx, dy, dt_ = rhs(x + h * cx, y + h * cy, th + h * ct, rp, rt)
        x += (h / 6.0) * (ax + 2.0 * bx + 2.0 * cx + dx)
        y += (h / 6.0) * (ay + 2.0 * by + 2.0 * cy + dy)
        th += (h / 6.0) * (at + 2.0 * bt + 2.0 * ct + dt_)
        if x * x + y * y + th * th > guard * guard:
            raise DivergenceError(
                f"state norm exceeded guard at t={i * h:.6g}",
                Trajectory.from_samples(times, states, rates),
            )
        times.append(i * h)
        states.append((x, y, th))
        ax, ay, at = rhs(x, y, th, rp, rt)
        rates.append(ax * ax + ay * ay + at * at)
    return Trajectory.from_samples(times, states, rates)


@dataclass(frozen=True)
class SwitchResult:
    trajectory: Trajectory
    switch_time: float


def _switch_crossing(f, t0, q0, t1, q1, eps):
    """(t, q) with |(x, y)| = eps on the cubic Hermite interpolant of the step
    from (t0, q0), outside the radius, to (t1, q1), inside.  Bisection keeps
    the bracket, so q is on or just inside; 53 halvings reach the last bit."""
    h = t1 - t0
    q0, q1 = np.asarray(q0, float), np.asarray(q1, float)
    d0, d1 = h * np.array(f(t0, q0)), h * np.array(f(t1, q1))
    c2 = 3.0 * (q1 - q0) - 2.0 * d0 - d1
    c3 = 2.0 * (q0 - q1) + d0 + d1
    lo, hi, q_hi = 0.0, 1.0, q1
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        q_mid = q0 + mid * (d0 + mid * (c2 + mid * c3))
        if math.hypot(q_mid[0], q_mid[1]) <= eps:
            hi, q_hi = mid, q_mid
        else:
            lo = mid
    return t0 + hi * h, q_hi


def run_switching(q0, gains: GainConfig, cfg: IntegratorConfig) -> SwitchResult:
    """Destabilize the attitude until the position is inside the switch
    radius, then flip the attitude gain to its stabilizing value.

    The crossing is located on the cubic Hermite interpolant of the step
    that enters the radius, so neither the switch time nor the switch state
    inherits the step size.
    """
    if not gains.switch_enabled:
        raise ValueError("switching requires switch_enabled")
    if not (gains.rho_theta > 0.0 and gains.rho_theta_after_switch < 0.0):
        raise ValueError("expect rho_theta > 0 before and < 0 after the switch")
    if not gains.rho_pos < 0.0:
        raise ValueError("rho_pos must be negative")
    q0 = as_state(q0)
    eps = gains.switch_radius

    pre = GainConfig(gains.rho_pos, gains.rho_theta)
    post = GainConfig(gains.rho_pos, gains.rho_theta_after_switch)
    f_pre = lambda t, q: unicycle_field(q, pre)
    f_post = lambda t, q: unicycle_field(q, post)

    times, states = [0.0], [q0]
    if math.hypot(q0[0], q0[1]) <= eps:
        switch_time, q_switch = 0.0, q0
    else:
        for t, q in _step_stream(f_pre, q0, cfg):
            if math.hypot(q[0], q[1]) <= eps:
                break
            times.append(t)
            states.append(q)
        else:
            raise SwitchTimeoutError(
                f"position never entered radius {eps} before t={cfg.t_end}",
                Trajectory.from_samples(times, states, _rates(f_pre, states)),
            )
        # the field calls here are outside the step stream, not stage evaluations
        switch_time, q_switch = _switch_crossing(f_pre, times[-1], states[-1], t, q, eps)
        if switch_time > times[-1]:
            times.append(switch_time)
            states.append(q_switch)
    n_pre = len(times)
    if switch_time < cfg.t_end:
        for t, q in _step_stream(f_post, q_switch, cfg, t0=switch_time):
            times.append(t)
            states.append(q)
    # integrand per segment; the field (hence the rate) jumps at the switch
    rates = _rates(f_pre, states[:n_pre]) + _rates(f_post, states[n_pre:])
    return SwitchResult(Trajectory.from_samples(times, states, rates), switch_time)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[m-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        paired = np.matmul(mats[1 : m - (m % 2) : 2], mats[0 : m - (m % 2) : 2])
        if m % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def _mm(a, b):
    """Componentwise 2x2 product for stacked matrices held as 4 arrays."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def _rotation_chunk_propagator(
    s_lo: float, s_hi: float, n_steps: int, a: float, sign: float
) -> np.ndarray:
    """One-shot propagator of dX/ds = (a/s) v(s) v(s)' X over [s_lo, s_hi].

    ``s`` is the (positive) attitude magnitude used as the clock, so the
    rotation has unit frequency regardless of how fast the attitude grows
    in real time.  Builds the per-step RK4 transition matrices in vectorized
    form and reduces them with an ordered pairwise product.
    """
    h = (s_hi - s_lo) / n_steps
    base = s_lo + h * np.arange(n_steps)

    def coeff(sv):
        c = np.cos(sv)
        sn = np.sin(sv)
        f = a / sv
        return (f * c * c, f * sign * c * sn, f * sign * c * sn, f * sn * sn)

    a1 = coeff(base)
    a2 = coeff(base + 0.5 * h)
    a3 = coeff(base + h)

    def plus_scaled(k, scale):
        # I + scale * K
        return (1.0 + scale * k[0], scale * k[1], scale * k[2], 1.0 + scale * k[3])

    k1 = a1
    k2 = _mm(a2, plus_scaled(k1, 0.5 * h))
    k3 = _mm(a2, plus_scaled(k2, 0.5 * h))
    k4 = _mm(a3, plus_scaled(k3, h))
    h6 = h / 6.0
    t11 = 1.0 + h6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    t12 = h6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    t21 = h6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    t22 = 1.0 + h6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    mats = np.empty((n_steps, 2, 2))
    mats[:, 0, 0] = t11
    mats[:, 0, 1] = t12
    mats[:, 1, 0] = t21
    mats[:, 1, 1] = t22
    return _ordered_product(mats)


def propagate_fast_attitude(
    X0,
    theta0: float,
    rho_pos: float,
    rho_theta: float,
    t_end: float,
):
    """Position trajectory when the attitude gain is destabilizing.

    theta(t) = theta0 exp(rho_theta t) is exact, so the position subsystem
    is linear time-varying.  Direct time stepping is used while the
    rotation is slow (|theta| < FAST_SPLIT); beyond that the integration
    switches to the attitude clock, where the oscillation frequency is
    constant and a fixed step resolves it at any horizon.

    Returns (times, positions): the start plus about FAST_SAMPLES points
    from each phase that runs, the last at t_end.
    """
    if not rho_theta > 0.0:
        raise ValueError("this propagator is for growing attitude (rho_theta > 0)")
    s0 = abs(theta0)
    # the cost grows with |theta(t_end)|; stop where the closed forms stop
    t_max = max(0.0, math.log(MAX_ARG / s0) / rho_theta) if s0 > 0.0 else math.inf
    if t_end > t_max:
        raise RangeError(f"horizon {t_end:g} too long: |theta0| exp(rho_theta t) "
                         f"exceeds {MAX_ARG:g} beyond t = {t_max:.6g}")
    X = np.asarray(X0, float).tolist()
    out_t, out_X = [0.0], [X]
    sign = 1.0 if theta0 >= 0.0 else -1.0
    if s0 >= FAST_SPLIT:
        t1 = 0.0
    else:
        t1 = min(t_end, math.log(FAST_SPLIT / s0) / rho_theta) if s0 > 0.0 else t_end

    if t1 > 0.0:
        n_steps = max(1, int(math.ceil(t1 / FAST_STEP_T)))
        h = t1 / n_steps
        sample_every = max(1, n_steps // FAST_SAMPLES)

        def rhs(t, Xv):
            return _unicycle_rhs(*Xv, theta0 * math.exp(rho_theta * t), rho_pos, rho_theta)[:2]

        for i in range(1, n_steps + 1):
            X = _rk4_step(rhs, (i - 1) * h, X, h)
            if i % sample_every == 0 or i == n_steps:
                out_t.append(i * h)
                out_X.append(X)
    if t1 >= t_end:
        return np.array(out_t), np.array(out_X)

    # attitude-clock phase
    a = rho_pos / rho_theta
    s_start = s0 * math.exp(rho_theta * t1)
    s_end = s0 * math.exp(rho_theta * t_end)
    log_bounds = np.linspace(math.log(s_start), math.log(s_end), FAST_SAMPLES + 1)
    seg_bounds = np.exp(log_bounds)
    max_chunk = 200_000
    for lo, hi in zip(seg_bounds[:-1], seg_bounds[1:]):
        n_total = max(1, int(math.ceil((hi - lo) / FAST_STEP_S)))
        done = 0
        s_lo = lo
        while done < n_total:
            n = min(max_chunk, n_total - done)
            s_hi = lo + (hi - lo) * (done + n) / n_total
            M = _rotation_chunk_propagator(s_lo, s_hi, n, a, sign)
            X = M @ X
            s_lo = s_hi
            done += n
        out_t.append(math.log(hi / s0) / rho_theta)
        out_X.append(X)
    return np.array(out_t), np.array(out_X)
