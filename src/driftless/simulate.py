"""Numerical integration of the unicycle closed loop and its variants.

This module is the independent oracle for every closed-form claim: a
classical fixed-step RK4 (default, step 1e-3) and an adaptive Dormand-Prince
RK45 for long-horizon runs.  It also provides the gain-switching strategy and
a propagator for the regime where the attitude is destabilized and the closed
loop rotates exponentially fast.  The closed loop is written once, as the
float function unicycle_field.  The unicycle's RK4 and the propagator share one
builder of RK4 transition increments (the position is linear given the attitude,
each stage slope of rank one); the propagator's long runs map their chunk
products over a two-thread pool, with the same result.  The other steppers take an autonomous field f(q), carry lists of Python
floats and hand on the field each step evaluated at its node (RK4's end field, DP45's
7th stage): it is the node's energy integrand, and the switch's Hermite slopes; _store
keeps every stepped run's nodes in flat arrays of doubles.  Costs on a 2-vCPU AMD EPYC
VM: one RK45 attempt 6.0-6.3 us; switching runs from (10, -3, 2) to T = 30, 1.31-1.36 s,
and from (1, 1, 0.5) with RK4 to T = 25, 0.07 s."""

from __future__ import annotations

import itertools
import json
import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .bessel import MAX_ARG
from .core import VectorFieldSet, as_state
from .errors import DivergenceError, RangeError, StoppedRunError, SwitchTimeoutError

DIVERGENCE_FACTOR = 1e6
# stored nodes of one run (rk4 t_end / step, rk45 steps of both switching phases,
# closed-form samples): at the budget a JSON export peaked at 134 MB RSS for
# simulate and 229 MB for closed-form, 0.09-0.15 kB per node (README)
MAX_NODES = 1_500_000
# propagate_fast_attitude: per step, at most FAST_STEP_S rad of attitude turn
# and |rho_pos| dt <= FAST_STEP_POS; FAST_SAMPLES + 1 outputs, FAST_CHUNK steps
# per transition product, with about 28 FAST_CHUNK-double arrays live at once (3.7 MB):
# on a 2-vCPU AMD EPYC (1 MiB L2, 32 MiB L3), T = 15 from (1, 0, 0.5) took 0.45 s,
# 0.47 s at 8,192, 0.54 s at an L2-sized 4,096 (per-chunk overhead), 0.74 s at 200,000
FAST_STEP_S = 0.2
FAST_STEP_POS = 1e-3
FAST_SAMPLES = 8
FAST_CHUNK = 16_384
# from FAST_POOL_STEPS steps, Executor.map on FAST_WORKERS threads computes the chunk
# products (numpy releases the GIL in its loops), two chunks' temporaries live (2 x 3.7 MB)
# and every chunk's future from the start (1.9 kB each).  On one CPU too, where T = 15 took
# 1.29 s pooled and 1.48 s in the calling thread alone (medians of 10 fresh processes, 2-vCPU
# Xeon VM), 1.38 and 1.25 s in another set of 6: no CPU count is probed.  Below,
# the median gain (none under 50,000 steps; T = 5 would lose 0.6 ms) does not pay
# for a slower tail: at 114,433 steps p90 8.5 ms pooled against 7.5 ms, at 158,150
# 8.3 against 10.0; pooled horizon-10 studies raised spin-switch's item_s_p50 2.4 %
FAST_WORKERS = 2
FAST_POOL_STEPS = 150_000
# integrate_unicycle: steps per transition-matrix chunk (bounds its temporaries), and
# the step count below which _rk4_nodes loops (16-256 took the same time)
RK4_CHUNK = 4096
RK4_BASE = 64
CSV_HEADER = "t,x_c,y_c,theta,energy"
EXPORT_BLOCK = 4096  # rows that an export formats at a time: 3,001 rows are one block


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
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if self.method == "rk4" and (n := _rk4_steps(self.t_end, self.step)) > MAX_NODES:
            raise RangeError(f"t_end / step gives {n:.15g} rk4 steps, over the budget of "
                             f"{MAX_NODES} stored nodes")


def _rk4_steps(span: float, step: float):
    """The equal rk4 steps over span, span / step rounded and at least 1 (inf
    where the ratio overflows): the count a run makes and its budget checks."""
    ratio = span / step
    return max(1, round(ratio)) if ratio < math.inf else ratio


def unicycle_field(q, gains: GainConfig) -> tuple[float, float, float]:
    """The closed-loop field (x_c', y_c', theta') at any 3-sequence q, as 3 floats;
    an infinite attitude (a stage that overflowed) gives a NaN position rate."""
    x, y, th = float(q[0]), float(q[1]), float(q[2])
    try:
        c, s = math.cos(th), math.sin(th)
    except ValueError:
        c = s = math.nan
    forward = gains.rho_pos * (c * x + s * y)
    return c * forward, s * forward, gains.rho_theta * th


def _unicycle_start(q0) -> np.ndarray:
    """q0 as a finite 3-vector (x_c, y_c, theta): every unicycle run's start, before any step."""
    if (q0 := as_state(q0)).shape != (3,):
        raise ValueError(f"unicycle state must have 3 entries, got {q0.size}")
    return q0


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
        if not np.all(np.isfinite(self.energy)):
            raise RangeError("the energy integral overflows a double: start or gains too large")

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
            with np.errstate(over="ignore"):  # an infinite energy is refused on construction
                energy[1:] = np.cumsum(0.5 * (rates[:-1] + rates[1:]) * dt)
        return Trajectory(times, states, energy)

    def _blocks(self):  # both exports' rows, EXPORT_BLOCK at a time
        if self.states.shape[1] != 3:
            raise ValueError("the export schema is defined for 3-state trajectories")
        cols = self.times, self.states, self.energy
        return (np.column_stack([a[i : i + EXPORT_BLOCK] for a in cols])
                for i in range(0, len(self.times), EXPORT_BLOCK))

    def to_csv(self, path: str) -> None:
        """Write the fixed (t, x_c, y_c, theta, energy) schema, 17 sig digits."""
        row = ",".join(["%.17g"] * 5) + "\n"
        blocks = ((row * len(b)) % tuple(b.ravel().tolist()) for b in self._blocks())
        _atomic_write(path, itertools.chain([CSV_HEADER + "\n"], blocks))

    def to_json(self, path: str, meta: dict | None = None) -> None:
        """Write json.dumps({"meta", "columns", "rows"}, indent=2, allow_nan=False)
        + "\\n", each block of rows through one %r row template: repr is json's float form."""
        head = json.dumps({"meta": {"tool_version": __version__, **(meta or {})},
                           "columns": CSV_HEADER.split(","), "rows": []}, indent=2, allow_nan=False)
        row = "\n    [\n" + ",\n".join(["      %r"] * 5) + "\n    ]"
        body = (("," if i else "[") + ",".join([row] * len(b)) % tuple(b.ravel().tolist())
                for i, b in enumerate(self._blocks()))
        if not (finite := np.isfinite(self.times) & np.isfinite(self.states).all(axis=1)).all():
            i = finite.argmin()  # json's own ValueError names the first value refused
            json.dumps(np.hstack((self.times[i], self.states[i], self.energy[i])).tolist(),
                       indent=2, allow_nan=False)
        tail = "\n  ]\n}\n" if len(self.times) else "[]\n}\n"
        _atomic_write(path, itertools.chain([head[:-4]], body, [tail]))


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of chunks to a fresh file beside path and os.replace it: no partial
    file on error, open()'s mode (0666 less the umask, which the kernel applies), and on ext4 a
    replaced file's data on disk before the rename (200 kB: 50 ms, 0.05 ms fresh; README)."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rk4_step(f, q, h, k1):
    """RK4 step from q, k1 = f(q): (q_new, f(q_new)), the next k1.
    Written out for switch --method rk4, the default: _dp45_step's loop form took
    2.8 us a step against 1.9 us on a 2-vCPU AMD EPYC VM."""
    hh = 0.5 * h
    k2 = f([v + hh * k for v, k in zip(q, k1)])
    k3 = f([v + hh * k for v, k in zip(q, k2)])
    k4 = f([v + h * k for v, k in zip(q, k3)])
    q = [v + h / 6.0 * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(q, k1, k2, k3, k4)]
    return q, f(q)


# Dormand-Prince 5(4) tableau, without the nodes c_i: every field stepped here is autonomous
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
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dp45_step(f, q, h):
    """One Dormand-Prince attempt from q: (q5, q5 - q4, k7) as lists of floats.

    Python floats, as numpy's per-call overhead exceeds the arithmetic on 3-vectors.
    Every sum runs left to right as in the array form, so q5 and q5 - q4 equal it bit
    for bit: a stage input from v with the zero a_72 term kept, q5 and q4 from 0.0
    (the array form's sum() maps -0.0 to 0.0).  f is called at all 7 stage inputs; the
    7th is q5 to rounding, so k7 is the node's field, not reused as the next k1 (no FSAL).
    """
    dims = range(len(q))
    ks = [f(q)]
    for row in _DP_A[1:]:
        stage = list(q)
        for a, k in zip(row, ks):
            ha = h * a
            for i in dims:
                stage[i] += ha * k[i]
        ks.append(f(stage))
    s5, s4 = [0.0] * len(q), [0.0] * len(q)
    for b5, b4, k in zip(_DP_B5, _DP_B4, ks):
        for i in dims:
            s5[i] += b5 * k[i]
            s4[i] += b4 * k[i]
    q5 = [v + h * p for v, p in zip(q, s5)]
    return q5, [a - (v + h * r) for a, v, r in zip(q5, q, s4)], ks[-1]


def _step_stream(f, q0, cfg: IntegratorConfig, t0: float = 0.0, k0=None):
    """Yield (t, q, k) at accepted nodes after t0: q a new list of floats, k the field at q
    that the step evaluated (rk4: its end field, the next k1; rk45: the 7th stage).  f(q) maps
    a float list to a float sequence; k0 = f(q0) is rk4's first k1 if given, and rk45 calls f
    only in its attempts.  Raises DivergenceError when the state norm explodes, or the
    adaptive step collapses or meets a NaN error estimate."""
    guard = DIVERGENCE_FACTOR * max(1.0, math.hypot(*q0))
    t, q = t0, [float(v) for v in q0]
    if cfg.method == "rk4":
        n_steps = _rk4_steps(cfg.t_end - t0, cfg.step)
        h = (cfg.t_end - t0) / n_steps
        k = f(q) if k0 is None else k0
        for i in range(1, n_steps + 1):
            q, k = _rk4_step(f, q, h, k)
            t = t0 + i * h
            if not math.hypot(*q) <= guard:  # NaN included
                raise DivergenceError(f"state norm exceeded guard at t={t:.6g}")
            yield t, q, k
        return
    # adaptive rk45; the RMS error norm is summed left to right in floats,
    # as numpy's mean does below 8 components
    h = min(1e-2, (cfg.t_end - t0) / 10.0)
    h_floor = 1e-12 * (cfg.t_end - t0)
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    while t < cfg.t_end:
        h = min(h, cfg.t_end - t)
        q_new, err_vec, k = _dp45_step(f, q, h)
        sq = 0.0
        for e, a, b in zip(err_vec, q, q_new):
            r = e / (atol + rtol * max(abs(a), abs(b)))
            sq += r * r
        err = math.sqrt(sq / len(q))
        if math.isnan(err):
            raise DivergenceError(f"error estimate is NaN at t={t:.6g}")
        if err <= 1.0:
            t, q = t + h, q_new
            if not math.hypot(*q) <= guard:
                raise DivergenceError(f"state norm exceeded guard at t={t:.6g}")
            yield t, q, k
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < h_floor:
            raise DivergenceError(f"adaptive step collapsed below floor at t={t:.6g}")


def _rate(k) -> float:
    """|k|^2, the energy integrand (inf where it overflows: the Trajectory refuses it)."""
    return sum(v * v for v in k)


def _trajectory(run) -> Trajectory:
    """The Trajectory of a run that takes no more nodes, on views of its arrays."""
    times, states, rates = map(np.frombuffer, run)
    return Trajectory.from_samples(times, states.reshape(len(times), -1), rates)


def _store(run, stream, inside=None, k=None):
    """Store each (t, q, k) node of ``stream`` as (t, q, |k|^2) in run = (times, states,
    rates), arrays of doubles (states row after row, 40 B a node at 3 states): RangeError
    past MAX_NODES nodes after the start; the run so far goes to any StoppedRunError.  With
    ``inside``, stop before the first node where inside(q) holds and return (t, q, k) of the
    last stored node (k its field, or the start's) and of that node, as one 6-tuple; else None."""
    times, states, rates = run
    try:
        for t, q, k_new in stream:
            if inside is not None and inside(q):
                return times[-1], states[-len(q):], k, t, q, k_new
            if len(times) > MAX_NODES:
                raise RangeError(f"more than {MAX_NODES} nodes: the run exceeds the node budget")
            times.append(t)
            states.extend(q)
            rates.append(_rate(k_new))
            k = k_new
    except StoppedRunError as exc:
        exc.trajectory = _trajectory(run)
        raise
    return None


def integrate(f: Callable, q0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the autonomous q' = f(q) from q0 over [0, t_end].  f takes a list of
    Python floats and returns as many floats, as unicycle_field does: no arrays."""
    q0 = as_state(q0)
    k0 = f(q0.tolist())
    if len(k0) != len(q0):
        raise ValueError(f"the field has {len(k0)} entries at a start of {len(q0)}")
    run = array("d", [0.0]), array("d", q0), array("d", [_rate(k0)])
    _store(run, _step_stream(f, q0, cfg, k0=k0))
    return _trajectory(run)


def _mul(a, b):
    """Product a @ b of 2 x 2 matrices given as 4 row-major scalars or arrays."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _rk4_transitions(h, rho, v1, v2, v3, v4):
    """Per-step RK4 increments D = M - I of X' = rho v v' X, M the transition matrix, as
    4 arrays (row major), from the stage directions v = (cos theta, sin theta) as pairs
    of arrays; h a float or one per step.  Each stage slope K_i = A_i (I + s K_{i-1})
    has rank one, v_i w_i' with w_1 = rho v_1 and w_i = rho (v_i + s (v_i . v_{i-1})
    w_{i-1}), so D = h/6 sum m_i v_i w_i' takes no 2 x 2 products.  Increments, as
    I + D would round D's low bits away against the 1."""
    (c, s), hh = v1, 0.5 * h
    wx, wy = rho * c, rho * s
    d = [c * wx, c * wy, s * wx, s * wy]
    for (cn, sn), step, m in ((v2, hh, 2.0), (v3, hh, 2.0), (v4, h, 1.0)):
        f = step * (cn * c + sn * s)
        wx, wy = rho * (cn + f * wx), rho * (sn + f * wy)
        mx, my = m * wx, m * wy
        d = [d[0] + cn * mx, d[1] + cn * my, d[2] + sn * mx, d[3] + sn * my]
        c, s = cn, sn
    h6 = h / 6.0
    return tuple(h6 * v for v in d)


def _rk4_nodes(d, x, y):
    """Nodes X_1 .. X_n of X_{k+1} = X_k + D_k X_k from X_0 = (x, y), D given as
    _rk4_transitions' increments, as two arrays.  Odd-even recursive doubling: a pair
    of steps is one step, I + E = (I + D1)(I + D0), so the even nodes come from half
    as many steps, and each odd node is one step from the even node before it.  Below
    RK4_BASE steps the steps run in a float loop."""
    n = len(d[0])
    if n <= RK4_BASE:
        xs, ys = [], []
        for a, b, c, w in zip(*(v.tolist() for v in d)):
            x, y = x + (a * x + b * y), y + (c * x + w * y)
            xs.append(x)
            ys.append(y)
        return np.array(xs), np.array(ys)
    m = n // 2
    d0 = tuple(v[0 : 2 * m : 2] for v in d)
    d1 = tuple(v[1::2] for v in d)
    ex, ey = _rk4_nodes(tuple(p + q + r for p, q, r in zip(d1, d0, _mul(d1, d0))), x, y)
    px, py = np.concatenate(([x], ex[: n - m - 1])), np.concatenate(([y], ey[: n - m - 1]))
    a, b, c, w = (v[::2] for v in d)
    xs, ys = np.empty(n), np.empty(n)
    xs[1::2], ys[1::2] = ex, ey
    xs[::2], ys[::2] = px + (a * px + b * py), py + (c * px + w * py)
    return xs, ys


def integrate_unicycle(q0, gains: GainConfig, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 specialized to the unicycle closed loop, in transition form.

    _rk4_step's method on the same field, with the sums reordered: the attitude
    stages are fixed multiples of the node attitude theta0 g^n (g the RK4
    amplification factor at z = h rho_theta, positive for real z), and given
    them the position step is linear, X_{n+1} = X_n + D_n X_n.  The 2 x 2
    increments D_n are built from the stage directions, RK4_CHUNK steps at a time,
    and _rk4_nodes applies them by pairwise steps.  T = 30 at step 1e-3 took 9.4 ms
    on a 2-vCPU Xeon VM (10.5 ms by stage products); ``rk45`` runs the generic path
    (unicycle_field; 1.0 ms from (1, 0, 0.5) to T = 30 on a 2-vCPU AMD EPYC VM).
    """
    q0 = _unicycle_start(q0)
    if cfg.method != "rk4":
        return integrate(lambda q: unicycle_field(q, gains), q0, cfg)
    rp, rt = gains.rho_pos, gains.rho_theta
    n_steps = _rk4_steps(cfg.t_end, cfg.step)
    h = cfg.t_end / n_steps
    guard = DIVERGENCE_FACTOR * max(1.0, math.hypot(*q0))
    th0 = float(q0[2])
    # attitude stage factors; theta0 = 0 stays 0 where they overflow
    z = h * rt if th0 else 0.0
    f2 = 1.0 + 0.5 * z
    f3 = 1.0 + 0.5 * z * f2
    f4 = 1.0 + z * f3
    g = 1.0 + z / 6.0 * (1.0 + 2.0 * f2 + 2.0 * f3 + f4)
    times = np.arange(n_steps + 1) * h
    states, rates = np.empty((n_steps + 1, 3)), np.empty(n_steps + 1)
    states[0] = q0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged node is caught below
        for k0 in range(0, n_steps, RK4_CHUNK):
            k1 = min(k0 + RK4_CHUNK, n_steps)
            th = th0 * np.power(g, np.arange(k0, k1 + 1))
            c, s = np.cos(th), np.sin(th)
            stages = ((np.cos(u), np.sin(u)) for u in (th[:-1] * f for f in (f2, f3, f4)))
            d = _rk4_transitions(h, rp, (c[:-1], s[:-1]), *stages)
            node = states[k0 : k1 + 1]
            node[1:, 0], node[1:, 1] = _rk4_nodes(d, *node[0, :2].tolist())
            node[1:, 2] = th[1:]
            xs, ys, th = node.T
            forward, at = rp * (c * xs + s * ys), rt * th  # |rho v v' X| = |rho v . X|
            rates[k0 : k1 + 1] = forward * forward + at * at
            bad = np.flatnonzero(~(xs * xs + ys * ys + th * th <= guard * guard))
            if bad.size:
                stop = k0 + int(bad[0])
                partial = Trajectory.from_samples(times[:stop], states[:stop], rates[:stop])
                raise DivergenceError(f"state norm exceeded guard at t={stop * h:.6g}", partial)
    return Trajectory.from_samples(times, states, rates)


@dataclass(frozen=True)
class SwitchResult:
    trajectory: Trajectory
    switch_time: float


def _switch_crossing(t0, q0, k0, t1, q1, k1, inside):
    """(t, q) on the edge of the switch radius, inside(q) the run's test for it, on
    the cubic Hermite interpolant of the step from (t0, q0), outside, to (t1, q1),
    inside, whose slopes are the fields k0 and k1 the steps evaluated there.
    Bisection keeps the bracket, so q is on or just inside; 53 halvings reach the last bit."""
    h = t1 - t0
    q0, q1 = np.asarray(q0, float), np.asarray(q1, float)
    d0, d1 = h * np.array(k0), h * np.array(k1)
    c2 = 3.0 * (q1 - q0) - 2.0 * d0 - d1
    c3 = 2.0 * (q0 - q1) + d0 + d1
    lo, hi, q_hi = 0.0, 1.0, q1
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        q_mid = q0 + mid * (d0 + mid * (c2 + mid * c3))
        if inside(q_mid):
            hi, q_hi = mid, q_mid
        else:
            lo = mid
    return t0 + hi * h, q_hi


def run_switching(q0, gains: GainConfig, cfg: IntegratorConfig) -> SwitchResult:
    """Destabilize the attitude until the position is inside the switch
    radius, then flip the attitude gain to its stabilizing value.

    The crossing is located on the cubic Hermite interpolant of the step
    that enters the radius, so neither the switch time nor the switch state
    inherits the step size.  The switch node's energy integrand is the pre-switch one.
    """
    q0 = _unicycle_start(q0)
    if not gains.switch_enabled:
        raise ValueError("switching requires switch_enabled")
    if not (gains.rho_theta > 0.0 and gains.rho_theta_after_switch < 0.0):
        raise ValueError("expect rho_theta > 0 before and < 0 after the switch")
    if not gains.rho_pos < 0.0:
        raise ValueError("rho_pos must be negative")
    eps = gains.switch_radius

    post = GainConfig(gains.rho_pos, gains.rho_theta_after_switch)
    f_pre = lambda q: unicycle_field(q, gains)  # which reads only rho_pos and rho_theta
    f_post = lambda q: unicycle_field(q, post)

    k0 = f_pre(q0)
    run = array("d", [0.0]), array("d", q0), array("d", [_rate(k0)])
    inside = lambda q: math.hypot(q[0], q[1]) <= eps
    switch_time, q_switch = 0.0, q0
    if not inside(q0):
        crossing = _store(run, _step_stream(f_pre, q0, cfg, k0=k0), inside, k0)
        if crossing is None:
            raise SwitchTimeoutError(f"position never entered radius {eps} before t={cfg.t_end}",
                                     _trajectory(run))
        switch_time, q_switch = _switch_crossing(*crossing, inside)
        if switch_time > run[0][-1]:  # past the last stored node
            _store(run, [(switch_time, q_switch, f_pre(q_switch))])
    if switch_time < cfg.t_end:
        _store(run, _step_stream(f_post, q_switch, cfg, switch_time))
    return SwitchResult(_trajectory(run), switch_time)


def _ordered_product(m) -> np.ndarray:
    """Product M[n-1] @ ... @ M[0] of 2 x 2 matrices given as 4 row-major arrays, by
    pairwise reduction; at an odd length the last one folds into a left factor."""
    left = (1.0, 0.0, 0.0, 1.0)
    a, b, c, d = m
    while len(a) > 1:
        if len(a) % 2:
            left = _mul(left, (a[-1], b[-1], c[-1], d[-1]))
        o, e = slice(1, None, 2), slice(0, len(a) - 1, 2)
        a, b, c, d = _mul((a[o], b[o], c[o], d[o]), (a[e], b[e], c[e], d[e]))
    return np.array(_mul(left, (a[0], b[0], c[0], d[0]))).reshape(2, 2)


def _rotation_chunk_propagator(t: np.ndarray, theta: Callable, rho_pos: float) -> np.ndarray:
    """RK4 transition product of dX/dt = rho_pos v v' X over the time nodes t,
    v = (cos theta(t), sin theta(t)): per-step increments from the node and midpoint
    directions (both midpoint stages at one attitude), reduced by an ordered pairwise
    product."""
    h = np.diff(t)
    th, th_mid = theta(t), theta(t[:-1] + 0.5 * h)
    c, s, mid = np.cos(th), np.sin(th), (np.cos(th_mid), np.sin(th_mid))
    d = _rk4_transitions(h, rho_pos, (c[:-1], s[:-1]), mid, mid, (c[1:], s[1:]))
    return _ordered_product((1.0 + d[0], d[1], d[2], 1.0 + d[3]))


def propagate_fast_attitude(q0, rho_pos: float, rho_theta: float, t_end: float):
    """Trajectory from q0 = (x_c, y_c, theta0) when the attitude gain is destabilizing.

    theta(t) = theta0 exp(rho_theta t) is exact, so the position subsystem
    is linear time-varying.  One path steps it in time with RK4 transition
    matrices (in the fixed frame X) on a graded grid: each step turns the
    attitude by at most FAST_STEP_S rad and has |rho_pos| dt <= FAST_STEP_POS,
    which keeps RK4 far inside its stability interval at any gain ratio.  The
    step is uniform, h = FAST_STEP_POS / |rho_pos| (at most 1 / rho_theta),
    until |theta| reaches s_c = FAST_STEP_S / expm1(rho_theta h), where the
    two limits meet; beyond s_c each step turns the attitude by FAST_STEP_S.
    From FAST_POOL_STEPS steps the chunk products run on FAST_WORKERS threads
    and the calling thread folds them in order: the result does not depend on
    it.  An error in a chunk (when the calling thread reaches it) or an interrupt
    outside the pool's own code cancels the chunks not yet started; no thread
    outlives the call.  From (1, 0, 0.5) at the paper's gains the run to T = 15
    takes 8.2e6 steps, 0.27-0.31 s on a 2-vCPU AMD EPYC VM.

    Returns (times, states) at FAST_SAMPLES + 1 evenly spaced times from 0 to
    t_end, rows (x_c, y_c, theta) as in Trajectory.states: theta is the law
    the steps use, and states[0] is q0.
    """
    q0 = _unicycle_start(q0)
    theta0 = q0[2]
    if not rho_theta > 0.0:
        raise ValueError("this propagator is for growing attitude (rho_theta > 0)")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {t_end}")
    s0 = abs(theta0)
    log_s0 = math.log(s0) if s0 > 0.0 else -math.inf
    # the cost grows with |theta(t_end)|; stop where the closed forms stop
    t_max = max(0.0, (math.log(MAX_ARG) - log_s0) / rho_theta)
    if t_end > t_max:
        raise RangeError(f"horizon {t_end:g} too long: |theta0| exp(rho_theta t) "
                         f"exceeds {MAX_ARG:g} beyond t = {t_max:.6g}")
    # step clock u: one unit per step h below |theta| = s_c, reached at t_c (never
    # when theta0 = 0, or s_c = inf at a subnormal rho_theta), and one per FAST_STEP_S
    # of attitude beyond; h <= 1 / rho_theta keeps expm1 finite and admits rho_pos = 0
    h = FAST_STEP_POS / max(abs(rho_pos), FAST_STEP_POS * rho_theta)
    s_c = FAST_STEP_S / math.expm1(rho_theta * h)
    t_c = (math.log(s_c) - log_s0) / rho_theta
    u_c = t_c / h

    def clock(t):  # no term beyond s_c up to t_c: at s_c = inf it would be inf * 0
        return t / h if t <= t_c else u_c + s_c * math.expm1(rho_theta * (t - t_c)) / FAST_STEP_S

    # a stiff gain ratio costs |rho_pos| t_end / FAST_STEP_POS steps; allow no
    # more than the attitude limit above does (a few minutes), and no NaN
    # count from an absurd ratio (s_c = inf)
    n_max = MAX_ARG / FAST_STEP_S
    if not clock(t_end) - clock(0.0) <= n_max:
        raise RangeError(f"horizon {t_end:g} too long for rho_pos = {rho_pos:g}: more than "
                         f"{n_max:g} steps (|rho_pos| t_end above about {n_max * FAST_STEP_POS:g})")
    # exp(log|theta0| + rho_theta t) stays finite up to t_max, even where
    # exp(rho_theta t) alone would overflow (theta0 = 0 or subnormal)
    sign = math.copysign(1.0, theta0)
    theta = lambda t: sign * np.exp(log_s0 + rho_theta * t)
    out_t = np.linspace(0.0, t_end, FAST_SAMPLES + 1)
    # a chunk (u_a, u_b, n, k0) holds steps k0 to min(k0 + FAST_CHUNK, n) of the n
    # between neighbouring output times, at clock u_a and u_b: its product depends
    # on its nodes alone, and the fold into X keeps the chunks' order
    spans = [(u_a, u_b, max(1, math.ceil(u_b - u_a)))
             for u_a, u_b in itertools.pairwise(clock(t) for t in out_t)]
    chunks = [(*span, k0) for span in spans for k0 in range(0, span[2], FAST_CHUNK)]

    def product(chunk):
        u_a, u_b, n, k0 = chunk
        u = u_a + (u_b - u_a) / n * np.arange(k0, min(k0 + FAST_CHUNK, n) + 1)
        t = h * np.minimum(u, u_c) + np.log1p(
            FAST_STEP_S / s_c * np.maximum(u - u_c, 0.0)) / rho_theta
        return _rotation_chunk_propagator(t, theta, rho_pos)

    X = q0[:2]
    out_X = [X]
    if sum(span[2] for span in spans) < FAST_POOL_STEPS:
        products = [product(c) for c in chunks]
    else:
        # imported here: it loads logging, 3.7 ms that a serial run does not pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(FAST_WORKERS) as pool:
            try:
                products = list(pool.map(product, chunks))
            except BaseException:  # else every chunk submitted so far runs before the exit
                pool.shutdown(cancel_futures=True)
                raise
    for (_, _, n, k0), P in zip(chunks, products):
        X = P @ X
        if k0 + FAST_CHUNK >= n:  # the last chunk before an output time
            out_X.append(X)
    states = np.column_stack((out_X, theta(out_t)))
    states[0] = q0
    return out_t, states
