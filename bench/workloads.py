"""The three benchmark workloads: seeded inputs, timed calls and checks.

Every workload is a closed loop with one client: an item runs only after
the previous one has been checked.  A run is a sequence of rounds; round
``r`` of workload ``w`` under seed ``s`` is generated from the random
stream ``(s, id(w), r)``, so rounds never repeat an input and the same seed
always gives the same inputs.  Inputs and the references that do not depend
on the program's output are computed when the round is built, before any
item of it is timed.

An item has two parts.  ``run`` is the timed region and contains only
calls into ``driftless`` through module attributes, so that the tracer's
wrappers see them.  ``check`` runs outside the timed region and compares
the outputs with ``reference`` (scipy) and with the thresholds of the
acceptance battery.

The criterion 1 starts are stratified random draws over that criterion's
domain.  All other starts are fixed designs that the seed moves by a few
percent (``_perturb``): their cost and error vary too much with the input for
free draws to give a steady median, tail and err_ratio_max.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from driftless import analysis, cli, closedform, core, simulate  # noqa: E402

import reference as ref  # noqa: E402

if not Path(simulate.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"driftless imported from {simulate.__file__}, not from {SRC}")

STABLE = simulate.GainConfig(-1.0, -1.0)
RK4_STEP = 1e-3
EVAL_STRIDE = 20  # criterion 1 evaluates the closed form on every 20th node
SWITCH_GAINS = simulate.GainConfig(
    rho_pos=-1.0,
    rho_theta=1.0,
    switch_enabled=True,
    switch_radius=0.05,
    rho_theta_after_switch=-1.0,
)
SWITCH_CFG = simulate.IntegratorConfig(
    method="rk45", abs_tol=1e-10, rel_tol=1e-10, t_end=30.0
)
FAR_START = (10.0, -3.0, 2.0)  # tests/test_simulate.py::test_switch_far_start
SPIN_GATE_START = (1.0, 0.0, 0.5)  # criterion 6
SPIN_GATE_HORIZON = 15.0


@dataclass
class Outcome:
    """Result of checking one item against its references."""

    failures: list[str] = field(default_factory=list)
    err_ratio: float = 0.0
    worst: str = ""
    exit_mismatch: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def within(self, what: str, observed: float, threshold: float) -> None:
        """Record observed/threshold; the claim holds when the ratio is <= 1."""
        ratio = float(observed) / threshold
        if not ratio <= 1.0:  # also catches NaN
            self.failures.append(f"{what}: {observed:.3e} > {threshold:.3e}")
        if not ratio <= self.err_ratio:
            self.err_ratio = ratio if ratio == ratio else math.inf
            self.worst = what

    def holds(self, what: str, condition: bool) -> None:
        if not condition:
            self.failures.append(what)


@dataclass
class Item:
    kind: str
    inputs: tuple
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[np.random.Generator, str], list[Item]]

    def round(self, seed: int, r: int, out_dir: str) -> list[Item]:
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode()), r])
        return self.make_round(rng, out_dir)


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi], one from each of n equal slices, shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n)


def _starts(rng, n, r_lo, r_hi, th_lo, th_hi):
    """n starts (x, y, theta) with stratified |X0| and |theta0|, random signs."""
    radii = _strata(rng, n, r_lo, r_hi)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    thetas = _strata(rng, n, th_lo, th_hi) * rng.choice([-1.0, 1.0], n)
    return [
        (float(r * math.cos(a)), float(r * math.sin(a)), float(th))
        for r, a, th in zip(radii, angles, thetas)
    ]


def _perturb(rng, points, mirror=True, rel=0.02) -> list[tuple]:
    """Fixed starts (x, y, theta), each moved by a few percent: |X0| and
    theta scaled by 1 +- rel, X0 turned by +- rel radians and, if
    ``mirror``, reflected to (x, -y, -theta) at random.  The reflection is a
    symmetry of the closed loop, so the cost and the error of each start
    barely depend on the seed, while no two seeds share an input.
    """
    out = []
    for x, y, th in points:
        r = math.hypot(x, y) * (1.0 + rel * rng.uniform(-1.0, 1.0))
        angle = math.atan2(y, x) + rel * rng.uniform(-1.0, 1.0)
        th *= 1.0 + rel * rng.uniform(-1.0, 1.0)
        sign = rng.choice([-1.0, 1.0]) if mirror else 1.0
        out.append((r * math.cos(angle), sign * r * math.sin(angle), sign * th))
    return out


def _grid(radii, thetas, copies=1) -> list[tuple]:
    """Every (|X0|, theta0) pair ``copies`` times, X0 directions spread by
    the golden angle."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pairs = [(r, th) for _ in range(copies) for r in radii for th in thetas]
    return [(r * math.cos(k * golden), r * math.sin(k * golden), th) for k, (r, th) in enumerate(pairs)]


# --------------------------------------------------------------------------
# oracle-battery: criteria 1, 3 and 9 on seeded starts


def _oracle_item(q0: tuple, horizon: float) -> Item:
    X0, theta0 = np.array(q0[:2]), q0[2]
    cfg = simulate.IntegratorConfig(step=RK4_STEP, t_end=horizon)
    n_steps = int(round(horizon / RK4_STEP))
    idx = np.arange(0, n_steps + 1, EVAL_STRIDE)
    times = idx * (horizon / n_steps)
    expected_X = ref.equal_gain_position(X0, theta0, theta0 * np.exp(-times))
    # Criteria 3 and 9 hold at T = 30 on their own starts; at T = 10 and over
    # criterion 1's wider starts the energy identity can miss 1e-6 (see
    # README.md), so those starts check criterion 1 and monotonicity only.
    long_run = horizon >= 30.0

    def run():
        sol = closedform.fit_solution(X0, theta0)
        traj = simulate.integrate_unicycle(q0, STABLE, cfg)
        cf = [closedform.eval_solution(sol, traj.times[i]).X for i in idx]
        cert = qdot = None
        if long_run:
            cert = analysis.certify_stability(
                traj, lambda q: simulate.unicycle_field(q, STABLE), tol=ref.CERTIFY_TOL
            )
            qdot = core.closed_loop_field(
                traj.final_state, simulate.unicycle_field_set(), -1.0
            )
        return traj, np.array(cf), cert, qdot

    def check(out) -> Outcome:
        traj, cf, cert, qdot = out
        o = Outcome()
        o.within("closed form vs rk4", np.max(np.abs(cf - traj.states[idx, :2])), ref.CLOSED_FORM_TOL)
        o.within("closed form vs scipy", np.max(np.abs(cf - expected_X)), ref.CLOSED_FORM_TOL)
        norms = np.linalg.norm(traj.states, axis=1)
        o.holds("norm monotone", bool(np.all(np.diff(norms) <= ref.MONOTONE_SLACK)))
        if long_run:
            q_end = traj.final_state
            energy = 0.5 * (np.dot(q0, q0) - q_end @ q_end)
            o.within("energy identity", abs(traj.energy[-1] - energy) / abs(energy), ref.ENERGY_REL_TOL)
            o.holds("energy bounded", cert.energy_bounded and cert.passed)
            o.within("terminal speed^2", float(qdot @ qdot), ref.SPEED_SQ_TOL)
        return o

    return Item(f"oracle-T{horizon:g}", (q0, horizon), run, check)


# Criteria 3 and 9 starts, inside criterion 3's box [-2, 2]^3.  The first
# lies where the energy identity is hardest to meet (X0 near the y axis,
# theta0 near 0.5), so err_ratio_max follows the worst case, not the draw.
LONG_STARTS = ((0.0, 1.9, 0.5), (1.8, -0.6, -1.5), (-1.2, -1.2, 1.9), (-0.9, 1.4, -0.1))


def oracle_round(rng, out_dir) -> list[Item]:
    # 8 starts at T = 10 (criterion 1) and 4 at T = 30 (criteria 3 and 9),
    # interleaved.  The 2:1 mix keeps the median inside the T = 10 cluster
    # and the tail inside the T = 30 cluster, away from the gap between them.
    short = _starts(rng, 8, 0.0, 3.0, 0.01, 3.0)
    long = _perturb(rng, LONG_STARTS)
    items = []
    for k in range(4):
        items += [_oracle_item(short[2 * k], 10.0), _oracle_item(short[2 * k + 1], 10.0)]
        items.append(_oracle_item(long[k], 30.0))
    return items


# --------------------------------------------------------------------------
# spin-switch: criteria 6 and 7, the far start and the fast-attitude propagator


def _switch_item(q0: tuple, kind: str = "switch") -> Item:
    def run():
        return simulate.run_switching(q0, SWITCH_GAINS, SWITCH_CFG)

    def check(result) -> Outcome:
        o = Outcome()
        traj, t_s = result.trajectory, result.switch_time
        o.holds("switch inside horizon", 0.0 < t_s < SWITCH_CFG.t_end)
        o.within("final state norm", np.linalg.norm(traj.final_state), ref.SWITCH_NORM_TOL)
        post = traj.times >= t_s
        th_post, t_post = traj.states[post, 2], traj.times[post]
        decay = th_post[0] * np.exp(-(t_post - t_post[0]))
        o.within(
            "post-switch attitude decay",
            np.max(np.abs(th_post - decay)),
            ref.DECAY_REL_TOL * max(1.0, abs(th_post[0])),
        )
        q_s = traj.states[np.searchsorted(traj.times, t_s)]
        spin = ref.spin_position(q0[:2], q0[2], q_s[2])
        o.within("switch point vs closed form", np.max(np.abs(spin - q_s[:2])), ref.CLOSED_FORM_TOL)
        final = ref.equal_gain_position(q_s[:2], q_s[2], traj.final_state[2])
        o.within(
            "final position vs closed form",
            np.max(np.abs(final - traj.final_state[:2])),
            ref.CLOSED_FORM_TOL,
        )
        return o

    return Item(kind, (q0,), run, check)


def _spin_item(q0: tuple, horizon: float) -> Item:
    gate = horizon >= SPIN_GATE_HORIZON

    def run():
        return analysis.rho_positive_study(q0, -1.0, 1.0, horizon)

    def check(report) -> Outcome:
        o = Outcome()
        o.holds("position decays", report.position_decays)
        o.holds("attitude grows", report.attitude_grows)
        thetas = q0[2] * np.exp(np.array(report.times))
        expected = np.linalg.norm(ref.spin_position(q0[:2], q0[2], thetas), axis=1)
        o.within(
            "position norm vs closed form",
            np.max(np.abs(np.array(report.position_norms) - expected)),
            ref.CLOSED_FORM_TOL,
        )
        if gate:
            o.within("|X(15)|", report.position_norms[-1], ref.SPIN_FINAL_TOL)
        return o

    return Item(f"spin-T{horizon:g}", (q0, horizon), run, check)


SWITCH_STARTS = _grid((0.5, 0.75, 1.0, 1.25), (0.25, 0.5, 0.75, 1.0), copies=2)
SPIN_STARTS = _grid((0.5, 1.0), (0.3, 0.4, 0.5, 0.6), copies=5)
SPIN_HORIZONS = (5.0, 8.0, 10.0, 10.0, 12.0)  # 8 starts each


def spin_round(rng, out_dir) -> list[Item]:
    # Two gate items hold about two thirds of the time: the far-start
    # switching run and criterion 6 at horizon 15, the costs the next
    # closed-form change targets.  Around them, 72 cheaper items from 0.05 s
    # to 0.5 s give the median and the tail enough neighbours to be steady;
    # the 16 horizon-10 studies, which cost about the same, hold the median.
    # Switching costs vary fourfold with the direction of X0 alone, so the
    # starts are a fixed design moved by the seed (see _perturb).
    items = [_switch_item(q) for q in _perturb(rng, SWITCH_STARTS)]
    items += [
        _spin_item(q, SPIN_HORIZONS[k // 8]) for k, q in enumerate(_perturb(rng, SPIN_STARTS))
    ]
    items = [items[i] for i in rng.permutation(len(items))]
    return [_switch_item(FAR_START, "switch-far"), _spin_item(SPIN_GATE_START, SPIN_GATE_HORIZON)] + items


# --------------------------------------------------------------------------
# closed-form-cli: in-process driftless.cli.main invocations


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _q0_arg(q0) -> str:
    # one token, so that a leading minus sign is not read as an option
    return "--q0=" + ",".join(repr(float(v)) for v in q0)


def _read_rows(path: str, fmt: str) -> np.ndarray:
    try:
        if fmt == "json":
            with open(path) as fh:
                payload = json.load(fh)
            rows = np.array(payload["rows"], float)
        else:
            with open(path) as fh:
                header = fh.readline().strip()
            if header != simulate.CSV_HEADER:
                raise ValueError(f"bad CSV header {header!r}")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    finally:
        if os.path.exists(path):
            os.unlink(path)
    return rows


def _cli_item(kind: str, argv: list[str], expected_code: int, verify) -> Item:
    def run():
        return call_cli(argv)

    def check(out) -> Outcome:
        code, stdout, stderr = out
        o = Outcome()
        if code != expected_code:
            o.exit_mismatch = True
            o.failures.append(f"exit {code}, expected {expected_code}: {stderr.strip()}")
            return o
        if verify is not None:
            verify(o, stdout)
        return o

    return Item(kind, tuple(argv), run, check)


def _fit_item(q0) -> Item:
    c_ref = np.array(ref.equal_gain_constants(q0[:2], q0[2]))

    def verify(o, stdout):
        got = json.loads(stdout)
        c = np.array([got["c1"], got["c2"]])
        rel = np.max(np.abs(c - c_ref) / np.maximum(1.0, np.abs(c_ref)))
        o.within("fit constants vs scipy", rel, ref.CLOSED_FORM_TOL)

    return _cli_item("cli-fit", ["fit", _q0_arg(q0)], 0, verify)


def _asymptotics_item(q0) -> Item:
    _, c2 = ref.equal_gain_constants(q0[:2], q0[2])
    direction = ref.feasible_direction(q0[2])

    def verify(o, stdout):
        got = json.loads(stdout)
        limit = abs(got["z2_limit"] - 2.0 * c2 / math.pi)
        o.within("z2 limit vs 2 c2 / pi", limit, ref.CLOSED_FORM_TOL)
        off = np.max(np.abs(np.array(got["feasible_direction"]) - direction))
        o.within("feasible direction", off, ref.CLOSED_FORM_TOL)

    argv = ["analyze", "--what", "asymptotics", _q0_arg(q0)]
    return _cli_item("cli-asymptotics", argv, 0, verify)


def _brockett_item(q0) -> Item:
    direction = ref.feasible_direction(q0[2])

    def verify(o, stdout):
        got = json.loads(stdout)
        o.holds("1025 scan points", got["n_points"] == 1025)
        o.holds("feasible starts aligned", got["all_feasible_aligned"])
        o.holds("feasible starts <= 27", got["n_feasible"] <= ref.BROCKETT_MAX_FEASIBLE)
        off = np.max(np.abs(np.array(got["feasible_direction"]) - direction))
        o.within("feasible direction", off, ref.CLOSED_FORM_TOL)

    argv = ["analyze", "--what", "brockett", _q0_arg(q0)]
    return _cli_item("cli-brockett", argv, 0, verify)


def _closed_form_item(q0, out_dir: str, name: str) -> Item:
    t_end, dt = 10.0, 0.005
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    thetas = q0[2] * np.exp(-times)
    expected = ref.equal_gain_position(q0[:2], q0[2], thetas)

    def verify(o, stdout):
        rows = _read_rows(os.path.join(out_dir, name), "csv")
        o.holds("row count", rows.shape == (len(times), 5))
        o.within("closed-form rows vs scipy", np.max(np.abs(rows[:, 1:3] - expected)), ref.CLOSED_FORM_TOL)
        o.within("closed-form attitude", np.max(np.abs(rows[:, 3] - thetas)), ref.CLOSED_FORM_TOL)

    argv = ["closed-form", _q0_arg(q0), "--t-end", repr(t_end),
            "--sample-dt", repr(dt), "--out", name]
    return _cli_item("cli-closed-form", argv, 0, verify)


def _simulate_item(q0, fmt: str, out_dir: str, name: str) -> Item:
    t_end = 3.0
    theta_end = q0[2] * math.exp(-t_end)
    expected = ref.equal_gain_position(q0[:2], q0[2], theta_end)

    def verify(o, stdout):
        rows = _read_rows(os.path.join(out_dir, name), fmt)
        o.holds("row count", rows.shape == (int(round(t_end / RK4_STEP)) + 1, 5))
        o.within("final position vs scipy", np.max(np.abs(rows[-1, 1:3] - expected)), ref.CLOSED_FORM_TOL)

    argv = ["simulate", _q0_arg(q0), "--rho", "-1", "--t-end", repr(t_end),
            "--format", fmt, "--out", name]
    return _cli_item(f"cli-simulate-{fmt}", argv, 0, verify)


def _compare_item(q0) -> Item:
    def verify(o, stdout):
        got = json.loads(stdout)
        o.holds("compare passed", got["passed"] and got["n_samples"] == 101)
        o.within("compare sup-norm", got["sup_norm_error"], ref.CLOSED_FORM_TOL)

    argv = ["compare", _q0_arg(q0), "--t-end", "5", "--sample-dt", "0.05",
            "--tol", repr(ref.CLOSED_FORM_TOL)]
    return _cli_item("cli-compare", argv, 0, verify)


# closed-form-cli starts (x, y, theta0): theta0 spans (0, 50] on both sides
# of the series/Hankel cutoff at 14.
FIT_STARTS = ((1.0, 0.5, 0.5), (-0.8, 1.2, 14.5), (2.0, -1.0, 45.0))
ASYMPTOTICS_STARTS = ((0.5, 1.5, 3.0), (-1.5, -0.5, 25.0))
CLOSED_FORM_STARTS = ((1.0, -0.5, 5.0), (-0.7, 1.1, 20.0), (2.2, 0.3, 48.0))
BROCKETT_STARTS = ((0.3, 0.4, 2.0), (-0.4, 0.3, 30.0))
SIMULATE_STARTS = (
    (1.0, 1.0, 0.5), (-2.0, 0.5, 1.0), (0.5, -2.5, 2.0), (2.5, 1.0, -0.3),
    (-1.0, -1.0, 2.8), (0.2, 1.5, -1.5), (1.5, -0.2, 1.2), (-0.5, 2.0, 0.8),
    (2.0, -2.0, -2.2), (-2.5, -0.5, 0.1), (0.8, 0.6, -1.0),
)
COMPARE_STARTS = ((1.0, 0.0, 1.0), (-1.5, 2.0, -2.0))
INVALID_STARTS = ((0.7, -0.4, 0.0), (1.1, 0.9, 1.0))


def cli_round(rng, out_dir) -> list[Item]:
    # Costs fall into three bands: about 3 ms (fit, asymptotics, invalid
    # input), 30-60 ms (simulate, compare) and 150-350 ms (closed-form on a
    # dense grid, Brockett scan).  Seven cheap, thirteen middle and five dear
    # items put the median in the middle of the nine CSV simulations and the
    # tail inside the dear band.
    tag = f"{rng.integers(1 << 62):x}"
    starts = lambda points: _perturb(rng, points, mirror=False)  # noqa: E731
    items = [_fit_item(q) for q in starts(FIT_STARTS)]
    items += [_asymptotics_item(q) for q in starts(ASYMPTOTICS_STARTS)]
    items += [
        _closed_form_item(q, out_dir, f"cf-{tag}-{k}.csv")
        for k, q in enumerate(starts(CLOSED_FORM_STARTS))
    ]
    items += [_brockett_item(q) for q in starts(BROCKETT_STARTS)]
    items += [
        _simulate_item(q, fmt, out_dir, f"sim-{tag}-{k}.{fmt}")
        for k, (q, fmt) in enumerate(zip(starts(SIMULATE_STARTS), ["csv"] * 9 + ["json"] * 2))
    ]
    items += [_compare_item(q) for q in starts(COMPARE_STARTS)]
    # invalid inputs: theta0 = 0 without --degenerate, and a --q0 of two values
    degenerate, short = starts(INVALID_STARTS)
    items.append(_cli_item("cli-invalid", ["closed-form", _q0_arg(degenerate)], cli.EXIT_DEGENERATE, None))
    items.append(_cli_item("cli-invalid", ["fit", _q0_arg(short[:2])], cli.EXIT_INVALID, None))
    return [items[i] for i in rng.permutation(len(items))]


WORKLOADS = {
    "oracle-battery": Workload("oracle-battery", oracle_round),
    "spin-switch": Workload("spin-switch", spin_round),
    "closed-form-cli": Workload("closed-form-cli", cli_round),
}
