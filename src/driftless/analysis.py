"""Machine-checked versions of the analytic stability claims.

Each report is a plain dataclass serializable to JSON, so the CLI can emit
certificates for external inspection.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, basis_matrix, feasible_direction, fit_constants
from .errors import InconclusiveError
from .simulate import Trajectory, propagate_fast_attitude

# |c2| |B e2| <= C2_TOL |X0| counts as c2 = 0, B e2 the basis column that c2 multiplies
C2_TOL = 1e-8
# Brockett scan grid: polar angles times radii, plus the radii on the feasible line; the
# angles sit half a step off the 45 (135) degree line that the feasible line tends to
SCAN_ANGLES = 40
SCAN_RADII = np.linspace(0.1, 3.0, 25)


@dataclass(frozen=True)
class StabilityCertificate:
    """Boundedness of the accumulated squared-speed integral plus the
    consequences it is supposed to force (Barbalat-style chain)."""

    energy_bounded: bool
    final_speed: float
    norm_monotone: bool
    horizon: float
    total_energy: float
    last_window_increment: float

    @property
    def passed(self) -> bool:
        return self.energy_bounded and self.norm_monotone


def certify_stability(traj: Trajectory, field_fn, tol: float) -> StabilityCertificate:
    """Windowed boundedness check over the last decile of the horizon.

    ``energy_bounded`` holds when the energy gained in the final 10% of the
    run is below tol * (1 + total); there is no horizon-infinite check, so
    a stalled integrand is the operational meaning of convergence.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if len(traj.times) < 20:
        raise InconclusiveError("trajectory too short for a windowed energy check")
    horizon = float(traj.times[-1])
    idx = int(np.searchsorted(traj.times, 0.9 * horizon))
    if idx >= len(traj.times) - 1:
        raise InconclusiveError("final decile contains too few samples")
    increment = float(traj.energy[-1] - traj.energy[idx])
    total = float(traj.energy[-1])
    qdot = np.asarray(field_fn(traj.states[-1]), float)
    final_speed = float(np.sqrt(qdot @ qdot))
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(traj.states**2, axis=1))
    if np.isinf(norms).any():  # |q|^2 overflowed; hypot is 4x slower but does not
        norms = np.hypot.reduce(traj.states, axis=1)
    slack = 1e-9 * (1.0 + norms[0])
    monotone = bool(np.all(np.diff(norms) <= slack))
    return StabilityCertificate(
        energy_bounded=increment < tol * (1.0 + total),
        final_speed=final_speed,
        norm_monotone=monotone,
        horizon=horizon,
        total_energy=total,
        last_window_increment=increment,
    )


def _c2_is_zero(c2, basis, x0_norm):  # basis = basis_matrix(theta0)
    return abs(c2) * math.hypot(*basis[:, 1]) <= C2_TOL * x0_norm


@dataclass(frozen=True)
class AsymptoticReport:
    """Limit behavior of one closed-form trajectory."""

    z1_limit: float
    z2_limit: float
    x_infinity: tuple[float, float]
    c2_zero_feasible: bool
    feasible_direction: tuple[float, float]


def asymptotics(sol: ClosedFormSolution) -> AsymptoticReport:
    """Limits as t -> infinity: z1 vanishes; z2 tends to 2 c2 / pi.

    Since the attitude decays to zero, the frame rotation tends to the
    identity and the limiting position is (0, 2 c2/pi): every trajectory
    lands on the vertical axis.  ``feasible_direction`` is the single
    initial-position direction (per theta0) for which c2 = 0, i.e. for
    which the limit is the origin itself; ``c2_zero_feasible`` applies
    _c2_is_zero with |X0| = |Z0| = |B (c1, c2)|, B the basis at theta0.
    """
    z2_limit = 2.0 * sol.c2 / math.pi
    basis = basis_matrix(sol.theta0)
    return AsymptoticReport(
        z1_limit=0.0,
        z2_limit=z2_limit,
        x_infinity=(0.0, z2_limit),
        c2_zero_feasible=_c2_is_zero(sol.c2, basis, math.hypot(*basis @ (sol.c1, sol.c2))),
        feasible_direction=feasible_direction(sol.theta0),
    )


@dataclass(frozen=True)
class RotationStudyReport:
    """Outcome of running the loop with a destabilizing attitude gain."""

    times: tuple[float, ...]
    position_norms: tuple[float, ...]
    theta_final: float
    position_decays: bool
    attitude_grows: bool


def rho_positive_study(
    q0, rho_pos: float, rho_theta: float, horizon: float
) -> RotationStudyReport:
    """Drive the attitude unstable (rho_theta > 0) while keeping the
    position gain stabilizing, and record that the wheel-center position
    still collapses to the origin as the vehicle spins ever faster: the
    norms and theta_final are read from propagate_fast_attitude's rows.
    """
    if not (-math.inf < rho_pos < 0.0 < rho_theta < math.inf):
        raise ValueError("study expects finite gains rho_pos < 0 and rho_theta > 0")
    ts, states = propagate_fast_attitude(q0, rho_pos, rho_theta, horizon)
    norms = [math.hypot(*X) for X in states[:, :2]]
    theta0, theta_final = states[[0, -1], 2].tolist()
    return RotationStudyReport(
        times=tuple(float(t) for t in ts),
        position_norms=tuple(float(n) for n in norms),
        theta_final=theta_final,
        position_decays=bool(norms[-1] < max(norms[0], 1e-300) or norms[0] == 0.0),
        attitude_grows=abs(theta_final) > abs(theta0),
    )


@dataclass(frozen=True)
class BrockettScanReport:
    """Feasibility of reaching the origin itself, over a grid of starts.

    The c2 = 0 condition confines the initial position to a single line
    direction per theta0: a measure-zero set, consistent with the
    obstruction to continuous stabilization.
    """

    theta0: float
    n_points: int
    n_feasible: int
    feasible_fraction: float
    feasible_direction: tuple[float, float]
    all_feasible_aligned: bool
    max_offline_alignment: float


def brockett_scan(theta0: float) -> BrockettScanReport:
    """Fit c2 over a polar grid of initial positions, plus starts on the
    feasible line, and locate the set where the trajectory limit is the
    origin (c2 = 0 by _c2_is_zero).

    The fit is linear in X0, so one fit_constants call serves every start.
    """
    direction = feasible_direction(theta0)
    angles = np.linspace(0.0, 2.0 * math.pi, SCAN_ANGLES, endpoint=False) + math.pi / SCAN_ANGLES
    rays = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    grid = SCAN_RADII[None, :, None] * rays[:, None, :]
    points = np.concatenate([grid.reshape(-1, 2), np.outer(SCAN_RADII, direction)])
    c2 = fit_constants(points.T, theta0)[1]
    norms = np.sqrt(np.sum(points**2, axis=1))
    units = points / norms[:, None]
    cross = np.abs(units[:, 0] * direction[1] - units[:, 1] * direction[0])
    feasible = _c2_is_zero(c2, basis_matrix(theta0), norms)
    n_feasible = int(np.count_nonzero(feasible))
    return BrockettScanReport(
        theta0=theta0,
        n_points=len(points),
        n_feasible=n_feasible,
        feasible_fraction=n_feasible / len(points),
        feasible_direction=direction,
        all_feasible_aligned=bool(np.all(cross[feasible] <= 1e-6)),
        max_offline_alignment=float(np.max(1.0 - cross[~feasible], initial=0.0)),
    )


def report_json(report) -> str:
    return json.dumps(dataclasses.asdict(report), indent=2, allow_nan=False)
