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

from .closedform import (
    ClosedFormSolution, basis_matrix, check_finite_fit, from_z_frame, to_z_frame
)
from .errors import InconclusiveError
from .simulate import Trajectory, propagate_fast_attitude

# |c2| below this counts as c2 = 0: the trajectory's limit is the origin
C2_TOL = 1e-8
# Brockett scan grid: polar angles times radii, plus the radii on the feasible line
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
    if len(traj.times) < 20:
        raise InconclusiveError("trajectory too short for a windowed energy check")
    horizon = float(traj.times[-1])
    window_start = 0.9 * horizon
    idx = int(np.searchsorted(traj.times, window_start))
    if idx >= len(traj.times) - 1:
        raise InconclusiveError("final decile contains too few samples")
    increment = float(traj.energy[-1] - traj.energy[idx])
    total = float(traj.energy[-1])
    qdot = np.asarray(field_fn(traj.states[-1]), float)
    final_speed = float(np.linalg.norm(qdot))
    norms = np.linalg.norm(traj.states, axis=1)
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
    which the limit is the origin itself.
    """
    z2_limit = 2.0 * sol.c2 / math.pi
    direction = from_z_frame(basis_matrix(sol.theta0)[:, 0], sol.theta0)
    direction = direction / math.hypot(*direction)
    return AsymptoticReport(
        z1_limit=0.0,
        z2_limit=z2_limit,
        x_infinity=(0.0, z2_limit),
        c2_zero_feasible=abs(sol.c2) < C2_TOL,
        feasible_direction=(float(direction[0]), float(direction[1])),
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
    still collapses to the origin as the vehicle spins ever faster.
    """
    if not (rho_pos < 0.0 < rho_theta):
        raise ValueError("study expects rho_pos < 0 and rho_theta > 0")
    q0 = np.asarray(q0, float)
    theta0 = float(q0[2])
    ts, Xs = propagate_fast_attitude(q0[:2], theta0, rho_pos, rho_theta, horizon)
    theta_final = theta0 * math.exp(rho_theta * horizon)
    norms = np.linalg.norm(Xs, axis=1)
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
    origin (|c2| below tolerance).

    The fit c = B(theta0)^-1 R(theta0)' X0 is linear in X0, so one basis
    matrix and one solve serve every start.
    """
    basis = basis_matrix(theta0)
    direction = from_z_frame(basis[:, 0], theta0)
    direction = direction / math.hypot(*direction)
    angles = np.linspace(0.0, 2.0 * math.pi, SCAN_ANGLES, endpoint=False)
    rays = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    grid = SCAN_RADII[None, :, None] * rays[:, None, :]
    points = np.concatenate([grid.reshape(-1, 2), np.outer(SCAN_RADII, direction)])
    c = np.linalg.solve(basis, to_z_frame(points.T, theta0))
    check_finite_fit(c, theta0)
    units = points / np.linalg.norm(points, axis=1, keepdims=True)
    cross = np.abs(units[:, 0] * direction[1] - units[:, 1] * direction[0])
    feasible = np.abs(c[1]) < C2_TOL
    n_feasible = int(np.count_nonzero(feasible))
    return BrockettScanReport(
        theta0=theta0,
        n_points=len(points),
        n_feasible=n_feasible,
        feasible_fraction=n_feasible / len(points),
        feasible_direction=(float(direction[0]), float(direction[1])),
        all_feasible_aligned=bool(np.all(cross[feasible] <= 1e-6)),
        max_offline_alignment=float(np.max(1.0 - cross[~feasible], initial=0.0)),
    )


def report_json(report) -> str:
    return json.dumps(dataclasses.asdict(report), indent=2)
