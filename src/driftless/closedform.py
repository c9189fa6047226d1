"""Closed-form trajectories of the stabilized unicycle position.

With equal gains rho = -1 (general rho < 0 reduces to this by rescaling
time with |rho|), the attitude is theta(t) = theta0 exp(-t) and the
rotated position Z = R(theta)' X solves a Bessel equation of order zero in
the variable theta:

    z1 = theta [c1 J0(theta) + c2 Y0(theta)]
    z2 = -theta [c1 J1(theta) + c2 Y1(theta)]

z2 is always evaluated through this Bessel form; the equivalent quotient
(z1' - rho z1)/theta' degenerates as theta' -> 0 and is only used as a
finite-difference consistency check in the tests.

Negative initial attitudes are handled by evaluating the Bessel functions
at |theta| (the order-zero equation is even in its argument); the sign
bookkeeping below keeps z1 odd in theta and z2 even, which is the branch
that matches the numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import EULER_GAMMA, bessel_j, bessel_y
from .errors import DegenerateAttitudeError

RHO = -1.0  # solutions are normalized to equal gains rho = -1
# below this |theta| the leading small-argument terms are exact in double
# (the next terms are O(theta^2) relative), and Y1 overflows at subnormals
_SMALL_THETA = 1e-150


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def to_z_frame(X, theta: float) -> np.ndarray:
    """Rotate the position into the attitude-aligned frame: Z = R(theta)' X.

    X may also be 2 x n, one position per column.
    """
    return _rotation(theta).T @ np.asarray(X, float)


def from_z_frame(Z, theta: float) -> np.ndarray:
    """Inverse frame change: X = R(theta) Z."""
    return _rotation(theta) @ np.asarray(Z, float)


@dataclass(frozen=True)
class ClosedFormSolution:
    """Coefficients of one closed-form position trajectory (rho = -1)."""

    theta0: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.theta0 == 0.0:
            raise DegenerateAttitudeError(
                "theta0 = 0 degenerates the Bessel form; use degenerate_eval"
            )


def _basis(theta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Rows mapping (c1, c2) to (z1, z2) at attitude theta.

    theta = 0 is allowed here: it is the t -> infinity limit, z = (0, 2 c2/pi).
    """
    s = abs(theta)
    if s < _SMALL_THETA:
        # J0 = 1, J1 = s/2, Y0 = (2/pi)(ln(s/2) + gamma), Y1 = -2/(pi s)
        y0 = (2.0 / math.pi) * (math.log(s) - math.log(2.0) + EULER_GAMMA) if s else 0.0
        return (theta, theta * y0), (-0.5 * s * s, 2.0 / math.pi)
    j0 = bessel_j(0, s).value
    j1 = bessel_j(1, s).value
    y0 = bessel_y(0, s).value
    y1 = bessel_y(1, s).value
    return (theta * j0, theta * y0), (-s * j1, -s * y1)


def basis_matrix(theta0: float) -> np.ndarray:
    """Matrix mapping (c1, c2) to Z(0) = (z1(0), z2(0)).

    Row two comes from the z2 Bessel form; its determinant equals
    2 theta0 / pi by the Wronskian J1 Y0 - J0 Y1 = 2/(pi x), so the fit is
    solvable for every theta0 != 0.
    """
    if theta0 == 0.0:
        raise DegenerateAttitudeError("theta0 = 0 is degenerate: no Bessel fit exists")
    return np.array(_basis(theta0))


def fit_constants(X0, theta0: float) -> tuple[float, float]:
    """Solve for (c1, c2) so the closed form starts at position X0."""
    b = basis_matrix(theta0)
    rhs = to_z_frame(X0, theta0)
    c = np.linalg.solve(b, rhs)
    check_finite_fit(c, theta0)
    return float(c[0]), float(c[1])


def check_finite_fit(c: np.ndarray, theta0: float) -> None:
    """Raise DegenerateAttitudeError unless every fitted constant is finite
    (c1 ~ z1 / theta0 overflows at a subnormal theta0)."""
    if not np.all(np.isfinite(c)):
        raise DegenerateAttitudeError(
            f"theta0 = {float(theta0)!r} is degenerate: the fitted constants are not finite"
        )


def fit_solution(X0, theta0: float) -> ClosedFormSolution:
    c1, c2 = fit_constants(X0, theta0)
    return ClosedFormSolution(theta0=theta0, c1=c1, c2=c2)


@dataclass(frozen=True)
class ClosedFormState:
    theta: float
    z1: float
    z2: float
    X: np.ndarray


def eval_solution(sol: ClosedFormSolution, t: float) -> ClosedFormState:
    """Evaluate attitude, rotated coordinates, and position at time t >= 0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    theta = sol.theta0 * math.exp(-t)
    (a, b), (c, d) = _basis(theta)
    z1 = a * sol.c1 + b * sol.c2
    z2 = c * sol.c1 + d * sol.c2
    X = from_z_frame((z1, z2), theta)
    return ClosedFormState(theta=theta, z1=z1, z2=z2, X=X)


def degenerate_eval(x0: float, y0: float, rho: float, t: float) -> np.ndarray:
    """Position when the attitude is identically zero.

    The closed loop reduces to x' = rho x, y' = 0.
    """
    return np.array([x0 * math.exp(rho * t), y0])


def ode_residual(sol: ClosedFormSolution, t: float, h: float = 1e-4) -> float:
    """Finite-difference residual of the decoupled second-order equation.

    Checks |z1'' - 2 rho z1' + rho^2 (1 + theta'^2) z1| with central
    differences on the closed-form z1; the true residual is zero, so the
    returned value is pure O(h^2) discretization error.
    """
    if t < 2.0 * h:
        raise ValueError("need t >= 2h for central differences")
    zm = eval_solution(sol, t - h).z1
    z0 = eval_solution(sol, t).z1
    zp = eval_solution(sol, t + h).z1
    d1 = (zp - zm) / (2.0 * h)
    d2 = (zp - 2.0 * z0 + zm) / (h * h)
    theta_dot = RHO * sol.theta0 * math.exp(RHO * t)
    return abs(d2 - 2.0 * RHO * d1 + RHO * RHO * (1.0 + theta_dot * theta_dot) * z0)
