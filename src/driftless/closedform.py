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

eval_solution takes one time (four float bessel_j/bessel_y values, math) or a
1-D array of times (one bessel.jy_array pass, math per element); both give the
same bits.  A point costs one series pass (1.8-3.6 us for |theta| <= 4, Horner
sums in floats) and about 2-3.5 us of its own on a 2-vCPU Xeon VM, 0.25 us of
which builds the ClosedFormState NamedTuple (0.6 us through its __new__).  The
Bessel functions take |theta| > 0 only: below 1e-150 _basis uses their leading terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bessel import EULER_GAMMA, _math, bessel_j, bessel_y, jy_array
from .errors import DegenerateAttitudeError

RHO = -1.0  # solutions are normalized to equal gains rho = -1
# below this |theta| the leading small-argument terms are exact in double
# (the next terms are O(theta^2) relative), and Y1 overflows at subnormals
_SMALL_THETA = 1e-150


def to_z_frame(X, theta: float) -> np.ndarray:
    """Rotate the position into the attitude-aligned frame: Z = R(theta)' X.

    X may also be 2 x n, one position per column.
    """
    c, s = math.cos(theta), math.sin(theta)
    x, y = np.asarray(X, float)
    return np.array((c * x + s * y, c * y - s * x))


def from_z_frame(Z, theta: float) -> np.ndarray:
    """Inverse frame change: X = R(theta) Z, with Z as in to_z_frame and theta per column.

    A scalar theta takes float arithmetic and builds one array, at the end."""
    if isinstance(theta, np.ndarray):
        c, s = _math(math.cos, theta), _math(math.sin, theta)
        z1, z2 = np.asarray(Z, float)
    else:
        c, s = math.cos(theta), math.sin(theta)
        z1, z2 = Z
    return np.array((c * z1 - s * z2, s * z1 + c * z2))


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
    j0 = bessel_j(0, s)
    j1 = bessel_j(1, s)
    y0 = bessel_y(0, s)
    y1 = bessel_y(1, s)
    return (theta * j0, theta * y0), (-s * j1, -s * y1)


def _basis_grid(theta: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """_basis at each attitude of the 1-D array theta: jy_array's by the same arithmetic."""
    s = abs(theta)
    big = ~(s < _SMALL_THETA)  # NaN goes to jy_array, which raises as bessel_j does
    a, b, c, d = (np.empty_like(s) for _ in range(4))
    for i in np.flatnonzero(~big):  # only after t of about 345 + ln|theta0|
        (a[i], b[i]), (c[i], d[i]) = _basis(float(theta[i]))
    (j0, y0, _, _), (j1, y1, _, _) = jy_array(s[big])
    a[big], b[big], c[big], d[big] = theta[big] * j0, theta[big] * y0, -s[big] * j1, -s[big] * y1
    return (a, b), (c, d)


def basis_matrix(theta0: float) -> np.ndarray:
    """Matrix mapping (c1, c2) to Z(0) = (z1(0), z2(0)).

    Row two comes from the z2 Bessel form; its determinant equals
    2 theta0 / pi by the Wronskian J1 Y0 - J0 Y1 = 2/(pi x), so the fit is
    solvable for every theta0 != 0.
    """
    if theta0 == 0.0:
        raise DegenerateAttitudeError("theta0 = 0 is degenerate: no Bessel fit exists")
    return np.array(_basis(theta0))


def fit_constants(X0, theta0: float) -> np.ndarray:
    """Solve for (c1, c2) so the closed form starts at position X0, or at each
    column of a 2 x n X0; a constant that is not finite (c1 ~ z1 / theta0
    overflows at a subnormal theta0) raises DegenerateAttitudeError."""
    c = np.linalg.solve(basis_matrix(theta0), to_z_frame(X0, theta0))
    if not np.isfinite(c).all():
        raise DegenerateAttitudeError(
            f"theta0 = {float(theta0)!r} is degenerate: the fitted constants are not finite"
        )
    return c


def fit_solution(X0, theta0: float) -> ClosedFormSolution:
    return ClosedFormSolution(theta0, *map(float, fit_constants(X0, theta0)))


def feasible_direction(theta0: float) -> tuple[float, float]:
    """Unit direction of the starts with c2 = 0, the only ones whose limit is the origin."""
    d = from_z_frame(basis_matrix(theta0)[:, 0], theta0)
    return tuple(map(float, d / math.hypot(*d)))


class ClosedFormState(NamedTuple):
    """One state, or a grid of them: then theta, z1, z2 are arrays, X is n x 2."""

    theta: float
    z1: float
    z2: float
    X: np.ndarray


def _time(t):
    """t as a float, or a 1-D array of times (a 0-d array is a point): ValueError for
    another shape or a negative time."""
    if isinstance(t, np.ndarray) and t.ndim:
        if t.ndim != 1:
            raise ValueError(f"t must be a time or a 1-D array of times, got shape {t.shape}")
        if (t < 0.0).any():
            raise ValueError("t must be nonnegative")
        return t
    if (t := float(t)) < 0.0:
        raise ValueError("t must be nonnegative")
    return t


def eval_solution(sol: ClosedFormSolution, t: float) -> ClosedFormState:
    """Evaluate attitude, rotated coordinates, and position at time t >= 0 (or a 1-D
    array; a 0-d array is a point)."""
    # a nonnegative float (np.float64 is one) is a point as it is; the rest go through _time
    if isinstance(t, float) and t >= 0.0 or isinstance(t := _time(t), float):
        theta = sol.theta0 * math.exp(-t)
        (a, b), (c, d) = _basis(theta)
        z1 = a * sol.c1 + b * sol.c2
        z2 = c * sol.c1 + d * sol.c2
        co, si = math.cos(theta), math.sin(theta)
        X = np.array((co * z1 - si * z2, si * z1 + co * z2))
        return tuple.__new__(ClosedFormState, (theta, z1, z2, X))  # not the NamedTuple's __new__
    theta = sol.theta0 * _math(math.exp, -t)
    (a, b), (c, d) = _basis_grid(theta)
    z1 = a * sol.c1 + b * sol.c2
    z2 = c * sol.c1 + d * sol.c2
    return ClosedFormState(theta, z1, z2, from_z_frame((z1, z2), theta).T)


def degenerate_eval(x0: float, y0: float, t: float) -> np.ndarray:
    """Position when the attitude is identically zero, at a time t >= 0 (a point) or at
    each of a 1-D array of times (n x 2), t taken as eval_solution takes it.

    The closed loop reduces to x' = RHO x, y' = 0.
    """
    if isinstance(t := _time(t), float):
        return np.array([x0 * math.exp(RHO * t), y0])
    return np.column_stack((x0 * _math(math.exp, RHO * t), np.full(t.shape, y0)))
