"""Independent closed-form references built on ``scipy.special``.

Nothing here calls ``driftless``: the references must stay outside the
program so that the traced run counts only the program's own work.

Both regimes rotate the position into the attitude frame, Z = R(theta)' X,
and solve a Bessel equation of order zero in the attitude s = |theta|:

* equal gains rho = -1 (attitude decays, theta = theta0 exp(-t)):
  z1 = theta (c1 J0(s) + c2 Y0(s)), z2 = -s (c1 J1(s) + c2 Y1(s));
* the spinning regime rho_pos = -1, rho_theta = +1 (theta = theta0 exp(t)):
  z2 = c J0(s) + d Y0(s), z1 = sign(theta) (c J1(s) + d Y1(s)).
"""

from __future__ import annotations

import numpy as np
from scipy import special

# Thresholds of the acceptance battery (tests/test_acceptance.py).
CLOSED_FORM_TOL = 1e-4  # criterion 1: closed form against an independent solution
ENERGY_REL_TOL = 1e-6  # criterion 3: energy identity, relative
SPEED_SQ_TOL = 1e-8  # criterion 9: terminal squared speed
MONOTONE_SLACK = 1e-12  # criterion 9: largest allowed norm increase per step
CERTIFY_TOL = 1e-6  # criterion 9: certify_stability window tolerance
SPIN_FINAL_TOL = 1e-3  # criterion 6: |X(15)| in the spinning regime
SWITCH_NORM_TOL = 0.06  # criterion 7: final state norm after switching
DECAY_REL_TOL = 1e-4  # criterion 7: post-switch attitude decay, relative
BROCKETT_MAX_FEASIBLE = 27  # criterion 5: origin-reaching starts per scan


def rotate(theta, z1, z2) -> np.ndarray:
    """X = R(theta) Z for scalars or equal-length arrays; rows are (x, y)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * z1 - s * z2, s * z1 + c * z2], axis=-1)


def _to_z(X0, theta0: float) -> np.ndarray:
    c, s = np.cos(theta0), np.sin(theta0)
    return np.array([c * X0[0] + s * X0[1], -s * X0[0] + c * X0[1]])


def equal_gain_constants(X0, theta0: float) -> tuple[float, float]:
    """(c1, c2) of the rho = -1 closed form through position X0 at theta0."""
    s = abs(theta0)
    basis = np.array(
        [
            [theta0 * special.j0(s), theta0 * special.y0(s)],
            [-s * special.j1(s), -s * special.y1(s)],
        ]
    )
    c1, c2 = np.linalg.solve(basis, _to_z(X0, theta0))
    return float(c1), float(c2)


def feasible_direction(theta0: float) -> np.ndarray:
    """Unit initial-position direction whose trajectory has c2 = 0."""
    s = abs(theta0)
    d = rotate(theta0, theta0 * special.j0(s), -s * special.j1(s))
    return d / np.linalg.norm(d)


def equal_gain_position(X0, theta0: float, theta) -> np.ndarray:
    """Position on the rho = -1 trajectory through (X0, theta0) at attitude theta."""
    c1, c2 = equal_gain_constants(X0, theta0)
    theta = np.asarray(theta, float)
    s = np.abs(theta)
    z1 = theta * (c1 * special.j0(s) + c2 * special.y0(s))
    z2 = -s * (c1 * special.j1(s) + c2 * special.y1(s))
    return rotate(theta, z1, z2)


def spin_position(X0, theta0: float, theta) -> np.ndarray:
    """Position on the rho_pos = -1, rho_theta = +1 trajectory at attitude theta."""
    sign = 1.0 if theta0 > 0.0 else -1.0
    s0 = abs(theta0)
    basis = np.array(
        [
            [sign * special.j1(s0), sign * special.y1(s0)],
            [special.j0(s0), special.y0(s0)],
        ]
    )
    c, d = np.linalg.solve(basis, _to_z(X0, theta0))
    s = np.abs(np.asarray(theta, float))
    z1 = sign * (c * special.j1(s) + d * special.y1(s))
    z2 = c * special.j0(s) + d * special.y0(s)
    return rotate(np.asarray(theta, float), z1, z2)
