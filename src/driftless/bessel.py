"""Bessel functions J0, J1, Y0, Y1 (and Y-1 by reflection) in double precision.

Two evaluation branches, following the classical treatment (Abramowitz &
Stegun ch. 9, DLMF ch. 10):

* ascending power series for |x| <= SERIES_CUTOFF, accumulated in extended
  precision (numpy longdouble) so the alternating-series cancellation near
  the cutoff stays below the 1e-12 accuracy budget;
* Hankel asymptotic expansion (P/Q modulus-phase form) beyond the cutoff,
  truncated at the smallest term.

Supported range is |x| <= MAX_ARG; the trajectories that consume these
functions have arguments theta0 * exp(rho*t), so the range only needs to
cover plausible initial attitudes in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

EULER_GAMMA = 0.57721566490153286061
SERIES_CUTOFF = 14.0
MAX_ARG = 50.0

_LD_PI = np.longdouble("3.14159265358979323846264338327950288")
_LD_EPS = float(np.finfo(np.longdouble).eps)


@dataclass(frozen=True)
class EvalResult:
    """Function value with a coarse absolute-error estimate."""

    value: float
    est_abs_error: float

    def __post_init__(self):
        if self.est_abs_error < 0.0:
            raise ValueError("est_abs_error must be nonnegative")


def _check_range(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    if abs(x) > MAX_ARG:
        raise RangeError(f"|x|={abs(x)} outside supported range {MAX_ARG}")


def _j_series(n: int, x: float) -> tuple[float, float]:
    """Ascending series for J_n, n in {0, 1}, |x| <= SERIES_CUTOFF.

    Returns (value, error estimate). Summed in longdouble: the absolute
    rounding floor is ~k_peak * eps_longdouble * peak_term.
    """
    xl = np.longdouble(x)
    q = (xl / 2) * (xl / 2)
    term = (xl / 2) ** n  # 1/Gamma(n+1) = 1 for n in {0, 1}
    total = term
    peak = abs(term)
    k = 1
    while True:
        term = -term * q / (k * (k + n))
        total += term
        if abs(term) > peak:
            peak = abs(term)
        if abs(term) < 1e-22 * (peak + 1.0):
            break
        k += 1
    err = 4.0 * (k + 2) * _LD_EPS * float(peak) + 4e-16 * abs(float(total))
    return float(total), err


def _y_series(n: int, x: float) -> tuple[float, float]:
    """Ascending series for Y_n, n in {0, 1}, 0 < x <= SERIES_CUTOFF."""
    xl = np.longdouble(x)
    q = (xl / 2) * (xl / 2)
    log_half_x = np.log(xl / 2)
    two_over_pi = np.longdouble(2) / _LD_PI

    jn, jerr = _j_series(n, x)
    jn_l = np.longdouble(jn)

    if n == 0:
        # Y0 = (2/pi)[(ln(x/2)+gamma) J0 + sum_{k>=1} (-1)^{k+1} H_k q^k/(k!)^2]
        acc = np.longdouble(0)
        m = np.longdouble(1)  # q^k / (k!)^2
        h = np.longdouble(0)  # harmonic number H_k
        peak = np.longdouble(0)
        k = 1
        while True:
            m = m * q / (k * k)
            h = h + np.longdouble(1) / k
            term = m * h if k % 2 else -m * h
            acc += term
            if abs(term) > peak:
                peak = abs(term)
            if abs(term) < 1e-22 * (peak + 1.0):
                break
            k += 1
        total = two_over_pi * ((log_half_x + np.longdouble(EULER_GAMMA)) * jn_l + acc)
        err = 4.0 * (k + 4) * _LD_EPS * float(peak) + 2.0 * jerr + 4e-16 * abs(float(total))
        return float(total), err

    # Y1 = (2/pi)(ln(x/2)+gamma) J1 - 2/(pi x)
    #      - (x/(2 pi)) sum_{k>=0} (-1)^k (H_k + H_{k+1}) q^k / (k! (k+1)!)
    acc = np.longdouble(0)
    m = np.longdouble(1)  # q^k / (k! (k+1)!)
    h = np.longdouble(0)  # H_k
    hp = np.longdouble(1)  # H_{k+1}
    peak = np.longdouble(0)
    k = 0
    while True:
        term = m * (h + hp) if k % 2 == 0 else -m * (h + hp)
        acc += term
        if abs(term) > peak:
            peak = abs(term)
        if k > 0 and abs(term) < 1e-22 * (peak + 1.0):
            break
        k += 1
        m = m * q / (k * (k + 1))
        h = h + np.longdouble(1) / k
        hp = hp + np.longdouble(1) / (k + 1)
    total = (
        two_over_pi * (log_half_x + np.longdouble(EULER_GAMMA)) * jn_l
        - np.longdouble(2) / (_LD_PI * xl)
        - (xl / (2 * _LD_PI)) * acc
    )
    err = 4.0 * (k + 4) * _LD_EPS * float(x) * float(peak) + 2.0 * jerr + 4e-16 * abs(float(total))
    return float(total), err


def _hankel_pq(n: int, x: float) -> tuple[float, float, float]:
    """Modulus-phase coefficients P_n(x), Q_n(x) plus a truncation estimate.

    a_k = prod_{j=1..k} (4n^2 - (2j-1)^2) / (k! 8^k); the expansion is
    truncated at the smallest term, whose size bounds the error.
    """
    mu = 4 * n * n
    p = 1.0
    q = 0.0
    ak_over_xk = 1.0
    k = 1
    prev = 1.0
    trunc = 1.0
    while k < 60:
        ak_over_xk *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = abs(ak_over_xk)
        if mag >= prev:
            trunc = prev
            break
        if k % 2:  # odd k contributes to Q
            q += -ak_over_xk if (k - 1) % 4 else ak_over_xk
        else:  # even k contributes to P
            p += -ak_over_xk if k % 4 else ak_over_xk
        if mag < 1e-18:
            trunc = mag
            break
        prev = mag
        k += 1
    else:
        trunc = prev
    return p, q, trunc


def _hankel_eval(n: int, x: float) -> tuple[float, float, float, float]:
    """(J_n, Y_n, err_j, err_y) via the asymptotic expansion, x > cutoff."""
    p, q, trunc = _hankel_pq(n, x)
    amp = math.sqrt(2.0 / (math.pi * x))
    # phase in extended precision; x - (2n+1) pi/4 loses bits in double
    omega = np.longdouble(x) - _LD_PI * (2 * n + 1) / 4
    c = float(np.cos(omega))
    s = float(np.sin(omega))
    j = amp * (p * c - q * s)
    y = amp * (p * s + q * c)
    err = 4.0 * amp * trunc + 2e-15 * amp
    return j, y, err, err


def bessel_j(n: int, x: float) -> EvalResult:
    """Bessel function of the first kind, order n in {0, 1}.

    J0 is even and J1 odd, so negative arguments are reflected.
    """
    if n not in (0, 1):
        raise DomainError(f"order {n} not supported for J (orders 0, 1)")
    _check_range(x)
    sign = 1.0
    if x < 0.0:
        x = -x
        if n == 1:
            sign = -1.0
    if x <= SERIES_CUTOFF:
        value, err = _j_series(n, x)
    else:
        j, _, err, _ = _hankel_eval(n, x)
        value = j
    return EvalResult(sign * value, err)


def bessel_y(n: int, x: float) -> EvalResult:
    """Bessel function of the second kind, order n in {-1, 0, 1}.

    Y_{-1}(x) = -Y_1(x) by the integer-order reflection identity; the
    gamma-function pole at -1 is never touched.
    """
    if n not in (-1, 0, 1):
        raise DomainError(f"order {n} not supported for Y (orders -1, 0, 1)")
    _check_range(x)
    if x <= 0.0:
        raise DomainError("Y_n requires x > 0 (singular at the origin)")
    order = 1 if n == -1 else n
    if x <= SERIES_CUTOFF:
        value, err = _y_series(order, x)
    else:
        _, y, _, err = _hankel_eval(order, x)
        value = y
    if n == -1:
        value = -value
    return EvalResult(value, err)
