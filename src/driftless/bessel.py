"""Bessel functions J0, J1, Y0, Y1 in double precision.

Two evaluation branches, following the classical treatment (Abramowitz &
Stegun ch. 9, DLMF ch. 10), each returning J_n and Y_n together:

* ascending power series for |x| <= SERIES_CUTOFF, accumulated in extended
  precision (numpy longdouble) so the alternating-series cancellation near
  the cutoff stays below the 1e-12 accuracy budget;
* Hankel asymptotic expansion (P/Q modulus-phase form) beyond the cutoff,
  truncated at the smallest term.

Supported range is |x| <= MAX_ARG. The trajectories that consume these
functions have arguments theta0 * exp(rho*t); up to MAX_ARG the rounding of
the extended-precision Hankel phase stays below 1e-15.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

EULER_GAMMA = 0.57721566490153286061
SERIES_CUTOFF = 14.0
MAX_ARG = 1e8

_LD_PI = np.longdouble("3.14159265358979323846264338327950288")
_LD_GAMMA = np.longdouble("0.57721566490153286060651209008240243")
_LD_ONE = np.longdouble(1)
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


def _series(n: int, x: float) -> tuple[float, float, float, float]:
    """(J_n, Y_n, err_j, err_y) by the ascending series, 0 < x <= cutoff.

    With t_k = (-x^2/4)^k / (k! (k+n)!) and harmonic numbers H_k
    (DLMF 10.2.2, 10.8.1):

        J_n = (x/2)^n sum t_k
        Y_n = (2/pi)(ln(x/2) + gamma) J_n - n 2/(pi x)
              - ((x/2)^n / pi) sum (H_k + H_{k+n}) t_k

    Summed in longdouble: the absolute rounding floor is
    ~k_peak * eps_longdouble * peak_term.
    """
    half = np.longdouble(x) / 2
    q = -half * half
    t = _LD_ONE  # t_0 = 1/(0! n!) = 1 for n in {0, 1}
    h = np.longdouble(n)  # H_k + H_{k+n}, with H_0 = 0 and H_1 = 1
    sum_j = t
    sum_y = h
    peak_j = _LD_ONE
    peak_y = h
    k = 0
    while True:
        k += 1
        t = t * q / (k * (k + n))
        h = h + _LD_ONE / k + _LD_ONE / (k + n)
        ty = h * t
        sum_j += t
        sum_y += ty
        if abs(t) > peak_j:
            peak_j = abs(t)
        if abs(ty) > peak_y:
            peak_y = abs(ty)
        elif abs(ty) < 1e-22 * (peak_y + 1.0):  # |t| <= |ty| for k >= 1
            break
    scale = half**n
    jn = scale * sum_j
    yn = (2 * (np.log(half) + _LD_GAMMA) * jn - scale * sum_y) / _LD_PI
    if n:
        yn -= 1 / (_LD_PI * half)
    j, y = float(jn), float(yn)
    err_j = 4.0 * (k + 2) * _LD_EPS * float(scale * peak_j) + 4e-16 * abs(j)
    err_y = 8.0 * (k + 4) * _LD_EPS * float(scale * peak_y) + 2.0 * err_j + 4e-16 * abs(y)
    return j, y, err_j, err_y


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
    # phase in extended precision; x - (2n+1) pi/4 loses bits in double,
    # and still ~x * eps_longdouble in longdouble
    omega = np.longdouble(x) - _LD_PI * (2 * n + 1) / 4
    c = float(np.cos(omega))
    s = float(np.sin(omega))
    j = amp * (p * c - q * s)
    y = amp * (p * s + q * c)
    err = 4.0 * amp * trunc + 2e-15 * amp + amp * x * _LD_EPS
    return j, y, err, err


@functools.lru_cache(maxsize=2)
def _jy(n: int, x: float) -> tuple[float, float, float, float]:
    """(J_n, Y_n, err_j, err_y) for 0 < x <= MAX_ARG.

    Cached so that bessel_j(n, x) followed by bessel_y(n, x) costs one
    evaluation.
    """
    return _series(n, x) if x <= SERIES_CUTOFF else _hankel_eval(n, x)


def bessel_j(n: int, x: float) -> EvalResult:
    """Bessel function of the first kind, order n in {0, 1}.

    J0 is even and J1 odd, so negative arguments are reflected.
    """
    if n not in (0, 1):
        raise DomainError(f"order {n} not supported for J (orders 0, 1)")
    _check_range(x)
    if x == 0.0:
        return EvalResult(1.0 - n, 0.0)
    j, _, err, _ = _jy(n, abs(x))
    return EvalResult(-j if x < 0.0 and n == 1 else j, err)


def bessel_y(n: int, x: float) -> EvalResult:
    """Bessel function of the second kind, order n in {0, 1}, x > 0."""
    if n not in (0, 1):
        raise DomainError(f"order {n} not supported for Y (orders 0, 1)")
    _check_range(x)
    if x <= 0.0:
        raise DomainError("Y_n requires x > 0 (singular at the origin)")
    _, y, _, err = _jy(n, x)
    return EvalResult(y, err)
