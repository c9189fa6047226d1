"""Bessel functions J0, J1, Y0, Y1 in double precision.

Two evaluation branches, following the classical treatment (Abramowitz &
Stegun ch. 9, DLMF ch. 10), each returning both orders from one pass:

* ascending power series for |x| <= SERIES_CUTOFF: up to DOUBLE_BELOW as four
  Horner sums in u = (x/2)^2 in Python floats, each binary band of u with its
  own term count and error bound (errors about 1e-15, estimated below 3e-13);
  above, in extended precision (numpy longdouble), so the cancellation near the
  cutoff (terms of 3e4 for a sum of 0.1) stays below the 1e-12 accuracy budget;
* Hankel asymptotic expansion (P/Q modulus-phase form) beyond the cutoff,
  truncated at the smallest term.

Every entry point takes 0 < x <= MAX_ARG. The trajectories that consume these
functions have arguments |theta0| * exp(rho*t); up to MAX_ARG the rounding of
the extended-precision Hankel phase stays below 1e-15.

bessel_j/bessel_y return a point value as a float; _jy (a point) and jy_array
(a grid) also return each value's absolute-error estimate, bit for bit alike.
On a 2-vCPU Xeon VM a scalar series pass takes 1.8-3.6 us up to DOUBLE_BELOW and
30-44 us above; a 2,001-point grid on (0, 4] takes 0.9-1.0 ms in jy_array and
5.6-5.7 ms point by point, but one point 0.15-0.18 ms in jy_array (0.76-0.93 ms
above DOUBLE_BELOW).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, RangeError

EULER_GAMMA = 0.57721566490153286061
SERIES_CUTOFF = 14.0
MAX_ARG = 1e8
DOUBLE_BELOW = 4.0  # the series runs in Python floats up to here, in longdouble above

_LD_PI = np.longdouble("3.14159265358979323846264338327950288")
_LD_LG0 = np.longdouble("-0.11593151565841244881072003137577414")  # gamma - ln 2
_LD_ONE = np.longdouble(1)
_LD_EPS = float(np.finfo(np.longdouble).eps)


def _math(fn, x: np.ndarray) -> np.ndarray:
    """The math function fn at each element of x: numpy's own loops may differ
    by an ulp, and a grid must equal its points bit for bit."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _check(x: float) -> None:
    """Raise unless 0 < x <= MAX_ARG, the domain of every entry point."""
    if not x > 0.0:  # NaN too; Y is singular at the origin
        raise DomainError(f"argument must be positive, got x={x}")
    if x > MAX_ARG:
        raise RangeError(f"argument beyond the supported range {MAX_ARG:g}, got x={x}")


def _rows(n: int) -> tuple[tuple[float, float, float, float], ...]:
    """c_k, k < n, of _series' sums of J0, J1, Y0, Y1 as polynomials in u = (x/2)^2, each
    one int / int division, so rounded once."""
    rows, f, h = [], 1, 0  # k!, k! H_k
    for k in range(n):
        f1, h1, s = f * (k + 1), h * (k + 1) + f, (-1) ** k  # (k+1)!, (k+1)! H_{k+1}
        rows.append((s / f**2, s / (f * f1), s * h / f**3, s * (h * (k + 1) + h1) / (f * f1**2)))
        f, h = f1, h1
    return tuple(rows)


# Horner's rule sums each row to the term count K of u's band: band 0 is u < 2^-52, band
# i > 0 is 2^(i-53) <= u < 2^(i-52), its top u min(2^(i-52), 4).  K leaves a tail below
# 2^-53 S per row, S = sum_{k<=K} |c_k| top^k, and (3K + 3) 2^-53 S bounds the row's error:
# Horner's 2K roundings (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), K
# for u's rounding, one for the coefficients' and one for the tail.
_K = (1,) + (2,) * 27 + (3,) * 10 + (4,) * 4 + (5,) * 3 + (6,) * 3 + (7, 8, 9, 10, 11, 13, 15, 15)
_ROWS, _LG0 = _rows(_K[-1] + 1), float(_LD_LG0)


def _band(i: int, k: int) -> tuple:
    """Band i's Horner chain c_k .. c_0, then each row's error bound, for K = k."""
    top, a, b, c, d = min(2.0 ** (i - 52), 4.0), 0.0, 0.0, 0.0, 0.0
    for ca, cb, cc, cd in _ROWS[k::-1]:  # S per row; numpy here faults in 1 MB at import
        a, b, c, d = a * top + abs(ca), b * top + abs(cb), c * top + abs(cc), d * top + abs(cd)
    w = (3 * k + 3) * 2.0**-53
    return _ROWS[k::-1], w * a, w * b, w * c, w * d


_BANDS = tuple(_band(i, k) for i, k in enumerate(_K))
_COEFS, _BAND_K, _BAND_ERR = np.array(_ROWS), np.array(_K), np.array([b[1:] for b in _BANDS])


def _horner(x: float | np.ndarray) -> tuple:
    """As _jy, x <= DOUBLE_BELOW, by Horner's rule in floats: at a point, or per element of
    an array x, whose chains each start at their own K (a zero sum until then)."""
    half = x / 2
    u = half * half
    if isinstance(x, float):
        chain, e_j0, e_j1, e_y0, e_y1 = _BANDS[math.frexp(u)[1] + 52 if u >= 2.0**-52 else 0]
        lg = math.log(x) + _LG0  # ln(x/2) + gamma; x/2 underflows at 5e-324
    else:
        band = np.where(u >= 2.0**-52, np.frexp(u)[1] + 52, 0)
        k = _BAND_K[band]
        chain = (np.where(j <= k, _COEFS[j, :, None], 0.0) for j in range(k.max(initial=0), -1, -1))
        (e_j0, e_j1, e_y0, e_y1), lg = _BAND_ERR[band].T, _math(math.log, x) + _LG0
    a = b = c = d = 0.0
    for ca, cb, cc, cd in chain:
        a = a * u + ca
        b = b * u + cb
        c = c * u + cc
        d = d * u + cd
    j1 = half * b
    y0 = 2 * (lg * a - c) / math.pi
    y1 = (2 * lg * j1 - half * d) / math.pi - 2 / math.pi / x  # 2/x overflows in double
    err_j0, err_j1, g = e_j0 + 4e-16 * abs(a), half * e_j1 + 4e-16 * abs(j1), abs(lg) + 1
    err_y0 = e_y0 + g * err_j0 + 4e-16 * abs(y0)
    err_y1 = half * e_y1 + g * err_j1 + 4e-16 * abs(y1)
    return (a, y0, err_j0, err_y0), (j1, y1, err_j1, err_y1)


def _series(x: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """As _jy, by one pass of the ascending series in longdouble, DOUBLE_BELOW < x <=
    cutoff, where the terms peak at up to 3e4 for sums of 0.1.

    With t_k = (-x^2/4)^k / (k!)^2, u_k = t_k / (k+1) and harmonic numbers
    H_k (DLMF 10.2.2, 10.8.1):

        J0 = sum t_k                J1 = (x/2) sum u_k
        Y0 = (2/pi)((ln(x/2) + gamma) J0 - sum H_k t_k)
        Y1 = (2/pi)((ln(x/2) + gamma) J1 - 1/x) - (x/(2 pi)) sum (H_k + H_{k+1}) u_k

    The absolute rounding floor is ~k_peak * eps * peak_term.
    """
    one, eps, pi, lg0 = _LD_ONE, _LD_EPS, _LD_PI, _LD_LG0
    x = one * x  # longdouble from here on
    half = x / 2
    q = -half * half
    t = one
    h = one - one  # H_k
    sum_j0, sum_j1, sum_y0, sum_y1 = one, one, h, one  # k = 0; H_0 + H_1 = 1
    peak_j0 = peak_j1 = peak_y1 = one
    peak_y0 = h
    stop = 1e-3 * eps
    k = 0
    while True:
        k += 1
        t = t * q / (k * k)
        h = h + one / k
        inv = one / (k + 1)
        u = t * inv
        ty0 = h * t
        ty1 = (h + h + inv) * u
        sum_j0 += t
        sum_j1 += u
        sum_y0 += ty0
        sum_y1 += ty1
        a = abs(ty0)
        if a > peak_y0:  # rising: |t|, |u| and |ty1| peak no later than |ty0|
            peak_y0 = a
            if (b := abs(t)) > peak_j0:  # not max(): its 3 calls cost about 1 us a pass
                peak_j0 = b
            if (b := abs(u)) > peak_j1:
                peak_j1 = b
            if (b := abs(ty1)) > peak_y1:
                peak_y1 = b
            stop = 1e-3 * eps * (a + 1)
        elif a < stop:  # the other terms are smaller, the tail smaller still
            break
    lg = np.log(x) + lg0  # ln(x/2) + gamma
    j1n = half * sum_j1
    values = (sum_j0, 2 * (lg * sum_j0 - sum_y0) / pi, j1n,
              (2 * lg * j1n - half * sum_y1) / pi - 2 / pi / x,
              peak_j0, half * peak_j1, 2 * peak_y0, half * peak_y1)
    j0, y0, j1, y1, p_j0, p_j1, p_y0, p_y1 = map(float, values)
    wj, wy = 4.0 * (k + 2) * eps, 8.0 * (k + 4) * eps
    err_j0 = wj * p_j0 + 4e-16 * abs(j0)
    err_j1 = wj * p_j1 + 4e-16 * abs(j1)
    err_y0 = wy * p_y0 + 2.0 * err_j0 + 4e-16 * abs(y0)
    err_y1 = wy * p_y1 + 2.0 * err_j1 + 4e-16 * abs(y1)
    return (j0, y0, err_j0, err_y0), (j1, y1, err_j1, err_y1)


def _hankel_pq(n: int, x: float) -> tuple[float, float, float]:
    """Modulus-phase coefficients P_n(x), Q_n(x) plus a truncation estimate.

    a_k = prod_{j=1..k} (4n^2 - (2j-1)^2) / (k! 8^k); the expansion is
    truncated at the smallest term, whose size bounds the error.
    """
    mu = 4 * n * n
    pq = [1.0, 0.0]
    term = prev = 1.0
    for k in range(1, 60):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = abs(term)
        if mag >= prev:
            break
        pq[k % 2] += term if k % 4 < 2 else -term  # even k to P, odd to Q; signs + - - +
        prev = mag
        if mag < 1e-18:
            break
    return pq[0], pq[1], prev


def _hankel(x: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """As _jy, by the asymptotic expansion, x > cutoff."""
    amp = math.sqrt(2.0 / (math.pi * x))
    # phase x - pi/4 in extended precision; it loses bits in double, and still
    # ~x * eps_longdouble in longdouble.  Order 1's phase is pi/2 less.
    omega = np.longdouble(x) - _LD_PI / 4
    c, s = float(np.cos(omega)), float(np.sin(omega))
    out = []
    for n, (cn, sn) in enumerate(((c, s), (s, -c))):
        p, q, trunc = _hankel_pq(n, x)
        err = 4.0 * amp * trunc + 2e-15 * amp + amp * x * _LD_EPS
        out.append((amp * (p * cn - q * sn), amp * (p * sn + q * cn), err, err))
    return out[0], out[1]


@functools.lru_cache(maxsize=2)
def _jy(x: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """((J0, Y0, err_j0, err_y0), (J1, Y1, err_j1, err_y1)), 0 < x <= MAX_ARG.

    Cached on x alone: the J and Y calls of both orders at one x cost one pass, and
    one check of x (an x that raises is not cached).
    """
    if not 0.0 < x <= MAX_ARG:  # NaN too
        _check(x)
    x = float(x)  # a numpy scalar would run numpy scalar arithmetic, and return it
    return _horner(x) if x <= DOUBLE_BELOW else _series(x) if x <= SERIES_CUTOFF else _hankel(x)


def _series_array(x: np.ndarray) -> np.ndarray:
    """_series per element of x, all in (DOUBLE_BELOW, cutoff]; each element stops at
    its own term."""
    one, eps, pi, lg0 = _LD_ONE, _LD_EPS, _LD_PI, _LD_LG0
    half = one * x / 2
    q = -half * half
    sums = np.array([[1], [1], [0], [1]], type(one)).repeat(len(x), 1)  # J0 J1 Y0 Y1
    peaks, stop = sums.copy(), np.full(len(x), 1e-3 * eps, type(one))
    last, live = np.zeros(len(x), int), np.arange(len(x))  # k at the stop; running
    t, h, k = one, one - one, 0
    while len(live):
        k += 1
        t = t * q[live] / (k * k)
        h, inv = h + one / k, one / (k + 1)
        u = t * inv
        terms = np.array((t, u, h * t, (h + h + inv) * u))
        sums[:, live] += terms
        a = abs(terms[2])
        rising = a > peaks[2, live]
        up = live[rising]
        peaks[:, up] = np.maximum(peaks[:, up], abs(terms[:, rising]))
        stop[up] = 1e-3 * eps * (a[rising] + 1)
        done = ~rising & (a < stop[live])
        last[live[done]] = k
        live, t = live[~done], t[~done]
    (s_j0, s_j1, s_y0, s_y1), (p_j0, p_j1, p_y0, p_y1) = sums, peaks
    lg = np.log(one * x) + lg0
    j1n = half * s_j1
    y1 = ((2 * lg * j1n - half * s_y1) / pi - 2 / pi / x).astype(float)
    j0, j1 = s_j0.astype(float), j1n.astype(float)
    y0 = (2 * (lg * s_j0 - s_y0) / pi).astype(float)
    wj, wy = 4.0 * (last + 2) * eps, 8.0 * (last + 4) * eps
    err_j0 = wj * p_j0.astype(float) + 4e-16 * abs(j0)
    err_j1 = wj * (half * p_j1).astype(float) + 4e-16 * abs(j1)
    err_y0 = wy * (2 * p_y0).astype(float) + 2.0 * err_j0 + 4e-16 * abs(y0)
    err_y1 = wy * (half * p_y1).astype(float) + 2.0 * err_j1 + 4e-16 * abs(y1)
    return np.array(((j0, y0, err_j0, err_y0), (j1, y1, err_j1, err_y1)))


def jy_array(x) -> np.ndarray:
    """_jy at each element of the 1-D array x, shape (2, 4, len(x)): the same
    branch and operations per element, so the same bits.  Raises as bessel_j."""
    x = np.asarray(x, float)
    if len(x):
        _check(float(np.min(x)))  # NaN propagates
        _check(float(np.max(x)))
    out = np.empty((2, 4, len(x)))
    low, high = x <= DOUBLE_BELOW, x > SERIES_CUTOFF
    with np.errstate(over="ignore"):  # Y1 = -inf below about 3.5e-309, as at a point
        out[:, :, low] = _horner(x[low])
    out[:, :, ~low & ~high] = _series_array(x[~low & ~high])
    # point by point above the cutoff: few grid points lie there, and an array
    # form of _hankel would save under 2 % of a closed-form-cli round
    values = [_hankel(v) for v in x[high].tolist()]
    out[:, :, high] = np.reshape(values, (-1, 2, 4)).transpose(1, 2, 0)
    return out


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), n in {0, 1}, 0 < x <= MAX_ARG."""
    if n not in (0, 1):  # _jy(x)[-1] would be order 1
        raise DomainError(f"order {n} not supported (orders 0, 1)")
    return _jy(x)[n][0]


def bessel_y(n: int, x: float) -> float:
    """Bessel function of the second kind Y_n(x), n in {0, 1}, 0 < x <= MAX_ARG."""
    if n not in (0, 1):
        raise DomainError(f"order {n} not supported (orders 0, 1)")
    return _jy(x)[n][1]
