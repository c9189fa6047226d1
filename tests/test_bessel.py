"""Special-function accuracy tests against independent oracles.

The reference values come from mpmath at 30 digits and from an explicit
30-term ascending series evaluated inline (kept deliberately separate from
the package implementation).
"""

import ast
import inspect
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from driftless import bessel
from driftless.bessel import (
    DOUBLE_BELOW,
    MAX_ARG,
    SERIES_CUTOFF,
    _K,
    _ROWS,
    _jy,
    bessel_j,
    bessel_y,
    jy_array,
)
from driftless.errors import DomainError, RangeError

mp.mp.dps = 30


def four(x):
    return bessel_j(0, x), bessel_j(1, x), bessel_y(0, x), bessel_y(1, x)


def estimated(x):
    """(value, error estimate) of J0, J1, Y0, Y1 at x, from the scalar pass."""
    (j0, y0, err_j0, err_y0), (j1, y1, err_j1, err_y1) = _jy(x)
    return (j0, err_j0), (j1, err_j1), (y0, err_y0), (y1, err_y1)


def mp_four(x):
    return mp.besselj(0, x), mp.besselj(1, x), mp.bessely(0, x), mp.bessely(1, x)


def series_j0(x, terms=30):
    """Independent 30-term power-series oracle for J0."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


def test_j0_at_one_vs_series_oracle():
    assert bessel_j(0, 1.0) == pytest.approx(series_j0(1.0), abs=1e-14)
    assert bessel_j(0, 1.0) == pytest.approx(0.765197686557967, abs=1e-12)


def test_y0_at_one():
    # series oracle with the Euler-Mascheroni/log term, via mpmath
    assert bessel_y(0, 1.0) == pytest.approx(0.088256964215677, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_j_accuracy_against_mpmath(n):
    for x in np.linspace(0.05, 50.0, 400):
        ref = float(mp.besselj(n, float(x)))
        val = bessel_j(n, float(x))
        assert abs(val - ref) <= max(1e-12, 1e-12 * abs(ref))


@pytest.mark.parametrize("n", [0, 1])
def test_y_accuracy_against_mpmath(n):
    for x in np.linspace(0.05, 50.0, 400):
        ref = float(mp.bessely(n, float(x)))
        val = bessel_y(n, float(x))
        assert abs(val - ref) <= max(1e-12, 1e-12 * abs(ref))


def test_error_estimate_covers_true_error():
    for x in np.linspace(0.05, 50.0, 200):
        x = float(x)
        for (val, est), ref in zip(estimated(x), mp_four(x)):
            assert est >= 0.0
            assert abs(val - float(ref)) <= est


def test_small_arguments_against_mpmath():
    # the closed form's arguments theta0 exp(-t) spend most of a trajectory
    # below the 0.05 where the grids above start
    for x in np.geomspace(1e-12, SERIES_CUTOFF, 300):
        x = float(x)
        for (val, est), ref in zip(estimated(x), mp_four(x)):
            err = abs(val - float(ref))
            assert err <= max(1e-12, 1e-12 * abs(float(ref)))
            assert err <= est


@pytest.mark.parametrize("x", [1e-160, 1e-300, 1e-308, 5e-309, 1e-310, 5e-324])
def test_tiny_arguments(x):
    # in doubles x/2 underflows at 5e-324 and 2/(pi x) overflows below about
    # 3.5e-309: every value stays within one rounding unit of the correctly
    # rounded one, and the pole of Y1 stays -inf with an infinite error estimate
    for (val, est), ref in zip(estimated(x), mp_four(mp.mpf(x))):
        ref = float(ref)
        if math.isinf(ref):
            assert val == ref and est == math.inf
        else:
            assert abs(val - ref) <= math.ulp(ref)
            assert est >= 0.0


@pytest.mark.parametrize("n", [0, 1])
def test_hankel_range_against_mpmath(n):
    # the asymptotic branch beyond the grids above, up to the supported range
    for x in np.geomspace(50.0, MAX_ARG, 300):
        x = float(x)
        j, y, err_j, err_y = _jy(x)[n]
        for val, est, ref in [
            (j, err_j, float(mp.besselj(n, x))),
            (y, err_y, float(mp.bessely(n, x))),
        ]:
            err = abs(val - ref)
            assert err <= max(1e-12, 1e-12 * abs(ref))
            assert err <= est


def test_y1_pole_limit():
    # x * Y1(x) -> -2/pi as x -> 0+
    for x in [1e-3, 1e-4, 1e-5]:
        assert x * bessel_y(1, x) == pytest.approx(-2.0 / math.pi, rel=1e-5)


def test_wronskian_pairing():
    # J1(x) Y0(x) - J0(x) Y1(x) = 2/(pi x)
    for x in np.linspace(0.05, 50.0, 100):
        x = float(x)
        w = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
        assert abs(w - 2.0 / (math.pi * x)) <= 1e-10


def test_derivative_identities_finite_difference():
    h = 1e-6
    for x in [0.5, 2.0, 7.0, 20.0, 45.0]:
        dj0 = (bessel_j(0, x + h) - bessel_j(0, x - h)) / (2 * h)
        assert dj0 == pytest.approx(-bessel_j(1, x), abs=1e-6)
        dy0 = (bessel_y(0, x + h) - bessel_y(0, x - h)) / (2 * h)
        assert dy0 == pytest.approx(-bessel_y(1, x), abs=1e-6)


def test_order_zero_ode_certificate():
    # x^2 f'' + x f' + x^2 f = 0 for f in {J0, Y0}
    h = 1e-4
    for fn in (lambda x: bessel_j(0, x), lambda x: bessel_y(0, x)):
        for x in [0.5, 1.0, 3.0, 10.0, 25.0]:
            f = fn(x)
            d1 = (fn(x + h) - fn(x - h)) / (2 * h)
            d2 = (fn(x + h) - 2 * f + fn(x - h)) / (h * h)
            resid = x * x * d2 + x * d1 + x * x * f
            scale = max(1.0, abs(x * x * f))
            assert abs(resid) / scale <= 1e-6


def test_seam_continuity():
    # the gap must be small enough that the true function's variation
    # (|derivative| < 1) stays well below the continuity tolerance
    lo, hi = SERIES_CUTOFF - 1e-13, SERIES_CUTOFF + 1e-13
    for below, above in zip(four(lo), four(hi)):
        assert abs(below - above) <= 1e-12


def test_double_seam_continuity():
    # the series changes number type at DOUBLE_BELOW, not its terms
    lo, hi = DOUBLE_BELOW - 1e-13, DOUBLE_BELOW + 1e-13
    for below, above in zip(four(lo), four(hi)):
        assert abs(below - above) <= 1e-12


def test_double_branch_within_budget():
    # in Python floats the estimate grows with eps (to about 6e-13 at the
    # seam): a higher seam would report error bars beyond the budget
    for x in np.linspace(DOUBLE_BELOW / 1000, DOUBLE_BELOW, 1000):
        x = float(x)
        for (val, est), ref in zip(estimated(x), mp_four(x)):
            err = abs(val - float(ref))
            assert err <= max(1e-12, 1e-12 * abs(val))
            assert err <= est <= max(1e-12, 1e-12 * abs(val))


def exact_rows(n):
    """The coefficients c_k, k < n, of the float branch's sums in u = (x/2)^2, exactly:
    (-1)^k / (k!)^2 (J0), (-1)^k / (k! (k+1)!) (J1), H_k and H_k + H_{k+1} times them (Y)."""
    rows, h = [], Fraction(0)
    for k in range(n):
        j0 = Fraction((-1) ** k, math.factorial(k) ** 2)
        j1 = Fraction((-1) ** k, math.factorial(k) * math.factorial(k + 1))
        h1 = h + Fraction(1, k + 1)
        rows.append((j0, j1, h * j0, (h + h1) * j1))
        h = h1
    return rows


def test_horner_rows_are_the_exact_coefficients_rounded_once():
    assert _ROWS == tuple(tuple(map(float, row)) for row in exact_rows(len(_ROWS)))
    # built from int ratios: tables built with fractions took 72 ms at import
    tree = ast.parse(inspect.getsource(bessel))
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "fractions" not in modules


def test_horner_term_counts_leave_a_tail_below_the_bound():
    # at each band's top u, the terms past K sum to less than 2^-53 times the row's
    # sum_{k<=K} |c_k| top^k, which the band's error estimate counts for the tail; terms
    # past k = 60 add less than 1e-120.  The top band holds x = DOUBLE_BELOW, u = 4
    assert math.frexp((DOUBLE_BELOW / 2) ** 2)[1] + 52 == len(_K) - 1
    rows = exact_rows(61)
    for i, k in enumerate(_K):
        top = min(Fraction(2) ** (i - 52), Fraction(4))
        powers = [top**j for j in range(len(rows))]
        for r in range(4):
            terms = [abs(row[r]) * p for row, p in zip(rows, powers)]
            assert sum(terms[k + 1 :]) < sum(terms[: k + 1]) / 2**53, (i, k, r)


@pytest.mark.parametrize(
    "x",
    [1e-163, 1e-310, 2.0**-25, float(np.nextafter(2.0**-25, 0.0)), DOUBLE_BELOW],
    ids=["u=0", "subnormal", "band-1-bottom", "band-0-top", "DOUBLE_BELOW"],
)
def test_horner_band_ends_against_mpmath(x):
    # (x/2)^2 underflows to 0 below about 1.5e-162; 2^-25 is the bottom of band 1
    for (val, est), ref in zip(estimated(x), mp_four(mp.mpf(x))):
        ref = float(ref)
        if math.isinf(ref):  # Y1's pole overflows at the subnormal x
            assert val == ref and est == math.inf
        else:
            assert abs(val - ref) <= min(est, max(1e-12, 1e-12 * abs(ref)))


def test_longdouble_is_extended():
    # (DOUBLE_BELOW, SERIES_CUTOFF] relies on it: near 14 the series' terms
    # reach 3e4 for sums of 0.1, and double precision misses the 1e-12 budget
    assert np.finfo(np.longdouble).eps <= 1.1e-19, (
        "numpy longdouble is not the 80-bit extended type: the Bessel series "
        f"above DOUBLE_BELOW = {DOUBLE_BELOW} would miss the 1e-12 budget"
    )


@pytest.mark.parametrize("x", [1e-300, 1.0, DOUBLE_BELOW, 5.0, SERIES_CUTOFF, 20.0])
def test_numpy_argument_gives_the_float_pass(x):
    _jy.cache_clear()  # the cache would hand back the other call's tuple
    from_numpy = _jy(np.float64(x))
    _jy.cache_clear()
    from_float = _jy(x)
    assert np.array(from_numpy).tobytes() == np.array(from_float).tobytes()
    assert all(type(v) is float for row in from_numpy for v in row)


def test_range_and_domain_errors():
    with pytest.raises(RangeError):
        bessel_j(0, MAX_ARG + 1.0)
    with pytest.raises(DomainError):
        bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        bessel_y(0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(2, 1.0)
    with pytest.raises(DomainError):
        bessel_y(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, math.nan)
    with pytest.raises(DomainError):
        bessel_j(0, 0.0)
    with pytest.raises(DomainError):
        bessel_j(1, -1.0)
    # plain floats on both branches, also from a numpy argument
    for x in (1.0, 20.0, np.float64(3.0), np.float64(30.0)):
        assert all(type(v) is float for v in four(x))


def same_as_points(x):
    want = np.array([_jy(float(v)) for v in x]).reshape(-1, 2, 4).transpose(1, 2, 0)
    got = jy_array(x)
    return got.shape == (2, 4, len(x)) and got.tobytes() == want.tobytes()


def test_jy_array_equals_scalar_bit_for_bit():
    # same branch and same operations per element: exact equality, values
    # and estimates, on every branch, both seams and the extremes
    seams = [np.nextafter(v, w) for v in (DOUBLE_BELOW, SERIES_CUTOFF) for w in (0.0, v, 15.0)]
    x = np.concatenate([
        [5e-324, 1e-310, 1e-300, 1e-160], seams, [MAX_ARG],
        np.geomspace(1e-12, SERIES_CUTOFF, 700),
        np.linspace(1e-3, SERIES_CUTOFF, 600),
        np.linspace(DOUBLE_BELOW - 1.0, DOUBLE_BELOW + 1.0, 2001),
        np.geomspace(SERIES_CUTOFF, MAX_ARG, 693),
    ])
    np.random.default_rng(3).shuffle(x)
    assert same_as_points(x)


def test_float_series_pass_equals_jy_array_bit_for_bit():
    # the float pass of the point path, on a dense log sweep of its whole range and
    # at DOUBLE_BELOW's neighbours, where the longdouble pass takes over
    x = np.concatenate([
        np.geomspace(5e-324, DOUBLE_BELOW, 4001),
        [np.nextafter(DOUBLE_BELOW, 0.0), DOUBLE_BELOW, np.nextafter(DOUBLE_BELOW, 5.0)],
    ])
    assert same_as_points(x)


@pytest.mark.parametrize(
    "x",
    [
        np.array([]),
        np.linspace(1e-3, DOUBLE_BELOW, 50),
        np.linspace(np.nextafter(DOUBLE_BELOW, 5.0), SERIES_CUTOFF, 50),
        np.linspace(np.nextafter(SERIES_CUTOFF, 15.0), 100.0, 50),
    ],
    ids=["empty", "double", "longdouble", "hankel"],
)
def test_jy_array_within_one_branch(x):
    assert same_as_points(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2 * MAX_ARG, -2 * MAX_ARG, 0.0, -1.0])
def test_jy_array_raises_as_scalar(bad):
    for fn in (bessel_j, bessel_y):
        with pytest.raises((DomainError, RangeError)) as scalar:
            fn(0, bad)
        # the same message, up to the reported argument
        with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value).split("=")[0])):
            jy_array(np.array([1.0, 20.0, bad, 2.0]))
