"""Special-function accuracy tests against independent oracles.

The reference values come from mpmath at 30 digits and from an explicit
30-term ascending series evaluated inline (kept deliberately separate from
the package implementation).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from driftless.bessel import (
    MAX_ARG,
    EvalResult,
    bessel_j,
    bessel_y,
)
from driftless.errors import DomainError, RangeError

mp.mp.dps = 30


def series_j0(x, terms=30):
    """Independent 30-term power-series oracle for J0."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


def test_j0_at_zero():
    assert bessel_j(0, 0.0).value == 1.0


def test_j1_at_zero():
    assert bessel_j(1, 0.0).value == 0.0


def test_j0_at_one_vs_series_oracle():
    assert bessel_j(0, 1.0).value == pytest.approx(series_j0(1.0), abs=1e-14)
    assert bessel_j(0, 1.0).value == pytest.approx(0.765197686557967, abs=1e-12)


def test_y0_at_one():
    # series oracle with the Euler-Mascheroni/log term, via mpmath
    assert bessel_y(0, 1.0).value == pytest.approx(0.088256964215677, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_j_accuracy_against_mpmath(n):
    for x in np.linspace(0.05, MAX_ARG, 400):
        ref = float(mp.besselj(n, float(x)))
        val = bessel_j(n, float(x)).value
        assert abs(val - ref) <= max(1e-12, 1e-12 * abs(ref))


@pytest.mark.parametrize("n", [0, 1])
def test_y_accuracy_against_mpmath(n):
    for x in np.linspace(0.05, MAX_ARG, 400):
        ref = float(mp.bessely(n, float(x)))
        val = bessel_y(n, float(x)).value
        assert abs(val - ref) <= max(1e-12, 1e-12 * abs(ref))


def test_error_estimate_covers_true_error():
    for x in np.linspace(0.05, MAX_ARG, 200):
        for res, ref in [
            (bessel_j(0, float(x)), mp.besselj(0, float(x))),
            (bessel_j(1, float(x)), mp.besselj(1, float(x))),
            (bessel_y(0, float(x)), mp.bessely(0, float(x))),
            (bessel_y(1, float(x)), mp.bessely(1, float(x))),
        ]:
            assert res.est_abs_error >= 0.0
            assert abs(res.value - float(ref)) <= res.est_abs_error


def test_parity():
    for x in [0.3, 1.7, 8.2, 20.0]:
        assert bessel_j(0, -x).value == bessel_j(0, x).value
        assert bessel_j(1, -x).value == -bessel_j(1, x).value


def test_y_reflection_identity():
    for x in [0.1, 1.0, 5.0, 30.0]:
        assert bessel_y(-1, x).value + bessel_y(1, x).value == 0.0


def test_y1_pole_limit():
    # x * Y1(x) -> -2/pi as x -> 0+
    for x in [1e-3, 1e-4, 1e-5]:
        assert x * bessel_y(1, x).value == pytest.approx(-2.0 / math.pi, rel=1e-5)


def test_wronskian_pairing():
    # J1(x) Y0(x) - J0(x) Y1(x) = 2/(pi x)
    for x in np.linspace(0.05, MAX_ARG, 100):
        x = float(x)
        w = bessel_j(1, x).value * bessel_y(0, x).value - (
            bessel_j(0, x).value * bessel_y(1, x).value
        )
        assert abs(w - 2.0 / (math.pi * x)) <= 1e-10


def test_derivative_identities_finite_difference():
    h = 1e-6
    for x in [0.5, 2.0, 7.0, 20.0, 45.0]:
        dj0 = (bessel_j(0, x + h).value - bessel_j(0, x - h).value) / (2 * h)
        assert dj0 == pytest.approx(-bessel_j(1, x).value, abs=1e-6)
        dy0 = (bessel_y(0, x + h).value - bessel_y(0, x - h).value) / (2 * h)
        assert dy0 == pytest.approx(-bessel_y(1, x).value, abs=1e-6)


def test_order_zero_ode_certificate():
    # x^2 f'' + x f' + x^2 f = 0 for f in {J0, Y0}
    h = 1e-4
    for fn in (lambda x: bessel_j(0, x).value, lambda x: bessel_y(0, x).value):
        for x in [0.5, 1.0, 3.0, 10.0, 25.0]:
            f = fn(x)
            d1 = (fn(x + h) - fn(x - h)) / (2 * h)
            d2 = (fn(x + h) - 2 * f + fn(x - h)) / (h * h)
            resid = x * x * d2 + x * d1 + x * x * f
            scale = max(1.0, abs(x * x * f))
            assert abs(resid) / scale <= 1e-6


def test_seam_continuity():
    from driftless.bessel import SERIES_CUTOFF

    # the gap must be small enough that the true function's variation
    # (|derivative| < 1) stays well below the continuity tolerance
    lo, hi = SERIES_CUTOFF - 1e-13, SERIES_CUTOFF + 1e-13
    for fn in (
        lambda x: bessel_j(0, x).value,
        lambda x: bessel_j(1, x).value,
        lambda x: bessel_y(0, x).value,
        lambda x: bessel_y(1, x).value,
    ):
        assert abs(fn(lo) - fn(hi)) <= 1e-12


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
        bessel_j(0, math.nan)


def test_eval_result_rejects_negative_estimate():
    with pytest.raises(ValueError):
        EvalResult(1.0, -1e-3)
