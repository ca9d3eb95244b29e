"""The corner coefficient, and the Bessel functions the disk channel uses.

The disk closed forms take I1/I0 from scipy's exponentially scaled
``i0e``/``i1e``; the tests below pin those against independent series and
identities, and read the ratio back out of ``disk_F``.
"""

import math

import numpy as np
import pytest
from scipy.special import i0e, i1e, k0e, k1e

from robinopt import GeometryError, corner_coefficient, disk_F


def series_i(nu, x, terms=30):
    """Independent oracle: plain power-series summation."""
    half = 0.5 * x
    total = 0.0
    for k in range(terms):
        total += half ** (2 * k + nu) / (
            math.factorial(k) * math.gamma(k + nu + 1)
        )
    return total


def ratio(x):
    """I1(x)/I0(x) as the exact disk channel computes it."""
    return -disk_F(1.0, -x * x) / (2.0 * math.pi * x)


def test_bessel_i_at_zero():
    # the disk Robin root bracket starts at k = 0, where I1/I0 must vanish
    assert i0e(0.0) == 1.0
    assert i1e(0.0) == 0.0


def test_bessel_i_against_series():
    # I0(1) from the 30-term series oracle
    assert abs(i0e(1.0) * math.e - 1.2660658777520084) < 1e-13
    for x in (0.25, 1.0, 4.0, 9.0):
        assert i0e(x) * math.exp(x) == pytest.approx(series_i(0, x),
                                                     rel=1e-12)
        assert i1e(x) * math.exp(x) == pytest.approx(series_i(1, x),
                                                     rel=1e-12)


def test_bessel_i_large_argument_matches_ratio():
    # I1/I0 = 1 - 1/(2x) - 1/(8x^2) - 1/(8x^3) + O(x^-4), also far beyond
    # where scipy's ive turns NaN (x > 1e10)
    for x in (200.0, 1e4, 1e12):
        assert ratio(x) == pytest.approx(
            1 - 1 / (2 * x) - 1 / (8 * x * x) - 1 / (8 * x**3), abs=2e-10
        )


def test_bessel_i_overflow_guard():
    # I0(800) overflows double precision; F(-800^2) must not
    v = disk_F(1.0, -800.0**2)
    assert math.isfinite(v)
    assert v == pytest.approx(-2 * math.pi * 800 + math.pi, rel=1e-6)


def test_bessel_ratio_values():
    # small-argument limit x/2
    assert ratio(1e-6) == pytest.approx(5e-7, rel=1e-6)
    # I1(1)/I0(1), frozen from the series oracle
    assert ratio(1.0) == pytest.approx(0.44638996589653446, rel=1e-12)
    # large-argument expansion 1 - 1/(2x) - 1/(8x^2) + O(x^-3)
    x = 100.0
    assert ratio(x) == pytest.approx(0.9949873730051685, rel=1e-10)
    assert ratio(x) == pytest.approx(
        1 - 1 / (2 * x) - 1 / (8 * x * x), abs=2e-7
    )


def test_bessel_ratio_monotone_bounded():
    xs = np.geomspace(1e-3, 1e4, 60)
    vals = [ratio(x) for x in xs]
    assert all(0 < v < 1 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_bessel_ratio_consistent_with_series():
    for x in (0.3, 2.0, 8.0):
        expect = series_i(1, x, 60) / series_i(0, x, 60)
        assert ratio(x) == pytest.approx(expect, rel=1e-11)


def test_wronskian_identity():
    # I0 K1 + I1 K0 = 1/x; the exponential scalings cancel in each product
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 1e3):
        w = i0e(x) * k1e(x) + i1e(x) * k0e(x)
        assert w == pytest.approx(1.0 / x, rel=1e-13)


def test_corner_coefficient_right_angle():
    # independent oracle: at a right angle the integrand collapses to
    # 2 sech^2(pi x / 2), whose integral is 4/pi
    assert corner_coefficient(math.pi / 2) == pytest.approx(4.0 / math.pi,
                                                            abs=1e-12)


def test_corner_coefficient_flat_and_reflex():
    assert corner_coefficient(math.pi) == 0.0
    assert corner_coefficient(3 * math.pi / 2) < 0.0


def test_corner_coefficient_strictly_decreasing():
    alphas = np.linspace(0.05, 2 * math.pi - 0.05, 50)
    vals = [corner_coefficient(a) for a in alphas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_corner_coefficient_domain():
    with pytest.raises(GeometryError):
        corner_coefficient(0.0)
    with pytest.raises(GeometryError):
        corner_coefficient(2 * math.pi)
