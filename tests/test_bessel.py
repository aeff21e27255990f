"""Bessel-J evaluator against an independent series oracle and mpmath.

The power-series oracle below was written (and spot-checked against tables)
before the recurrence implementation; the frozen constants in this file come
from it.
"""

import math

import mpmath
import numpy as np
import pytest

from blochqst import bessel
from blochqst.analytic import free_propagator_element
from blochqst.bessel import MAX_ARGUMENT, MAX_ORDER, bessel_jn


def series_jn(order: int, x: float, terms: int = 90) -> float:
    """Defining power series, summed with math.fsum.

    Independent oracle: accurate to ~1e-13 for |x| <= 10 where cancellation
    stays mild.  Not used by the package itself.
    """
    n = abs(order)
    contributions = []
    term = (0.5 * x) ** n / math.factorial(n)
    for k in range(terms):
        contributions.append(term)
        term *= -((0.5 * x) ** 2) / ((k + 1) * (n + k + 1))
    total = math.fsum(contributions)
    if order < 0 and n % 2:
        total = -total
    return total


def test_known_value_j1_of_1():
    # frozen from the series oracle: J_1(1) = 0.4400505857449335...
    assert bessel_jn(1, 1.0) == pytest.approx(0.44005058574493355, abs=1e-15)
    assert series_jn(1, 1.0) == pytest.approx(0.44005058574493355, abs=1e-14)


def test_zero_argument():
    assert bessel_jn(0, 0.0) == 1.0
    assert bessel_jn(4, 0.0) == 0.0
    assert bessel_jn(-1, 0.0) == 0.0


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 15, 40])
@pytest.mark.parametrize("x", [1e-10, 1e-6, 0.03, 0.5, 2.2, 5.0, 9.7])
def test_matches_series_oracle(order, x):
    assert bessel_jn(order, x) == pytest.approx(series_jn(order, x), abs=2e-13)


def test_matches_mpmath_over_validated_window():
    worst = 0.0
    for order in range(0, MAX_ORDER + 1, 13):
        for x in (1e-9, 0.004, 0.3, 1.0, 3.7, 8.0, 12.5, 25.0, 37.0, 64.2, 93.1, MAX_ARGUMENT):
            err = abs(bessel_jn(order, x) - float(mpmath.besselj(order, x)))
            worst = max(worst, err)
    assert worst < 1e-12


def test_negative_order_and_argument_reductions():
    for n, x in ((3, 2.6), (4, 2.6), (7, 11.0)):
        assert bessel_jn(-n, x) == pytest.approx((-1.0) ** n * bessel_jn(n, x), abs=1e-15)
        assert bessel_jn(n, -x) == pytest.approx((-1.0) ** n * bessel_jn(n, x), abs=1e-15)


def test_sum_of_squares_identity():
    # sum_k J_k(x)^2 = 1; terms beyond |k|=60 are < 1e-30 at x=3.7
    total = math.fsum(bessel_jn(k, 3.7) ** 2 for k in range(-60, 61))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_three_term_recurrence():
    for n, x in ((1, 0.9), (5, 3.3), (12, 20.0), (30, 41.5)):
        lhs = bessel_jn(n - 1, x) + bessel_jn(n + 1, x)
        assert lhs == pytest.approx(2.0 * n / x * bessel_jn(n, x), abs=1e-12)


def test_rejects_inputs_outside_validated_window():
    with pytest.raises(ValueError):
        bessel_jn(MAX_ORDER + 1, 1.0)
    with pytest.raises(ValueError):
        bessel_jn(0, MAX_ARGUMENT + 0.5)
    with pytest.raises(ValueError):
        bessel_jn(-(MAX_ORDER + 1), 1.0)
    # the boundary itself is inside the window
    assert np.isfinite(bessel_jn(MAX_ORDER, MAX_ARGUMENT))


@pytest.mark.parametrize("x", [5e-9, 1e-4, 0.01, 37.0, MAX_ARGUMENT])
def test_whole_row_matches_mpmath(x):
    # one cached row per argument: the series branch, the rescale branch (tiny
    # x overflows the unnormalized values several times) and the top of the window
    for order in range(MAX_ORDER + 1):
        assert bessel_jn(order, x) == pytest.approx(float(mpmath.besselj(order, x)), abs=1e-12)


def test_interleaved_arguments_never_read_a_stale_row():
    for order, x in ((3, 2.0), (3, 5.0), (3, -2.0), (-3, 2.0), (3, 2.0)):
        expected = float(mpmath.besselj(order, x))
        assert bessel_jn(order, x) == pytest.approx(expected, abs=1e-15)
        assert math.copysign(1.0, bessel_jn(order, x)) == math.copysign(1.0, expected)


def test_one_recurrence_per_kernel_row():
    # the first element builds the signed Bessel row; the rest read it
    bessel.bessel_row.cache_clear()
    row = [free_propagator_element(m, 0, 37.4, 1.0) for m in range(-MAX_ORDER // 2, MAX_ORDER // 2 + 1)]
    assert len(row) == MAX_ORDER + 1
    info = bessel.bessel_row.cache_info()
    assert (info.misses, info.hits) == (1, MAX_ORDER)


def test_integral_orders_of_any_type_agree():
    expected = bessel_jn(2, 3.1)
    assert bessel_jn(2.0, 3.1) == expected
    assert bessel_jn(np.int64(2), 3.1) == expected
    assert bessel_jn(-2.0, 3.1) == expected
    assert type(bessel_jn(np.int64(2), np.float64(3.1))) is float


@pytest.mark.parametrize("order", [1.5, -0.5, 1e-9, math.nan])
def test_rejects_non_integral_order(order):
    with pytest.raises(ValueError, match="^order must be an integer$"):
        bessel_jn(order, 2.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_argument(x):
    with pytest.raises(ValueError, match="^x must be finite$"):
        bessel_jn(2, x)
    with pytest.raises(ValueError, match="^x must be finite$"):
        free_propagator_element(0, 0, x, 1.0)
