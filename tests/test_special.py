"""Special-function accuracy against independent oracles (scipy, mpmath)
and the documented recurrence/convexity properties."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sps

from conftest import oracle_dps
from gammaineq import DomainError, digamma, ln_gamma, log_gamma_ratio_scaled, trigamma

mpmath.mp.dps = 40

# frozen reference values, recomputed at 40 digits independently of the library
LN_GAMMA_HALF = 0.5723649429247001
DIGAMMA_1 = -0.5772156649015329
DIGAMMA_2 = 0.4227843350984671
DIGAMMA_HALF = -1.9635100260214235
TRIGAMMA_1 = 1.6449340668482264  # pi^2/6
TRIGAMMA_2 = 0.6449340668482264  # pi^2/6 - 1
TRIGAMMA_HALF = 4.934802200544679  # pi^2/2
LGRS_1_2 = -0.24156447527049044  # 2*ln(sqrt(pi)/2)
LGRS_HALF_1 = -0.6931471805599453  # ln(1/2)

BAD_INPUTS = (0.0, -1.0, -1e-9, math.nan, math.inf, -math.inf)


def test_ln_gamma_examples():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-12)
    assert ln_gamma(0.5) == pytest.approx(LN_GAMMA_HALF, abs=1e-12)


def test_digamma_examples():
    assert digamma(1.0) == pytest.approx(DIGAMMA_1, abs=1e-12)
    assert digamma(2.0) == pytest.approx(DIGAMMA_2, abs=1e-12)
    assert digamma(0.5) == pytest.approx(DIGAMMA_HALF, abs=1e-12)


def test_trigamma_examples():
    assert trigamma(1.0) == pytest.approx(TRIGAMMA_1, abs=1e-12)
    assert trigamma(2.0) == pytest.approx(TRIGAMMA_2, abs=1e-12)
    assert trigamma(0.5) == pytest.approx(TRIGAMMA_HALF, abs=1e-12)


def test_log_gamma_ratio_examples():
    assert log_gamma_ratio_scaled(1.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma_ratio_scaled(1.0, 2) == pytest.approx(LGRS_1_2, abs=1e-12)
    assert log_gamma_ratio_scaled(0.5, 1) == pytest.approx(LGRS_HALF_1, abs=1e-12)


@pytest.mark.parametrize("func", [ln_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", BAD_INPUTS)
def test_domain_rejection(func, bad):
    with pytest.raises(DomainError):
        func(bad)


def test_domain_rejection_non_numeric():
    for func in (ln_gamma, digamma, trigamma):
        with pytest.raises(DomainError):
            func("1.0")
        with pytest.raises(DomainError):
            func(True)


def test_log_gamma_ratio_domain():
    with pytest.raises(DomainError):
        log_gamma_ratio_scaled(-1.0, 2)
    with pytest.raises(DomainError):
        log_gamma_ratio_scaled(1.0, 0)
    with pytest.raises(DomainError):
        log_gamma_ratio_scaled(1.0, 2.0)
    with pytest.raises(DomainError):
        log_gamma_ratio_scaled(1.0, True)


def test_recurrences_on_log_grid():
    grid = np.logspace(math.log10(0.01), 2.0, 1000)
    for x in grid:
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-12
        # trigamma values reach 1e4 at the left edge, so tolerance scales
        resid = trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2
        assert abs(resid) <= 1e-10 * max(1.0, trigamma(x))


def test_digamma_strictly_increasing():
    grid = np.logspace(-3, 8, 500)
    values = [digamma(float(x)) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_digamma_asymptotic_tail():
    for x in (1e6, 3.7e6, 1e7, 5e7, 1e8):
        assert abs(digamma(x) - (math.log(x) - 0.5 / x)) <= 1e-9


def test_against_scipy_oracle_grid():
    grid = np.logspace(-3, 8, 400)
    for x in grid:
        x = float(x)
        assert ln_gamma(x) == pytest.approx(float(sps.gammaln(x)), rel=1e-12, abs=1e-12)
        assert digamma(x) == pytest.approx(float(sps.digamma(x)), rel=1e-12, abs=1e-12)
        assert trigamma(x) == pytest.approx(float(sps.polygamma(1, x)), rel=1e-10)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_digamma_recurrence_property(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12


@given(st.floats(min_value=0.01, max_value=100.0))
def test_ln_gamma_recurrence_property(x):
    assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-12


@settings(max_examples=60)
@given(
    st.floats(min_value=1e-3, max_value=1e8),
    st.integers(min_value=1, max_value=10**9),
)
def test_log_gamma_ratio_against_mpmath(alpha, n):
    a = mpmath.mpf(alpha)
    want = float(n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)))
    assert log_gamma_ratio_scaled(alpha, n) == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize(
    "alpha,n",
    [
        # both sides of the direct/quadrature switch and scattered extremes
        (0.5, 126),
        (0.5, 129),
        (2.0, 31),
        (2.0, 33),
        (64.0, 1),
        (64.0, 2),
        (1e-3, 63900),
        (1e-3, 10**9),
        (0.0017749816384254585, 59467),
        (1e8, 1),
        (5.0, 10**9),
        (12.9, 5),
    ],
)
def test_log_gamma_ratio_hard_points(alpha, n):
    a = mpmath.mpf(alpha)
    want = float(n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a)))
    assert log_gamma_ratio_scaled(alpha, n) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_log_gamma_ratio_convexity_bound():
    for alpha in np.logspace(-3, 4, 60):
        alpha = float(alpha)
        psi = digamma(alpha)
        previous = math.inf
        for n in (1, 2, 10, 100, 10000):
            value = log_gamma_ratio_scaled(alpha, n)
            assert value >= psi
            # shrinking the averaging window moves the value down toward psi
            assert value <= previous + 1e-12
            previous = value


# The documented accuracy of each public function, against mpmath, at the
# bound its docstring states: on the 400-point log grid of the scipy test
# above and on 400 points hypothesis draws.
LOG_GRID = [float(x) for x in np.logspace(-3, 8, 400)]
# a sample size for each grid point, spread in log scale over [1, 1e9]
GRID_NS = [int(n) for n in np.rint(10 ** np.random.default_rng(23).uniform(0, 9, 400))]


def ln_gamma_within_bound(x):
    # absolute error for x <= 100, relative above
    want = mpmath.loggamma(mpmath.mpf(x))
    error = abs(mpmath.mpf(ln_gamma(x)) - want)
    return error <= 2.5e-13 if x <= 100.0 else error <= 1e-14 * abs(want)


def digamma_within_bound(x):
    # absolute or relative, whichever is looser
    want = mpmath.digamma(mpmath.mpf(x))
    return abs(mpmath.mpf(digamma(x)) - want) <= 1e-13 * max(1, abs(want))


def trigamma_within_bound(x):
    want = mpmath.polygamma(1, mpmath.mpf(x))
    return abs(mpmath.mpf(trigamma(x)) - want) <= 1e-13 * want


def log_gamma_ratio_within_bound(alpha, n):
    # absolute or relative, whichever is looser: the value crosses 0 where
    # digamma does, near alpha = 1.4616, as n grows
    with mpmath.workdps(oracle_dps(alpha, n)):
        a = mpmath.mpf(alpha)
        want = n * (mpmath.loggamma(a + mpmath.mpf(1) / n) - mpmath.loggamma(a))
        return abs(mpmath.mpf(log_gamma_ratio_scaled(alpha, n)) - want) <= 5e-13 * max(1, abs(want))


def test_documented_accuracy_on_the_log_grid():
    for x, n in zip(LOG_GRID, GRID_NS):
        assert ln_gamma_within_bound(x), x
        assert digamma_within_bound(x), x
        assert trigamma_within_bound(x), x
        assert log_gamma_ratio_within_bound(x, n), (x, n)


@settings(max_examples=400)
@given(st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
# where the absolute error is largest, just below 100
@example(99.99999999846798)
def test_ln_gamma_documented_accuracy(x):
    assert ln_gamma_within_bound(x)


@settings(max_examples=400)
@given(st.floats(min_value=1e-3, max_value=1e8))
def test_digamma_documented_accuracy(x):
    assert digamma_within_bound(x)


@settings(max_examples=400)
@given(st.floats(min_value=1e-3, max_value=1e8))
def test_trigamma_documented_accuracy(x):
    assert trigamma_within_bound(x)


@settings(max_examples=400)
@given(st.floats(min_value=1e-3, max_value=1e8), st.integers(min_value=1, max_value=10**9))
# next to the zero of digamma, where only the absolute bound holds
@example(1.4616321449683622, 10**9)
def test_log_gamma_ratio_documented_accuracy(alpha, n):
    assert log_gamma_ratio_within_bound(alpha, n)


# the smallest doubles at which trigamma and digamma are finite: psi'(x) ~
# 1/x^2 and psi(x) ~ -1/x are beyond the largest double just below them
@pytest.mark.parametrize(
    "func, want, smallest",
    [
        (trigamma, lambda x: mpmath.polygamma(1, x), 7.458340731200208e-155),
        (digamma, mpmath.digamma, 5.56268464626801e-309),
    ],
)
def test_overflow_bound_matches_mpmath_on_both_sides(func, want, smallest):
    # a value beyond the largest double by half its ulp or more rounds to inf
    limit = mpmath.mpf(sys.float_info.max) + mpmath.mpf(2) ** (1023 - 53)
    for x in (smallest, 2 * smallest, 1e3 * smallest):
        assert abs(want(mpmath.mpf(x))) < limit
        assert abs(mpmath.mpf(func(x)) - want(mpmath.mpf(x))) <= 1e-13 * abs(want(mpmath.mpf(x)))
    # at 5e-324, trigamma's x * x underflows to 0
    for x in (math.nextafter(smallest, 0.0), smallest / 2, 5e-324):
        assert abs(want(mpmath.mpf(x))) >= limit
        with pytest.raises(DomainError, match=rf"{func.__name__}\(x\) overflows float64 at x = "):
            func(x)
