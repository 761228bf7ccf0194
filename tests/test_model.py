"""Closed-form population values, expectations, biases (against frozen
40-digit oracles and cross-identities), and the gamma sampler."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from conftest import IDENTITY_ALPHAS, IDENTITY_NS, oracle_dps
from gammaineq import (
    DomainError,
    GammaParams,
    Sample,
    atkinson_population,
    bias_atkinson,
    bias_theil_l,
    bias_theil_t,
    derive_stream,
    digamma,
    expected_atkinson,
    expected_theil_l,
    expected_theil_t,
    population_values,
    sample_gamma,
    theil_l_population,
    theil_t_population,
)

# frozen 40-digit oracle values
THEIL_T_AT_1 = 0.42278433509846714  # 1 - gamma
THEIL_T_AT_2 = 0.22963715453852183
THEIL_L_AT_1 = 0.5772156649015329  # gamma
THEIL_L_AT_2 = 0.27036284546147817
ATKINSON_AT_1 = 0.4385405164331148  # 1 - exp(-gamma)
ATKINSON_AT_2 = 0.23689744420206806
E_TT_1_2 = 0.19314718055994531  # ln 2 - 1/2
E_TL_1_2 = 0.30685281944005469  # 1 - ln 2
E_AT_1_2 = 0.21460183660255169  # 1 - pi/4
B_TT_1_2 = -0.22963715453852183
B_TT_1_1 = -0.42278433509846714
B_TL_1_2 = -0.27036284546147817
B_TL_1_1 = -0.5772156649015329
B_AT_1_2 = -0.22393867983056314  # exp(-gamma) - pi/4
B_AT_1_1 = -0.4385405164331148


def test_params_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            GammaParams(bad)
        with pytest.raises(DomainError):
            GammaParams(1.0, bad)


def test_population_examples():
    assert theil_t_population(GammaParams(1.0)) == pytest.approx(THEIL_T_AT_1, abs=1e-12)
    assert theil_t_population(GammaParams(2.0)) == pytest.approx(THEIL_T_AT_2, abs=1e-12)
    assert theil_l_population(GammaParams(1.0)) == pytest.approx(THEIL_L_AT_1, abs=1e-12)
    assert theil_l_population(GammaParams(2.0)) == pytest.approx(THEIL_L_AT_2, abs=1e-12)
    assert atkinson_population(GammaParams(1.0)) == pytest.approx(ATKINSON_AT_1, abs=1e-12)
    assert atkinson_population(GammaParams(2.0)) == pytest.approx(ATKINSON_AT_2, abs=1e-12)


def test_population_equality_limit():
    params = GammaParams(1e8)
    assert 0.0 < theil_t_population(params) <= 1e-7
    assert 0.0 < theil_l_population(params) <= 1e-7
    assert 0.0 < atkinson_population(params) <= 1e-7


def test_population_identities_on_grid():
    for alpha in IDENTITY_ALPHAS:
        params = GammaParams(alpha)
        tt = theil_t_population(params)
        tl = theil_l_population(params)
        at = atkinson_population(params)
        assert abs(tl - (1.0 / alpha - tt)) <= 1e-12
        assert abs(at - (1.0 - math.exp(-tl))) <= 1e-12
        # independent route: 1 - exp(psi(alpha))/alpha
        assert abs(at - (1.0 - math.exp(digamma(alpha)) / alpha)) <= 1e-12


def test_population_positive_and_decreasing():
    values = [population_values(GammaParams(a)) for a in sorted(IDENTITY_ALPHAS)]
    for triple in values:
        assert triple.theil_t > 0.0
        assert triple.theil_l > 0.0
        assert 0.0 < triple.atkinson < 1.0
    for kind in ("theil_t", "theil_l", "atkinson"):
        series = [getattr(v, kind) for v in values]
        assert all(b < a for a, b in zip(series, series[1:]))


def test_scale_invariance_is_exact():
    for alpha in (0.1, 1.5, 100.0):
        reference = None
        for rate in (0.5, 1.0, 7.0):
            params = GammaParams(alpha, rate)
            got = (
                theil_t_population(params),
                theil_l_population(params),
                atkinson_population(params),
                expected_theil_t(params, 10),
                expected_theil_l(params, 10),
                expected_atkinson(params, 10),
                bias_theil_t(params, 10),
                bias_theil_l(params, 10),
                bias_atkinson(params, 10),
            )
            if reference is None:
                reference = got
            assert got == reference


def test_expectation_examples():
    one = GammaParams(1.0)
    assert expected_theil_t(one, 2) == pytest.approx(E_TT_1_2, abs=1e-12)
    assert expected_theil_t(one, 1) == pytest.approx(0.0, abs=1e-12)
    assert expected_theil_l(one, 2) == pytest.approx(E_TL_1_2, abs=1e-12)
    assert expected_theil_l(one, 1) == pytest.approx(0.0, abs=1e-12)
    assert expected_atkinson(one, 2) == pytest.approx(E_AT_1_2, abs=1e-12)
    assert expected_atkinson(one, 1) == pytest.approx(0.0, abs=1e-12)
    assert expected_atkinson(one, 1) >= 0.0


def test_expectation_large_n_limits():
    p15 = GammaParams(1.5)
    assert expected_theil_t(p15, 10**7) == pytest.approx(theil_t_population(p15), abs=1e-6)
    one = GammaParams(1.0)
    assert expected_atkinson(one, 10**7) == pytest.approx(atkinson_population(one), abs=1e-6)


# shapes from 1e-300 to 1e300: every decade from 1e-4 to 1e3 and a few
# below, then every tenth decade; 5.6 is the worst case measured, where the
# recurrence carries the shape up to the asymptotic series
ORACLE_ALPHAS = (
    1e-300,
    1e-100,
    1e-30,
    1e-10,
    1e-6,
    *(10.0**e for e in range(-4, 4)),
    5.6,
    *(10.0**e for e in range(10, 301, 10)),
)
ORACLE_NS = (2, 3, 10, 200, 10**6)


def oracle_theil(alpha, n):
    """Population Theil T and the Theil T and Theil L expectations and
    biases at (alpha, n) from the textbook digamma formulas in mpmath."""
    with mpmath.workdps(oracle_dps(alpha, n)):
        a, n = mpmath.mpf(alpha), mpmath.mpf(n)
        theil_t = mpmath.digamma(a) + 1 / a - mpmath.log(a)
        e_tt = mpmath.digamma(a) + 1 / a + mpmath.log(n) - 1 / (n * a) - mpmath.digamma(n * a)
        b_tt = mpmath.log(n * a) - 1 / (n * a) - mpmath.digamma(n * a)
        e_tl = mpmath.digamma(n * a) - mpmath.log(n) - mpmath.digamma(a)
        b_tl = mpmath.digamma(n * a) - mpmath.log(n * a)
        return tuple(map(float, (theil_t, e_tt, b_tt, e_tl, b_tl)))


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_theil_closed_forms_against_mpmath(alpha):
    # measured: at most 1.6e-15 relative, at alpha = 5.6 where the
    # recurrence runs, except E[theil_t] below alpha = 1e-3, where
    # theil_t(alpha) - theil_t(n alpha) cancels: 7.9e-14 at 1e-300
    params = GammaParams(alpha)
    tight = 2e-15
    loose = tight if alpha >= 1e-3 else 1e-13
    theil_t = oracle_theil(alpha, 1)[0]
    assert theil_t_population(params) == pytest.approx(theil_t, rel=tight, abs=0.0)
    for n in ORACLE_NS:
        _, e_tt, b_tt, e_tl, b_tl = oracle_theil(alpha, n)
        assert expected_theil_t(params, n) == pytest.approx(e_tt, rel=loose, abs=0.0), n
        assert bias_theil_t(params, n) == pytest.approx(b_tt, rel=tight, abs=0.0), n
        assert expected_theil_l(params, n) == pytest.approx(e_tl, rel=tight, abs=0.0), n
        assert bias_theil_l(params, n) == pytest.approx(b_tl, rel=tight, abs=0.0), n
    # a nonnegative estimator has a nonnegative mean, exactly 0 at n = 1
    assert expected_theil_t(params, 1) == expected_theil_l(params, 1) == 0.0


def oracle_atkinson(alpha, n):
    """The Atkinson expectation 1 - exp(G) and bias exp(psi(alpha))/alpha -
    exp(G), G = n (ln Gamma(alpha + 1/n) - ln Gamma(alpha)) - ln alpha, in
    mpmath."""
    with mpmath.workdps(oracle_dps(alpha, n)):
        a, n = mpmath.mpf(alpha), mpmath.mpf(n)
        gap = n * (mpmath.loggamma(a + 1 / n) - mpmath.loggamma(a)) - mpmath.log(a)
        return float(-mpmath.expm1(gap)), float(mpmath.exp(mpmath.digamma(a)) / a - mpmath.exp(gap))


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_atkinson_closed_forms_against_mpmath(alpha):
    # measured: E within 2.4e-13 and B within 2.1e-12 for n <= 200, both at
    # alpha = 5.6, n = 10, where ln Gamma is differenced directly; B loses
    # about n ulps at n = 1e6
    params = GammaParams(alpha)
    for n in ORACLE_NS:
        e_at, b_at = oracle_atkinson(alpha, n)
        assert expected_atkinson(params, n) == pytest.approx(e_at, rel=5e-13, abs=0.0), n
        bound = 5e-12 if n <= 200 else 5e-9
        assert bias_atkinson(params, n) == pytest.approx(b_at, rel=bound, abs=0.0), n


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_bias_atkinson_at_large_n_loses_about_n_ulps(alpha):
    # -L(alpha) - G cancels, so the relative error grows like n * eps:
    # measured 3.4e-7 at n = 1e9, worst at alpha = 1
    b_at = oracle_atkinson(alpha, 10**9)[1]
    assert bias_atkinson(GammaParams(alpha), 10**9) == pytest.approx(b_at, rel=1e-6, abs=0.0)


# around where L(alpha) = ln alpha - psi(alpha) ~ 1/alpha passes the largest
# double, at alpha ~ 5.6e-309, down to the smallest subnormal
TINY_ALPHAS = (1e-308, 6e-309, 5e-309, 1e-309, 1e-320, 5e-324)


@pytest.mark.parametrize("alpha", TINY_ALPHAS)
def test_closed_forms_at_tiny_shapes_are_finite_or_a_domain_error(alpha):
    # each value is finite and accurate, or a DomainError where L at the
    # shape or at n * shape, which the value needs, exceeds the largest double
    params = GammaParams(alpha)
    with mpmath.workdps(400):
        a = mpmath.mpf(alpha)
        theil_t = float(mpmath.digamma(a + 1) - mpmath.log(a))
        theil_l = mpmath.log(a) - mpmath.digamma(a)
    assert theil_t_population(params) == pytest.approx(theil_t, rel=1e-15, abs=0.0)
    assert atkinson_population(params) == 1.0
    if theil_l <= np.finfo(float).max:
        assert theil_l_population(params) == pytest.approx(float(theil_l), rel=2e-15, abs=0.0)
    else:
        with pytest.raises(DomainError, match=rf"overflows float64 at shape = {alpha!r}$"):
            theil_l_population(params)
        with pytest.raises(DomainError, match=rf"at shape = {alpha!r}$"):
            expected_theil_l(params, 10)
    for n in (2, 10, 200):
        _, e_tt, b_tt, e_tl, b_tl = oracle_theil(alpha, n)
        e_at, b_at = oracle_atkinson(alpha, n)
        if theil_l <= np.finfo(float).max:
            assert expected_theil_l(params, n) == pytest.approx(e_tl, rel=2e-15, abs=0.0), n
        assert expected_theil_t(params, n) == pytest.approx(e_tt, rel=1e-13, abs=0.0), n
        assert bias_theil_t(params, n) == pytest.approx(b_tt, rel=2e-15, abs=0.0), n
        assert expected_atkinson(params, n) == pytest.approx(e_at, rel=5e-13, abs=0.0), n
        assert bias_atkinson(params, n) == pytest.approx(b_at, rel=5e-12, abs=0.0), n
        if math.isfinite(b_tl):
            assert bias_theil_l(params, n) == pytest.approx(b_tl, rel=2e-15, abs=0.0), n
        else:
            with pytest.raises(DomainError, match=r"at n \* shape = "):
                bias_theil_l(params, n)


@pytest.mark.parametrize("alpha", [5.5e-309, 4e-309, 3e-309, 2.8e-309, 2.7e-309])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 10**6])
def test_expected_theil_l_where_its_population_value_overflows(alpha, n):
    # L(alpha) ~ 1/alpha overflows below ~5.6e-309, but the mean Theil L
    # estimate, ~(1 - 1/n)/alpha, is finite down to alpha ~ 2.8e-309 at n = 2
    with mpmath.workdps(400):
        a = mpmath.mpf(alpha)
        exact = mpmath.digamma(n * a) - mpmath.log(n) - mpmath.digamma(a)
    if exact <= np.finfo(float).max:
        assert expected_theil_l(GammaParams(alpha), n) == pytest.approx(float(exact), rel=5e-16, abs=0.0)
    else:
        with pytest.raises(DomainError, match=rf"for n = {n} overflows float64 at shape = {alpha!r}$"):
            expected_theil_l(GammaParams(alpha), n)


def test_theil_t_where_one_over_shape_overflows():
    # 1/shape overflows below ~5.6e-309; ln(1 + 1/shape) does not
    assert theil_t_population(GammaParams(1e-309)) == pytest.approx(710.921578070, rel=1e-12)


@pytest.mark.parametrize("alpha", [1e306, 1e308])
def test_atkinson_closed_forms_at_huge_shapes_warn_nothing(alpha):
    # the direct log-gamma difference, discarded at n * alpha >= 64,
    # overflows from alpha ~ 1e306; the suite turns its warnings into errors
    e_at, b_at = oracle_atkinson(alpha, 10)
    assert expected_atkinson(GammaParams(alpha), 10) == pytest.approx(e_at, rel=5e-13, abs=0.0)
    assert bias_atkinson(GammaParams(alpha), 10) == pytest.approx(b_at, rel=5e-12, abs=0.0)


def test_expectation_cross_identity():
    for alpha in IDENTITY_ALPHAS:
        params = GammaParams(alpha)
        for n in IDENTITY_NS:
            lhs = expected_theil_l(params, n)
            rhs = 1.0 / alpha - 1.0 / (n * alpha) - expected_theil_t(params, n)
            assert abs(lhs - rhs) <= 1e-12


def test_bias_examples():
    one = GammaParams(1.0)
    assert bias_theil_t(one, 2) == pytest.approx(B_TT_1_2, abs=1e-12)
    assert bias_theil_t(one, 1) == pytest.approx(B_TT_1_1, abs=1e-12)
    assert bias_theil_l(one, 2) == pytest.approx(B_TL_1_2, abs=1e-12)
    assert bias_theil_l(one, 1) == pytest.approx(B_TL_1_1, abs=1e-12)
    assert bias_atkinson(one, 2) == pytest.approx(B_AT_1_2, abs=1e-12)
    assert bias_atkinson(one, 1) == pytest.approx(B_AT_1_1, abs=1e-12)


def test_bias_vanishing_limits():
    assert abs(bias_theil_t(GammaParams(1.0), 10**8)) <= 1e-7
    assert abs(bias_atkinson(GammaParams(2.0), 10**6)) <= 1e-5


def test_bias_signs_on_grid():
    for alpha in IDENTITY_ALPHAS:
        params = GammaParams(alpha)
        for n in IDENTITY_NS:
            bt = bias_theil_t(params, n)
            bl = bias_theil_l(params, n)
            ba = bias_atkinson(params, n)
            assert bt < 0.0
            assert bl < 0.0
            assert ba <= 0.0
            assert bt > -1.0 / (n * alpha)


def test_bias_identity_with_theil_t():
    for alpha in IDENTITY_ALPHAS:
        params = GammaParams(alpha)
        for n in IDENTITY_NS:
            lhs = bias_theil_l(params, n)
            rhs = -bias_theil_t(params, n) - 1.0 / (n * alpha)
            assert abs(lhs - rhs) <= 1e-12


def test_expectation_minus_population_equals_bias():
    for alpha in IDENTITY_ALPHAS:
        params = GammaParams(alpha)
        for n in IDENTITY_NS:
            assert abs(
                expected_theil_t(params, n) - theil_t_population(params) - bias_theil_t(params, n)
            ) <= 1e-12
            assert abs(
                expected_theil_l(params, n) - theil_l_population(params) - bias_theil_l(params, n)
            ) <= 1e-12
            assert abs(
                expected_atkinson(params, n) - atkinson_population(params) - bias_atkinson(params, n)
            ) <= 1e-12


def test_bias_n_validation():
    with pytest.raises(DomainError):
        expected_theil_t(GammaParams(1.0), 0)
    with pytest.raises(DomainError):
        bias_atkinson(GammaParams(1.0), -3)
    with pytest.raises(DomainError):
        expected_atkinson(GammaParams(1.0), 2.0)


@pytest.mark.parametrize("n", [0, -2])
def test_a_count_below_one_names_the_bound(n):
    # a negative count is refused with the bound a zero one is, not as if 0
    # were allowed
    with pytest.raises(DomainError) as err:
        expected_theil_t(GammaParams(1.0), n)
    assert str(err.value) == f"n must be >= 1, got {n}"


@pytest.mark.parametrize("closed_form", [expected_theil_t, expected_theil_l, bias_theil_t, bias_theil_l])
def test_theil_closed_forms_reject_overflowing_scaled_shape(closed_form):
    # n * shape = 1e309 is beyond float64; the n * shape terms would drop out
    with pytest.raises(DomainError, match=r"n \* shape = 1000000000 \* 1e\+300 overflows"):
        closed_form(GammaParams(1e300), 10**9)
    # a count too large for any float is the same error
    with pytest.raises(DomainError, match="overflows float64"):
        closed_form(GammaParams(1.0), 10**400)


def test_sample_validation():
    with pytest.raises(DomainError):
        Sample([])
    with pytest.raises(DomainError):
        Sample([[1.0, 2.0]])
    with pytest.raises(DomainError) as err:
        Sample([1.0, 2.0, -3.0])
    assert "observation 2" in str(err.value)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            Sample([1.0, bad])
    with pytest.raises(DomainError):
        Sample(["a", "b"])


def test_sample_is_frozen_copy():
    source = np.array([1.0, 2.0, 3.0])
    sample = Sample(source)
    source[0] = 99.0
    assert sample.observations[0] == 1.0
    with pytest.raises(ValueError):
        sample.observations[0] = 5.0
    assert sample.n == 3
    assert sample == Sample([1.0, 2.0, 3.0])
    assert hash(sample) == hash(Sample([1.0, 2.0, 3.0]))


def test_sampler_determinism():
    a = sample_gamma(GammaParams(1.5), 10, derive_stream(9, 0, 0, 0))
    b = sample_gamma(GammaParams(1.5), 10, derive_stream(9, 0, 0, 0))
    assert np.array_equal(a.observations, b.observations)
    c = sample_gamma(GammaParams(1.5), 10, derive_stream(9, 0, 0, 1))
    assert not np.array_equal(a.observations, c.observations)


def test_sampler_mean_alpha_2():
    draws = sample_gamma(GammaParams(2.0), 1_000_000, derive_stream(101, 0, 0, 0))
    se = math.sqrt(2.0) / 1000.0
    assert draws.observations.mean() == pytest.approx(2.0, abs=4 * se)
    assert draws.observations.min() > 0.0


def test_sampler_variance_alpha_tenth():
    draws = sample_gamma(GammaParams(0.1), 1_000_000, derive_stream(102, 0, 0, 0))
    # Var(sample variance) ~ (mu4 - sigma^4)/N with mu4 = 3a^2 + 6a
    alpha = 0.1
    se = math.sqrt((3 * alpha**2 + 6 * alpha - alpha**2) / 1_000_000)
    assert draws.observations.var() == pytest.approx(alpha, abs=5 * se)
    assert draws.observations.min() > 0.0


def test_sampler_rate_is_exact_rescale():
    base = sample_gamma(GammaParams(1.5, 1.0), 1000, derive_stream(103, 0, 0, 0))
    scaled = sample_gamma(GammaParams(1.5, 4.0), 1000, derive_stream(103, 0, 0, 0))
    assert np.array_equal(scaled.observations, base.observations / 4.0)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.5, 7.3])
def test_sampler_distribution_ks(alpha):
    draws = sample_gamma(GammaParams(alpha), 200_000, derive_stream(104, 0, 0, 0))
    result = stats.kstest(draws.observations, "gamma", args=(alpha,))
    assert result.pvalue > 1e-4


@pytest.mark.parametrize("rate", [1e-308, 1e-309])
def test_sampler_refuses_draws_that_overflow(rate):
    # a third of Gamma(1.5) draws exceed 1.8 and overflow on division by
    # 1e-308; redrawing them would condition the sample on small values
    with pytest.raises(DomainError) as err:
        sample_gamma(GammaParams(1.5, rate), 1000, derive_stream(1, 0, 0, 0))
    assert str(err.value) == f"a gamma draw overflows float64 at shape = 1.5, rate = {rate:g}"


def test_sampler_refuses_a_rate_that_pushes_draws_below_the_normal_range():
    # about a sixth of Gamma(0.1) draws are below 2**-1022 * 1e300; divided
    # by the rate they would be rounded as subnormals or redrawn from zero
    with pytest.raises(DomainError) as err:
        sample_gamma(GammaParams(0.1, 1e300), 1000, derive_stream(1, 0, 0, 0))
    assert str(err.value) == (
        "a gamma draw falls below the normal float64 range at shape = 0.1, rate = 1e+300"
    )


def test_sampler_refuses_shapes_where_most_draws_round_to_zero():
    # a Gamma(a) draw rounds to zero with probability about 2**(-1075 a):
    # 0.54 at 9e-4, where redrawing would all but never end
    with pytest.raises(DomainError) as err:
        sample_gamma(GammaParams(9e-4), 10, derive_stream(1, 0, 0, 0))
    assert str(err.value) == (
        "more than half of all gamma draws round to zero at shape = 0.0009, below 0.00093"
    )
    # 0.475 at 1e-3: sampled, conditional on X > 0
    assert sample_gamma(GammaParams(1e-3), 10, derive_stream(1, 0, 0, 0)).n == 10


def test_sampler_validation():
    with pytest.raises(DomainError):
        sample_gamma(GammaParams(1.0), 0, derive_stream(1, 0, 0, 0))
    with pytest.raises(DomainError):
        sample_gamma(GammaParams(1.0), 5, np.random.RandomState(0))


# Reference sampler: the vectorised Marsaglia-Tsang loop as it stood before
# the squeeze test was rewritten without `x**4`. The live sampler must
# consume the stream the same way and return the same bits.
def _reference_gamma_variates_ge1(stream, shape, count):
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(count)
    pending = np.arange(count)
    while pending.size:
        x = stream.standard_normal(pending.size)
        u = stream.random(pending.size)
        v = (1.0 + c * x) ** 3
        ok = v > 0.0
        log_v = np.log(np.where(ok, v, 1.0))
        log_u = np.log(np.maximum(u, 5e-324))
        accept = ok & (
            (u < 1.0 - 0.0331 * x**4) | (log_u < 0.5 * x * x + d * (1.0 - v + log_v))
        )
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    return out


def _reference_gamma_variates(stream, shape, count):
    if shape >= 1.0:
        return _reference_gamma_variates_ge1(stream, shape, count)
    y = _reference_gamma_variates_ge1(stream, shape + 1.0, count)
    u = 1.0 - stream.random(count)
    return y * u ** (1.0 / shape)


def _reference_sample_gamma(shape, count, stream):
    draws = _reference_gamma_variates(stream, shape, count)
    bad = ~(np.isfinite(draws) & (draws > 0.0))
    while bad.any():
        draws[bad] = _reference_gamma_variates(stream, shape, int(bad.sum()))
        bad = ~(np.isfinite(draws) & (draws > 0.0))
    return draws


# 1e-3 takes the boost path and underflows to zero often enough to redraw
@pytest.mark.parametrize("shape", [1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 7.3, 1e3])
@pytest.mark.parametrize("count", [1, 2, 17, 65_536])
def test_sampler_bits_match_reference(shape, count):
    for seed in (0, 42, 2**63 + 5):
        live_stream = derive_stream(seed, 3, 1, 7)
        reference_stream = derive_stream(seed, 3, 1, 7)
        live = sample_gamma(GammaParams(shape), count, live_stream).observations
        reference = _reference_sample_gamma(shape, count, reference_stream)
        assert np.array_equal(live.view(np.int64), reference.view(np.int64)), (shape, count, seed)
        # both consumed the same number of stream values
        assert live_stream.random() == reference_stream.random()


# below 1, a rate cannot underflow a draw to zero, so the live sampler
# redraws exactly what the reference does before dividing by the rate
@pytest.mark.parametrize("shape", [1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 7.3, 1e3])
@pytest.mark.parametrize("count", [1, 17, 65_536])
def test_sampler_bits_at_a_rate_match_reference_divided_by_it(shape, count):
    rate = 0.37
    for seed in (0, 42, 2**63 + 5):
        live_stream = derive_stream(seed, 3, 1, 7)
        reference_stream = derive_stream(seed, 3, 1, 7)
        live = sample_gamma(GammaParams(shape, rate), count, live_stream).observations
        reference = _reference_sample_gamma(shape, count, reference_stream) / rate
        assert np.array_equal(live.view(np.int64), reference.view(np.int64)), (shape, count, seed)
        assert live_stream.random() == reference_stream.random()


def test_sampled_observations_are_frozen_and_equal_a_copy():
    # sample_gamma hands its own array to the Sample instead of copying it
    sample = sample_gamma(GammaParams(0.5, 2.0), 1000, derive_stream(7, 0, 0, 0))
    assert not sample.observations.flags.writeable
    with pytest.raises(ValueError):
        sample.observations[0] = 5.0
    copy = Sample(sample.observations)
    assert copy.observations is not sample.observations
    assert (copy.n, copy, hash(copy)) == (sample.n, sample, hash(sample))
