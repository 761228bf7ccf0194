"""Gamma shape fitting: frozen examples, an independent bisection oracle
built on scipy's digamma, a brentq oracle on a 30-digit score for full
convergence, degeneracy handling, and invariances."""

import math

import mpmath
import numpy as np
import pytest
from scipy import optimize
from scipy import special as sps

from conftest import pinned_gamma_sample
from gammaineq import (
    DegenerateSampleError,
    GammaParams,
    MleResult,
    NoConvergenceError,
    Sample,
    derive_stream,
    fit_shape,
    log_moment_gap,
    sample_gamma,
    theil_l_hat,
)
from gammaineq.mle import _MAX_NEWTON, _fit_shapes

# frozen 40-digit oracle values for the sample {1, 2, 3}
S_1_2_3 = 0.09589402415059364  # ln 2 - (1/3) ln 6
ALPHA_HAT_1_2_3 = 5.3752094836907574


def oracle_shape(s):
    """Independent root of ln(a) - digamma(a) = s: 200 bisection steps in
    log space with scipy's digamma, which pins the root to adjacent doubles."""
    u_lo, u_hi = math.log(1e-12), math.log(1e12)
    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        a = math.exp(u_mid)
        if math.log(a) - sps.digamma(a) - s > 0.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
    return math.exp(0.5 * (u_lo + u_hi))


@pytest.mark.parametrize(
    "make_sample, expected",
    [
        (lambda: Sample([1.0, 3.0]), MleResult(3.6343027805778383, 1.8171513902889191, 4, 0.0)),
        (
            pinned_gamma_sample,
            MleResult(1.501603559782865, 0.9993378302800291, 4, 1.6653345369377348e-16),
        ),
    ],
)
def test_fit_shape_pinned(make_sample, expected):
    assert fit_shape(make_sample()) == expected


def test_log_moment_gap_frozen_example():
    sample = Sample([1.0, 2.0, 3.0])
    assert log_moment_gap(sample) == pytest.approx(S_1_2_3, abs=1e-12)
    assert log_moment_gap(sample) == theil_l_hat(sample)


def test_fit_frozen_example():
    result = fit_shape(Sample([1.0, 2.0, 3.0]))
    assert result.alpha_hat == pytest.approx(ALPHA_HAT_1_2_3, rel=1e-8)
    assert result.residual <= 1e-10
    assert 0 < result.iterations <= 100
    assert result.rate_hat == result.alpha_hat / 2.0


def test_fit_residual_definition():
    sample = Sample([0.2, 1.0, 1.0, 4.5, 9.0])
    result = fit_shape(sample)
    s = log_moment_gap(sample)
    recomputed = abs(math.log(result.alpha_hat) - sps.digamma(result.alpha_hat) - s)
    assert recomputed <= 1e-10


def test_fit_matches_bisection_oracle():
    rng = np.random.default_rng(20260825)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 400))
        true_shape = 10.0 ** rng.uniform(-1.0, 2.0)
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        xs = rng.gamma(true_shape, size=n) * scale
        if xs.min() <= 0.0:
            continue
        sample = Sample(xs)
        s = log_moment_gap(sample)
        if s < 1e-10:
            continue
        result = fit_shape(sample)
        assert result.alpha_hat == pytest.approx(oracle_shape(s), rel=1e-8)
        assert result.residual <= 1e-10
        checked += 1


def test_fit_converges_fully_against_brentq():
    # samples drawn as in acceptance criterion 5; the oracle root comes from
    # brentq at its tightest relative tolerance on a 30-digit score
    def score(a, s):
        with mpmath.workdps(30):
            return float(mpmath.log(a) - mpmath.digamma(a) - mpmath.mpf(s))

    rng = np.random.default_rng(5150)
    fits = []
    while len(fits) < 200:
        n = int(rng.integers(2, 300))
        shape = 10.0 ** rng.uniform(-1.0, 2.0)
        xs = rng.gamma(shape, size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if xs.min() <= 0.0:
            continue
        sample = Sample(xs)
        s = log_moment_gap(sample)
        if s < 1e-10:
            continue
        fits.append((s, fit_shape(sample).alpha_hat))
    # plus gaps across the whole reachable range (see the test below)
    gaps = np.logspace(-12.0, math.log10(2000.0), 24)
    alpha, _, _, failures = _fit_shapes(gaps, 10)
    assert not failures
    fits.extend(zip(gaps.tolist(), alpha.tolist()))
    for s, got in fits:
        want = optimize.brentq(score, 1e-12, 1e12, args=(s,), xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), s


def test_newton_fits_every_reachable_gap():
    # A sample's gap is at most ln(max/min): a sample that passes the row
    # kernel's overflow check has max < 2.6e305 and min >= 5e-324, so s < 1448.
    gaps = np.logspace(-12.0, math.log10(2000.0), 100_000)
    alpha, residual, iterations, failures = _fit_shapes(gaps, 10)
    assert not failures
    assert np.isfinite(alpha).all() and (alpha > 0.0).all()
    assert residual.max() <= 1e-10
    assert iterations.max() <= _MAX_NEWTON
    extreme = Sample([5e-324] * 1000 + [2.5e305])
    assert log_moment_gap(extreme) > 1439.0
    assert fit_shape(extreme).residual <= 1e-10


def test_unconverged_fit_holds_nan_and_no_convergence_error():
    # far beyond any reachable gap one ulp of s exceeds the 1e-10 residual
    # tolerance, so Newton runs out of steps; the Monte Carlo engine masks
    # such rows by their NaN alpha
    alpha, residual, iterations, failures = _fit_shapes(np.array([0.5, 1e8]), 10)
    assert np.isfinite(alpha[0]) and residual[0] <= 1e-10
    assert np.isnan(alpha[1]) and np.isnan(residual[1])
    assert list(failures) == [1]
    assert isinstance(failures[1], NoConvergenceError)


@pytest.mark.parametrize(
    "xs",
    [
        [5.0, 5.0, 5.0],
        [3.25],
        [1.0, 1.0 + 1e-7],
    ],
)
def test_fit_degenerate_samples_raise(xs):
    with pytest.raises(DegenerateSampleError):
        fit_shape(Sample(xs))


def test_fit_extreme_dispersion():
    wide = fit_shape(Sample([1e-8, 1e8]))
    narrow = fit_shape(Sample([1.0, 1.01]))
    assert 0.0 < wide.alpha_hat < 0.1
    assert narrow.alpha_hat > 1e4
    assert wide.residual <= 1e-10
    assert narrow.residual <= 1e-10


def test_fitted_shape_decreases_with_dispersion():
    previous = math.inf
    for c in (1.5, 2.0, 3.0, 6.0, 20.0):
        alpha_hat = fit_shape(Sample([1.0, c])).alpha_hat
        assert alpha_hat < previous
        previous = alpha_hat


def test_fit_scale_invariance():
    base = fit_shape(Sample([1.0, 2.0, 3.0]))
    for c in (1e-6, 3.7, 1e6):
        scaled = fit_shape(Sample([c, 2.0 * c, 3.0 * c]))
        assert scaled.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-10)
        assert scaled.rate_hat == pytest.approx(base.rate_hat / c, rel=1e-10)


def test_fit_consistency_large_sample():
    sample = sample_gamma(GammaParams(2.0), 100_000, derive_stream(55, 0, 0, 0))
    result = fit_shape(sample)
    assert 1.95 <= result.alpha_hat <= 2.05
    assert result.residual <= 1e-10
