"""Gamma shape fitting: frozen examples, an independent bisection oracle
built on scipy's digamma, a brentq oracle on a 30-digit score for full
convergence, degeneracy handling, invariances, and the batched fit and
correction that give every row the same bits in any batch."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize
from scipy import special as sps

from conftest import numpy_build_note, pinned_gamma_sample
from gammaineq import (
    DegenerateSampleError,
    DomainError,
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
from gammaineq.mle import _MAX_NEWTON, _fit_and_correct, _fit_error, _fit_shapes, _row_estimates

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
    assert fit_shape(make_sample()) == expected, numpy_build_note()


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
    alpha = _fit_shapes(gaps, 10)[0]
    assert not np.isnan(alpha).any()
    fits.extend(zip(gaps.tolist(), alpha.tolist()))
    for s, got in fits:
        want = optimize.brentq(score, 1e-12, 1e12, args=(s,), xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), s


def test_newton_fits_every_reachable_gap():
    # A sample's gap is at most ln(max/min): a sample that passes the row
    # kernel's overflow check has max < 2.6e305 and min >= 5e-324, so s < 1448.
    gaps = np.logspace(-12.0, math.log10(2000.0), 100_000)
    alpha, residual, iterations = _fit_shapes(gaps, 10)
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
    alpha, residual, iterations = _fit_shapes(np.array([0.5, 1e8]), 10)
    assert np.isfinite(alpha[0]) and residual[0] <= 1e-10
    assert np.isnan(alpha[1]) and np.isnan(residual[1])
    assert iterations[1] == _MAX_NEWTON
    exc = _fit_error(10, 1e8)
    assert (type(exc), str(exc)) == (
        NoConvergenceError,
        "Newton found no root with residual <= 1e-10 in 24 steps",
    )


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


def same_bits(a, b):
    """a and b hold NaN in the same places and the same bits elsewhere."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(
        st.tuples(st.sampled_from((1, 2, 10, 200)), st.booleans()), min_size=1, max_size=30
    ),
    cuts=st.lists(st.integers(0, 30), max_size=4),
)
def test_fit_and_correct_is_the_same_in_any_batch(seed, rows, cuts):
    # the engine fits the rows of a whole grid at once, with one sample size
    # per row; every row must come out as it does on its own
    rng = np.random.default_rng(seed)
    estimates = []
    for n, equal in rows:
        x = np.full(n, 2.5) if equal else rng.gamma(10.0 ** rng.uniform(-1.0, 2.0), size=n) + 1e-300
        estimates.append(_row_estimates(x[np.newaxis])[:3])
    tt, tl, at = (np.concatenate(column) for column in zip(*estimates))
    n = np.array([n for n, _ in rows])
    alpha, corrected = _fit_and_correct(tt, tl, at, n)
    fit_alpha, residual, iterations = _fit_shapes(tl, n)
    assert same_bits(alpha, fit_alpha)

    parts = []
    bounds = [0, *sorted(min(cut, n.size) for cut in cuts), n.size]
    for start, stop in zip(bounds, bounds[1:]):
        part_n = n[start:stop]
        # a set of one sample size goes in with a scalar n, as estimate_all passes it
        if part_n.size and (part_n == part_n[0]).all():
            part_n = int(part_n[0])
        part = slice(start, stop)
        parts.append((part, part_n, _fit_and_correct(tt[part], tl[part], at[part], part_n)))
    assert same_bits(alpha, np.concatenate([part_alpha for _, _, (part_alpha, _) in parts]))
    assert same_bits(corrected, np.concatenate([values for _, _, (_, values) in parts], axis=1))
    fits = [_fit_shapes(tl[part], part_n) for part, part_n, _ in parts]
    assert same_bits(residual, np.concatenate([fit[1] for fit in fits]))
    assert np.array_equal(iterations, np.concatenate([fit[2] for fit in fits]))
    # the failed rows are exactly the degenerate ones: no Newton fit fails
    # on a sample, and a row of one observation fails for that reason alone
    failed = np.flatnonzero(np.isnan(alpha))
    assert failed.tolist() == np.flatnonzero((n < 2) | (tl < 1e-12)).tolist()
    assert np.isnan(corrected[:, failed]).all() and not np.isnan(np.delete(corrected, failed, 1)).any()
    for i in failed:
        exc = _fit_error(int(n[i]), tl[i])
        assert type(exc) is DegenerateSampleError
        assert ("two observations" in str(exc)) == (n[i] < 2)


# the row kernel as it was when every step allocated its own temporary; the
# live kernel, which forms x*ln(x) in the buffer of the logs, must give the
# same bits and leave its input alone
def _reference_row_estimates(x):
    x = np.sort(x, axis=1)
    n = x.shape[1]
    logs = np.log(x)
    spread = x[:, 0] != x[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum(axis=1)
        weighted = (x * logs).sum(axis=1)
        overflow = spread & ~(np.isfinite(total) & np.isfinite(weighted))
        if overflow.any():
            raise DomainError(
                "the sum of x or of x*ln(x) overflows float64 "
                f"(largest observation {x[overflow, -1].max():.6g})"
            )
        mean = total / n
        tt = weighted / total - np.log(total) + math.log(n)
        tl = np.log(mean) - logs.sum(axis=1) / n
    tt = np.where(spread, np.maximum(tt, 0.0), 0.0)
    tl = np.where(spread, np.maximum(tl, 0.0), 0.0)
    return tt, tl, -np.expm1(-tl), mean


def _row_outcome(kernel, x):
    try:
        return [column.view(np.int64).tolist() for column in kernel(x)]
    except DomainError as exc:
        return str(exc)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 300)),
        # ordinary incomes, and anything from the smallest subnormal to the
        # largest double, where the sums overflow
        elements=st.one_of(
            st.floats(1e-3, 1e3),
            st.floats(5e-324, sys.float_info.max, allow_subnormal=True),
        ),
    )
)
def test_row_kernel_bits_match_reference(x):
    before = x.copy()
    x.flags.writeable = False
    assert _row_outcome(_row_estimates, x) == _row_outcome(_reference_row_estimates, before)
    assert np.array_equal(x, before)
