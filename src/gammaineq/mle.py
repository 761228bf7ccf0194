"""Maximum-likelihood fit of the gamma shape parameter, and the one
estimate -> fit -> correct pass (_estimate_rows) behind every corrected
estimate.

The score equation reduces to ln(alpha) - psi(alpha) = s where s is the
log-moment gap ln(mean) - mean(log). The left side is strictly decreasing
from +inf to 0, so the root is unique for any s > 0.

The pass works on a 2-D array of samples, one per row: the row kernel gives
the three index estimates and the mean, the fit runs on the Theil L
estimate, which is the log-moment gap, and the closed-form biases at the
fitted shapes are subtracted. The Monte Carlo engine runs it on a block of
replications, fit_shape and estimate_all on one row.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSampleError, DomainError, NoConvergenceError
from .model import Sample, _bias_atkinson, _bias_theil_l, _bias_theil_t
from .special import _ln_minus_digamma, _trigamma

_RESIDUAL_TOL = 1e-10
# Once the residual is within tolerance, Newton keeps stepping until a step
# moves alpha by at most a few ulps, or for at most _MAX_POLISH steps:
# rounding in the score can hold the steps just above _STEP_TOL.
_STEP_TOL = 4.0 * sys.float_info.epsilon
_MAX_POLISH = 4
_DEGENERATE_S = 1e-12
_MAX_NEWTON = 24


@dataclass(frozen=True)
class MleResult:
    alpha_hat: float
    rate_hat: float
    iterations: int
    residual: float


def _sample_rows(sample):
    """The observations of one Sample as a 2-D array of one row."""
    if not isinstance(sample, Sample):
        raise DomainError(f"expected a Sample, got {type(sample).__name__}")
    return sample.observations[np.newaxis]


def _row_estimates(x):
    """Theil T, Theil L and Atkinson estimates and the mean of every row of
    the 2-D array x, one sample per row, as four arrays.

    Each row is sorted and accumulated in that fixed order, so a row's
    values do not depend on the order of its observations. Raises
    DomainError when a row with spread has a sum of x or of x*ln(x) beyond
    the float64 range.
    """
    x = np.sort(x, axis=1)
    n = x.shape[1]
    logs = np.log(x)
    spread = x[:, 0] != x[:, -1]
    # an overflowed sum is checked below; for equal rows it is harmless
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
    # exact zeros for equal rows; elsewhere clamp rounding below zero
    tt = np.where(spread, np.maximum(tt, 0.0), 0.0)
    tl = np.where(spread, np.maximum(tl, 0.0), 0.0)
    return tt, tl, -np.expm1(-tl), mean


def log_moment_gap(sample):
    """s = ln(mean(x)) - mean(ln x); the sufficient statistic of the shape
    fit. Identical to the Theil L estimate by definition."""
    return float(_row_estimates(_sample_rows(sample))[1][0])


def _initial_shape(s):
    # Minka/Thom starting point, within a few percent of the root
    return (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)


def _newton(s):
    """Newton iteration on u = ln(alpha) from the Minka starting point, for
    every gap in the 1-D array s at once. Returns alpha, residual and
    iteration arrays and a mask of the converged entries; an entry that
    leaves the domain or runs out of iterations is not converged."""
    alpha = _initial_shape(s)
    u = np.log(alpha)
    residual = np.full(s.shape, np.inf)
    iterations = np.zeros(s.shape, dtype=np.int64)
    converged = np.zeros(s.shape, dtype=bool)
    prev_step = np.full(s.shape, np.inf)
    polish = np.zeros(s.shape, dtype=np.int64)
    active = np.arange(s.size)
    # a step that overflows or divides by zero is caught by the finiteness test
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(_MAX_NEWTON + 1):
            if not active.size:
                break
            a = alpha[active]
            f = _ln_minus_digamma(a) - s[active]
            abs_f = np.abs(f)
            residual[active] = abs_f
            step = -f / (a * (1.0 / a - _trigamma(a)))
            u_next = u[active] + step
            can_step = np.isfinite(step) & (-700.0 < u_next) & (u_next < 700.0)
            can_step &= iteration < _MAX_NEWTON
            within = abs_f <= _RESIDUAL_TOL
            done = within & (
                (np.abs(prev_step[active]) <= _STEP_TOL)
                | (polish[active] >= _MAX_POLISH)
                | ~can_step
            )
            converged[active[done]] = True
            moving = ~done & can_step
            going = active[moving]
            iterations[going] += 1
            u[going] = u_next[moving]
            alpha[going] = np.exp(u_next[moving])
            prev_step[going] = step[moving]
            polish[going] += within[moving]
            active = going
    return alpha, residual, iterations, converged


def _fit_shapes(s, n):
    """Maximum-likelihood shapes for the 1-D array s of log-moment gaps of
    samples of size n, all fitted by one vectorised Newton iteration.

    Returns alpha, residual and iteration arrays and a dict that maps the
    index of each entry whose fit failed to its error; failed entries hold
    NaN. An entry is degenerate (DegenerateSampleError) when n < 2 or
    s < 1e-12; otherwise it fails (NoConvergenceError) only if Newton does
    not converge, which no gap of a finite positive sample (s < 1448)
    reaches.
    """
    alpha = np.full(s.shape, np.nan)
    residual = np.full(s.shape, np.nan)
    iterations = np.zeros(s.shape, dtype=np.int64)
    degenerate = (s < _DEGENERATE_S) | (n < 2)
    failures = {}
    if degenerate.any():
        exc = DegenerateSampleError(
            "shape fit needs at least two observations"
            if n < 2
            else "all observations are (numerically) equal; the fitted shape diverges"
        )
        failures = dict.fromkeys(np.flatnonzero(degenerate).tolist(), exc)
    fit = np.flatnonzero(~degenerate)
    alpha[fit], residual[fit], iterations[fit], converged = _newton(s[fit])
    unconverged = fit[~converged]
    if unconverged.size:
        alpha[unconverged] = residual[unconverged] = np.nan
        exc = NoConvergenceError(
            f"Newton found no root with residual <= {_RESIDUAL_TOL} in {_MAX_NEWTON} steps"
        )
        failures.update(dict.fromkeys(unconverged.tolist(), exc))
    return alpha, residual, iterations, failures


def _bias_corrected(tt, tl, at, alpha, n):
    """The three estimates minus their closed-form biases at the fitted
    shapes alpha, elementwise over arrays of rows of size n. Each
    correction is positive (every bias is negative)."""
    return (
        tt - _bias_theil_t(alpha, n),
        tl - _bias_theil_l(alpha, n),
        at - _bias_atkinson(alpha, n),
    )


def _estimate_rows(x):
    """The estimate -> fit -> correct pass over the 2-D array x, one sample
    per row: the estimates (theil_t, theil_l, atkinson, mean), the fit
    (alpha, residual, iterations, failures) as _fit_shapes gives it, and a
    (3, rows) array of the corrected theil_t, theil_l and atkinson, NaN in
    rows whose fit failed."""
    n = x.shape[1]
    tt, tl, at, mean = _row_estimates(x)
    # the Theil L estimate is the fit's log-moment gap by definition
    fit = _fit_shapes(tl, n)
    ok = ~np.isnan(fit[0])
    corrected = np.full((3, tl.size), np.nan)
    corrected[:, ok] = _bias_corrected(tt[ok], tl[ok], at[ok], fit[0][ok], n)
    return (tt, tl, at, mean), fit, corrected


def fit_shape(sample):
    """Fit the gamma shape by maximum likelihood.

    Newton iteration on ln(alpha) from the Minka starting point, continued
    past residual <= 1e-10 until the step is within 4 ulps (at most 4
    extra steps). Raises DegenerateSampleError when the sample has no
    dispersion (n < 2 or all observations equal).
    """
    estimates, (alpha, residual, iterations, failures), _ = _estimate_rows(_sample_rows(sample))
    if failures:
        raise failures[0]
    alpha_hat = float(alpha[0])
    return MleResult(
        alpha_hat=alpha_hat,
        rate_hat=alpha_hat / float(estimates[3][0]),
        iterations=int(iterations[0]),
        residual=float(residual[0]),
    )
