"""Maximum-likelihood fit of the gamma shape parameter, and the one
estimate -> fit -> correct pass behind every corrected estimate.

The score equation reduces to ln(alpha) - psi(alpha) = s where s is the
log-moment gap ln(mean) - mean(log). The left side is strictly decreasing
from +inf to 0, so the root is unique for any s > 0.

The pass works on a 2-D array of samples, one per row, in two halves: the
row kernel (_row_estimates) gives the three index estimates and the mean;
then _fit_and_correct fits the shape on the Theil L estimate alone, which
is the log-moment gap, and subtracts the closed-form biases at the fitted
shapes and the rows' sample sizes.
estimate_all runs both halves on one row, the second only when asked to
correct; fit_shape runs the row kernel and the fit alone. The Monte Carlo
engine runs the row kernel on each block of replications and, in each
process's run of cells, the second half in chunks of at most 2**16 rows. A
failed fit leaves NaN; _fit_error names the reason for one sample.
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
    values do not depend on the order of its observations. The indices are
    scale-invariant: a row whose largest value lies outside a window of
    exponents is summed at 2**-e, an exact rescale that brings it inside,
    where the sums of x and of x*ln(x) are finite and the mean is a normal
    double; ln(2**e) is added back to each log of a sum, and the mean is
    scaled back. e is 0 for every other row. So any finite positive
    values, subnormal to the largest double, give finite estimates.
    """
    x = np.sort(x, axis=1)
    n = x.shape[1]
    logs = np.log(x)
    spread = x[:, 0] != x[:, -1]
    # |ln x| < 2**10 and n < 2**n.bit_length(): inside the window, the sums
    # of x and of x*ln(x) stay below 2**1024 and the mean above 2**-970
    top = np.frexp(x[:, -1])[1]
    e = top - np.clip(top, n.bit_length() - 969, 1014 - n.bit_length())
    big = np.flatnonzero(e)
    # the logs keep the unscaled values
    x[big] = np.ldexp(x[big], -e[big, np.newaxis])
    shift = e * math.log(2.0)
    total = x.sum(axis=1)
    log_total = logs.sum(axis=1)
    # the logs are summed before x*ln(x) overwrites them
    weighted = np.multiply(x, logs, out=logs).sum(axis=1)
    tt = weighted / total - (np.log(total) + shift) + math.log(n)
    tl = (np.log(total / n) + shift) - log_total / n
    # exact zeros for equal rows; elsewhere clamp rounding below zero
    tt = np.where(spread, np.maximum(tt, 0.0), 0.0)
    tl = np.where(spread, np.maximum(tl, 0.0), 0.0)
    return tt, tl, -np.expm1(-tl), np.ldexp(total / n, e)


def log_moment_gap(sample):
    """s = ln(mean(x)) - mean(ln x); the sufficient statistic of the shape
    fit. Identical to the Theil L estimate by definition."""
    return float(_row_estimates(_sample_rows(sample))[1][0])


def _initial_shape(s):
    # Minka/Thom starting point, within a few percent of the root
    return (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)


def _fit_shapes(s):
    """Maximum-likelihood shapes for the 1-D array s of log-moment gaps, all
    fitted at once by Newton iteration on u = ln(alpha) from the Minka
    starting point.

    Returns alpha, residual and iteration arrays; alpha and residual hold
    NaN where the fit failed, and _fit_error names the reason. An entry with
    s < 1e-12 is degenerate and never iterated; that includes every sample
    of one observation, whose gap the row kernel sets to exactly 0. Any
    other fails only if Newton leaves the domain or runs out of iterations,
    which no gap of a finite positive sample (s < ln(1.8e308 / 4.9e-324),
    about 1454.2) reaches.
    """
    active = np.flatnonzero(s >= _DEGENERATE_S)
    alpha = np.full(s.shape, np.nan)
    alpha[active] = _initial_shape(s[active])
    u = np.log(alpha)
    residual = np.full(s.shape, np.nan)
    iterations = np.zeros(s.shape, dtype=np.int64)
    prev_step = np.full(s.shape, np.inf)
    polish = np.zeros(s.shape, dtype=np.int64)
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
            moving = ~done & can_step
            failed = active[~(done | moving)]
            alpha[failed] = residual[failed] = np.nan
            going = active[moving]
            iterations[going] += 1
            u[going] = u_next[moving]
            alpha[going] = np.exp(u_next[moving])
            prev_step[going] = step[moving]
            polish[going] += within[moving]
            active = going
    return alpha, residual, iterations


def _fit_error(n, s):
    """The error of the failed fit of one sample of size n and log-moment
    gap s, as _fit_shapes left it NaN."""
    if n < 2:
        return DegenerateSampleError("shape fit needs at least two observations")
    if s < _DEGENERATE_S:
        return DegenerateSampleError(
            "all observations are (numerically) equal; the fitted shape diverges"
        )
    return NoConvergenceError(
        f"Newton found no root with residual <= {_RESIDUAL_TOL} in {_MAX_NEWTON} steps"
    )


def _bias_corrected(tt, tl, at, alpha, n):
    """The three estimates minus their closed-form biases at the fitted
    shapes alpha, elementwise over arrays of rows of size n. Each
    correction is positive (every bias is negative)."""
    return (
        tt - _bias_theil_t(alpha, n),
        tl - _bias_theil_l(alpha, n),
        at - _bias_atkinson(alpha, n),
    )


def _fit_and_correct(tt, tl, at, n):
    """The fit -> correct half of the pass, over 1-D arrays of the row
    kernel's Theil T, Theil L and Atkinson estimates of samples of size n
    (an int, or an array with one size per row): the fitted shapes, NaN
    where the fit failed, and a (3, rows) array of the corrected theil_t,
    theil_l and atkinson, NaN in those same rows. Every row is fitted and
    corrected on its own, so a row's values do not depend on the other rows
    it is passed with."""
    # the Theil L estimate is the fit's log-moment gap by definition
    alpha = _fit_shapes(tl)[0]
    ok = ~np.isnan(alpha)
    corrected = np.full((3, tl.size), np.nan)
    n = np.broadcast_to(n, tl.shape)
    corrected[:, ok] = _bias_corrected(tt[ok], tl[ok], at[ok], alpha[ok], n[ok])
    return alpha, corrected


def fit_shape(sample):
    """Fit the gamma shape by maximum likelihood.

    Newton iteration on ln(alpha) from the Minka starting point, continued
    past residual <= 1e-10 until the step is within 4 ulps (at most 4
    extra steps). Raises DegenerateSampleError when the sample has no
    dispersion (n < 2 or all observations equal).
    """
    _, tl, _, mean = _row_estimates(_sample_rows(sample))
    # the Theil L estimate is the fit's log-moment gap by definition
    alpha, residual, iterations = _fit_shapes(tl)
    if np.isnan(alpha[0]):
        raise _fit_error(sample.n, tl[0])
    alpha_hat = float(alpha[0])
    return MleResult(
        alpha_hat=alpha_hat,
        rate_hat=alpha_hat / float(mean[0]),
        iterations=int(iterations[0]),
        residual=float(residual[0]),
    )
