"""Maximum-likelihood fit of the gamma shape parameter.

The score equation reduces to ln(alpha) - psi(alpha) = s where s is the
log-moment gap ln(mean) - mean(log). The left side is strictly decreasing
from +inf to 0, so the root is unique for any s > 0.

One fit function works on an array of gaps at once. A sample's gap is its
Theil L estimate, which the row kernel (estimators._row_estimates) computes
in the same pass as the sample's mean; the Monte Carlo engine fits a whole
block of replications, fit_shape and estimate_all a single sample.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import _sample_estimates, theil_l_hat
from .exceptions import DegenerateSampleError, NoConvergenceError
from .special import _ln_minus_digamma, _trigamma

_RESIDUAL_TOL = 1e-10
# Once the residual is within tolerance, Newton keeps stepping until a step
# moves alpha by at most a few ulps, or for at most _MAX_POLISH steps:
# rounding in the score can hold the steps just above _STEP_TOL.
_STEP_TOL = 4.0 * sys.float_info.epsilon
_MAX_POLISH = 4
_DEGENERATE_S = 1e-12
_MAX_ITERATIONS = 100
_MAX_NEWTON = 24
_MAX_STALLS = 3


@dataclass(frozen=True)
class MleResult:
    alpha_hat: float
    rate_hat: float
    iterations: int
    residual: float


def log_moment_gap(sample):
    """s = ln(mean(x)) - mean(ln x); the sufficient statistic of the shape
    fit. Identical to the Theil L estimate by definition."""
    return theil_l_hat(sample)


def _initial_shape(s):
    # Minka/Thom starting point, within a few percent of the root
    return (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)


def _score(alpha, s):
    return _ln_minus_digamma(alpha) - s


def _bisect(s, start, iterations):
    lo = hi = start
    while _score(lo, s) <= 0.0:
        lo /= 4.0
        if lo < 1e-300:
            raise NoConvergenceError("bracket expansion exhausted below")
    while _score(hi, s) >= 0.0:
        hi *= 4.0
        if hi > 1e300:
            raise NoConvergenceError("bracket expansion exhausted above")
    u_lo, u_hi = math.log(lo), math.log(hi)
    while iterations < _MAX_ITERATIONS:
        iterations += 1
        u_mid = 0.5 * (u_lo + u_hi)
        mid = math.exp(u_mid)
        f = float(_score(mid, s))
        if abs(f) <= _RESIDUAL_TOL:
            return mid, abs(f), iterations
        if f > 0.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
    raise NoConvergenceError(f"no root with residual <= {_RESIDUAL_TOL} after {iterations} iterations")


def _newton(s):
    """Newton iteration on u = ln(alpha) from the Minka starting point, for
    every gap in the 1-D array s at once. Returns alpha, residual and
    iteration arrays and a mask of the converged entries; an entry that
    stalls, leaves the domain or runs out of iterations is not converged
    and holds its last iterate."""
    alpha = _initial_shape(s)
    u = np.log(alpha)
    residual = np.full(s.shape, np.inf)
    iterations = np.zeros(s.shape, dtype=np.int64)
    converged = np.zeros(s.shape, dtype=bool)
    prev_abs_f = np.full(s.shape, np.inf)
    prev_step = np.full(s.shape, np.inf)
    stalls = np.zeros(s.shape, dtype=np.int64)
    polish = np.zeros(s.shape, dtype=np.int64)
    active = np.arange(s.size)
    # a step that overflows or divides by zero is caught by the finiteness test
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iteration in range(_MAX_NEWTON + 1):
            if not active.size:
                break
            a = alpha[active]
            f = _score(a, s[active])
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
            stalls[active] = np.where(~within & (abs_f >= prev_abs_f[active]), stalls[active] + 1, 0)
            prev_abs_f[active] = abs_f
            moving = ~done & can_step & (stalls[active] < _MAX_STALLS)
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
    samples of size n: Newton for all, then bisection on an expanding
    bracket for the entries Newton left unconverged.

    Returns alpha, residual and iteration arrays and a dict that maps the
    index of each entry whose fit failed to its error; failed entries hold
    NaN. An entry is degenerate (DegenerateSampleError) when n < 2 or
    s < 1e-12; otherwise it fails only if bisection does
    (NoConvergenceError).
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
    for i in fit[~converged].tolist():
        try:
            alpha[i], residual[i], iterations[i] = _bisect(
                float(s[i]), float(_initial_shape(s[i])), int(iterations[i])
            )
        except NoConvergenceError as exc:
            alpha[i] = residual[i] = np.nan
            failures[i] = exc
    return alpha, residual, iterations, failures


def fit_shape(sample):
    """Fit the gamma shape by maximum likelihood.

    Newton iteration on ln(alpha) from the Minka starting point, continued
    past residual <= 1e-10 until the step is within 4 ulps (at most 4
    extra steps); falls back to bisection on an expanding bracket if
    Newton stalls or leaves the domain. Raises DegenerateSampleError when
    the sample has no dispersion (n < 2 or all observations equal).
    """
    _, s, _, mean = _sample_estimates(sample)
    alpha, residual, iterations, failures = _fit_shapes(s, sample.n)
    if failures:
        raise failures[0]
    alpha_hat = float(alpha[0])
    return MleResult(
        alpha_hat=alpha_hat,
        rate_hat=alpha_hat / float(mean[0]),
        iterations=int(iterations[0]),
        residual=float(residual[0]),
    )
