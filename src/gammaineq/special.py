"""Gamma-family special functions: log-gamma, digamma, trigamma, and the
scaled log-gamma ratio n*(ln Gamma(a + 1/n) - ln Gamma(a)), kept as its gap
to ln a, which every Atkinson closed form uses.

Each function has one array kernel (a leading underscore, no validation,
any strictly positive finite float or ndarray argument; digamma's is
_ln_minus_digamma, L(x) = ln x - psi(x)) shared by the
batched Monte Carlo engine and by the public scalar function, which
validates its argument and returns a float. There is no reflection
handling because no caller needs it.
"""

import math
import numbers
import operator

import numpy as np

from .exceptions import DomainError

# Lanczos approximation, g = 7, 9-term coefficient set.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_2k / (2k) for k = 1..7: the asymptotic series of ln x - psi(x).
_BERNOULLI_OVER_2K = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# Arguments at or above this are handled by the asymptotic series directly;
# smaller ones are shifted up by the recurrence first.
_ASYMPTOTIC_CUTOFF = 12.0

# Quadrature nodes sit at mid +/- (h/2)*sqrt(3/5) for Gauss-Legendre order 3.
_GL3_OFFSET = math.sqrt(0.6)


def _check_positive(x, name):
    """x as a strictly positive finite float. Accepts any numbers.Real
    (numpy scalars included) or operator.index-able value, but not bool."""
    if not isinstance(x, (bool, numbers.Real)):
        try:
            x = operator.index(x)
        except TypeError:
            pass
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be strictly positive and finite, got {x!r}")
    return x


def _check_index(value, name):
    """value as a Python int >= 0. Accepts any operator.index-able value
    (numpy integers included) except bool."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    return value


def _check_count(n, name):
    """n as a Python int >= 1, on the terms of _check_index."""
    n = _check_index(n, name)
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")
    return n


def _lanczos_ln_gamma(x):
    # valid and accurate for x >= 0.5
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, 9):
        acc = acc + _LANCZOS_COEFFS[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (x - 0.5) * np.log(t) - t + np.log(acc)


def _ln_gamma(x):
    # below 0.5 the Lanczos rational part degrades; one recurrence step
    # keeps full accuracy down to denormal arguments (the boolean mask
    # multiplies as 0/1, which keeps a scalar argument scalar)
    small = x < 0.5
    return _lanczos_ln_gamma(x + small) - small * np.log(x)


def ln_gamma(x):
    """Natural log of the gamma function for x > 0.

    Accuracy (measured against 50-digit arithmetic): absolute error below
    ~2e-13 for x <= 100, relative error ~1e-14 for large x.
    """
    return float(_ln_gamma(_check_positive(x, "x")))


def _ln_minus_digamma_series(x):
    # ln x - psi(x) = 1/(2x) + sum_k B_2k / (2k x^2k); accurate for x >= 12,
    # where the truncation error is ~3e-18. Plain arithmetic, so it serves
    # floats and arrays alike.
    inv = 1.0 / x
    t = inv * inv
    acc = 0.0
    for coeff in reversed(_BERNOULLI_OVER_2K):
        acc = coeff + t * acc
    return 0.5 * inv + t * acc


def _trigamma_series(x):
    # psi'(x) = 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) for k = 1..5, with
    # B_2k = 2k * (B_2k / 2k) taken exactly from the table; accurate for x >= 12
    inv = 1.0 / x
    t = inv * inv
    acc = 0.0
    for k in range(5, 0, -1):
        acc = 2 * k * _BERNOULLI_OVER_2K[k - 1] + t * acc
    return inv + 0.5 * t + inv * t * acc


def _recurrence_steps(x):
    # unit steps that carry x up to the asymptotic cutoff (none at or above it)
    return np.ceil(np.maximum(_ASYMPTOTIC_CUTOFF - x, 0.0))


def _shifted(x, steps, series, term):
    """series(x + k) + sum_{j<k} term(x + j) with k = steps, elementwise;
    the shift terms are added smallest first. Boolean masks multiply as
    0/1, which keeps a scalar argument scalar."""
    value = series(x + steps)
    for j in range(int(np.max(steps, initial=0.0)) - 1, -1, -1):
        value = value + (j < steps) * term(x + j)
    return value


def _log1p_ratio(k, x):
    # ln(1 + k/x) for k >= 0 and x > 0 as log1p(k/x), except where k/x
    # overflows (x below ~1e-307), which takes ln(x + k) - ln x instead
    with np.errstate(over="ignore"):
        ratio = k / x
    value = np.log1p(ratio)
    overflowed = np.isinf(ratio)
    if overflowed.any():
        value = np.where(overflowed, np.log(x + k) - np.log(x), value)
    return value


def _ln_minus_digamma(x):
    # ln x - psi(x) = [ln - psi](x + k) + sum_{j<k} 1/(x + j) - log1p(k/x):
    # the recurrence applied to the difference itself, so no two O(ln x)
    # terms are ever subtracted. Below x ~ 5.6e-309, where 1/x overflows,
    # so does L(x) ~ 1/x: the result is inf.
    steps = _recurrence_steps(x)
    with np.errstate(over="ignore"):
        shifted = _shifted(x, steps, _ln_minus_digamma_series, lambda y: 1.0 / y)
    return shifted - _log1p_ratio(steps, x)


def digamma(x):
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Evaluated as ln x - (ln x - psi(x)), the difference carried up with
    psi(x) = psi(x+1) - 1/x until its asymptotic series applies. The error
    is below 1e-13, absolute or relative whichever is looser, on [1e-3, 1e8].
    """
    x = _check_positive(x, "x")
    return float(np.log(x) - _ln_minus_digamma(x))


def _trigamma(x):
    # psi'(x) = psi'(x+1) + 1/x^2, shifted up to the asymptotic series
    return _shifted(x, _recurrence_steps(x), _trigamma_series, lambda y: 1.0 / (y * y))


def trigamma(x):
    """Trigamma function psi'(x) for x > 0.

    Same shift-then-series strategy as digamma, using
    psi'(x) = psi'(x+1) + 1/x^2. Relative error below 1e-13.
    """
    return float(_trigamma(_check_positive(x, "x")))


def _log_gamma_ratio_gap(alpha, n):
    # G = n (ln Gamma(alpha + 1/n) - ln Gamma(alpha)) - ln alpha; the
    # quadrature takes psi(t) - ln alpha as log1p((t - alpha)/alpha) - L(t)
    # at t = alpha + d, so nothing close to ln alpha is ever subtracted
    h = 1.0 / n
    # the direct difference is discarded where n * alpha >= 64, and from
    # alpha ~ 1e306 its ln Gamma overflows there
    with np.errstate(over="ignore", invalid="ignore"):
        direct = n * (_ln_gamma(alpha + h) - _ln_gamma(alpha)) - np.log(alpha)
    off = 0.5 * h * _GL3_OFFSET
    quadrature = sum(
        weight * (_log1p_ratio(d, alpha) - _ln_minus_digamma(alpha + d))
        for weight, d in ((5.0, 0.5 * h - off), (8.0, 0.5 * h), (5.0, 0.5 * h + off))
    ) / 18.0
    return np.where(n * alpha < 64.0, direct, quadrature)


def log_gamma_ratio_scaled(alpha, n):
    """n * (ln_gamma(alpha + 1/n) - ln_gamma(alpha)), the log of the n-th
    power of the gamma ratio Gamma(alpha + 1/n)/Gamma(alpha).

    Evaluated as G + ln(alpha), G the Atkinson log-gap. The direct
    difference amplifies log-gamma rounding by a factor of n, so once
    n*alpha >= 64, G is n * integral of psi(t) - ln(alpha) over
    [alpha, alpha + 1/n] by a 3-node Gauss-Legendre rule, whose truncation
    error falls off as (n*alpha)^-6. Measured relative error stays below
    5e-13 for alpha in [1e-3, 1e8], n up to 1e9.

    By convexity of ln Gamma the result is always >= digamma(alpha).
    """
    alpha = _check_positive(alpha, "alpha")
    n = _check_count(n, "n")
    return float(_log_gamma_ratio_gap(alpha, n) + math.log(alpha))
