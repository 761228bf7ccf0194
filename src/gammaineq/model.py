"""Gamma population model: population index values, finite-sample estimator
expectations and biases in closed form, and a reproducible gamma sampler.

Every closed form depends on the shape parameter only; the rate never enters,
which is the scale invariance all tests lean on.
"""

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .special import (
    _check_count,
    _check_positive,
    _ln_minus_digamma,
    _log1p_ratio,
    _log_gamma_ratio_gap,
)


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization of the gamma distribution (mean = shape/rate)."""

    shape: float
    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_positive(self.shape, "shape"))
        object.__setattr__(self, "rate", _check_positive(self.rate, "rate"))


class IndexKind(enum.Enum):
    THEIL_T = "theil_t"
    THEIL_L = "theil_l"
    ATKINSON = "atkinson"


@dataclass(frozen=True)
class PopulationValues:
    """The three population inequality indices at a fixed shape."""

    theil_t: float
    theil_l: float
    atkinson: float

    def value(self, kind):
        if not isinstance(kind, IndexKind):
            raise DomainError(f"kind must be an IndexKind, got {kind!r}")
        return getattr(self, kind.value)


@dataclass(frozen=True)
class Sample:
    """One-dimensional collection of strictly positive finite observations.

    The array is copied and frozen at construction; invalid entries are
    rejected with the index of the first offender.
    """

    observations: np.ndarray

    def __post_init__(self):
        try:
            obs = np.array(self.observations, dtype=float, copy=True)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"observations must be real numbers: {exc}") from None
        if obs.ndim != 1:
            raise DomainError(f"observations must be one-dimensional, got shape {obs.shape}")
        if obs.size < 1:
            raise DomainError("sample must contain at least one observation")
        bad = ~(np.isfinite(obs) & (obs > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"observation {i} must be strictly positive and finite, got {float(obs[i])!r}"
            )
        obs.flags.writeable = False
        object.__setattr__(self, "observations", obs)

    @classmethod
    def _adopt(cls, observations):
        """A Sample that takes over a float64 1-D array this module made and
        checked itself, frozen in place rather than copied and checked again."""
        observations.flags.writeable = False
        sample = object.__new__(cls)
        object.__setattr__(sample, "observations", observations)
        return sample

    @property
    def n(self):
        return int(self.observations.size)

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self.observations, other.observations)

    def __hash__(self):
        return hash((self.observations.size, self.observations.tobytes()))


def _theil_t(x):
    # psi(x) + 1/x - ln x = psi(x + 1) - ln x = ln(1 + 1/x) - L(x + 1) with
    # L = ln - psi: no two large terms cancel at any shape
    return _log1p_ratio(1.0, x) - _ln_minus_digamma(x + 1.0)


def theil_t_population(params):
    """Population Theil T index: psi(shape) + 1/shape - ln(shape),
    evaluated as ln(1 + 1/shape) - L(shape + 1) with L(x) = ln x - psi(x)."""
    return float(_theil_t(params.shape))


def _finite_ln_minus_digamma(x, name):
    """L(x) = ln x - psi(x) for a float x; DomainError where it exceeds the
    largest double, below x ~ 5.6e-309."""
    value = float(_ln_minus_digamma(x))
    if math.isinf(value):
        raise DomainError(f"ln x - psi(x) overflows float64 at {name} = {x!r}")
    return value


def theil_l_population(params):
    """Population Theil L (mean log deviation) index: ln(shape) - psi(shape);
    DomainError below shape ~ 5.6e-309, where it overflows float64."""
    return _finite_ln_minus_digamma(params.shape, "shape")


def atkinson_population(params):
    """Population Atkinson index (unit inequality aversion):
    1 - exp(psi(shape))/shape, evaluated as -expm1(-theil_l) so the value
    stays inside (0, 1] with full relative accuracy for any shape."""
    return -math.expm1(-float(_ln_minus_digamma(params.shape)))


def population_values(params):
    """All three population indices bundled."""
    return PopulationValues(
        theil_t=theil_t_population(params),
        theil_l=theil_l_population(params),
        atkinson=atkinson_population(params),
    )


def _scaled_shape(params, n):
    """n * shape for a count n; DomainError when it overflows float64."""
    n = _check_count(n, "n")
    if n > sys.float_info.max or math.isinf(x := n * params.shape):
        raise DomainError(f"n * shape = {n} * {params.shape!r} overflows float64")
    return x


def expected_theil_t(params, n):
    """Exact mean of the Theil T estimator over samples of size n:
    psi(a) + 1/a + ln n - 1/(na) - psi(na), evaluated as the population
    value plus the bias, theil_t(a) - theil_t(na), which is exactly 0 at
    n = 1."""
    return theil_t_population(params) + bias_theil_t(params, n)


def expected_theil_l(params, n):
    """Exact mean of the Theil L estimator over samples of size n:
    psi(na) - ln n - psi(a), evaluated as the population value plus the
    bias, L(a) - L(na), which is exactly 0 at n = 1.

    Below a ~ 5.6e-309, where L(a) ~ 1/a overflows, the 1/a terms are taken
    out analytically: the Theil L and Theil T expectations sum to exactly
    (1 - 1/n)/a, so the value is that minus expected_theil_t. DomainError
    only where the value itself exceeds the largest double."""
    if math.isfinite(population := float(_ln_minus_digamma(params.shape))):
        return population + bias_theil_l(params, n)
    # expected_theil_t also refuses a count n beyond the largest double
    mean_theil_t = expected_theil_t(params, n)
    value = (1.0 - 1.0 / _check_count(n, "n")) / params.shape - mean_theil_t
    if math.isinf(value):
        raise DomainError(
            f"the mean Theil L estimate for n = {n} overflows float64 at shape = {params.shape!r}"
        )
    return value


def expected_atkinson(params, n):
    """Exact mean of the Atkinson estimator over samples of size n:
    1 - Gamma(a + 1/n)^n / (a * Gamma(a)^n) = -expm1(G), clamped at 0, with
    the log-gap G = n (ln Gamma(a + 1/n) - ln Gamma(a)) - ln a."""
    gap = float(_log_gamma_ratio_gap(params.shape, _check_count(n, "n")))
    return max(0.0, -math.expm1(gap))


# The bias kernels below take a shape as a float or an array, so the Monte
# Carlo engine evaluates them on a whole block of fitted shapes at once.


def _bias_theil_t(shape, n):
    return -_theil_t(n * shape)


def bias_theil_t(params, n):
    """Closed-form bias of the Theil T estimator: minus the population Theil T
    at shape na. Strictly negative; vanishes as na grows; na must be finite."""
    return float(-_theil_t(_scaled_shape(params, n)))


def _bias_theil_l(shape, n):
    return -_ln_minus_digamma(n * shape)


def bias_theil_l(params, n):
    """Closed-form bias of the Theil L estimator: psi(na) - ln(na), finite na.
    Strictly negative; equals -bias_theil_t - 1/(na)."""
    return -_finite_ln_minus_digamma(_scaled_shape(params, n), "n * shape")


def _bias_atkinson(shape, n):
    gap = _log_gamma_ratio_gap(shape, n)
    return np.exp(gap) * np.expm1(np.minimum(-_ln_minus_digamma(shape) - gap, 0.0))


def bias_atkinson(params, n):
    """Closed-form bias of the Atkinson estimator:
    (exp(psi(a)) - Gamma(a + 1/n)^n / Gamma(a)^n) / a.

    Evaluated as exp(G) * expm1(-L(a) - G), with G the log-gap of
    expected_atkinson and L(a) = ln a - psi(a). Both factors are bounded
    (the first lies in (0, 1], the second in (-1, 0]), so no intermediate
    can overflow even at tiny shapes where -L(a) - G is hugely negative.
    The exponent of the second factor is clamped at zero: convexity of
    ln Gamma makes G >= -L(a), and the clamp keeps the nonpositive sign
    from flipping within rounding noise.

    G tends to -L(a) as n grows, so -L(a) - G cancels: the relative error
    grows like n * eps, within 6e-10 at n = 1e6 and 1e-6 at n = 1e9 against
    mpmath (5.2e-4 at a = 1, n = 1e12). From about n = 1e16 no digit is
    right: -5.3e-19 at a = 0.1, n = 1e20, where the bias is -1.5e-22.
    """
    return float(_bias_atkinson(params.shape, _check_count(n, "n")))


def _marsaglia_tsang_round(stream, d, c, size):
    """One vectorized Marsaglia-Tsang round of `size` candidates: returns
    the candidates d*v and which of them are accepted.

    The squeeze squares x*x rather than computing x**4: numpy's float64
    `power` takes a slow path on a negative base, and squaring keeps the
    accept decision independent of how `power` is dispatched. Squaring can
    change the last bit of the threshold, which flips a decision only when
    u falls between two adjacent doubles (none in 1e8 draws). The cube
    that forms v keeps `**` because v is the output, and y*y*y rounds
    differently.

    The log test runs only on the draws with v > 0 that the squeeze
    rejected (8% at shape 1.5); a log of a subset has the same bits as the
    same elements of a log over the whole array.

    The full-size arithmetic works in place on three buffers (v, x and the
    threshold t), with the same IEEE operations on the same operands as
    the plain expressions, so the bits are theirs.
    """
    x = stream.standard_normal(size)
    u = stream.random(size)
    v = np.multiply(x, c)
    v += 1.0
    v **= 3
    ok = v > 0.0
    # x holds x*x from here on; t is the squeeze threshold 1 - 0.0331*x**4
    np.multiply(x, x, out=x)
    t = x * x
    t *= 0.0331
    np.subtract(1.0, t, out=t)
    accept = np.less(u, t)
    accept &= ok
    slow = np.flatnonzero(ok & ~accept)
    v_slow = v[slow]
    accept[slow] = np.log(np.maximum(u[slow], 5e-324)) < 0.5 * x[slow] + d * (
        1.0 - v_slow + np.log(v_slow)
    )
    v *= d
    return v, accept


def _gamma_variates_ge1(stream, shape, count):
    # Marsaglia-Tsang squeeze method, valid for shape >= 1; rejection
    # rounds are vectorized and consume the stream deterministically
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out, accept = _marsaglia_tsang_round(stream, d, c, count)
    pending = np.flatnonzero(~accept)
    while pending.size:
        candidates, accept = _marsaglia_tsang_round(stream, d, c, pending.size)
        out[pending[accept]] = candidates[accept]
        pending = pending[~accept]
    return out


def _gamma_variates(stream, shape, count):
    if shape >= 1.0:
        return _gamma_variates_ge1(stream, shape, count)
    # boost trick for shape < 1: Gamma(shape) = Gamma(shape + 1) * U^(1/shape);
    # 1 - random() keeps U in (0, 1] so the power cannot hit log(0)
    y = _gamma_variates_ge1(stream, shape + 1.0, count)
    u = stream.random(count)
    np.subtract(1.0, u, out=u)
    u **= 1.0 / shape
    u *= y
    return u


def _scaled_variates(stream, params, count):
    draws = _gamma_variates(stream, params.shape, count)
    # an overflow is caught below, by the finiteness test
    with np.errstate(over="ignore"):
        draws /= params.rate
    if not np.isfinite(draws).all():
        raise DomainError(
            f"a gamma draw overflows float64 at shape = {params.shape:g}, rate = {params.rate:g}"
        )
    return draws


def sample_gamma(params, count, stream):
    """Draw `count` i.i.d. Gamma(shape, rate) observations from `stream`.

    Deterministic given the stream state. Draws that underflow to zero
    (possible only for extreme parameters) are redrawn, so the returned
    Sample is always valid. A draw that overflows float64 raises
    DomainError: redrawing it would condition the sample.
    """
    _check_count(count, "count")
    if not isinstance(stream, np.random.Generator):
        raise DomainError(f"stream must be a numpy Generator, got {type(stream).__name__}")
    draws = _scaled_variates(stream, params, count)
    zero = draws == 0.0
    while zero.any():
        draws[zero] = _scaled_variates(stream, params, int(zero.sum()))
        zero = draws == 0.0
    return Sample._adopt(draws)
