"""Sample estimators of the Theil T, Theil L, and Atkinson indices, plus
their bias-corrected versions.

A corrected estimate is one pass over a 2-D array of samples, one per row:
the row kernel gives the three estimates and the mean, the shape fit
(mle._fit_shapes) runs on the Theil L estimate, which is its log-moment
gap, and _bias_corrected subtracts the three closed-form biases at the
fitted shapes. The Monte Carlo engine runs that pass on a whole block of
replications, the scalar functions here on a single row. The kernel sorts
each row ascending and accumulates in that fixed order, so results are
bit-identical under any permutation of the input.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import CorrectionUnavailableError, DegenerateSampleError, DomainError
from .model import Sample, _bias_atkinson, _bias_theil_l, _bias_theil_t

# Fitted shapes beyond this get a diagnostic note: the sample is so close to
# degenerate that the corrections are numerically zero.
_LARGE_SHAPE_NOTE_CUTOFF = 1e6


@dataclass(frozen=True)
class EstimateReport:
    """Estimates for one sample; corrected fields are present exactly when
    a shape fit succeeded (alpha_hat is not None)."""

    n: int
    theil_t_hat: float
    theil_l_hat: float
    atkinson_hat: float
    alpha_hat: float | None = None
    theil_t_corrected: float | None = None
    theil_l_corrected: float | None = None
    atkinson_corrected: float | None = None
    notes: tuple = field(default_factory=tuple)


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


def _sample_estimates(sample):
    """_row_estimates of one Sample: four arrays of one entry each."""
    if not isinstance(sample, Sample):
        raise DomainError(f"expected a Sample, got {type(sample).__name__}")
    return _row_estimates(sample.observations[np.newaxis])


def _bias_corrected(tt, tl, at, alpha, n):
    """The three estimates minus their closed-form biases at the fitted
    shapes alpha, elementwise over arrays of rows of size n. Each
    correction is positive (every bias is negative)."""
    return (
        tt - _bias_theil_t(alpha, n),
        tl - _bias_theil_l(alpha, n),
        at - _bias_atkinson(alpha, n),
    )


def theil_t_hat(sample):
    """Theil T estimate: sum(x*ln x)/sum(x) - ln(sum(x)) + ln n.

    Nonnegative; exactly zero iff all observations are equal.
    """
    return float(_sample_estimates(sample)[0][0])


def theil_l_hat(sample):
    """Theil L estimate: ln(mean(x)) - mean(ln x).

    Nonnegative; exactly zero iff all observations are equal.
    """
    return float(_sample_estimates(sample)[1][0])


def atkinson_hat(sample):
    """Atkinson estimate: 1 - geometric_mean/arithmetic_mean, evaluated as
    1 - exp(-theil_l_hat) so it stays in [0, 1)."""
    return float(_sample_estimates(sample)[2][0])


def estimate_all(sample, apply_correction=False):
    """Compute the full report for one sample.

    With apply_correction, the gamma shape is fitted by maximum likelihood
    and the three corrected estimates are included. A sample that cannot
    support the fit (single observation, or all values equal) raises
    CorrectionUnavailableError carrying the uncorrected report.
    """
    tt, tl, at, _ = _sample_estimates(sample)
    report = EstimateReport(
        n=sample.n,
        theil_t_hat=float(tt[0]),
        theil_l_hat=float(tl[0]),
        atkinson_hat=float(at[0]),
    )
    if not apply_correction:
        return report

    from .mle import _fit_shapes

    alpha, _, _, failures = _fit_shapes(tl, sample.n)
    if failures:
        exc = failures[0]
        if isinstance(exc, DegenerateSampleError):
            raise CorrectionUnavailableError(f"correction unavailable: {exc}", report=report) from exc
        raise exc
    tt_corr, tl_corr, at_corr = _bias_corrected(tt, tl, at, alpha, sample.n)
    alpha_hat = float(alpha[0])

    notes = ()
    if alpha_hat > _LARGE_SHAPE_NOTE_CUTOFF:
        notes = (
            "fitted shape exceeds 1e6: sample is near-degenerate and the corrections are ~0",
        )
    return replace(
        report,
        alpha_hat=alpha_hat,
        theil_t_corrected=float(tt_corr[0]),
        theil_l_corrected=float(tl_corr[0]),
        atkinson_corrected=float(at_corr[0]),
        notes=notes,
    )
