"""Sample estimators of the Theil T, Theil L, and Atkinson indices, plus
their bias-corrected versions.

All three estimators are one row kernel over a 2-D array of samples: the
Monte Carlo engine runs it on a whole block of replications, the scalar
functions on a single row. It sorts each row ascending and accumulates in
that fixed order, so results are bit-identical under any permutation of
the input and across thread counts.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CorrectionUnavailableError, DegenerateSampleError, DomainError
from .model import (
    GammaParams,
    Sample,
    bias_atkinson,
    bias_theil_l,
    bias_theil_t,
)

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
    """Theil T, Theil L and Atkinson estimates of every row of the 2-D
    array x, one sample per row, as three arrays.

    Each row is sorted and accumulated in that fixed order, so a row's
    values do not depend on the order of its observations.
    """
    x = np.sort(x, axis=1)
    n = x.shape[1]
    logs = np.log(x)
    total = x.sum(axis=1)
    tt = (x * logs).sum(axis=1) / total - np.log(total) + math.log(n)
    tl = np.log(total / n) - logs.sum(axis=1) / n
    # exact zeros for equal rows; elsewhere clamp rounding below zero
    spread = x[:, 0] != x[:, -1]
    tt = np.where(spread, np.maximum(tt, 0.0), 0.0)
    tl = np.where(spread, np.maximum(tl, 0.0), 0.0)
    return tt, tl, -np.expm1(-tl)


def _estimates(sample):
    if not isinstance(sample, Sample):
        raise DomainError(f"expected a Sample, got {type(sample).__name__}")
    return [float(values[0]) for values in _row_estimates(sample.observations[np.newaxis])]


def theil_t_hat(sample):
    """Theil T estimate: sum(x*ln x)/sum(x) - ln(sum(x)) + ln n.

    Nonnegative; exactly zero iff all observations are equal.
    """
    return _estimates(sample)[0]


def theil_l_hat(sample):
    """Theil L estimate: ln(mean(x)) - mean(ln x).

    Nonnegative; exactly zero iff all observations are equal.
    """
    return _estimates(sample)[1]


def atkinson_hat(sample):
    """Atkinson estimate: 1 - geometric_mean/arithmetic_mean, evaluated as
    1 - exp(-theil_l_hat) so it stays in [0, 1)."""
    return _estimates(sample)[2]


def corrected_theil_t(sample, alpha_hat):
    """Theil T estimate minus the closed-form bias evaluated at the fitted
    shape; always exceeds the uncorrected value (the bias is negative)."""
    alpha_hat = float(alpha_hat)
    return theil_t_hat(sample) - bias_theil_t(GammaParams(alpha_hat), sample.n)


def corrected_theil_l(sample, alpha_hat):
    """Theil L estimate minus its closed-form bias at the fitted shape."""
    alpha_hat = float(alpha_hat)
    return theil_l_hat(sample) - bias_theil_l(GammaParams(alpha_hat), sample.n)


def corrected_atkinson(sample, alpha_hat):
    """Atkinson estimate minus its closed-form bias at the fitted shape."""
    alpha_hat = float(alpha_hat)
    return atkinson_hat(sample) - bias_atkinson(GammaParams(alpha_hat), sample.n)


def estimate_all(sample, apply_correction=False):
    """Compute the full report for one sample.

    With apply_correction, the gamma shape is fitted by maximum likelihood
    and the three corrected estimates are included. A sample that cannot
    support the fit (single observation, or all values equal) raises
    CorrectionUnavailableError carrying the uncorrected report.
    """
    base = EstimateReport(
        n=sample.n,
        theil_t_hat=theil_t_hat(sample),
        theil_l_hat=theil_l_hat(sample),
        atkinson_hat=atkinson_hat(sample),
    )
    if not apply_correction:
        return base

    from .mle import fit_shape

    if sample.n < 2:
        raise CorrectionUnavailableError(
            "correction unavailable: a single observation carries no dispersion",
            report=base,
        )
    try:
        fit = fit_shape(sample)
    except DegenerateSampleError as exc:
        raise CorrectionUnavailableError(f"correction unavailable: {exc}", report=base) from exc

    notes = ()
    if fit.alpha_hat > _LARGE_SHAPE_NOTE_CUTOFF:
        notes = (
            "fitted shape exceeds 1e6: sample is near-degenerate and the corrections are ~0",
        )
    return EstimateReport(
        n=base.n,
        theil_t_hat=base.theil_t_hat,
        theil_l_hat=base.theil_l_hat,
        atkinson_hat=base.atkinson_hat,
        alpha_hat=fit.alpha_hat,
        theil_t_corrected=corrected_theil_t(sample, fit.alpha_hat),
        theil_l_corrected=corrected_theil_l(sample, fit.alpha_hat),
        atkinson_corrected=corrected_atkinson(sample, fit.alpha_hat),
        notes=notes,
    )
