"""Sample estimators of the Theil T, Theil L, and Atkinson indices, plus
their bias-corrected versions. Every estimator runs the row kernel
(mle._row_estimates); estimate_all with apply_correction then runs the fit
-> correct half of the pass (mle._fit_and_correct)."""

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import CorrectionUnavailableError, DegenerateSampleError
from .mle import _fit_and_correct, _fit_error, _row_estimates, _sample_rows

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


def theil_t_hat(sample):
    """Theil T estimate: sum(x*ln x)/sum(x) - ln(sum(x)) + ln n.

    Nonnegative; exactly zero iff all observations are equal.
    """
    return float(_row_estimates(_sample_rows(sample))[0][0])


def theil_l_hat(sample):
    """Theil L estimate: ln(mean(x)) - mean(ln x).

    Nonnegative; exactly zero iff all observations are equal.
    """
    return float(_row_estimates(_sample_rows(sample))[1][0])


def atkinson_hat(sample):
    """Atkinson estimate: 1 - geometric_mean/arithmetic_mean, evaluated as
    -expm1(-theil_l_hat).

    It lies in [0, 1] in doubles: exactly 0 iff all observations are equal,
    and exactly 1.0 only once theil_l_hat reaches about 54 ln 2 = 37.43, where
    exp(-theil_l_hat) falls below half an ulp of 1 (Sample([1, 1e-40]))."""
    return float(_row_estimates(_sample_rows(sample))[2][0])


def estimate_all(sample, apply_correction=False):
    """Compute the full report for one sample.

    With apply_correction, the gamma shape is fitted by maximum likelihood
    and the three corrected estimates are included. A sample that cannot
    support the fit (single observation, or all values equal) raises
    CorrectionUnavailableError carrying the uncorrected report.
    """
    tt, tl, at, _ = _row_estimates(_sample_rows(sample))
    report = EstimateReport(
        n=sample.n,
        theil_t_hat=float(tt[0]),
        theil_l_hat=float(tl[0]),
        atkinson_hat=float(at[0]),
    )
    if not apply_correction:
        return report
    alpha, corrected = _fit_and_correct(tt, tl, at, sample.n)
    if np.isnan(alpha[0]):
        exc = _fit_error(sample.n, tl[0])
        if isinstance(exc, DegenerateSampleError):
            raise CorrectionUnavailableError(f"correction unavailable: {exc}", report=report) from exc
        raise exc
    tt_corr, tl_corr, at_corr = corrected
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
