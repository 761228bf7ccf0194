"""Shared fixtures: test grids, summary-statistics helpers and the sample
whose outputs are pinned."""

import math

import hypothesis

from gammaineq import GammaParams, derive_stream, sample_gamma

hypothesis.settings.register_profile("slow_box", deadline=None)
hypothesis.settings.load_profile("slow_box")

# identity/sign suite grid
IDENTITY_ALPHAS = (0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 100.0)
IDENTITY_NS = (1, 2, 10, 200)


def se_from_summary(row):
    """Standard error of the mean estimate recovered from stored aggregates:
    SD^2 = mse - (mean - true)^2."""
    variance = row.mse - (row.mean_estimate - row.true_value) ** 2
    if variance < 0.0:
        variance = 0.0
    return math.sqrt(variance / row.n_effective)


def pinned_gamma_sample():
    """The 10,000-row Gamma(1.5) sample whose estimates and shape fit are
    pinned bit for bit."""
    return sample_gamma(GammaParams(1.5), 10_000, derive_stream(42, 0, 0, 0))
