"""Theil and Atkinson inequality indices under gamma populations: exact
population values, finite-sample estimator expectations and biases,
bias-corrected estimators via the gamma shape MLE, and a reproducible
Monte Carlo study harness."""

from .exceptions import (
    CorrectionUnavailableError,
    DegenerateSampleError,
    DomainError,
    NoConvergenceError,
)
from .special import digamma, ln_gamma, log_gamma_ratio_scaled, trigamma
from .model import (
    GammaParams,
    IndexKind,
    PopulationValues,
    Sample,
    atkinson_population,
    bias_atkinson,
    bias_theil_l,
    bias_theil_t,
    expected_atkinson,
    expected_theil_l,
    expected_theil_t,
    population_values,
    sample_gamma,
    theil_l_population,
    theil_t_population,
)
from .estimators import (
    EstimateReport,
    atkinson_hat,
    estimate_all,
    theil_l_hat,
    theil_t_hat,
)
from .mle import MleResult, fit_shape, log_moment_gap
from .simulation import (
    ESTIMATOR_IDS,
    RATE_ALPHA,
    SimConfig,
    SimSummary,
    derive_stream,
    run_cell,
    run_grid,
)

__version__ = "0.1.0"

__all__ = [
    "CorrectionUnavailableError",
    "DegenerateSampleError",
    "DomainError",
    "NoConvergenceError",
    "digamma",
    "ln_gamma",
    "log_gamma_ratio_scaled",
    "trigamma",
    "GammaParams",
    "IndexKind",
    "PopulationValues",
    "Sample",
    "atkinson_population",
    "bias_atkinson",
    "bias_theil_l",
    "bias_theil_t",
    "expected_atkinson",
    "expected_theil_l",
    "expected_theil_t",
    "population_values",
    "sample_gamma",
    "theil_l_population",
    "theil_t_population",
    "EstimateReport",
    "atkinson_hat",
    "estimate_all",
    "theil_l_hat",
    "theil_t_hat",
    "MleResult",
    "fit_shape",
    "log_moment_gap",
    "ESTIMATOR_IDS",
    "RATE_ALPHA",
    "SimConfig",
    "SimSummary",
    "derive_stream",
    "run_cell",
    "run_grid",
    "__version__",
]
