"""Monte Carlo study of the six estimators (three uncorrected, three
bias-corrected) over a grid of shapes and sample sizes.

Stream model: the replications of a cell are split into blocks of
R = max(1, 2**16 // n) replications (the last block may be shorter); R
depends on the sample size n only, never on the worker count. Block b of
cell (alpha_index, n_index) owns one counter-based stream, derived by
hashing (master_seed, alpha_index, n_index, b), and draws all its rows*n
observations with one sample_gamma call; reshaped row-major to (rows, n),
row r is replication b*R + r. Results are therefore a pure function of the
config no matter how the cells are scheduled. Each process, the calling
one included, takes one contiguous run of whole cells and walks it in one
function, _summarize: it samples and estimates each block, fits and
bias-corrects the run's rows, each row on its own, and reduces each cell in
replication order with exact compensated summation. Only the summaries come
back, and the calling process lists the runs in cell order.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from ._fork import fork_map, split
from .exceptions import DomainError
from .mle import _fit_and_correct, _row_estimates
from .model import GammaParams, population_values, sample_gamma
from .special import _check_count, _check_index, _check_positive

ESTIMATOR_IDS = (
    "theil_t",
    "theil_t_corr",
    "theil_l",
    "theil_l_corr",
    "atkinson",
    "atkinson_corr",
)

# Sentinel accepted by SimConfig.rate: use rate = alpha in every cell.
RATE_ALPHA = "alpha"

DEFAULT_ALPHAS = (0.1, 0.5, 1.5, 2.0)
DEFAULT_NS = (10, 20, 50, 100, 200)
DEFAULT_N_SIM = 1000
DEFAULT_MASTER_SEED = 42

# Cells whose smallest true index falls below this are refused: relative
# bias against a vanishing denominator is meaningless.
_MIN_TRUE_VALUE = 1e-6

_MASK64 = (1 << 64) - 1


# Observations drawn per block; a block holds max(1, this // n) replications.
# Also the most rows one _fit_and_correct call takes, which bounds Newton's
# temporaries at any n_sim.
_BLOCK_VARIATES = 2**16


def _check_word(value, name):
    """value as a Python int in [0, 2**64 - 1], on the terms of _check_index."""
    value = _check_index(value, name)
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    if value > _MASK64:
        raise DomainError(f"{name} must fit in 64 unsigned bits, got {value}")
    return value


def _distinct(values, name):
    """values as a tuple, refused where it is empty or repeats a value."""
    values = tuple(values)
    if not values:
        raise DomainError(f"{name} must be nonempty")
    if len(set(values)) != len(values):
        raise DomainError(f"{name} must be unique")
    return values


@dataclass(frozen=True)
class SimConfig:
    """Grid specification for the study. rate may be a positive number or
    the string "alpha" to sample each cell at rate equal to its shape
    (both give identical index statistics by scale invariance)."""

    alphas: tuple = DEFAULT_ALPHAS
    ns: tuple = DEFAULT_NS
    n_sim: int = DEFAULT_N_SIM
    rate: float | str = 1.0
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        alphas = _distinct((_check_positive(a, "alpha") for a in self.alphas), "alphas")
        for a in alphas:
            smallest = min(astuple(population_values(GammaParams(a))))
            if smallest < _MIN_TRUE_VALUE:
                raise DomainError(
                    f"alpha={a:g} makes the smallest true index {smallest:.3g} < {_MIN_TRUE_VALUE:g}; "
                    "relative bias would be meaningless"
                )
        ns = _distinct((_check_count(n, "n") for n in self.ns), "ns")
        n_sim = _check_count(self.n_sim, "n_sim")
        if self.rate != RATE_ALPHA:
            GammaParams(1.0, self.rate)
        master_seed = _check_word(self.master_seed, "master_seed")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "n_sim", n_sim)
        object.__setattr__(self, "master_seed", master_seed)

    def rate_for(self, alpha):
        return float(alpha) if self.rate == RATE_ALPHA else float(self.rate)


@dataclass(frozen=True)
class SimSummary:
    """Aggregates for one estimator in one grid cell."""

    alpha: float
    n: int
    estimator: str
    true_value: float
    mean_estimate: float
    rel_bias: float
    mse: float
    n_effective: int
    n_failed: int


def _mix64(z):
    # splitmix64 finalizer: full-avalanche 64-bit mixing
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream(master_seed, alpha_index, n_index, block):
    """Deterministic, statistically independent stream for one block of
    replications.

    The coordinates are absorbed one at a time through the splitmix64
    avalanche and the result keys a 128-bit Philox counter-based generator,
    so distinct (seed, alpha_index, n_index, block) tuples give distinct
    streams with no shared state.
    """
    h = _check_word(master_seed, "master_seed")
    for word in (
        _check_word(alpha_index, "alpha_index"),
        _check_word(n_index, "n_index"),
        _check_word(block, "block"),
    ):
        h = _mix64(h ^ word)
    key = h | (_mix64(h) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _aggregate(alpha, n, estimator, true_value, values):
    # values: a cell's n_sim estimates in replication order, NaN where the fit failed
    n_sim = values.size
    values = values[~np.isnan(values)]
    n_effective = values.size
    if n_effective:
        mean = math.fsum(values.tolist()) / n_effective
        rel_bias = (mean - true_value) / true_value
        mse = math.fsum(((values - true_value) ** 2).tolist()) / n_effective
    else:
        mean = rel_bias = mse = math.nan
    return SimSummary(
        alpha=alpha,
        n=n,
        estimator=estimator,
        true_value=true_value,
        mean_estimate=mean,
        rel_bias=rel_bias,
        mse=mse,
        n_effective=n_effective,
        n_failed=n_sim - n_effective,
    )


def _summarize(cells, n_sim, master_seed):
    """The six summaries of every (alpha_index, n_index, params, n) cell of
    one run, in cell order. Each block of each cell is sampled and
    estimated in turn, as the module docstring lays out; the run's rows are
    then fitted and corrected in chunks of at most _BLOCK_VARIATES rows (no
    row depends on its chunk; the corrected values are NaN where the fit
    failed, every row when n = 1), and each cell is aggregated in
    replication order."""
    blocks = []
    for ai, ni, params, n in cells:
        size = max(1, _BLOCK_VARIATES // n)
        for b, start in enumerate(range(0, n_sim, size)):
            rows = min(size, n_sim - start)
            x = sample_gamma(params, rows * n, derive_stream(master_seed, ai, ni, b)).observations
            blocks.append(_row_estimates(x.reshape(rows, n))[:3])
    # the blocks run before `values` is allocated: the other order costs 20% more page faults
    values = np.empty((6, len(cells) * n_sim))
    for row, column in zip(values[::2], zip(*blocks)):
        np.concatenate(column, out=row)
    ns = np.repeat([cell[3] for cell in cells], n_sim)
    for start in range(0, ns.size, _BLOCK_VARIATES):
        c = slice(start, start + _BLOCK_VARIATES)
        values[1::2, c] = _fit_and_correct(values[0, c], values[2, c], values[4, c], ns[c])[1]
    summaries = []
    for i, (_, _, params, n) in enumerate(cells):
        trues = population_values(params)
        for column, key in zip(values[:, i * n_sim : (i + 1) * n_sim], ESTIMATOR_IDS):
            true_value = getattr(trues, key.removesuffix("_corr"))
            summaries.append(_aggregate(params.shape, n, key, true_value, column))
    return summaries


def run_cell(alpha, n, n_sim, rate, master_seed, alpha_index=0, n_index=0):
    """Run all replications for one (alpha, n) cell and aggregate the six
    estimators. Deterministic given master_seed and the cell indices.

    Replications whose shape fit fails still contribute to the uncorrected
    aggregates; the corrected ones record them in n_failed.
    """
    params = GammaParams(alpha, rate)
    n = _check_count(n, "n")
    n_sim = _check_count(n_sim, "n_sim")
    master_seed = _check_word(master_seed, "master_seed")
    alpha_index = _check_word(alpha_index, "alpha_index")
    n_index = _check_word(n_index, "n_index")
    return _summarize([(alpha_index, n_index, params, n)], n_sim, master_seed)


def run_grid(config, workers=1):
    """Run the full grid and return summaries ordered by (alpha ascending,
    n ascending, fixed estimator order). The cells are cut, in order, into
    at most `workers` contiguous runs of about equal variates (`split`; every
    cell has n_sim replications, so n stands for its variates), and each run
    is summarized whole (`_summarize`) by one process: this one, and children
    forked from it for the others (`fork_map`). Output is identical for any
    worker count: a cell's values do not depend on the run it falls in."""
    if not isinstance(config, SimConfig):
        raise DomainError(f"expected a SimConfig, got {type(config).__name__}")
    workers = _check_count(workers, "workers")
    cells = [
        (ai, ni, GammaParams(alpha, config.rate_for(alpha)), n)
        for ai, alpha in enumerate(sorted(config.alphas))
        for ni, n in enumerate(sorted(config.ns))
    ]
    runs = fork_map(
        lambda run: _summarize(run, config.n_sim, config.master_seed),
        split(cells, workers, lambda cell: cell[3]),
    )
    return [summary for run in runs for summary in run]

