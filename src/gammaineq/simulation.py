"""Monte Carlo study of the six estimators (three uncorrected, three
bias-corrected) over a grid of shapes and sample sizes.

Stream model: the replications of a cell are split into blocks of
R = max(1, 2**16 // n) replications (the last block may be shorter); R
depends on the sample size n only, never on the worker count. Block b of
cell (alpha_index, n_index) owns one counter-based stream, derived by
hashing (master_seed, alpha_index, n_index, b), and draws all its rows*n
observations with one sample_gamma call; reshaped row-major to (rows, n),
row r is replication b*R + r. Results are therefore a pure function of the
config no matter how the (cell, block) tasks are scheduled. Each block is
estimated, fitted and bias-corrected as arrays; aggregation reduces in
replication order with exact compensated summation.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .exceptions import DomainError
from .mle import _estimate_rows
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
_BLOCK_VARIATES = 2**16


def _check_seed(master_seed):
    master_seed = _check_index(master_seed, "master_seed")
    if master_seed > _MASK64:
        raise DomainError(f"master_seed must fit in 64 unsigned bits, got {master_seed}")
    return master_seed


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
        alphas = tuple(_check_positive(a, "alpha") for a in self.alphas)
        if not alphas:
            raise DomainError("alphas must be nonempty")
        if len(set(alphas)) != len(alphas):
            raise DomainError("alphas must be unique")
        for a in alphas:
            smallest = min(astuple(population_values(GammaParams(a))))
            if smallest < _MIN_TRUE_VALUE:
                raise DomainError(
                    f"alpha={a:g} makes the smallest true index {smallest:.3g} < {_MIN_TRUE_VALUE:g}; "
                    "relative bias would be meaningless"
                )
        ns = tuple(_check_count(n, "n") for n in self.ns)
        if not ns:
            raise DomainError("ns must be nonempty")
        if len(set(ns)) != len(ns):
            raise DomainError("ns must be unique")
        n_sim = _check_count(self.n_sim, "n_sim")
        if self.rate != RATE_ALPHA:
            GammaParams(1.0, self.rate)
        master_seed = _check_seed(self.master_seed)
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
    h = _check_seed(master_seed)
    for word in (
        _check_index(alpha_index, "alpha_index"),
        _check_index(n_index, "n_index"),
        _check_index(block, "block"),
    ):
        h = _mix64(h ^ (word & _MASK64))
    key = h | (_mix64(h) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n, n_sim):
    """(block index, rows) of every block of a cell, in replication order."""
    size = max(1, _BLOCK_VARIATES // n)
    return [(b, min(size, n_sim - start)) for b, start in enumerate(range(0, n_sim, size))]


def _run_block(params, n, rows, master_seed, alpha_index, n_index, block):
    """Per-replication values of one block, one array per estimator in
    ESTIMATOR_IDS order: the uncorrected arrays hold every row, the
    corrected ones the rows whose shape fit succeeded."""
    stream = derive_stream(master_seed, alpha_index, n_index, block)
    x = sample_gamma(params, rows * n, stream).observations.reshape(rows, n)
    (tt, tl, at, _), (alpha_hat, _, _, _), corrected = _estimate_rows(x)
    # rows without dispersion (every row when n = 1) get no fitted shape
    tt_corr, tl_corr, at_corr = corrected[:, ~np.isnan(alpha_hat)]
    return tt, tt_corr, tl, tl_corr, at, at_corr


def _aggregate(alpha, n, estimator, true_value, values, n_sim):
    # values: a 1-D array of per-replication estimates in replication order
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


def _summarize(params, n, n_sim, blocks):
    """The six summaries of one cell from its block results in block order."""
    trues = population_values(params)
    return [
        _aggregate(
            params.shape,
            n,
            key,
            getattr(trues, key.removesuffix("_corr")),
            np.concatenate([block[column] for block in blocks]),
            n_sim,
        )
        for column, key in enumerate(ESTIMATOR_IDS)
    ]


def run_cell(alpha, n, n_sim, rate, master_seed, alpha_index=0, n_index=0):
    """Run all replications for one (alpha, n) cell and aggregate the six
    estimators. Deterministic given master_seed and the cell indices.

    Replications whose shape fit fails still contribute to the uncorrected
    aggregates; the corrected ones record them in n_failed.
    """
    params = GammaParams(alpha, rate)
    n = _check_count(n, "n")
    n_sim = _check_count(n_sim, "n_sim")
    master_seed = _check_seed(master_seed)
    alpha_index = _check_index(alpha_index, "alpha_index")
    n_index = _check_index(n_index, "n_index")
    blocks = [
        _run_block(params, n, rows, master_seed, alpha_index, n_index, b)
        for b, rows in _blocks(n, n_sim)
    ]
    return _summarize(params, n, n_sim, blocks)


def run_grid(config, workers=1):
    """Run the full grid and return summaries ordered by (alpha ascending,
    n ascending, fixed estimator order). Output is identical for any
    worker count: the pool runs (cell, block) tasks, and each cell is
    put back together in block order before it is aggregated."""
    if not isinstance(config, SimConfig):
        raise DomainError(f"expected a SimConfig, got {type(config).__name__}")
    workers = _check_count(workers, "workers")

    cells = [
        (ai, ni, GammaParams(alpha, config.rate_for(alpha)), n)
        for ai, alpha in enumerate(sorted(config.alphas))
        for ni, n in enumerate(sorted(config.ns))
    ]
    tasks = [
        (params, n, rows, config.master_seed, ai, ni, b)
        for ai, ni, params, n in cells
        for b, rows in _blocks(n, config.n_sim)
    ]
    if workers == 1 or len(tasks) == 1:
        results = [_run_block(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_run_block, *zip(*tasks)))

    by_cell = {}
    for (_, _, _, _, ai, ni, _), result in zip(tasks, results):
        by_cell.setdefault((ai, ni), []).append(result)
    ordered = []
    for ai, ni, params, n in cells:
        ordered.extend(_summarize(params, n, config.n_sim, by_cell[(ai, ni)]))
    return ordered
