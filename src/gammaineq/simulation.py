"""Monte Carlo study of the six estimators (three uncorrected, three
bias-corrected) over a grid of shapes and sample sizes.

Stream model: the replications of a cell are split into blocks of
R = max(1, 2**16 // n) replications (the last block may be shorter); R
depends on the sample size n only, never on the worker count. Block b of
cell (alpha_index, n_index) owns one counter-based stream, derived by
hashing (master_seed, alpha_index, n_index, b), and draws all its rows*n
observations with one sample_gamma call; reshaped row-major to (rows, n),
row r is replication b*R + r. Results are therefore a pure function of the
config no matter how the (cell, block) tasks are scheduled. Each worker
samples, estimates, fits and bias-corrects one contiguous run of tasks,
each row on its own; the parent joins the runs in task order and reduces
each cell in replication order with exact compensated summation.
"""

import concurrent.futures
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

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
    if value > _MASK64:
        raise DomainError(f"{name} must fit in 64 unsigned bits, got {value}")
    return value


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


def _blocks(n, n_sim):
    """(block index, rows) of every block of a cell, in replication order."""
    size = max(1, _BLOCK_VARIATES // n)
    return [(b, min(size, n_sim - start)) for b, start in enumerate(range(0, n_sim, size))]


def _run_block(params, n, rows, master_seed, alpha_index, n_index, block):
    """Theil T, Theil L and Atkinson estimates of every replication of one
    block, as three arrays in replication order."""
    stream = derive_stream(master_seed, alpha_index, n_index, block)
    x = sample_gamma(params, rows * n, stream).observations.reshape(rows, n)
    return _row_estimates(x)[:3]


def _split(tasks, parts):
    """At most `parts` contiguous, nonempty runs of tasks, in order, of about
    equal variates (rows * n): a task joins the run its midpoint falls in."""
    parts = min(parts, len(tasks))
    sizes = [rows * n for _, n, rows, *_ in tasks]
    total = sum(sizes)
    runs = {}
    for task, end, size in zip(tasks, itertools.accumulate(sizes), sizes):
        runs.setdefault((2 * end - size) * parts // (2 * total), []).append(task)
    return list(runs.values())


def _run_tasks(tasks):
    """Per-replication values of a run of _run_block tasks, in task order,
    as a (6, rows) array in ESTIMATOR_IDS order; the corrected rows hold NaN
    where the shape fit failed (every row when n = 1). The fit runs in
    chunks of at most _BLOCK_VARIATES rows, and no row depends on its chunk."""
    # the blocks run before `values` is allocated: the other order costs 20% more page faults
    columns = zip(*(_run_block(*task) for task in tasks))
    n = np.repeat([task[1] for task in tasks], [task[2] for task in tasks])
    values = np.empty((6, n.size))
    for row, column in zip(values[::2], columns):
        np.concatenate(column, out=row)
    for start in range(0, n.size, _BLOCK_VARIATES):
        c = slice(start, start + _BLOCK_VARIATES)
        values[1::2, c] = _fit_and_correct(values[0, c], values[2, c], values[4, c], n[c])[1]
    return values


def _aggregate(alpha, n, estimator, true_value, values, n_sim):
    # values: per-replication estimates in replication order, NaN where the fit failed
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


def _summarize(params, n, n_sim, values):
    """The six summaries of one cell from its (6, n_sim) _run_tasks values."""
    trues = population_values(params)
    return [
        _aggregate(
            params.shape,
            n,
            key,
            getattr(trues, key.removesuffix("_corr")),
            column,
            n_sim,
        )
        for column, key in zip(values, ESTIMATOR_IDS)
    ]


def _run_cells(cells, n_sim, master_seed, workers):
    """The six summaries of every (alpha_index, n_index, params, n) cell, in
    cell order. Its (cell, block) tasks are cut into at most `workers` runs for
    _run_tasks: here if one, else one process each; a cell may span two runs."""
    tasks = [
        (params, n, rows, master_seed, ai, ni, b)
        for ai, ni, params, n in cells
        for b, rows in _blocks(n, n_sim)
    ]
    runs = _split(tasks, workers)
    if len(runs) == 1:
        values = _run_tasks(tasks)
    else:
        # looked up here, so importing the package does not load multiprocessing
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(runs)) as pool:
            values = np.concatenate(list(pool.map(_run_tasks, runs)), axis=1)
    return [
        summary
        for i, (_, _, params, n) in enumerate(cells)
        for summary in _summarize(params, n, n_sim, values[:, i * n_sim : (i + 1) * n_sim])
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
    master_seed = _check_word(master_seed, "master_seed")
    alpha_index = _check_word(alpha_index, "alpha_index")
    n_index = _check_word(n_index, "n_index")
    return _run_cells([(alpha_index, n_index, params, n)], n_sim, master_seed, 1)


def run_grid(config, workers=1):
    """Run the full grid and return summaries ordered by (alpha ascending,
    n ascending, fixed estimator order). Output is identical for any
    worker count: no row's values depend on the run of (cell, block) tasks
    it falls in, and each cell is aggregated in replication order."""
    if not isinstance(config, SimConfig):
        raise DomainError(f"expected a SimConfig, got {type(config).__name__}")
    workers = _check_count(workers, "workers")
    cells = [
        (ai, ni, GammaParams(alpha, config.rate_for(alpha)), n)
        for ai, alpha in enumerate(sorted(config.alphas))
        for ni, n in enumerate(sorted(config.ns))
    ]
    return _run_cells(cells, config.n_sim, config.master_seed, workers)

