"""Monte Carlo harness: stream derivation, the block layout against a
manual recompute with the scalar functions, grid ordering, parallel
determinism, numpy scalar arguments, and a CLT-scale check of the
closed-form expectations."""

import ctypes
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import append_line, numpy_build_note, read_lines, se_from_summary
from gammaineq import (
    ESTIMATOR_IDS,
    RATE_ALPHA,
    DomainError,
    GammaParams,
    Sample,
    SimConfig,
    atkinson_hat,
    atkinson_population,
    bias_atkinson,
    bias_theil_l,
    bias_theil_t,
    derive_stream,
    expected_theil_l,
    expected_theil_t,
    fit_shape,
    run_cell,
    run_grid,
    sample_gamma,
    theil_l_hat,
    theil_l_population,
    theil_t_hat,
    theil_t_population,
)
from gammaineq import _fork, simulation
from gammaineq.cli import _csv_field
from gammaineq._fork import split
from gammaineq.mle import _row_estimates

# run_cell(1.5, 10, 200, 1.0, 42) means in ESTIMATOR_IDS order
PINNED_MEANS_15_10_200_SEED42 = (
    0.25642889754733555,
    0.28533706575009743,
    0.32422924294204636,
    0.3538073108838296,
    0.2693042652613543,
    0.29725057597944377,
)

# frozen 40-digit oracle values at (alpha, n) = (1.5, 10)
REL_BIAS_TT_15_10 = -0.11072913946971131
E_TT_15_10 = 0.26472840531182850


def test_derive_stream_deterministic():
    a = derive_stream(7, 1, 2, 3).random(5)
    b = derive_stream(7, 1, 2, 3).random(5)
    assert np.array_equal(a, b)


def test_derive_stream_distinct_coordinates():
    base = derive_stream(7, 1, 2, 3).random(4)
    for args in ((8, 1, 2, 3), (7, 2, 2, 3), (7, 1, 3, 3), (7, 1, 2, 4), (7, 3, 1, 2)):
        assert not np.array_equal(base, derive_stream(*args).random(4))


def test_derive_stream_first_draws_uniform():
    draws = np.array([derive_stream(5, 0, 0, r).random() for r in range(4096)])
    counts = np.bincount((draws * 16).astype(int), minlength=16)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_derive_stream_validation():
    for bad in (-1, 1 << 64, 1.0, "7", True):
        with pytest.raises(DomainError):
            derive_stream(bad, 0, 0, 0)
    for bad in (-1, 0.5, True):
        with pytest.raises(DomainError):
            derive_stream(0, bad, 0, 0)
        with pytest.raises(DomainError):
            derive_stream(0, 0, bad, 0)
        with pytest.raises(DomainError):
            derive_stream(0, 0, 0, bad)


def test_derive_stream_coordinates_are_64_bit_words():
    # 2**64 - 1 is the largest coordinate; one more is refused, not wrapped
    # onto index 0
    top = (1 << 64) - 1
    base = derive_stream(42, 0, 0, 0).random(4)
    for at, name in enumerate(("master_seed", "alpha_index", "n_index", "block")):
        args = [42, 0, 0, 0]
        args[at] = top
        assert not np.array_equal(base, derive_stream(*args).random(4))
        args[at] = top + 1
        with pytest.raises(DomainError) as err:
            derive_stream(*args)
        assert str(err.value) == f"{name} must fit in 64 unsigned bits, got {top + 1}"
    with pytest.raises(DomainError, match="alpha_index must fit in 64 unsigned bits"):
        run_cell(1.5, 5, 4, 1.0, 42, alpha_index=2**64 + 3)


def test_run_cell_deterministic():
    first = run_cell(1.5, 5, 40, 1.0, 99, alpha_index=1, n_index=2)
    second = run_cell(1.5, 5, 40, 1.0, 99, alpha_index=1, n_index=2)
    assert first == second


def test_run_cell_summary_invariants():
    rows = run_cell(1.5, 5, 40, 1.0, 99)
    assert [row.estimator for row in rows] == list(ESTIMATOR_IDS)
    params = GammaParams(1.5)
    trues = {
        "theil_t": theil_t_population(params),
        "theil_l": theil_l_population(params),
        "atkinson": atkinson_population(params),
    }
    for row in rows:
        assert row.alpha == 1.5
        assert row.n == 5
        assert row.true_value == trues[row.estimator.removesuffix("_corr")]
        assert row.n_effective + row.n_failed == 40
        assert row.mse >= 0.0
        assert row.rel_bias == pytest.approx(
            (row.mean_estimate - row.true_value) / row.true_value, abs=1e-12
        )
        if not row.estimator.endswith("_corr"):
            assert row.n_effective == 40


def manual_cell(alpha, n, n_sim, seed, alpha_index=0, n_index=0):
    """One cell recomputed replication by replication with the public scalar
    functions, following the documented stream layout: block b holds
    R = max(1, 2**16 // n) replications (the last one fewer) and draws
    rows*n observations from derive_stream(seed, alpha_index, n_index, b),
    one replication per row. Returns the block sizes and each estimator's
    values in replication order."""
    params = GammaParams(alpha)
    size = max(1, 2**16 // n)
    sizes = [min(size, n_sim - start) for start in range(0, n_sim, size)]
    values = {key: [] for key in ESTIMATOR_IDS}
    for block, rows in enumerate(sizes):
        stream = derive_stream(seed, alpha_index, n_index, block)
        draws = sample_gamma(params, rows * n, stream).observations.reshape(rows, n)
        for row in draws:
            sample = Sample(row)
            tt, tl, at = theil_t_hat(sample), theil_l_hat(sample), atkinson_hat(sample)
            fitted = GammaParams(fit_shape(sample).alpha_hat)
            for key, value in (
                ("theil_t", tt),
                ("theil_l", tl),
                ("atkinson", at),
                ("theil_t_corr", tt - bias_theil_t(fitted, n)),
                ("theil_l_corr", tl - bias_theil_l(fitted, n)),
                ("atkinson_corr", at - bias_atkinson(fitted, n)),
            ):
                values[key].append(value)
    return sizes, values


def check_cell_against_manual(monkeypatch, alpha, n, n_sim, seed, alpha_index, n_index):
    sizes, manual = manual_cell(alpha, n, n_sim, seed, alpha_index, n_index)
    aggregate, engine_values = simulation._aggregate, {}

    def recorded_aggregate(alpha, n, estimator, true_value, values):
        engine_values[estimator] = values.tolist()
        return aggregate(alpha, n, estimator, true_value, values)

    monkeypatch.setattr(simulation, "_aggregate", recorded_aggregate)
    rows = {
        row.estimator: row
        for row in run_cell(alpha, n, n_sim, 1.0, seed, alpha_index=alpha_index, n_index=n_index)
    }
    assert list(engine_values) == list(ESTIMATOR_IDS)
    for key in ESTIMATOR_IDS:
        values = manual[key]
        # the engine and the scalar functions share one estimate -> fit ->
        # correct path, so every value and aggregate agrees to the bit
        assert engine_values[key] == values, key
        row = rows[key]
        assert row.mean_estimate == math.fsum(values) / n_sim
        assert row.mse == math.fsum((v - row.true_value) ** 2 for v in values) / n_sim
        assert row.n_effective == n_sim
        assert row.n_failed == 0
    return sizes


def test_run_cell_matches_manual_recompute(monkeypatch):
    assert check_cell_against_manual(monkeypatch, 2.0, 4, 3, 17, 0, 0) == [3]


def test_run_cell_multi_block_matches_per_block_recompute(monkeypatch):
    # 2**16 // 20000 = 3 replications per block: blocks of 3, 3 and 1
    assert check_cell_against_manual(monkeypatch, 0.5, 20_000, 7, 23, 1, 2) == [3, 3, 1]


def test_run_cell_pinned_means():
    # any change to the stream model or the engine's arithmetic shows here
    rows = run_cell(1.5, 10, 200, 1.0, 42)
    means = [row.mean_estimate for row in rows]
    assert means == pytest.approx(
        PINNED_MEANS_15_10_200_SEED42, rel=1e-12, abs=0.0
    ), numpy_build_note()


def test_default_block_peaks_within_five_times_its_observations():
    # the sampler and the row kernel reuse their own buffers: the block of
    # (alpha, n) = (1.5, 10) peaks at 4.8x the bytes of its 65,530
    # observations (6.1x when every step allocated a new temporary)
    n = 10
    rows = 2**16 // n

    def block(b):
        # what the grid runs on each block of cell (2, 0)
        stream = derive_stream(42, 2, 0, b)
        x = sample_gamma(GammaParams(1.5), rows * n, stream).observations.reshape(rows, n)
        return _row_estimates(x)[:3]

    block(0)
    tracemalloc.start()
    try:
        block(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * rows * n * 8, peak / (rows * n * 8)


def test_run_cell_single_observation_cells():
    rows = {row.estimator: row for row in run_cell(1.5, 1, 25, 1.0, 3)}
    for key in ("theil_t", "theil_l", "atkinson"):
        assert rows[key].mean_estimate == 0.0
        assert rows[key].rel_bias == -1.0
        assert rows[key].n_effective == 25
    for key in ("theil_t_corr", "theil_l_corr", "atkinson_corr"):
        assert rows[key].n_effective == 0
        assert rows[key].n_failed == 25
        assert math.isnan(rows[key].mean_estimate)
        assert math.isnan(rows[key].rel_bias)
        assert math.isnan(rows[key].mse)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_grid_single_cell_matches_run_cell(workers):
    config = SimConfig(alphas=(1.5,), ns=(5,), n_sim=40, master_seed=99)
    assert run_grid(config, workers=workers) == run_cell(1.5, 5, 40, 1.0, 99)


def test_run_grid_fit_chunks_match_run_cell():
    # 80,000 rows: the grid fits them in chunks of at most 2**16 rows, so the
    # n = 2 cell straddles a chunk boundary; run_cell fits each cell in one
    config = SimConfig(alphas=(1.5,), ns=(1, 2), n_sim=40_000, master_seed=99)
    cells = run_cell(1.5, 1, 40_000, 1.0, 99) + run_cell(1.5, 2, 40_000, 1.0, 99, n_index=1)
    assert run_grid(config) == cells


def test_run_grid_orders_axes_ascending():
    config = SimConfig(alphas=(2.0, 0.5), ns=(50, 10), n_sim=5, master_seed=1)
    rows = run_grid(config)
    cells = [(row.alpha, row.n) for row in rows[::6]]
    assert cells == [(0.5, 10), (0.5, 50), (2.0, 10), (2.0, 50)]
    assert len(rows) == 4 * 6
    # cell coordinates, not listing order, determine the streams
    reordered = run_grid(SimConfig(alphas=(0.5, 2.0), ns=(10, 50), n_sim=5, master_seed=1))
    assert rows == reordered


@pytest.mark.parametrize("workers", [2, 3, 13])
def test_run_grid_parallel_matches_serial(workers):
    # n = 40000 holds one replication per block: five blocks per cell, and
    # 3 workers split the 4 cells into 3 runs of whole cells, while 13
    # workers exceed the cell count
    config = SimConfig(alphas=(0.5, 2.0), ns=(5, 40_000), n_sim=5, master_seed=7)
    assert run_grid(config, workers=workers) == run_grid(config, workers=1)


def variates(task):
    # a task's size: its rows * n variates
    return task[0] * task[1]


@pytest.mark.parametrize("parts", [1, 2, 3, 5, 12, 13, 10**9])
@pytest.mark.parametrize(
    "sizes",
    [
        [(1, 5), (40_000, 1), (40_000, 1), (40_000, 1), (5, 1), (40_000, 1), (40_000, 1)],
        [(10, 1000), (200, 327), (200, 327), (200, 327), (200, 19)],
        [(1, 1)],
        [(3, 7)] * 40,
    ],
)
def test_split_gives_contiguous_nonempty_runs_covering_every_task(sizes, parts):
    tasks = [(n, rows, b) for b, (n, rows) in enumerate(sizes)]
    runs = split(tasks, parts, variates)
    assert 1 <= len(runs) <= min(parts, len(tasks))
    assert all(runs)
    # concatenated in order, the runs give back every task once
    assert [task for run in runs for task in run] == tasks


@pytest.mark.parametrize("parts, lengths", [(2, [18] * 2), (3, [12] * 3), (36, [1] * 36), (10**9, [1] * 36)])
def test_split_balances_variates(parts, lengths):
    tasks = [(10, 100, b) for b in range(36)]
    assert [len(run) for run in split(tasks, parts, variates)] == lengths


@pytest.mark.parametrize("workers", [1, 2])
def test_every_run_is_fitted_once_in_the_process_that_takes_it(tmp_path, monkeypatch, workers):
    # the grid's 4 cells of one 30-row block each are cut into `workers`
    # runs; whichever process takes a run draws its blocks and fits its rows
    # in one call, and no row is fitted twice. The serial run is fitted here.
    config = SimConfig(alphas=(0.5, 2.0), ns=(5, 20), n_sim=30, master_seed=3)
    serial = run_grid(config)
    log = tmp_path / "log"
    summarize, fit_and_correct = simulation._summarize, simulation._fit_and_correct
    stream = simulation.derive_stream

    def logged_summarize(cells, n_sim, master_seed):
        append_line(log, f"run {os.getpid()} {len(cells) * n_sim}")
        return summarize(cells, n_sim, master_seed)

    def logged_stream(*args):
        append_line(log, "block {} {}/{}/{}".format(os.getpid(), *args[1:]))
        return stream(*args)

    def logged_fit(*args):
        append_line(log, f"fit {os.getpid()} {args[3].size}")
        return fit_and_correct(*args)

    monkeypatch.setattr(simulation, "_summarize", logged_summarize)
    monkeypatch.setattr(simulation, "derive_stream", logged_stream)
    monkeypatch.setattr(simulation, "_fit_and_correct", logged_fit)
    assert run_grid(config, workers=workers) == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    calls = [line.split() for line in read_lines(log)]
    runs = [(pid, rows) for kind, pid, rows in calls if kind == "run"]
    blocks = [(block, pid) for kind, pid, block in calls if kind == "block"]
    assert len(runs) == workers
    assert sorted(block for block, _ in blocks) == ["0/0/0", "0/1/0", "1/0/0", "1/1/0"]
    # each block is drawn in a process that takes a run
    assert {pid for _, pid in blocks} == {pid for pid, _ in runs}
    assert sorted((pid, rows) for kind, pid, rows in calls if kind == "fit") == sorted(runs)
    if workers == 1:
        assert runs == [(str(os.getpid()), "120")]


def test_each_cell_is_run_and_aggregated_whole_in_one_process(tmp_path, monkeypatch):
    # the n = 40000 cells have five blocks each, and a split of the grid's
    # blocks into 3 runs would cut one of them; the grid splits whole cells
    config = SimConfig(alphas=(0.5, 2.0), ns=(5, 40_000), n_sim=5, master_seed=7)
    serial = run_grid(config)
    log = tmp_path / "log"
    summarize, aggregate = simulation._summarize, simulation._aggregate

    def logged_run(cells, n_sim, master_seed):
        names = " ".join(f"{params.shape}/{n}" for _, _, params, n in cells)
        append_line(log, f"run {os.getpid()} {names}")
        return summarize(cells, n_sim, master_seed)

    def logged_aggregate(alpha, n, *args):
        append_line(log, f"aggregate {os.getpid()} {alpha}/{n}")
        return aggregate(alpha, n, *args)

    monkeypatch.setattr(simulation, "_summarize", logged_run)
    monkeypatch.setattr(simulation, "_aggregate", logged_aggregate)
    assert run_grid(config, workers=3) == serial
    calls = [line.split() for line in read_lines(log)]
    # every cell reaches exactly one _summarize call
    runs = [(cell, pid) for kind, pid, *cells in calls if kind == "run" for cell in cells]
    assert sorted(cell for cell, _ in runs) == ["0.5/40000", "0.5/5", "2.0/40000", "2.0/5"]
    # all six aggregates of a cell run in the process that ran its blocks
    aggregates = [(cell, pid) for kind, pid, *cells in calls if kind == "aggregate" for cell in cells]
    assert sorted(aggregates) == sorted(runs * 6)
    assert len({pid for _, pid in runs}) > 1


@pytest.mark.parametrize("workers", [1, 2])
def test_no_forked_grid_worker_calls_the_c_allocator(tmp_path, monkeypatch, workers):
    # no process of the grid, this one or a forked worker, calls the C
    # library's malloc functions: the grid neither sets nor trims the heap
    log = tmp_path / "log"

    def library(name):
        append_line(log, f"{os.getpid()} {name}")
        raise OSError(name)

    monkeypatch.setattr(ctypes, "CDLL", library)
    run_grid(SimConfig(alphas=(0.5, 2.0), ns=(10,), n_sim=50), workers=workers)
    # the one call this test makes itself shows that the stand-in logs
    _fork.malloc_call("malloc_trim", 0)
    assert read_lines(log) == [f"{os.getpid()} None"]


def _libc_has(name):
    try:
        return hasattr(ctypes.CDLL(None), name)
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has("mallopt"), reason="the C library has no mallopt")
def test_the_default_grid_does_not_fault_its_freed_heap_back_in():
    # with the top pad `simulate` sets, the freed temporaries of one block
    # serve the next: about 2.0k minor page faults in a fresh interpreter,
    # against 18.1k where glibc hands them back to the kernel after a block
    script = (
        "import resource\n"
        "from gammaineq import SimConfig, run_grid\n"
        "from gammaineq._fork import M_TOP_PAD, malloc_call\n"
        "from gammaineq.cli import _SIMULATE_TOP_PAD\n"
        "malloc_call('mallopt', M_TOP_PAD, _SIMULATE_TOP_PAD)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run_grid(SimConfig())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    package_root = str(pathlib.Path(simulation.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 8000


def test_run_grid_rate_sentinel_equivalence():
    kwargs = dict(alphas=(0.5, 2.0), ns=(5,), n_sim=50, master_seed=11)
    unit = run_grid(SimConfig(rate=1.0, **kwargs))
    scaled = run_grid(SimConfig(rate=RATE_ALPHA, **kwargs))
    for a, b in zip(unit, scaled):
        assert a.estimator == b.estimator and a.alpha == b.alpha and a.n == b.n
        assert a.n_effective == b.n_effective and a.n_failed == b.n_failed
        assert b.mean_estimate == pytest.approx(a.mean_estimate, rel=1e-10, abs=1e-12)
        assert b.rel_bias == pytest.approx(a.rel_bias, rel=1e-10, abs=1e-12)
        assert b.mse == pytest.approx(a.mse, rel=1e-10, abs=1e-12)


def test_config_defaults():
    config = SimConfig()
    assert config.alphas == (0.1, 0.5, 1.5, 2.0)
    assert config.ns == (10, 20, 50, 100, 200)
    assert config.n_sim == 1000
    assert config.rate == 1.0
    assert config.master_seed == 42
    assert config.rate_for(0.1) == 1.0
    assert SimConfig(rate=RATE_ALPHA).rate_for(0.1) == 0.1


def test_config_validation():
    with pytest.raises(DomainError, match="^alphas must be nonempty$"):
        SimConfig(alphas=())
    with pytest.raises(DomainError, match="^alphas must be unique$"):
        SimConfig(alphas=(1.0, 1.0))
    with pytest.raises(DomainError):
        SimConfig(alphas=(1.0, 1e6))  # smallest true index below 1e-6
    with pytest.raises(DomainError, match="alpha"):
        SimConfig(alphas=(True,))
    with pytest.raises(DomainError, match="alpha"):
        SimConfig(alphas=("x",))
    with pytest.raises(DomainError, match="^ns must be nonempty$"):
        SimConfig(ns=())
    with pytest.raises(DomainError, match="^ns must be unique$"):
        SimConfig(ns=(10, 10))
    with pytest.raises(DomainError):
        SimConfig(ns=(10, 0))
    with pytest.raises(DomainError):
        SimConfig(n_sim=0)
    with pytest.raises(DomainError):
        SimConfig(rate=0.0)
    with pytest.raises(DomainError):
        SimConfig(rate="bogus")
    with pytest.raises(DomainError):
        SimConfig(master_seed=-1)
    with pytest.raises(DomainError):
        SimConfig(master_seed=1 << 64)


def test_run_grid_validation():
    with pytest.raises(DomainError):
        run_grid({"alphas": (1.0,)})
    config = SimConfig(alphas=(1.5,), ns=(5,), n_sim=2)
    with pytest.raises(DomainError):
        run_grid(config, workers=0)
    with pytest.raises(DomainError):
        run_grid(config, workers=True)


def test_a_negative_count_names_the_bound_and_a_negative_index_its_sign():
    with pytest.raises(DomainError) as err:
        SimConfig(n_sim=-1)
    assert str(err.value) == "n_sim must be >= 1, got -1"
    with pytest.raises(DomainError) as err:
        run_grid(SimConfig(alphas=(1.5,), ns=(5,), n_sim=2), workers=-1)
    assert str(err.value) == "workers must be >= 1, got -1"
    with pytest.raises(DomainError) as err:
        SimConfig(master_seed=-1)
    assert str(err.value) == "master_seed must be nonnegative, got -1"
    with pytest.raises(DomainError) as err:
        derive_stream(0, -3, 0, 0)
    assert str(err.value) == "alpha_index must be nonnegative, got -3"


def test_cell_means_match_closed_form_expectations():
    # CLT-scale run: sample means of the estimators must sit on the exact
    # finite-sample expectations, far from the population values
    rows = {row.estimator: row for row in run_cell(1.5, 10, 30_000, 1.0, 2024)}
    params = GammaParams(1.5)

    tt = rows["theil_t"]
    se = se_from_summary(tt)
    assert tt.mean_estimate == pytest.approx(E_TT_15_10, abs=4 * se)
    assert tt.mean_estimate == pytest.approx(expected_theil_t(params, 10), abs=4 * se)
    # the bias is dozens of standard errors wide: the mean must not sit on
    # the population value
    assert theil_t_population(params) - tt.mean_estimate > 10 * se
    assert tt.rel_bias == pytest.approx(REL_BIAS_TT_15_10, abs=4 * se / tt.true_value)

    tl = rows["theil_l"]
    se = se_from_summary(tl)
    assert tl.mean_estimate == pytest.approx(expected_theil_l(params, 10), abs=4 * se)
    assert theil_l_population(params) - tl.mean_estimate > 10 * se

    for base in ("theil_t", "theil_l", "atkinson"):
        unc = rows[base]
        cor = rows[base + "_corr"]
        assert abs(cor.rel_bias) < abs(unc.rel_bias)
        assert cor.mean_estimate > unc.mean_estimate


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: GammaParams(np.float32(1.5)).shape, 1.5),
        (lambda: GammaParams(np.int64(3), np.float64(2.0)), GammaParams(3.0, 2.0)),
        (lambda: run_cell(1.5, np.int64(5), 3, 1.0, 1), run_cell(1.5, 5, 3, 1.0, 1)),
        (lambda: run_cell(1.5, 5, np.int32(3), 1.0, np.uint64(1), np.int8(0)), run_cell(1.5, 5, 3, 1.0, 1)),
        (lambda: SimConfig(ns=(np.int64(10),), n_sim=np.int64(4)).ns, (10,)),
        (
            lambda: run_grid(SimConfig(alphas=(1.5,), ns=(5,), n_sim=3), workers=np.int64(1)),
            run_grid(SimConfig(alphas=(1.5,), ns=(5,), n_sim=3)),
        ),
        (lambda: _csv_field(np.float64(1.5)), "1.5"),
        (lambda: _csv_field(np.int64(5)), "5"),
        (lambda: SimConfig(alphas=(np.float32(1.5),)).alphas, (1.5,)),
    ],
)
def test_numpy_scalar_arguments(call, expected):
    assert call() == expected


@pytest.mark.xfail(
    strict=True,
    reason="at alpha=0.1, n=10 the corrected Atkinson overshoots (rel_bias about +0.0087 "
    "against about -0.0065 uncorrected): criterion 6(b) fails for this cell on some seeds",
)
def test_corrected_atkinson_small_shape_within_noise_on_seeds_1_to_10():
    for seed in range(1, 11):
        rows = {row.estimator: row for row in run_cell(0.1, 10, 1000, 1.0, seed)}
        unc, cor = rows["atkinson"], rows["atkinson_corr"]
        se_unc = se_from_summary(unc) / unc.true_value
        se_cor = se_from_summary(cor) / cor.true_value
        assert abs(cor.rel_bias) <= abs(unc.rel_bias) + 3.0 * math.hypot(se_unc, se_cor), seed
