"""Monte Carlo harness: stream derivation, the block layout against a
manual recompute with the scalar functions, grid ordering, parallel
determinism, numpy scalar arguments, and a CLT-scale check of the
closed-form expectations."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import numpy_build_note, se_from_summary
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
from gammaineq import simulation
from gammaineq.cli import _csv_field
from gammaineq.simulation import _run_block, _run_tasks, _split

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


def check_cell_against_manual(alpha, n, n_sim, seed, alpha_index, n_index):
    sizes, manual = manual_cell(alpha, n, n_sim, seed, alpha_index, n_index)
    params = GammaParams(alpha)
    engine_values = _run_tasks(
        [(params, n, rows, seed, alpha_index, n_index, block) for block, rows in enumerate(sizes)]
    )
    rows = {
        row.estimator: row
        for row in run_cell(alpha, n, n_sim, 1.0, seed, alpha_index=alpha_index, n_index=n_index)
    }
    for engine, key in zip(engine_values, ESTIMATOR_IDS):
        values = manual[key]
        # the engine and the scalar functions share one estimate -> fit ->
        # correct path, so every value and aggregate agrees to the bit
        assert engine.tolist() == values, key
        row = rows[key]
        assert row.mean_estimate == math.fsum(values) / n_sim
        assert row.mse == math.fsum((v - row.true_value) ** 2 for v in values) / n_sim
        assert row.n_effective == n_sim
        assert row.n_failed == 0
    return sizes


def test_run_cell_matches_manual_recompute():
    assert check_cell_against_manual(2.0, 4, 3, 17, 0, 0) == [3]


def test_run_cell_multi_block_matches_per_block_recompute():
    # 2**16 // 20000 = 3 replications per block: blocks of 3, 3 and 1
    assert check_cell_against_manual(0.5, 20_000, 7, 23, 1, 2) == [3, 3, 1]


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
    _run_block(GammaParams(1.5), n, rows, 42, 2, 0, 0)
    tracemalloc.start()
    try:
        _run_block(GammaParams(1.5), n, rows, 42, 2, 0, 1)
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


def test_run_grid_single_cell_matches_run_cell():
    config = SimConfig(alphas=(1.5,), ns=(5,), n_sim=40, master_seed=99)
    assert run_grid(config) == run_cell(1.5, 5, 40, 1.0, 99)


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
    # n = 40000 holds one replication per block: five blocks per cell, so
    # the 12 tasks split into 3 runs at a boundary inside a cell, and 13
    # workers exceed the task count
    config = SimConfig(alphas=(0.5, 2.0), ns=(5, 40_000), n_sim=5, master_seed=7)
    assert run_grid(config, workers=workers) == run_grid(config, workers=1)


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
    tasks = [(GammaParams(1.5), n, rows, 0, 0, 0, b) for b, (n, rows) in enumerate(sizes)]
    runs = _split(tasks, parts)
    assert 1 <= len(runs) <= min(parts, len(tasks))
    assert all(runs)
    # concatenated in order, the runs give back every task once
    assert [task for run in runs for task in run] == tasks


@pytest.mark.parametrize("parts, lengths", [(2, [18] * 2), (3, [12] * 3), (36, [1] * 36), (10**9, [1] * 36)])
def test_split_balances_variates(parts, lengths):
    tasks = [(GammaParams(1.5), 10, 100, 0, 0, 0, b) for b in range(36)]
    assert [len(run) for run in _split(tasks, parts)] == lengths


@pytest.mark.parametrize("workers, parent_fits", [(1, 1), (2, 0)])
def test_parent_fits_only_on_the_serial_path(monkeypatch, workers, parent_fits):
    # with a pool the workers fit and correct; the parent only aggregates.
    # The serial path fits all 120 rows in one call.
    config = SimConfig(alphas=(0.5, 2.0), ns=(5, 20), n_sim=30, master_seed=3)
    serial = run_grid(config)
    calls = []
    fit_and_correct = simulation._fit_and_correct

    def counted(*args):
        calls.append(args)
        return fit_and_correct(*args)

    monkeypatch.setattr(simulation, "_fit_and_correct", counted)
    assert run_grid(config, workers=workers) == serial
    assert len(calls) == parent_fits


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
    with pytest.raises(DomainError):
        SimConfig(alphas=())
    with pytest.raises(DomainError):
        SimConfig(alphas=(1.0, 1.0))
    with pytest.raises(DomainError):
        SimConfig(alphas=(1.0, 1e6))  # smallest true index below 1e-6
    with pytest.raises(DomainError, match="alpha"):
        SimConfig(alphas=(True,))
    with pytest.raises(DomainError, match="alpha"):
        SimConfig(alphas=("x",))
    with pytest.raises(DomainError):
        SimConfig(ns=())
    with pytest.raises(DomainError):
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
