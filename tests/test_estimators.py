"""Sample estimators: frozen worked examples, algebraic invariants under
permutation and rescaling, the bias correction, the one-pass
estimate -> fit -> correct path of estimate_all, fit_shape and the engine,
and the package's import graph."""

import ast
import graphlib
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PAIR_REPORT, numpy_build_note, pinned, pinned_gamma_sample
import gammaineq
from gammaineq import (
    CorrectionUnavailableError,
    DegenerateSampleError,
    DomainError,
    EstimateReport,
    GammaParams,
    Sample,
    atkinson_hat,
    bias_atkinson,
    bias_theil_l,
    bias_theil_t,
    derive_stream,
    estimate_all,
    fit_shape,
    sample_gamma,
    theil_l_hat,
    theil_t_hat,
)
from gammaineq import estimators, mle, simulation
from gammaineq.cli import main
from gammaineq.mle import _bias_corrected, _row_estimates, _sample_rows

# frozen 40-digit oracle values for the sample {1, 3}
TT_1_3 = 0.13081203594113696  # ln 2 - (3/4) ln 3 + (3/2) ln 3 - ... collapsed form
TL_1_3 = 0.14384103622589046  # ln 2 - (1/2) ln 3
AT_1_3 = 0.13397459621556135  # 1 - sqrt(3)/2
# corrected at alpha_hat = 1, n = 2 (estimate minus the frozen bias values)
TT_CORR_1_3 = 0.36044919047965879
TL_CORR_1_3 = 0.41420388168736863
AT_CORR_1_3 = 0.35791327604612449


def corrected(sample, alpha_hat):
    """The three corrected estimates of sample at the shape alpha_hat, from
    the correction function that estimate_all and the engine share."""
    tt, tl, at, _ = _row_estimates(_sample_rows(sample))
    return [float(v[0]) for v in _bias_corrected(tt, tl, at, np.array([alpha_hat]), sample.n)]


positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
observation_lists = st.lists(positive_floats, min_size=1, max_size=40)


def test_frozen_pair_example():
    sample = Sample([1.0, 3.0])
    assert theil_t_hat(sample) == pytest.approx(TT_1_3, abs=1e-12)
    assert theil_l_hat(sample) == pytest.approx(TL_1_3, abs=1e-12)
    assert atkinson_hat(sample) == pytest.approx(AT_1_3, abs=1e-12)


def test_frozen_corrected_pair_example():
    tt, tl, at = corrected(Sample([1.0, 3.0]), 1.0)
    assert tt == pytest.approx(TT_CORR_1_3, abs=1e-12)
    assert tl == pytest.approx(TL_CORR_1_3, abs=1e-12)
    assert at == pytest.approx(AT_CORR_1_3, abs=1e-12)


def test_equal_observations_give_exact_zero():
    sample = Sample([5.0, 5.0, 5.0, 5.0])
    assert theil_t_hat(sample) == 0.0
    assert theil_l_hat(sample) == 0.0
    assert atkinson_hat(sample) == 0.0


def test_single_observation_gives_exact_zero():
    sample = Sample([7.25])
    assert theil_t_hat(sample) == 0.0
    assert theil_l_hat(sample) == 0.0
    assert atkinson_hat(sample) == 0.0


def test_atkinson_reaches_one_only_past_54_ln_2():
    # -expm1(-theil_l_hat) rounds to 1.0 once exp(-theil_l_hat) is below
    # half an ulp of 1; a gap of 1e-30 keeps theil_l_hat at 33.8 and 1e-40
    # takes it to 45.4
    assert atkinson_hat(Sample([1.0, 1e-30])) < 1.0
    assert theil_l_hat(Sample([1.0, 1e-40])) > 54 * math.log(2)
    assert atkinson_hat(Sample([1.0, 1e-40])) == 1.0
    assert atkinson_hat(Sample([3.0, 3.0])) == 0.0


def test_estimators_reject_raw_arrays():
    with pytest.raises(DomainError):
        theil_t_hat([1.0, 2.0])
    with pytest.raises(DomainError):
        theil_l_hat(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        atkinson_hat((1.0, 2.0))


@given(observation_lists)
def test_estimates_nonnegative_and_bounded(xs):
    sample = Sample(xs)
    tt = theil_t_hat(sample)
    tl = theil_l_hat(sample)
    at = atkinson_hat(sample)
    assert tt >= 0.0
    assert tl >= 0.0
    assert 0.0 <= at < 1.0
    assert at == pytest.approx(-math.expm1(-tl), abs=1e-15)


@given(observation_lists, st.sampled_from([1e-6, 1e-3, 0.5, 2.0, 1e3, 1e6]))
def test_estimates_scale_invariant(xs, c):
    base = Sample(xs)
    scaled = Sample([c * x for x in xs])
    assert theil_t_hat(scaled) == pytest.approx(theil_t_hat(base), rel=1e-9, abs=1e-12)
    assert theil_l_hat(scaled) == pytest.approx(theil_l_hat(base), rel=1e-9, abs=1e-12)
    assert atkinson_hat(scaled) == pytest.approx(atkinson_hat(base), rel=1e-9, abs=1e-12)


@given(observation_lists, st.randoms(use_true_random=False))
def test_estimates_permutation_invariant_bitwise(xs, rng):
    shuffled = list(xs)
    rng.shuffle(shuffled)
    a, b = Sample(xs), Sample(shuffled)
    assert theil_t_hat(a) == theil_t_hat(b)
    assert theil_l_hat(a) == theil_l_hat(b)
    assert atkinson_hat(a) == atkinson_hat(b)


@given(observation_lists)
def test_atkinson_matches_mean_ratio_route(xs):
    sample = Sample(xs)
    arithmetic = math.fsum(xs) / len(xs)
    geometric = math.exp(math.fsum(math.log(x) for x in xs) / len(xs))
    assert atkinson_hat(sample) == pytest.approx(1.0 - geometric / arithmetic, abs=1e-12)


@given(
    st.lists(positive_floats, min_size=2, max_size=40),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
def test_correction_always_increases(xs, alpha_hat):
    sample = Sample(xs)
    tt, tl, at = corrected(sample, alpha_hat)
    assert tt > theil_t_hat(sample)
    assert tl > theil_l_hat(sample)
    assert at >= atkinson_hat(sample)


def test_correction_shift_equals_negative_bias():
    sample = Sample([0.5, 1.25, 4.0])
    for alpha_hat in (0.3, 1.0, 12.0):
        params = GammaParams(alpha_hat)
        tt, tl, at = corrected(sample, alpha_hat)
        assert tt - theil_t_hat(sample) == pytest.approx(-bias_theil_t(params, 3), abs=1e-12)
        assert tl - theil_l_hat(sample) == pytest.approx(-bias_theil_l(params, 3), abs=1e-12)
        assert at - atkinson_hat(sample) == pytest.approx(-bias_atkinson(params, 3), abs=1e-12)


def test_estimate_all_without_correction():
    report = estimate_all(Sample([1.0, 3.0]))
    assert report.n == 2
    assert report.theil_t_hat == pytest.approx(TT_1_3, abs=1e-12)
    assert report.alpha_hat is None
    assert report.theil_t_corrected is None
    assert report.theil_l_corrected is None
    assert report.atkinson_corrected is None
    assert report.notes == ()


def test_estimate_all_with_correction_smoke():
    sample = sample_gamma(GammaParams(1.5), 50, derive_stream(7, 0, 0, 0))
    report = estimate_all(sample, apply_correction=True)
    assert report.alpha_hat is not None and report.alpha_hat > 0.0
    assert report.theil_t_corrected > report.theil_t_hat
    assert report.theil_l_corrected > report.theil_l_hat
    assert report.atkinson_corrected >= report.atkinson_hat
    assert report.notes == ()


@pytest.mark.parametrize(
    "make_sample, expected",
    [
        (lambda: Sample([1.0, 3.0]), PAIR_REPORT),
        (
            pinned_gamma_sample,
            EstimateReport(
                n=10000,
                theil_t_hat=0.29625414094940794,
                theil_l_hat=0.3685456563729967,
                atkinson_hat=0.30826037344526824,
                alpha_hat=1.501603559782865,
                theil_t_corrected=0.29628743831655385,
                theil_l_corrected=0.3685789544793021,
                atkinson_corrected=0.30829265932768435,
            ),
        ),
    ],
)
def test_estimate_all_report_pinned(make_sample, expected):
    if isinstance(expected, dict):  # a pin for each SIMD class
        expected = pinned(expected)
    assert estimate_all(make_sample(), apply_correction=True) == expected, numpy_build_note()


def test_estimate_all_runs_kernel_and_solver_once(monkeypatch):
    # estimate_all and fit_shape each make one pass and run no step they do
    # not return; a grid runs the row kernel once per block and the fit and
    # correction once over all of its rows; no error is built for a fit that
    # succeeds
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(mle, "_row_estimates")
    count(estimators, "_row_estimates")
    count(simulation, "_row_estimates")
    count(mle, "_fit_shapes")
    count(mle, "_fit_error")
    count(estimators, "_fit_error")
    count(mle, "_bias_corrected")
    fit = {"_fit_shapes": 1}
    correct = {**fit, "_bias_corrected": 1}
    for run, expected in (
        (lambda: estimate_all(pinned_gamma_sample(), apply_correction=True).alpha_hat,
         {"_row_estimates": 1, **correct}),
        (lambda: estimate_all(pinned_gamma_sample()).n, {"_row_estimates": 1}),
        (lambda: fit_shape(pinned_gamma_sample()).alpha_hat, {"_row_estimates": 1, **fit}),
        # n = 10 is one block of 7 replications, n = 20000 three (3, 3, 1)
        (lambda: simulation.run_grid(simulation.SimConfig(alphas=(1.5,), ns=(10, 20_000), n_sim=7)),
         {"_row_estimates": 4, **correct}),
    ):
        calls.clear()
        assert run()
        assert calls == expected


def test_estimate_all_single_observation_raises_with_report():
    with pytest.raises(CorrectionUnavailableError) as err:
        estimate_all(Sample([4.0]), apply_correction=True)
    report = err.value.report
    assert report is not None
    assert report.n == 1
    assert report.theil_t_hat == 0.0
    assert report.alpha_hat is None


def test_estimate_all_degenerate_raises_with_report():
    with pytest.raises(CorrectionUnavailableError) as err:
        estimate_all(Sample([5.0, 5.0, 5.0]), apply_correction=True)
    report = err.value.report
    assert report is not None
    assert report.atkinson_hat == 0.0


@pytest.mark.parametrize(
    "xs, message",
    [
        ([3.25], "shape fit needs at least two observations"),
        ([5.0, 5.0, 5.0], "all observations are (numerically) equal; the fitted shape diverges"),
    ],
)
def test_fit_failures_pinned(tmp_path, capsys, xs, message):
    # the full type and message of every way a sample's fit can fail, from
    # fit_shape, estimate_all and `estimate --correct`
    with pytest.raises(DegenerateSampleError) as err:
        fit_shape(Sample(xs))
    assert (type(err.value), str(err.value)) == (DegenerateSampleError, message)

    with pytest.raises(CorrectionUnavailableError) as err:
        estimate_all(Sample(xs), apply_correction=True)
    assert str(err.value) == f"correction unavailable: {message}"
    cause = err.value.__cause__
    assert (type(cause), str(cause)) == (DegenerateSampleError, message)
    assert err.value.report == EstimateReport(
        n=len(xs), theil_t_hat=0.0, theil_l_hat=0.0, atkinson_hat=0.0
    )

    data = tmp_path / "obs.txt"
    data.write_text("".join(f"{x!r}\n" for x in xs))
    code = main(["estimate", str(data), "--correct"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"gammaineq: correction unavailable: {message}\n")


def test_estimate_all_near_degenerate_carries_note():
    report = estimate_all(Sample([1.0, 1.001]), apply_correction=True)
    assert report.alpha_hat > 1e6
    assert report.notes
    assert "near-degenerate" in report.notes[0]


def test_package_imports_sit_at_module_level_and_form_a_dag():
    package = pathlib.Path(gammaineq.__file__).parent
    graph = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}: import inside a function at line {inner[0].lineno}"
        graph[path.stem] = {
            name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        }
    assert "estimators" not in graph["mle"]
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
