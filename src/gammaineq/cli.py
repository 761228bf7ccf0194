"""Command-line interface: population values, estimation from data files,
and the Monte Carlo study exported as CSV.

Exit codes: 0 success, 1 domain or data error, 2 usage error,
3 correction unavailable.
"""

import argparse
import csv
import dataclasses
import errno
import gc
import os
import sys
import tempfile
import time

from ._fork import M_TOP_PAD, malloc_call

# cmd_estimate calls the reader by this name, which bench/tracer.py wraps
from ._read import _read_observations
from .exceptions import (
    CorrectionUnavailableError,
    DegenerateSampleError,
    DomainError,
    NoConvergenceError,
)
from .estimators import estimate_all
from .model import (
    GammaParams,
    Sample,
    bias_atkinson,
    bias_theil_l,
    bias_theil_t,
    expected_atkinson,
    expected_theil_l,
    expected_theil_t,
    population_values,
)
from .simulation import (
    DEFAULT_ALPHAS,
    DEFAULT_MASTER_SEED,
    DEFAULT_N_SIM,
    DEFAULT_NS,
    RATE_ALPHA,
    SimConfig,
    SimSummary,
    run_grid,
)
from .special import _check_count, _check_positive

CSV_HEADER = tuple(field.name for field in dataclasses.fields(SimSummary))

# The freed heap glibc keeps at the top of its heap while `simulate` runs
# its grid (`mallopt`'s M_TOP_PAD). Each block of replications frees several
# 512 KiB numpy temporaries there; without a pad glibc hands their pages
# back to the kernel and the next block faults them in again. Setting the
# pad also stops glibc from raising its mmap and trim thresholds as it goes,
# so a small pad does worse than none: on a 2-core guest, a grid of 20,000
# reps per cell at --workers 1 took 477k minor page faults with 8 MiB,
# against 182k without a pad and 13k with this one.
_SIMULATE_TOP_PAD = 64 << 20


def _fmt(value):
    # human-readable: 12 significant digits, trailing zeros kept
    return format(value, "#.12g")


def _list_parser(kind, what):
    def parse(text):
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


def _parse_rate(text):
    if text == RATE_ALPHA:
        return RATE_ALPHA
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'alpha', got {text!r}")


def cmd_population(args):
    values = population_values(GammaParams(_check_positive(args.alpha, "--alpha")))
    print(f"theil_t = {_fmt(values.theil_t)}")
    print(f"theil_l = {_fmt(values.theil_l)}")
    print(f"atkinson = {_fmt(values.atkinson)}")
    return 0


def cmd_expectation(args):
    params = GammaParams(_check_positive(args.alpha, "--alpha"))
    n = _check_count(args.n, "--n")
    # one print of all six: a value that raises leaves stdout empty
    print(
        f"expected_theil_t = {_fmt(expected_theil_t(params, n))}\n"
        f"bias_theil_t = {_fmt(bias_theil_t(params, n))}\n"
        f"expected_theil_l = {_fmt(expected_theil_l(params, n))}\n"
        f"bias_theil_l = {_fmt(bias_theil_l(params, n))}\n"
        f"expected_atkinson = {_fmt(expected_atkinson(params, n))}\n"
        f"bias_atkinson = {_fmt(bias_atkinson(params, n))}"
    )
    return 0


def cmd_estimate(args):
    # the reader's array is already 1-D, nonempty, finite and positive
    sample = Sample._adopt(_read_observations(args.input))
    report = estimate_all(sample, apply_correction=args.correct)
    print(f"n = {report.n}")
    print(f"theil_t_hat = {_fmt(report.theil_t_hat)}")
    print(f"theil_l_hat = {_fmt(report.theil_l_hat)}")
    print(f"atkinson_hat = {_fmt(report.atkinson_hat)}")
    if report.alpha_hat is not None:
        print(f"alpha_hat = {_fmt(report.alpha_hat)}")
        print(f"theil_t_corrected = {_fmt(report.theil_t_corrected)}")
        print(f"theil_l_corrected = {_fmt(report.theil_l_corrected)}")
        print(f"atkinson_corrected = {_fmt(report.atkinson_corrected)}")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _csv_field(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_results_csv(path, summaries):
    """Write summaries as CSV (shortest round-trip float encoding, LF line
    endings), atomically: the target appears only fully written."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".results-{os.urandom(8).hex()}.csv.tmp")
    # the kernel applies the umask, as it does for open(path, "w")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for row in summaries:
                writer.writerow(map(_csv_field, dataclasses.astuple(row)))
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def cmd_simulate(args):
    config = SimConfig(
        alphas=args.alphas,
        ns=args.ns,
        n_sim=args.nsim,
        rate=args.rate,
        master_seed=args.seed,
    )
    # an --out that names no file, a directory or another file that is not
    # regular, or whose directory cannot be written, fails now, not after
    # the grid; the CSV would replace a FIFO or a device, not be written to it
    if os.path.basename(args.out) in ("", os.curdir, os.pardir):
        raise DomainError(f"--out must name a file, got {args.out!r}")
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(args.out))).close()
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        raise DomainError(f"--out must name a regular file, got {args.out!r}")
    # the grid does not trim the kept heap: each of its processes hands it
    # back to the system as it exits
    malloc_call("mallopt", M_TOP_PAD, _SIMULATE_TOP_PAD)
    started = time.perf_counter()
    summaries = run_grid(config, workers=args.workers)
    elapsed = time.perf_counter() - started
    write_results_csv(args.out, summaries)
    print(
        f"simulate: {len(config.alphas)} alphas x {len(config.ns)} ns x {config.n_sim} reps; "
        f"seed {config.master_seed}; {len(summaries)} rows -> {args.out}; {elapsed:.2f} s",
        file=sys.stderr,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gammaineq",
        description=(
            "Theil and Atkinson inequality indices under a gamma population: "
            "exact values, estimation from data, and a Monte Carlo bias study."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pop = sub.add_parser("population", help="population index values at a given shape")
    p_pop.add_argument("--alpha", type=float, required=True, help="gamma shape parameter")
    p_pop.set_defaults(func=cmd_population)

    p_exp = sub.add_parser(
        "expectation", help="closed-form estimator expectations and biases at (alpha, n)"
    )
    p_exp.add_argument("--alpha", type=float, required=True, help="gamma shape parameter")
    p_exp.add_argument("--n", type=int, required=True, help="sample size")
    p_exp.set_defaults(func=cmd_expectation)

    p_est = sub.add_parser("estimate", help="estimate the indices from a data file")
    p_est.add_argument("input", help="one value per line, or CSV with an 'income' column")
    p_est.add_argument(
        "--correct", action="store_true", help="also fit the shape and apply bias corrections"
    )
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo grid and write CSV")
    p_sim.add_argument(
        "--alphas",
        type=_list_parser(float, "numbers"),
        default=DEFAULT_ALPHAS,
        help="comma-separated shape values (default: 0.1,0.5,1.5,2.0)",
    )
    p_sim.add_argument(
        "--ns",
        type=_list_parser(int, "integers"),
        default=DEFAULT_NS,
        help="comma-separated sample sizes (default: 10,20,50,100,200)",
    )
    p_sim.add_argument("--nsim", type=int, default=DEFAULT_N_SIM, help="replications per cell")
    p_sim.add_argument(
        "--rate",
        type=_parse_rate,
        default=1.0,
        help="sampling rate parameter, or 'alpha' for rate equal to each cell's shape",
    )
    p_sim.add_argument(
        "--seed", type=int, default=DEFAULT_MASTER_SEED, help="64-bit master seed"
    )
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes: the grid's cells are split into at most this many contiguous "
        "runs of whole cells, one per process, so a grid of fewer cells uses fewer; "
        "the output is identical at any count",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorrectionUnavailableError as exc:
        print(f"gammaineq: {exc}", file=sys.stderr)
        return 3
    except (DomainError, DegenerateSampleError, NoConvergenceError, OSError) as exc:
        print(f"gammaineq: {exc}", file=sys.stderr)
        return 1


def _entry():
    """The process entry of `python -m gammaineq` and the `gammaineq` script.
    With the imports done, their objects are moved out of the garbage
    collector's reach (`gc.freeze`): exit does not traverse them, and
    children that `fork_map` forks do not write to their pages when they
    collect. `main` itself leaves the collector as it is."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    _entry()
