"""Command-line interface: population values, estimation from data files,
and the Monte Carlo study exported as CSV.

Exit codes: 0 success, 1 domain or data error, 2 usage error,
3 correction unavailable.
"""

import argparse
import csv
import dataclasses
import itertools
import math
import operator
import os
import sys
import tempfile
import time

import numpy as np

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

CSV_HEADER = tuple(field.name for field in dataclasses.fields(SimSummary))


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


def _check_flag_positive(value, flag):
    if value <= 0:
        raise DomainError(f"{flag} must be strictly positive, got {value:g}")
    return value


def _read_observations(path):
    """Parse a UTF-8 data file (optionally with a byte-order mark): either one
    positive number per line, or CSV with an `income` column, detected from
    the first non-blank line read as a CSV row. Blank lines are ignored.
    Returns the observations as a float64 array.

    The file is parsed in one bulk pass. Only when that pass fails, or finds
    a value that is not finite and positive, is it scanned again line by
    line (`_scan_lines`, `_scan_incomes`). The scan raises the DomainError
    naming the line of the first invalid observation; if the bulk pass
    stopped only at a CSV row of blank fields, which the scan skips, it
    returns the values instead."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            first = next(filter(str.strip, handle), None)
            if first is None:
                raise DomainError(f"{path}: no observations found")
            lines = itertools.chain([first], handle)
            # a first line the csv module rejects is reported by the CSV scan
            is_csv = True
            try:
                column = _income_column(next(csv.reader([first])))
                is_csv = column is not None
                values = _bulk_incomes(lines, column) if is_csv else _bulk_lines(lines)
            except UnicodeDecodeError:
                raise
            except (ValueError, IndexError, csv.Error):
                values = None
        if values is None or not (np.isfinite(values) & (values > 0.0)).all():
            values = np.array(_scan_incomes(path) if is_csv else _scan_lines(path), dtype=float)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if values.size == 0:
        raise DomainError(f"{path}: no observations found")
    return values


def _bulk_lines(lines):
    return np.fromiter(map(float, filter(str.strip, lines)), dtype=float)


def _bulk_incomes(lines, column):
    reader = csv.reader(lines)
    next(reader)  # the header, whose `income` column is given
    # csv.reader yields [] for an empty line
    rows = filter(None, reader)
    return np.fromiter(map(float, map(operator.itemgetter(column), rows)), dtype=float)


def _income_column(header):
    """Index of the header's column named `income` once stripped (the last
    one if several are), or None."""
    names = [name.strip() for name in header]
    return max((i for i, name in enumerate(names) if name == "income"), default=None)


def _scan_lines(path):
    # split as the bulk pass does: at newlines only, not also at \v, \f, ...
    with open(path, "r", encoding="utf-8-sig") as handle:
        return [
            _parse_observation(line.strip(), path, line_num)
            for line_num, line in enumerate(handle, start=1)
            if line.strip()
        ]


def _scan_incomes(path):
    """A row whose fields are all blank is skipped unless it is longer than
    the header; `line_num` counts physical lines, so a quoted field that
    spans lines does not shift the line reported. A row the csv module
    rejects, such as one with a field over `csv.field_size_limit()`, raises
    DomainError naming its line."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(row for row in reader if "".join(row).strip())
            column = _income_column(header)
            values = []
            for row in reader:
                if len(row) <= len(header) and not "".join(row).strip():
                    continue
                raw = row[column] if column is not None and column < len(row) else ""
                if not raw.strip():
                    raise DomainError(f"{path}: line {reader.line_num}: missing income value")
                values.append(_parse_observation(raw, path, reader.line_num))
        except csv.Error as exc:
            raise DomainError(f"{path}: line {reader.line_num}: {exc}") from None
    return values


def _not_utf8(path, exc):
    # `exc` counts bytes from the start of the chunk being decoded, not of the file
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole_file:
        exc = whole_file
    return DomainError(f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})")


def _parse_observation(raw, path, line_num):
    try:
        value = float(raw)
    except ValueError:
        raise DomainError(f"{path}: line {line_num}: could not parse observation {raw!r}")
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(
            f"{path}: line {line_num}: observation must be strictly positive and finite, got {raw}"
        )
    return value


def cmd_population(args):
    alpha = _check_flag_positive(args.alpha, "--alpha")
    values = population_values(GammaParams(alpha))
    print(f"theil_t = {_fmt(values.theil_t)}")
    print(f"theil_l = {_fmt(values.theil_l)}")
    print(f"atkinson = {_fmt(values.atkinson)}")
    return 0


def cmd_expectation(args):
    alpha = _check_flag_positive(args.alpha, "--alpha")
    if args.n < 1:
        raise DomainError(f"--n must be a positive integer, got {args.n}")
    params = GammaParams(alpha)
    n = args.n
    print(f"expected_theil_t = {_fmt(expected_theil_t(params, n))}")
    print(f"bias_theil_t = {_fmt(bias_theil_t(params, n))}")
    print(f"expected_theil_l = {_fmt(expected_theil_l(params, n))}")
    print(f"bias_theil_l = {_fmt(bias_theil_l(params, n))}")
    print(f"expected_atkinson = {_fmt(expected_atkinson(params, n))}")
    print(f"bias_atkinson = {_fmt(bias_atkinson(params, n))}")
    return 0


def cmd_estimate(args):
    sample = Sample(_read_observations(args.input))
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
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".results-", suffix=".csv.tmp")
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
    # an --out whose directory cannot be written fails now, not after the grid
    tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(args.out))).close()
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
        "--workers", type=int, default=1, help="process count for cell-level parallelism"
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
    except (DomainError, DegenerateSampleError, NoConvergenceError) as exc:
        print(f"gammaineq: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gammaineq: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
