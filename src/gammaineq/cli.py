"""Command-line interface: population values, estimation from data files,
and the Monte Carlo study exported as CSV.

Exit codes: 0 success, 1 domain or data error, 2 usage error,
3 correction unavailable.
"""

import argparse
import codecs
import csv
import dataclasses
import errno
import gc
import io
import itertools
import math
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from ._fork import fork_map
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

# A file that is cut into ranges (`_read_ranges`) is parsed by k =
# min(available CPUs, size // _RANGE_BYTES) processes when k > 1. Twice this
# size is where a forked second process starts to pay on a 2-core machine,
# in both formats. _read_observations timed once per fresh interpreter,
# alternating pairs of one pass against two processes, median ms (pairs
# with two faster): one value per line, 22.6 against 24.6 on a 0.5 MiB file
# (4 of 20), 45.7 against 38.1 on 1 MiB (14 of 20), 70.1 against 59.2 on
# 2 MiB (15 of 20) and 172 against 114 on 4 MiB (20 of 20); a CSV of four
# columns, which numpy parses about 1.5 times as fast per byte, 15.3
# against 17.0 on 0.5 MiB (0 of 12), 27.8 against 23.5 on 1 MiB (13 of 20),
# 55.2 against 41.3 on 2 MiB (12 of 12) and 95.7 against 67.9 on 4 MiB
# (10 of 12).
_RANGE_BYTES = 2**19

# The file is cut into this many ranges per process, handed out in turn,
# so that a process the host slows down parses fewer of them.
_RANGES_PER_WORKER = 4

# How far _cuts reads at a time looking for a newline.
_SCAN_BYTES = 2**16


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

    The file is opened once, and the open file, never its path, is handed
    to numpy's C text reader (`np.loadtxt`). A file that cannot seek, such
    as a pipe, is held in memory as bytes. The rows begin at the first byte
    of a one-value-per-line file and just after a CSV file's header
    (`_rows_start`). From there, a file of at least twice `_RANGE_BYTES` is
    cut into ranges that one process per available CPU parses
    (`_read_ranges`); smaller files, pipes and any input of which a range
    fails are parsed here as one range, up to the end (`_read_range`).
    Values and errors are the same at any CPU count. Only when numpy's read
    fails, or finds a value that is not finite and positive, is the whole
    file read again from the start, line by line (`_scan_lines`,
    `_scan_incomes`). What reaches the scan: any invalid observation, a
    line of two numbers, a short CSV row or a CSV row of blank fields, and
    spellings that `float` accepts but numpy does not, such as `1_000` or
    non-ASCII digits. The scan raises the DomainError naming the line of
    the first invalid observation, or returns the values if there is none.
    A byte that is not UTF-8 is named by its offset in the whole input.

    numpy's reader accepts two kinds of CSV file that the scan rejects: an
    income with the ASCII separator controls U+001C to U+001F around it,
    which numpy strips and `float` does not, and a field longer than
    `csv.field_size_limit()`."""
    with open(path, "rb") as file:
        source = file if file.seekable() else io.BytesIO(file.read())
        try:
            # a header the csv module rejects is reported by the CSV scan
            is_csv = True
            try:
                start, column = _rows_start(source)
                is_csv = column is not None
                values = _read_ranges(source, start, column) if source is file else None
                if values is None:
                    source.seek(start)
                    values = _read_range(source, start == 0, column)
            except csv.Error:
                values = None
            if values is None or not (np.isfinite(values) & (values > 0.0)).all():
                source.seek(0)
                handle = io.TextIOWrapper(source, encoding="utf-8-sig")
                scan = _scan_incomes if is_csv else _scan_lines
                values = np.array(scan(handle, path), dtype=float)
        except UnicodeDecodeError as exc:
            source.seek(0)
            raise _not_utf8(path, source.read(), exc) from None
    if values.size == 0:
        raise DomainError(f"{path}: no observations found")
    return values


def _rows_start(source):
    """(start, column) of the binary stream `source`, read from its first
    byte: the offset where the rows begin, and the index of the `income`
    column in the header, the first non-blank line, after an optional
    byte-order mark, read as a CSV row. Without it, (0, None): one value per
    line. Else the rows begin just after the header record, which csv.reader
    reads on over quoted newlines. A byte that is not UTF-8 raises
    UnicodeDecodeError; a header the csv module rejects, csv.Error."""
    start = len(codecs.BOM_UTF8) if source.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0
    source.seek(0)
    # newline="": each line keeps its own ending, LF, CRLF or a lone CR, so
    # it encodes back to exactly its bytes
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")

    def lines():
        nonlocal start
        for line in text:
            start += len(line.encode())
            yield line

    try:
        rest = lines()
        first = next(filter(str.strip, rest), None)
        column = None if first is None else _income_column(next(csv.reader([first])))
        if column is None:
            return 0, None
        next(csv.reader(itertools.chain([first], rest)))
    finally:
        # leaves `source` open for its owner
        text.detach()
    return start, column


def _read_ranges(source, start, column):
    """The values of bytes [start, size) of the open file `source` parsed in
    ranges, one value per line if `column` is None, else CSV rows with the
    value in `column`; None if the file is not cut or any range fails. The
    caller then parses it as one range, which decides which of an invalid
    line and a byte that is not UTF-8 is met first: that can depend on how
    far numpy reads ahead.

    With k = min(available CPUs, size // _RANGE_BYTES) > 1, the bytes are
    cut into _RANGES_PER_WORKER * k ranges (`_cuts`) that k processes parse,
    this one and k - 1 forked from it, each taking the next range when done
    with one (`fork_map`). A range's values are written to an unnamed spill
    file at 8 * its first byte (`_read_file_range`), and only their count
    comes back; they are read back here into one array, in range order. A
    line's value, or a CSV row's, does not depend on where its range begins."""
    fd = source.fileno()
    size = os.fstat(fd).st_size
    # the CPUs this process may run on; a platform without the call gets one range
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, size // _RANGE_BYTES)
    cuts = _cuts(fd, size, _RANGES_PER_WORKER * workers if workers > 1 else 1, start)
    if len(cuts) <= 2:
        return None
    with tempfile.TemporaryFile() as spill:
        try:
            counts = fork_map(
                lambda span: _read_file_range(fd, spill.fileno(), *span, column=column),
                zip(cuts, cuts[1:]),
                workers,
            )
        except UnicodeDecodeError:
            return None
        if None in counts:
            return None
        values = np.empty(sum(counts))
        for start, part in zip(cuts, np.split(values, np.cumsum(counts[:-1]))):
            spill.seek(8 * start)
            spill.readinto(part)
    return values


def _cuts(fd, size, parts, start=0):
    """Offsets start < c1 < ... < size cutting bytes [start, size) of the
    open file `fd` of `size` bytes into at most `parts` ranges of about
    equal size, each cut just after a newline, so that no line, CRLF pair
    or UTF-8 character is split. With fewer than two parts, [start, size]."""
    cuts = [start]
    for i in range(1, parts):
        at = max(start + (size - start) * i // parts, cuts[-1])
        while at < size:
            found = os.pread(fd, _SCAN_BYTES, at).find(b"\n")
            if found >= 0:
                cuts.append(at + found + 1)
                break
            at += _SCAN_BYTES
        else:
            # no newline after `at`: no later cut either
            break
    return [cut for cut in cuts if cut < size] + [size]


def _read_file_range(fd, spill, start, stop, column):
    """_read_range of bytes [start, stop) of the open file `fd`, written to
    the open file `spill` at 8 * start; returns the number of values, or
    None where _read_range does and for CSV rows with a `"` in them: numpy
    ends an unclosed quote at the end of its input, so both halves of a
    quoted field that spans a cut would parse."""
    # the range's bytes, read at their offset: the file's offset, which
    # forked processes share, never moves
    chunks = []
    at = start
    while at < stop and (chunk := os.pread(fd, stop - at, at)):
        chunks.append(chunk)
        at += len(chunk)
    data = b"".join(chunks)
    if column is not None and b'"' in data:
        return None
    values = _read_range(io.BytesIO(data), start == 0, column)
    if values is None:
        return None
    data, at = memoryview(values).cast("B"), 8 * start
    while data:
        written = os.pwrite(spill, data, at)
        data, at = data[written:], at + written
    return values.size


def _read_range(binary, first, column):
    """numpy's C reader on the binary stream `binary` from where it stands to
    its end: from the start of the input if `first`, where a byte-order
    mark is skipped, else from just after a newline. It holds one value per
    line if `column` is None, else CSV rows, each read on its own, with the
    value in `column`. Newlines are translated as `open` does. Returns the
    values, or None if numpy fails or a line holds more than one number; a
    byte that is not UTF-8 raises UnicodeDecodeError."""
    layout = (
        {"ndmin": 2}
        if column is None
        else {"delimiter": ",", "quotechar": '"', "usecols": column, "ndmin": 1}
    )
    text = io.TextIOWrapper(binary, encoding="utf-8-sig" if first else "utf-8")
    try:
        with warnings.catch_warnings():
            # no rows, or blank lines only: the caller reports no
            # observations
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: numpy would otherwise read `1.5#x` as 1.5
            values = np.loadtxt(text, dtype=float, comments=None, **layout)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    finally:
        # leaves `binary` open for its owner
        text.detach()
    if column is not None:
        return values
    return values[:, 0] if values.shape[1] == 1 else None


def _income_column(header):
    """Index of the header's column named `income` once stripped (the last
    one if several are), or None."""
    names = [name.strip() for name in header]
    return max((i for i, name in enumerate(names) if name == "income"), default=None)


def _scan_lines(lines, path):
    # `lines`, a file, splits at newlines only, not also at \v, \f, ...
    return [
        _parse_observation(line.strip(), path, line_num)
        for line_num, line in enumerate(lines, start=1)
        if line.strip()
    ]


def _scan_incomes(lines, path):
    """A row whose fields are all blank is skipped unless it is longer than
    the header; `line_num` counts physical lines, so a quoted field that
    spans lines does not shift the line reported. A row the csv module
    rejects, such as one with a field over `csv.field_size_limit()`, raises
    DomainError naming its line."""
    reader = csv.reader(lines)
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


def _not_utf8(path, data, exc):
    # `exc` counts bytes from the start of the chunk being decoded; decoding
    # all of `data`, the input from its first byte, counts from the start
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole_input:
        exc = whole_input
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
    # an --out that names no file or a directory, or whose directory cannot
    # be written, fails now, not after the grid
    if os.path.basename(args.out) in ("", os.curdir, os.pardir):
        raise DomainError(f"--out must name a file, got {args.out!r}")
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
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
        "--workers",
        type=int,
        default=1,
        help="processes: the grid's blocks are split into at most this many contiguous "
        "runs, one per process; the output is identical at any count",
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
