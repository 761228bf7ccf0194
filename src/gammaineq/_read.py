"""Read the observations of `gammaineq estimate` from a data file."""

import array
import codecs
import csv
import io
import itertools
import math
import os
import re
import warnings

import numpy as np

from ._fork import fork_map, malloc_call, split
from .exceptions import DomainError

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

# The file is cut into this many ranges per process; each process parses
# one contiguous run of them, in turn. A process holds one range's bytes at
# a time, a quarter of its share, and its ranges' values until they are
# returned.
# On a 2-core machine, `estimate --correct` of an 18.9 MB file of 1M lines:
# the forked process's peak RSS is 31.5 MiB with four ranges against 34.9
# MiB with one, while the run's peak, which is this process's, is 52.7
# against 53.0 MiB. One range per process measured no faster: `bench/run.py
# --workload estimate_files` wall_s medians of 0.844 s against 0.841 s with
# four, faster in 5 of 10 pairs, and peak_rss_mb 240.8 against 240.9 MiB.
_RANGES_PER_WORKER = 4

# How far _chunks reads at a time before it reads on to the next newline.
_SCAN_BYTES = 2**16


def _read_observations(path):
    """Parse a UTF-8 data file (optionally with a byte-order mark): either one
    positive number per line, or CSV with an `income` column, detected from
    the first non-blank line read as a CSV row. Blank lines are ignored.
    Returns the observations as a float64 array.

    The file is opened once, and the open file, never its path, is handed
    to numpy's C text reader (`np.loadtxt`). A file that cannot seek, such
    as a pipe, is held in memory as bytes. The rows begin just after its
    byte-order mark or, in a CSV file, its header (`_rows_start`). From
    there, a file of at least twice `_RANGE_BYTES` is cut into ranges that
    one process per available CPU parses (`_read_ranges`); smaller files,
    pipes and any input of which a range fails are parsed here as one
    range, up to the end (`_read_range`). Values and errors are the same at
    any CPU count.

    Every failure takes one slow path: a header the csv module rejects, a
    byte that is not UTF-8, numpy's failure, or a value that is not finite
    and positive. It names the input's first byte that is not UTF-8 by its
    offset, then a CSV's quoted field left open at the end (`_open_quote`,
    also checked where one range parses), and then reads the input again,
    line by line (`_scan_lines`, `_scan_incomes`). What reaches the scan:
    any invalid observation, a line of two numbers, a short CSV row or a
    CSV row of blank fields, and spellings that `float` accepts but numpy
    does not, such as `1_000` or non-ASCII digits. The scan raises the
    DomainError naming the line of the first invalid observation, or
    returns the values if there is none.

    numpy's reader accepts two kinds of CSV file that the scan rejects: an
    income with the ASCII separator controls U+001C to U+001F around it,
    which numpy strips and `float` does not, and a field longer than
    `csv.field_size_limit()`."""
    with open(path, "rb") as file:
        source = file if file.seekable() else io.BytesIO(file.read())
        # `quoted`: a quoted field may be left open; not where cut ranges parse,
        # which hold no `"` and follow a header that is closed
        is_csv = quoted = True
        try:
            start, column = _rows_start(source)
            is_csv = column is not None
            values = _read_ranges(source, start, column) if source is file else None
            quoted = values is None
            if quoted:
                source.seek(start)
                values = _read_range(source, column)
        except (csv.Error, ValueError):
            # a byte that is not UTF-8 raises UnicodeDecodeError, a ValueError
            values = None
        if values is None or not (np.isfinite(values) & (values > 0.0)).all():
            values = None
            for start, chunk in _chunks(source):
                try:
                    chunk.decode()
                except UnicodeDecodeError as exc:
                    raise DomainError(
                        f"{path}: byte {start + exc.start}: not UTF-8 text ({exc.reason})"
                    ) from None
        if is_csv and quoted and (line := _open_quote(source)):
            raise DomainError(f"{path}: line {line}: quoted field opened here is never closed")
        if values is None:
            source.seek(0)
            handle = io.TextIOWrapper(source, encoding="utf-8-sig")
            scan = _scan_incomes if is_csv else _scan_lines
            values = np.array(scan(handle, path), dtype=float)
    # the parse's freed buffers raise glibc's mmap threshold, so glibc keeps
    # their heap; hand it back
    malloc_call("malloc_trim", 0)
    if values.size == 0:
        raise DomainError(f"{path}: no observations found")
    return values


def _rows_start(source):
    """(start, column) of the binary stream `source`, read from its first
    byte: the offset where the rows begin, and the index of the `income`
    column in the header, the first non-blank line, after an optional
    byte-order mark, read as a CSV row. Without it, the file holds one value
    per line and its rows begin just after the byte-order mark, if any:
    (3 or 0, None). Else the rows begin just after the header record, which
    csv.reader reads on over quoted newlines. A byte that is not UTF-8
    raises UnicodeDecodeError; a header the csv module rejects, csv.Error."""
    start = bom = len(codecs.BOM_UTF8) if source.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0
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
            return bom, None
        next(csv.reader(itertools.chain([first], rest)))
    finally:
        # leaves `source` open for its owner
        text.detach()
    return start, column


def _read_ranges(source, start, column):
    """The values of bytes [start, size) of the open file `source` parsed in
    ranges, one value per line if `column` is None, else CSV rows with the
    value in `column`; None if the file is not cut or any range fails.

    With k = min(available CPUs, size // _RANGE_BYTES) > 1, the bytes are
    cut into _RANGES_PER_WORKER * k ranges (`_cuts`), and those into at
    most k contiguous runs of about equal bytes (`split`) that k processes parse,
    this one and k - 1 forked from it (`fork_map`); the runs' values are
    joined here in range order. A line's value, or a CSV row's, does not
    depend on where its range begins."""
    fd = source.fileno()
    size = os.fstat(fd).st_size
    # the CPUs this process may run on; a platform without the call gets one range
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, size // _RANGE_BYTES)
    cuts = _cuts(source, size, _RANGES_PER_WORKER * workers if workers > 1 else 1, start)
    if len(cuts) <= 2:
        return None
    runs = split(list(zip(cuts, cuts[1:])), workers, lambda span: span[1] - span[0])
    parsed = fork_map(lambda run: [_read_file_range(fd, *span, column=column) for span in run], runs)
    parts = list(itertools.chain.from_iterable(parsed))
    if any(part is None for part in parts):
        return None
    return np.concatenate(parts)


def _cuts(source, size, parts, start=0):
    """Offsets start < c1 < ... < size cutting bytes [start, size) of the
    open binary file `source` of `size` bytes into at most `parts` ranges of
    about equal size, each cut just after a newline, so that no line, CRLF
    pair or UTF-8 character is split. With fewer than two parts, [start,
    size]. Moves the file's offset."""
    cuts = [start]
    for i in range(1, parts):
        # one past the first newline at or after the target; with none, the
        # end, which is dropped below
        source.seek(max(start + (size - start) * i // parts, cuts[-1]))
        source.readline()
        cuts.append(source.tell())
    return [cut for cut in cuts if cut < size] + [size]


def _read_file_range(fd, start, stop, column):
    """_read_range of bytes [start, stop) of the open file `fd`: the values,
    or None where _read_range returns None and for CSV rows with a `"` in
    them: numpy ends an unclosed quote at the end of its input, so both
    halves of a quoted field that spans a cut would parse."""
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
    return _read_range(io.BytesIO(data), column)


def _read_range(binary, column):
    """numpy's C reader on the binary stream `binary` from where it stands,
    where the rows begin (`_rows_start`) or just after a newline, to its
    end, read as UTF-8 without a byte-order mark. It holds one value per
    line if `column` is None, else CSV rows, each read on its own, with the
    value in `column`. Newlines are translated as `open` does. Returns the
    values, or None if numpy fails, a byte is not UTF-8 or a line holds
    more than one number."""
    layout = (
        {"ndmin": 2}
        if column is None
        else {"delimiter": ",", "quotechar": '"', "usecols": column, "ndmin": 1}
    )
    text = io.TextIOWrapper(binary, encoding="utf-8")
    try:
        with warnings.catch_warnings():
            # no rows, or blank lines only: the caller reports no
            # observations
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: numpy would otherwise read `1.5#x` as 1.5
            values = np.loadtxt(text, dtype=float, comments=None, **layout)
    except ValueError:
        return None
    finally:
        # leaves `binary` open for its owner
        text.detach()
    if column is not None:
        return values
    return values[:, 0] if values.shape[1] == 1 else None


def _open_quote(source):
    """The line, counted as the scan counts it, where a quoted field opens
    that the UTF-8 CSV input `source`, read from its first byte, never
    closes; else None. The csv module and numpy both end such a field at
    the end of the input, taking every later row into it. The input is read
    once, in chunks (`_chunks`), each of which begins where a field does and
    never ends in a quote; only where a field is left open are the bytes
    before it read again, to count its line."""
    # `opened`: the offset of the quote that opens a field still open at
    # the chunk's first byte, or None
    opened = None
    # a quote at a field's start and the field up to its closing quote, the
    # last of the first run of quotes of odd length, as the csv module
    # reads it; or, with an empty group 1, a field the chunk leaves open
    fields = re.compile(rb'"(?<![^,\r\n]")(?:[^"]*(?:""[^"]*)*"(?!")|())')
    for start, chunk in _chunks(source):
        if start == 0 and chunk.startswith(codecs.BOM_UTF8):
            start, chunk = len(codecs.BOM_UTF8), chunk[len(codecs.BOM_UTF8) :]
        if opened is not None or b'"' in chunk:
            # a field still open from an earlier chunk opens again at a
            # quote put before this chunk's first byte
            carried = opened is not None
            field = next((f for f in fields.finditer(b'"' * carried + chunk) if f[1] is not None), None)
            if field is None:
                opened = None
            elif field.start() > 0 or not carried:
                opened = start + field.start() - carried
    if opened is None:
        return None
    source.seek(0)
    head = source.read(opened)
    # a line ends at LF, CRLF or a lone CR
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _chunks(source):
    """(offset, chunk) of the binary stream `source` from its first byte to
    its end, in chunks of _SCAN_BYTES read on to just after the next
    newline, so that no line, CRLF pair or UTF-8 character is split."""
    source.seek(0)
    start = 0
    while chunk := source.read(_SCAN_BYTES) + source.readline():
        yield start, chunk
        start += len(chunk)


def _income_column(header):
    """Index of the header's column named `income` once stripped (the last
    one if several are), or None."""
    names = [name.strip() for name in header]
    return max((i for i, name in enumerate(names) if name == "income"), default=None)


def _scan_lines(lines, path):
    # `lines`, a file, splits at newlines only, not also at \v, \f, ...;
    # the values are held as doubles, not as a list of floats
    return array.array(
        "d",
        (
            _parse_observation(line.strip(), path, line_num)
            for line_num, line in enumerate(lines, start=1)
            if line.strip()
        ),
    )


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
        values = array.array("d")
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


def _parse_observation(raw, path, line_num):
    try:
        value = float(raw)
    except ValueError:
        raise DomainError(f"{path}: line {line_num}: could not parse observation {_quoted(raw, repr)}")
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(
            f"{path}: line {line_num}: observation must be strictly positive and finite, got {_quoted(raw, str)}"
        )
    return value


def _quoted(raw, form):
    """form(raw) for a rejected field of at most 40 characters; for a longer
    one, form of its first 40, then `…` and its length in characters, so a
    message never echoes a huge field whole."""
    if len(raw) <= 40:
        return form(raw)
    return f"{form(raw[:40])}… ({len(raw)} characters)"
