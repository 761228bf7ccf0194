"""Command-line interface: output formats, exit codes, file parsing, and
byte-stable CSV export."""

import csv
import hashlib
import itertools
import operator
import os
import pathlib
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import numpy_build_note, pinned_gamma_sample
from gammaineq import DomainError, SimConfig, cli, run_grid
from gammaineq.cli import CSV_HEADER, main


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, raw = line.partition(" = ")
        values[key] = float(raw)
    return values


def test_population_output(capsys):
    code, out, err = run_cli(capsys, "population", "--alpha", "1.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theil_t = 0.422784335098"
    assert lines[1] == "theil_l = 0.577215664902"
    assert lines[2] == "atkinson = 0.438540516433"
    assert err == ""


def test_population_near_equality(capsys):
    code, out, _ = run_cli(capsys, "population", "--alpha", "1e8")
    assert code == 0
    for value in parse_report(out).values():
        assert 0.0 < value <= 1e-7


def test_population_at_tiny_shapes(capsys):
    assert run_cli(capsys, "population", "--alpha", "1e-308") == (
        0,
        "theil_t = 708.618992977\ntheil_l = 1.00000000000e+308\natkinson = 1.00000000000\n",
        "",
    )
    # ln(alpha) - psi(alpha) ~ 1/alpha exceeds the largest double
    assert run_cli(capsys, "population", "--alpha", "1e-309") == (
        1, "", "gammaineq: ln x - psi(x) overflows float64 at shape = 1e-309\n"
    )


def test_expectation_at_huge_shape_prints_no_warning(capsys):
    code, out, err = run_cli(capsys, "expectation", "--alpha", "1e306", "--n", "10")
    assert (code, err) == (0, "")
    assert "expected_atkinson = 4.50000000000e-307" in out


def test_population_rejects_nonpositive_shape(capsys):
    code, out, err = run_cli(capsys, "population", "--alpha", "-1")
    assert code == 1
    assert out == ""
    assert "--alpha" in err
    assert run_cli(capsys, "population", "--alpha", "0")[0] == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["population"])  # missing required --alpha
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--alphas", "1,x", "--out", "/tmp/x.csv"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_expectation_output(capsys):
    code, out, _ = run_cli(capsys, "expectation", "--alpha", "1", "--n", "2")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.splitlines())
    assert lines["expected_theil_t"] == "0.193147180560"
    assert lines["bias_theil_t"] == "-0.229637154539"
    assert lines["expected_theil_l"] == "0.306852819440"
    assert lines["bias_theil_l"] == "-0.270362845461"
    assert lines["expected_atkinson"] == "0.214601836603"
    assert lines["bias_atkinson"] == "-0.223938679831"


def test_expectation_single_observation(capsys):
    code, out, _ = run_cli(capsys, "expectation", "--alpha", "1", "--n", "1")
    assert code == 0
    values = parse_report(out)
    assert values["expected_theil_t"] == 0.0
    assert values["expected_theil_l"] == 0.0
    assert values["expected_atkinson"] == 0.0
    assert values["bias_theil_t"] < 0.0


def test_expectation_rejects_bad_n(capsys):
    assert run_cli(capsys, "expectation", "--alpha", "1", "--n", "0")[0] == 1


def test_estimate_bare_file(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("1\n\n3\n")
    code, out, err = run_cli(capsys, "estimate", str(data))
    assert code == 0
    lines = dict(line.split(" = ") for line in out.splitlines())
    assert lines["n"] == "2"
    assert lines["theil_t_hat"] == "0.130812035941"
    assert lines["theil_l_hat"] == "0.143841036226"
    assert lines["atkinson_hat"] == "0.133974596216"
    assert "alpha_hat" not in lines
    assert err == ""


def test_estimate_income_csv(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("household,income,region\na,1.0,north\nb,3.0,south\n")
    code, out, _ = run_cli(capsys, "estimate", str(data))
    assert code == 0
    values = parse_report(out)
    assert values["theil_t_hat"] == pytest.approx(0.13081203594113696, abs=1e-12)


def test_estimate_equal_observations(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("5\n5\n5\n5\n")
    code, out, _ = run_cli(capsys, "estimate", str(data))
    assert code == 0
    values = parse_report(out)
    assert values["theil_t_hat"] == 0.0
    assert values["atkinson_hat"] == 0.0


def test_estimate_with_correction(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("1\n3\n")
    code, out, _ = run_cli(capsys, "estimate", str(data), "--correct")
    assert code == 0
    values = parse_report(out)
    assert values["alpha_hat"] > 0.0
    assert values["theil_t_corrected"] > values["theil_t_hat"]
    assert values["theil_l_corrected"] > values["theil_l_hat"]
    assert values["atkinson_corrected"] >= values["atkinson_hat"]


# `estimate --correct` stdout for the file {1, 3} and for pinned_gamma_sample
PAIR_CORRECTED_STDOUT = """\
n = 2
theil_t_hat = 0.130812035941
theil_l_hat = 0.143841036226
atkinson_hat = 0.133974596216
alpha_hat = 3.63430278058
theil_t_corrected = 0.198026672021
theil_l_corrected = 0.214204370444
atkinson_corrected = 0.201671076190
"""
GAMMA_CORRECTED_STDOUT = """\
n = 10000
theil_t_hat = 0.296254140949
theil_l_hat = 0.368545656373
atkinson_hat = 0.308260373445
alpha_hat = 1.50160355978
theil_t_corrected = 0.296287438317
theil_l_corrected = 0.368578954479
atkinson_corrected = 0.308292659328
"""


@pytest.mark.parametrize(
    "values, expected",
    [
        (lambda: [1.0, 3.0], PAIR_CORRECTED_STDOUT),
        (lambda: pinned_gamma_sample().observations.tolist(), GAMMA_CORRECTED_STDOUT),
    ],
)
def test_estimate_correct_stdout_pinned(tmp_path, capsys, values, expected):
    data = tmp_path / "obs.txt"
    data.write_text("".join(f"{value!r}\n" for value in values()))
    assert run_cli(capsys, "estimate", str(data), "--correct") == (0, expected, ""), numpy_build_note()


def test_estimate_correction_unavailable_exits_3(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("5\n5\n5\n")
    code, out, err = run_cli(capsys, "estimate", str(data), "--correct")
    assert code == 3
    assert "correction unavailable" in err
    data.write_text("4.0\n")
    assert run_cli(capsys, "estimate", str(data), "--correct")[0] == 3


@pytest.mark.parametrize("flags", [(), ("--correct",)])
def test_estimate_overflowing_sums_exit_1(tmp_path, capsys, flags):
    data = tmp_path / "obs.txt"
    data.write_text("1e308\n5e307\n1e308\n")
    code, out, err = run_cli(capsys, "estimate", str(data), *flags)
    assert code == 1
    assert out == ""
    assert "overflows float64" in err and err.count("\n") == 1
    # equal observations have no spread to measure: their sums may overflow
    data.write_text("1e308\n1e308\n")
    code, out, _ = run_cli(capsys, "estimate", str(data))
    assert code == 0
    assert parse_report(out)["theil_t_hat"] == 0.0


def test_estimate_invalid_line_reported(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("1.0\nfoo\n2.0\n")
    code, _, err = run_cli(capsys, "estimate", str(data))
    assert code == 1
    assert "line 2" in err
    data.write_text("1.0\n2.0\n-3\n")
    code, _, err = run_cli(capsys, "estimate", str(data))
    assert code == 1
    assert "line 3" in err


def test_estimate_missing_income_value(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("id,income\n1,2.5\n2,\n")
    code, _, err = run_cli(capsys, "estimate", str(data))
    assert code == 1
    assert "income" in err


def test_estimate_empty_and_missing_files(tmp_path, capsys):
    data = tmp_path / "empty.txt"
    data.write_text("\n\n")
    code, _, err = run_cli(capsys, "estimate", str(data))
    assert code == 1
    assert "no observations" in err
    code, _, err = run_cli(capsys, "estimate", str(tmp_path / "does-not-exist.txt"))
    assert code == 1
    assert "gammaineq:" in err


PAIR_STDOUT = """\
n = 2
theil_t_hat = 0.130812035941
theil_l_hat = 0.143841036226
atkinson_hat = 0.133974596216
"""


@pytest.mark.parametrize(
    "payload",
    [
        b"\xef\xbb\xbf1\n3\n",
        b"\xef\xbb\xbfincome\n1\n3\n",
        b"id, income\n1, 1\n2, 3\n",
        b"id,\tincome \r\na,1\r\nb,3\r\n",
        b"\n  \nid,income\n\n1,1\n2,3\n",
        b'"income",id\n1,a\n3,b\n',
    ],
    ids=[
        "bom-lines", "bom-csv", "spaced-header", "tab-spaced-header-crlf", "blank-before-header",
        "quoted-header",
    ],
)
def test_estimate_accepts_bom_spaced_header_and_leading_blanks(tmp_path, capsys, payload):
    data = tmp_path / "obs.txt"
    data.write_bytes(payload)
    assert run_cli(capsys, "estimate", str(data)) == (0, PAIR_STDOUT, "")


NON_UTF8_PAYLOADS = pytest.mark.parametrize(
    "payload, offset",
    [(b"1.5\n\xff\xfe2\n", 4), (b"\xef\xbb\xbf1.5\n\xff\xfe2\n", 7), (b"1\n" * 50_000 + b"\xc3(", 100_000)],
    ids=["second-line", "after-bom", "past-first-read-chunk"],
)


@NON_UTF8_PAYLOADS
def test_estimate_non_utf8_exits_1_naming_the_byte(tmp_path, capsys, payload, offset):
    data = tmp_path / "bad.txt"
    data.write_bytes(payload)
    code, out, err = run_cli(capsys, "estimate", str(data))
    assert (code, out) == (1, "")
    assert err.startswith(f"gammaineq: {data}: byte {offset}: not UTF-8 text (")


@NON_UTF8_PAYLOADS
def test_estimate_non_utf8_on_a_pipe_names_the_byte_a_file_names(payload, offset):
    result = _run_module("estimate", "/dev/stdin", input=payload, text=False)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.startswith(f"gammaineq: /dev/stdin: byte {offset}: not UTF-8 text (".encode())


@pytest.mark.parametrize(
    "payload, message",
    [
        ("1.0\nfoo\n2.0\n", "line 2: could not parse observation 'foo'"),
        ("1.0\n2.0\n-3\n", "line 3: observation must be strictly positive and finite, got -3"),
        ("1\n\n 0 \n", "line 3: observation must be strictly positive and finite, got 0"),
        ("inf\n", "line 1: observation must be strictly positive and finite, got inf"),
        ("2\r\nnan\r\n", "line 2: observation must be strictly positive and finite, got nan"),
        ("id,income\n1,2.5\n2,\n", "line 3: missing income value"),
        ("id,income\n1,2.5\n\n2,abc\n", "line 4: could not parse observation 'abc'"),
        ("id,region,income\n1,north\n", "line 2: missing income value"),
        (
            'id,note,income\n1,"two\nlines",2.5\n2,x,-1\n',
            "line 4: observation must be strictly positive and finite, got -1",
        ),
        ("income\n1\n" + "2" * 200_000 + "\n", "line 3: field larger than field limit (131072)"),
        # str.splitlines would also split at \f and \v; the file's lines end at newlines
        ("1\n\x0c\nabc\n", "line 3: could not parse observation 'abc'"),
        ("1\n2\x0b3\n", "line 2: could not parse observation '2\\x0b3'"),
    ],
    ids=[
        "unparseable", "negative", "zero", "inf", "nan", "missing-income", "csv-unparseable",
        "short-row", "multiline-field", "over-long-field", "form-feed-line", "vertical-tab",
    ],
)
def test_estimate_error_messages(tmp_path, capsys, payload, message):
    data = tmp_path / "obs.txt"
    data.write_text(payload, newline="")
    assert run_cli(capsys, "estimate", str(data)) == (1, "", f"gammaineq: {data}: {message}\n")


SPACE = st.sampled_from(["", " ", "\t", "  \t"])
VALUE_LINE = st.builds(
    lambda before, value, after: f"{before}{value!r}{after}",
    SPACE,
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    SPACE,
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.one_of(VALUE_LINE, SPACE), max_size=40), ending=st.sampled_from(["\n", "\r\n"]))
def test_read_observations_matches_float_per_line(tmp_path, lines, ending):
    data = tmp_path / "obs.txt"
    data.write_text("".join(line + ending for line in lines), newline="")
    expected = [float(line) for line in lines if line.strip()]
    if not expected:
        with pytest.raises(DomainError, match="no observations found"):
            cli._read_observations(str(data))
        return
    values = cli._read_observations(str(data))
    assert values.dtype == np.float64
    assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def _count_scans(monkeypatch):
    calls = {}
    for name in ("_scan_lines", "_scan_incomes"):
        original = getattr(cli, name)

        def counted(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_valid_files_never_reach_the_line_by_line_scan(tmp_path, monkeypatch):
    calls = _count_scans(monkeypatch)
    valid = {
        "lines.txt": b"\xef\xbb\xbf 1.5\r\n\r\n\t2e-3 \n1e3\n",
        "incomes.csv": b'\xef\xbb\xbf\nid, note ,income\r\n1,"a, b",1.5\r\n\r\n2,"two\nlines",2e-3\n3,,1e3,extra\n',
    }
    for name, payload in valid.items():
        data = tmp_path / name
        data.write_bytes(payload)
        assert cli._read_observations(str(data)).tolist() == [1.5, 2e-3, 1000.0], name
    assert calls == {}
    data = tmp_path / "bad.csv"
    data.write_bytes(b"id,income\n1,2\n2,-1\n")
    with pytest.raises(DomainError, match="line 3"):
        cli._read_observations(str(data))
    assert calls == {"_scan_incomes": 1}


@pytest.mark.parametrize(
    "payload, scan",
    [
        (b"1.5\n2e-3\n1_000\n", "_scan_lines"),
        (b"id,income\n1,1.5\n2,2e-3\n3,1_000\n", "_scan_incomes"),
        ("1.5\n2e-3\n\u0661\u0660\u0660\u0660\n".encode(), "_scan_lines"),
        ("income\n1.5\n2e-3\n\u0661_000\n".encode(), "_scan_incomes"),
    ],
    ids=["lines-underscore", "csv-underscore", "lines-arabic-indic", "csv-arabic-indic"],
)
def test_spellings_only_float_accepts_are_read_by_the_scan(tmp_path, monkeypatch, payload, scan):
    # numpy's reader rejects digit underscores and non-ASCII digits; the
    # scan reads them as float does
    calls = _count_scans(monkeypatch)
    data = tmp_path / "obs.txt"
    data.write_bytes(payload)
    assert cli._read_observations(str(data)).tolist() == [1.5, 2e-3, 1000.0]
    assert calls == {scan: 1}


def test_csv_income_between_ascii_separator_controls_is_read(tmp_path, monkeypatch):
    # numpy strips U+001C to U+001F around a number; float, and so the
    # scan, does not
    calls = _count_scans(monkeypatch)
    data = tmp_path / "obs.csv"
    data.write_bytes(b"income\n\x1c1.5\n2\x1f\n\x1d3\x1e\n")
    assert cli._read_observations(str(data)).tolist() == [1.5, 2.0, 3.0]
    assert calls == {}
    with pytest.raises(ValueError):
        float("\x1c1.5")
    # in a one-value-per-line file they separate two numbers, as a space does
    data.write_bytes(b"1.5\n2\x1c3\n")
    with pytest.raises(DomainError, match="line 2: could not parse observation '2\\\\x1c3'"):
        cli._read_observations(str(data))


def test_csv_overlong_non_income_field_is_read(tmp_path):
    # only the scan's csv module limits a field's length; an income of
    # 200,000 digits is inf, so the scan reports it (over-long-field above)
    data = tmp_path / "obs.csv"
    data.write_text("id,income\n" + "x" * 200_000 + ",1.5\n2,3\n")
    assert cli._read_observations(str(data)).tolist() == [1.5, 3.0]


def test_reader_opens_the_file_once_and_never_passes_numpy_a_path(tmp_path, monkeypatch):
    opened = []
    loaded = []

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    def checked_loadtxt(source, *args, **kwargs):
        loaded.append(type(source))
        assert not isinstance(source, (str, bytes, os.PathLike))
        return np_loadtxt(source, *args, **kwargs)

    np_loadtxt = np.loadtxt
    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    monkeypatch.setattr(np, "loadtxt", checked_loadtxt)
    # the last two are read again by the scan, from the same open file
    payloads = {
        "obs.txt": "1\n3\n",
        "obs.csv": "id,income\na,1\nb,3\n",
        "scan.txt": "1\n3_0\n",
        "scan.csv": "id,income\na,1\nb,3_0\n",
    }
    for name, payload in payloads.items():
        data = tmp_path / name
        data.write_text(payload)
        opened.clear()
        loaded.clear()
        assert cli._read_observations(str(data))[0] == 1.0, name
        assert (opened, len(loaded)) == ([str(data)], 1), name
    # the offset of a byte that is not UTF-8, past the first decoded chunk,
    # is counted by reading the same open file again
    data = tmp_path / "bad.txt"
    data.write_bytes(b"1\n" * 5_000 + b"\xff\n")
    opened.clear()
    with pytest.raises(DomainError, match="byte 10000: not UTF-8 text"):
        cli._read_observations(str(data))
    assert opened == [str(data)]


def _read_fifo(fifo, payload):
    # a FIFO reads as a pipe does and cannot seek; a thread writes it
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    try:
        return _read_outcome(cli._read_observations, str(fifo))
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


def test_reader_holds_a_pipe_as_bytes_and_names_a_bad_byte_at_its_offset(tmp_path):
    values = np.random.default_rng(12).gamma(1.5, size=200_000)
    payload = "".join(f"{value!r}\n" for value in values.tolist()).encode()
    tracemalloc.start()
    try:
        read = _read_fifo(tmp_path / "good", payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == values.tobytes()
    # the pipe's bytes, not a decoded copy of them, are what is held
    assert peak < 2.5 * len(payload), (peak, len(payload))
    bad = payload[:20_000] + b"\xff" + payload[20_001:]
    assert _read_fifo(tmp_path / "bad", bad) == (
        f"{tmp_path / 'bad'}: byte 20000: not UTF-8 text (invalid start byte)"
    )


def _run_python(*argv, **kwargs):
    # the child finds the package where this process imported it from, so
    # the test also runs from a checkout where the package is not installed
    package_root = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        **{
            "capture_output": True,
            "text": True,
            "timeout": 60,
            "env": {**os.environ, "PYTHONPATH": path},
            **kwargs,
        },
    )


def _run_module(*argv, **kwargs):
    return _run_python("-m", "gammaineq", *argv, **kwargs)


def test_importing_the_cli_loads_no_multiprocessing():
    # estimate and a serial simulate never start a pool; the pool's module
    # and multiprocessing are imported on first use
    result = _run_python("-c", "import sys, gammaineq.cli; print('multiprocessing' in sys.modules)")
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def test_estimate_header_only_csv_prints_only_the_error(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("id,income\n")
    result = _run_module("estimate", str(data))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"gammaineq: {data}: no observations found\n"


@pytest.mark.parametrize(
    "payload",
    ["1\n3\n2.5\n", "id,income\na,1\nb,3\nc,2.5\n", "1\n3\n2_5\n", "1\nfoo\n", "1\r\n3\r2.5\n"],
    ids=["lines", "csv", "scan", "invalid", "crlf-and-cr"],
)
def test_estimate_reads_stdin_as_it_reads_a_file(tmp_path, payload):
    # a pipe cannot be opened twice, so what the scan reads again is kept
    data = tmp_path / "obs.txt"
    data.write_text(payload)
    from_file = _run_module("estimate", "--correct", str(data))
    with open(data, "rb") as stdin:
        redirected = _run_module("estimate", "--correct", "/dev/stdin", stdin=stdin)
    piped = _run_module("estimate", "--correct", "/dev/stdin", input=payload)
    expected = (from_file.returncode, from_file.stdout, from_file.stderr.replace(str(data), "/dev/stdin"))
    assert from_file.returncode in (0, 1) and (from_file.stdout or "line 2" in from_file.stderr)
    for result in (redirected, piped):
        assert (result.returncode, result.stdout, result.stderr) == expected


# the reader as it was before numpy's C reader parsed the bulk of a file:
# csv and float per field; the differential test below holds the live
# reader to it
def _reference_read_observations(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            first = next(filter(str.strip, handle), None)
            if first is None:
                raise DomainError(f"{path}: no observations found")
            lines = itertools.chain([first], handle)
            is_csv = True
            try:
                column = cli._income_column(next(csv.reader([first])))
                is_csv = column is not None
                values = (
                    _reference_bulk_incomes(lines, column) if is_csv else _reference_bulk_lines(lines)
                )
            except UnicodeDecodeError:
                raise
            except (ValueError, IndexError, csv.Error):
                values = None
        if values is None or not (np.isfinite(values) & (values > 0.0)).all():
            with open(path, "r", encoding="utf-8-sig") as handle:
                scan = cli._scan_incomes if is_csv else cli._scan_lines
                values = np.array(scan(handle, path), dtype=float)
    except UnicodeDecodeError as exc:
        raise _reference_not_utf8(path, exc) from None
    if values.size == 0:
        raise DomainError(f"{path}: no observations found")
    return values


def _reference_not_utf8(path, exc):
    # `exc` counts bytes from the start of the chunk being decoded, not of
    # the file; the file is read again, by its name, from its first byte
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole_file:
        exc = whole_file
    return DomainError(f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})")


def _reference_bulk_lines(lines):
    return np.fromiter(map(float, filter(str.strip, lines)), dtype=float)


def _reference_bulk_incomes(lines, column):
    reader = csv.reader(lines)
    next(reader)
    rows = filter(None, reader)
    return np.fromiter(map(float, map(operator.itemgetter(column), rows)), dtype=float)


def _read_outcome(reader, path):
    try:
        return reader(path).tobytes()
    except DomainError as exc:
        return str(exc)


HEADERS = ["", "income", "id,income", "a,income,b", '"income"', " id, income "]
BODY_TOKENS = [
    "1.5", "2", "1e3", "-1", "0", "nan", "inf", "1_0", ",", '"', "\n", "\r\n", "\r", "\t",
    "\x0b", "\x0c", "\x00", "\x1c", "#", "+", ".", "e", "\u0661", " ", "income",
]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    bom=st.booleans(),
    header=st.sampled_from(HEADERS),
    body=st.lists(st.sampled_from(BODY_TOKENS), max_size=30).map("".join),
)
def test_reader_matches_the_reference_reader(tmp_path, bom, header, body):
    text = (header + "\n" if header else "") + body
    data = tmp_path / "obs.txt"
    data.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
    live = _read_outcome(cli._read_observations, str(data))
    reference = _read_outcome(_reference_read_observations, str(data))
    if live != reference and "\x1c" in text and isinstance(live, bytes):
        # the one difference allowed here, fixed by
        # test_csv_income_between_ascii_separator_controls_is_read: numpy
        # strips U+001C around a CSV income as float strips a space
        data.write_bytes(data.read_bytes().replace(b"\x1c", b" "))
        reference = _read_outcome(_reference_read_observations, str(data))
    assert live == reference, text


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # each `$ gammaineq ...` line of the README, up to the closing fence
    examples = re.findall(
        r"^\$ gammaineq (population|expectation|estimate)([^\n]*)\n(.*?)^```",
        README.read_text(encoding="utf-8"),
        re.M | re.S,
    )
    assert [command for command, _, _ in examples] == ["population", "expectation", "estimate"]
    (tmp_path / "observations.txt").write_text("1\n3\n")
    monkeypatch.chdir(tmp_path)
    for command, args, expected in examples:
        assert run_cli(capsys, command, *shlex.split(args)) == (0, expected, ""), command
    # the engine's example, continuation lines included; its --out lands in
    # tmp_path, and its CSV must equal a one-worker run byte for byte
    (args,) = re.findall(
        r"^\$ gammaineq simulate ((?:[^\n]*\\\n)*[^\n]*)\n",
        README.read_text(encoding="utf-8"),
        re.M,
    )
    argv = shlex.split(args.replace("\\\n", " "))
    assert argv[argv.index("--workers") + 1] == "4"
    assert argv[argv.index("--out") + 1] == "results.csv"
    assert run_cli(capsys, "simulate", *argv)[:2] == (0, "")
    argv[argv.index("--workers") + 1] = "1"
    argv[argv.index("--out") + 1] = "serial.csv"
    assert run_cli(capsys, "simulate", *argv)[:2] == (0, "")
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


SIM_FLAGS = ("--alphas", "0.5,2.0", "--ns", "2,4", "--nsim", "6", "--seed", "5")


def test_simulate_csv_contents(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    code, _, err = run_cli(capsys, "simulate", *SIM_FLAGS, "--out", str(out_path))
    assert code == 0
    assert "24 rows" in err and str(out_path) in err

    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_HEADER)
    assert len(rows) == 1 + 2 * 2 * 6

    summaries = run_grid(SimConfig(alphas=(0.5, 2.0), ns=(2, 4), n_sim=6, master_seed=5))
    for line, summary in zip(rows[1:], summaries):
        assert float(line[0]) == summary.alpha
        assert int(line[1]) == summary.n
        assert line[2] == summary.estimator
        # repr round-trip: parsing the text recovers the exact doubles
        assert float(line[3]) == summary.true_value
        assert float(line[4]) == summary.mean_estimate
        assert float(line[5]) == summary.rel_bias
        assert float(line[6]) == summary.mse
        assert int(line[7]) == summary.n_effective
        assert int(line[8]) == summary.n_failed


def test_simulate_output_is_byte_stable(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    parallel = tmp_path / "c.csv"
    assert run_cli(capsys, "simulate", *SIM_FLAGS, "--out", str(first))[0] == 0
    assert run_cli(capsys, "simulate", *SIM_FLAGS, "--out", str(second))[0] == 0
    assert run_cli(capsys, "simulate", *SIM_FLAGS, "--workers", "2", "--out", str(parallel))[0] == 0
    payload = first.read_bytes()
    assert payload == second.read_bytes()
    assert payload == parallel.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_simulate_csv_mode_follows_umask(tmp_path, capsys, umask):
    # the CSV gets the mode open(out, "w") would give it, not mkstemp's 0600
    out_path = tmp_path / "results.csv"
    previous = os.umask(umask)
    try:
        assert run_cli(capsys, "simulate", *SIM_FLAGS, "--out", str(out_path))[0] == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(out_path).st_mode) == 0o666 & ~umask


def test_write_results_csv_never_sets_the_process_umask(tmp_path, monkeypatch):
    # setting the umask, even for a moment, changes it for every thread
    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    summaries = run_grid(SimConfig(alphas=(0.5,), ns=(2,), n_sim=3))
    monkeypatch.setattr(cli.os, "umask", refuse)
    out_path = tmp_path / "results.csv"
    cli.write_results_csv(str(out_path), summaries)
    with open(out_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_HEADER) and len(rows) == 1 + len(summaries)
    assert [path.name for path in tmp_path.iterdir()] == ["results.csv"]


# sha256 of the default `simulate --seed 42` CSV: any change to the stream
# model or to the last bit of any estimate, fit or aggregate shows here
DEFAULT_GRID_SHA256 = "c3fb04083b0f99c6c13fc1d1677254dc65d38cd583c6d36ce28d00f11d2ccd05"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_default_grid_sha256_pinned(tmp_path, capsys, workers):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "simulate", "--seed", "42", "--workers", workers, "--out", str(out_path))
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == DEFAULT_GRID_SHA256, numpy_build_note()


def test_simulate_rejects_bad_grid(tmp_path, capsys):
    out_path = str(tmp_path / "x.csv")
    code, _, err = run_cli(capsys, "simulate", "--alphas", "1e6", "--out", out_path)
    assert code == 1
    assert "relative bias" in err
    assert run_cli(capsys, "simulate", "--nsim", "0", "--out", out_path)[0] == 1
    assert run_cli(capsys, "simulate", "--rate", "-1", "--out", out_path)[0] == 1
    assert run_cli(capsys, "simulate", "--seed", "-1", "--out", out_path)[0] == 1


def test_simulate_overflowing_sums_exit_1(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--alphas", "2", "--ns", "200", "--nsim", "5",
        "--rate", "1e-306", "--out", str(out_path),
    )
    assert code == 1
    assert "overflows float64" in err and err.count("\n") == 1
    assert not out_path.exists()


def test_simulate_worker_error_reaches_the_cli_as_the_serial_one(tmp_path, capsys):
    # every cell overflows, each naming its own largest observation; the two
    # pool workers each fail, and the first failure in task order wins, as
    # it does serially
    errors = []
    for workers in ("1", "2"):
        code, out, err = run_cli(
            capsys, "simulate", "--alphas", "1.5,2", "--ns", "100,200", "--nsim", "5",
            "--rate", "1e-306", "--workers", workers, "--out", str(tmp_path / "x.csv"),
        )
        assert (code, out) == (1, "")
        assert "overflows float64" in err and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert list(tmp_path.iterdir()) == []


def test_simulate_unwritable_path_exits_1(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(config, workers=1):
        calls.append(config)
        return []

    # the missing directory is reported before the grid runs, not after
    monkeypatch.setattr(cli, "run_grid", counted)
    code, out, err = run_cli(capsys, "simulate", "--out", str(tmp_path / "missing" / "x.csv"))
    assert (code, out, len(calls)) == (1, "", 0)
    assert err.startswith("gammaineq: ")
    # so is an --out that names an existing directory, by its own path
    code, out, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
    assert (code, out, len(calls)) == (1, "", 0)
    assert err == f"gammaineq: [Errno 21] Is a directory: '{tmp_path}'\n"
    # a writable --out runs the grid once and leaves only the results behind
    assert run_cli(capsys, "simulate", "--out", str(tmp_path / "x.csv"))[0] == 0
    assert len(calls) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["x.csv"]


def test_module_entry_point():
    result = _run_module("population", "--alpha", "1.0")
    assert result.returncode == 0
    assert "theil_t = 0.422784335098" in result.stdout
