"""Command-line interface: output formats, exit codes, file parsing, and
byte-stable CSV export."""

import csv
import ctypes
import errno
import gc
import hashlib
import io
import itertools
import operator
import os
import pathlib
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DEFAULT_GRID_SHA256,
    PAIR_REPORT,
    X86_V4,
    append_line,
    mpmath_theil,
    numpy_build_note,
    pinned,
    pinned_gamma_sample,
    read_lines,
    wait_for,
)
from gammaineq import DomainError, Sample, SimConfig, _fork, _read, cli, run_grid, simulation
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


def test_expectation_that_fails_prints_nothing_on_stdout(capsys):
    # the Theil T values are finite; the Theil L ones overflow after them
    assert run_cli(capsys, "expectation", "--alpha", "1e-320", "--n", "2") == (
        1, "", "gammaineq: the mean Theil L estimate for n = 2 overflows float64 at shape = 1e-320\n"
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("population", "--alpha", "nan"), "--alpha must be strictly positive and finite, got nan"),
        (("population", "--alpha", "inf"), "--alpha must be strictly positive and finite, got inf"),
        (("population", "--alpha", "-1"), "--alpha must be strictly positive and finite, got -1.0"),
        (("expectation", "--alpha", "1", "--n", "0"), "--n must be >= 1, got 0"),
        (("expectation", "--alpha", "1", "--n", "-2"), "--n must be >= 1, got -2"),
    ],
    ids=["alpha-nan", "alpha-inf", "alpha-negative", "n-zero", "n-negative"],
)
def test_a_bad_flag_value_exits_1_naming_the_flag(capsys, argv, message):
    # the error names the flag, not the model parameter it becomes
    assert run_cli(capsys, *argv) == (1, "", f"gammaineq: {message}\n")


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


@pytest.mark.parametrize(
    "values, expected",
    [
        (lambda: [1.0, 3.0], PAIR_CORRECTED_STDOUT),
        (lambda: pinned_gamma_sample().observations.tolist(), GAMMA_CORRECTED_STDOUT),
    ],
)
def test_estimate_adopts_the_array_the_reader_checked(tmp_path, capsys, monkeypatch, values, expected):
    # the reader's array is already 1-D, nonempty, finite and positive:
    # Sample does not copy and check it again
    data = tmp_path / "obs.txt"
    data.write_text("".join(f"{value!r}\n" for value in values()))

    def refuse(self):
        raise AssertionError("Sample.__post_init__ ran")

    monkeypatch.setattr(Sample, "__post_init__", refuse)
    assert run_cli(capsys, "estimate", str(data), "--correct") == (0, expected, ""), numpy_build_note()


def test_estimate_correction_unavailable_exits_3(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("5\n5\n5\n")
    code, out, err = run_cli(capsys, "estimate", str(data), "--correct")
    assert code == 3
    assert "correction unavailable" in err
    data.write_text("4.0\n")
    assert run_cli(capsys, "estimate", str(data), "--correct")[0] == 3


def test_estimate_correct_notes_a_near_degenerate_sample_on_stderr(tmp_path, capsys):
    # the fitted shape is about 4.0e6, and the corrections still raise each
    # index by half: the note says only that the sample is near-degenerate
    data = tmp_path / "obs.txt"
    data.write_text("1\n1.001\n")
    code, out, err = run_cli(capsys, "estimate", str(data), "--correct")
    assert (code, err) == (0, "note: fitted shape exceeds 1e6: the sample is near-degenerate\n")
    report = parse_report(out)
    assert len(out.splitlines()) == 8
    assert list(report) == [
        "n",
        "theil_t_hat",
        "theil_l_hat",
        "atkinson_hat",
        "alpha_hat",
        "theil_t_corrected",
        "theil_l_corrected",
        "atkinson_corrected",
    ]
    assert report["alpha_hat"] > 1e6


@pytest.mark.parametrize("flags", [(), ("--correct",)])
def test_estimate_data_whose_sums_pass_float64_gets_estimates(tmp_path, capsys, flags):
    # the row kernel sums these at an exact power of two, where nothing
    # overflows
    data = tmp_path / "obs.txt"
    data.write_text("1e308\n5e307\n1e308\n")
    code, out, err = run_cli(capsys, "estimate", str(data), *flags)
    assert (code, err) == (0, "")
    report = parse_report(out)
    theil_t, theil_l = mpmath_theil([1e308, 5e307, 1e308])
    assert report["theil_t_hat"] == pytest.approx(theil_t, rel=1e-11, abs=0.0)
    assert report["theil_l_hat"] == pytest.approx(theil_l, rel=1e-11, abs=0.0)
    assert ("alpha_hat" in report) == bool(flags)
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


def _rejected_row_then_bad_byte(first_line, offset):
    # a row numpy rejects, `abc`, on line 2, and the byte \xff at `offset`
    head = first_line + b"abc\n"
    filler = b"1\n" * ((offset - len(head)) // 2) + b"1" * ((offset - len(head)) % 2)
    return head + filler + b"\xff\n2\n"


# a byte that is not UTF-8 is named wherever it is, also after a row that
# fails earlier in the file, and whatever decoded chunks hold the two
NON_UTF8_PAYLOADS = pytest.mark.parametrize(
    "payload, offset",
    [
        (b"1.5\n\xff\xfe2\n", 4),
        (b"\xef\xbb\xbf1.5\n\xff\xfe2\n", 7),
        (b"1\n" * 50_000 + b"\xc3(", 100_000),
        *((_rejected_row_then_bad_byte(first_line, offset), offset)
          for first_line in (b"1\n", b"id,income\n") for offset in (8_300, 20_000)),
    ],
    ids=["second-line", "after-bom", "past-first-read-chunk", "after-rejected-line-8300",
         "after-rejected-line-20000", "after-rejected-csv-row-8300", "after-rejected-csv-row-20000"],
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


def test_the_utf8_check_holds_neither_the_whole_input_nor_its_text(tmp_path):
    # 2 MB of 40-byte lines, of which numpy holds 0.4 MB of values, and a
    # bad byte at the end: the check decodes the input chunk by chunk
    data = tmp_path / "bad.txt"
    data.write_bytes(b"1.%s\n" % (b"0" * 37) * 50_000 + b"\xff\n")
    size = data.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r": byte 2000000: not UTF-8 text \(invalid start byte\)$"):
            _read._read_observations(str(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("header, scan", [("", "_scan_lines"), ("income\n", "_scan_incomes")])
def test_the_scan_holds_its_values_as_doubles_until_it_raises(header, scan):
    # 200k valid lines before one that does not parse: until it raises, the
    # scan holds about 8 bytes a value, not a list of float objects
    lines = io.StringIO(header + "1.5\n" * 200_000 + "abc\n")
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"obs: line \d+: could not parse observation 'abc'$"):
            getattr(_read, scan)(lines, "obs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 200_000, peak


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
        # a quoted field that the file never closes would take every later
        # row; it is named before any invalid value
        ('income,note\n1,"x\n2,y\n3,z\n', "line 2: quoted field opened here is never closed"),
        ('id,income\n1,-1\n2,3,"x\n\n3,z\n', "line 3: quoted field opened here is never closed"),
        # the two bytes of "é" straddle the first 64 KiB read; the row after
        # it is named, not a byte
        (
            "id,note,income\n1," + "x" * (2**16 - 1 - len("id,note,income\n1,")) + "é,2\n2,y,abc\n",
            "line 3: could not parse observation 'abc'",
        ),
        # a 100 kB rejected field is quoted up to 40 characters
        ("1\n2\n" + "1" * 99_999 + "x\n", "line 3: could not parse observation '" + "1" * 40 + "'… (100000 characters)"),
        (
            "1\n2\n" + "9" * 100_000 + "\n",
            "line 3: observation must be strictly positive and finite, got " + "9" * 40 + "… (100000 characters)",
        ),
        (
            "income\n1\n" + "0" * 100_000 + "\n",
            "line 3: observation must be strictly positive and finite, got " + "0" * 40 + "… (100000 characters)",
        ),
    ],
    ids=[
        "unparseable", "negative", "zero", "inf", "nan", "missing-income", "csv-unparseable",
        "short-row", "multiline-field", "over-long-field", "form-feed-line", "vertical-tab",
        "unclosed-quote", "unclosed-quote-after-invalid-value", "character-across-first-read",
        "huge-unparseable", "huge-non-positive", "csv-huge-non-positive",
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
            _read._read_observations(str(data))
        return
    values = _read._read_observations(str(data))
    assert values.dtype == np.float64
    assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def _count_scans(monkeypatch):
    calls = {}
    for name in ("_scan_lines", "_scan_incomes"):
        original = getattr(_read, name)

        def counted(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(_read, name, counted)
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
        assert _read._read_observations(str(data)).tolist() == [1.5, 2e-3, 1000.0], name
    assert calls == {}
    data = tmp_path / "bad.csv"
    data.write_bytes(b"id,income\n1,2\n2,-1\n")
    with pytest.raises(DomainError, match="line 3"):
        _read._read_observations(str(data))
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
    assert _read._read_observations(str(data)).tolist() == [1.5, 2e-3, 1000.0]
    assert calls == {scan: 1}


def test_csv_income_between_ascii_separator_controls_is_read(tmp_path, monkeypatch):
    # numpy strips U+001C to U+001F around a number; float, and so the
    # scan, does not
    calls = _count_scans(monkeypatch)
    data = tmp_path / "obs.csv"
    data.write_bytes(b"income\n\x1c1.5\n2\x1f\n\x1d3\x1e\n")
    assert _read._read_observations(str(data)).tolist() == [1.5, 2.0, 3.0]
    assert calls == {}
    with pytest.raises(ValueError):
        float("\x1c1.5")
    # in a one-value-per-line file they separate two numbers, as a space does
    data.write_bytes(b"1.5\n2\x1c3\n")
    with pytest.raises(DomainError, match="line 2: could not parse observation '2\\\\x1c3'"):
        _read._read_observations(str(data))


def test_csv_overlong_non_income_field_is_read(tmp_path):
    # only the scan's csv module limits a field's length; an income of
    # 200,000 digits is inf, so the scan reports it (over-long-field above)
    data = tmp_path / "obs.csv"
    data.write_text("id,income\n" + "x" * 200_000 + ",1.5\n2,3\n")
    assert _read._read_observations(str(data)).tolist() == [1.5, 3.0]


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
    monkeypatch.setattr(_read, "open", counted_open, raising=False)
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
        assert _read._read_observations(str(data))[0] == 1.0, name
        assert (opened, len(loaded)) == ([str(data)], 1), name
    # the offset of a byte that is not UTF-8, past the first decoded chunk,
    # is counted by reading the same open file again
    data = tmp_path / "bad.txt"
    data.write_bytes(b"1\n" * 5_000 + b"\xff\n")
    opened.clear()
    with pytest.raises(DomainError, match="byte 10000: not UTF-8 text"):
        _read._read_observations(str(data))
    assert opened == [str(data)]


def _read_fifo(fifo, payload):
    # a FIFO reads as a pipe does and cannot seek; a thread writes it
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    try:
        return _read_outcome(_read._read_observations, str(fifo))
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


def test_importing_the_cli_loads_no_multiprocessing(tmp_path):
    # no command starts a process pool: importing the CLI loads neither
    # concurrent.futures nor multiprocessing, nor logging, which would cost
    # start-up time on every command; nor the test-only packages, as numpy
    # is the one runtime dependency
    modules = ["concurrent.futures", "hypothesis", "logging", "mpmath", "multiprocessing", "scipy"]
    loaded = f"sorted(set({modules}) & set(sys.modules))"
    result = _run_python("-c", f"import sys, gammaineq.cli; print({loaded})")
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
    # nor does a run that forks: estimate on a file of over twice the range
    # size, parsed in ranges where two CPUs are available, and simulate at
    # two workers
    data = tmp_path / "obs.txt"
    data.write_text("1\n3\n" * 300_000)
    assert data.stat().st_size >= 2 * _read._RANGE_BYTES
    script = (
        "import sys; from gammaineq import cli; code = cli.main(sys.argv[1:]); "
        f"print({loaded}); sys.exit(code)"
    )
    result = _run_python("-c", script, "estimate", "--correct", str(data))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("n = 600000\n") and result.stdout.endswith("\n[]\n")
    out = tmp_path / "x.csv"
    result = _run_python("-c", script, "simulate", *SIM_FLAGS, "--workers", "2", "--out", str(out))
    assert (result.returncode, result.stdout) == (0, "[]\n")
    assert result.stderr.startswith("simulate: 2 alphas x 2 ns x 6 reps;")


def test_estimate_header_only_csv_prints_only_the_error(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("id,income\n")
    result = _run_module("estimate", str(data))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"gammaineq: {data}: no observations found\n"


@pytest.mark.parametrize(
    "payload",
    [
        "1\n3\n2.5\n", "id,income\na,1\nb,3\nc,2.5\n", "1\n3\n2_5\n", "1\nfoo\n", "1\r\n3\r2.5\n",
        'income,note\n1,"x\n2,y\n',
    ],
    ids=["lines", "csv", "scan", "invalid", "crlf-and-cr", "unclosed-quote"],
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
                column = _read._income_column(next(csv.reader([first])))
                is_csv = column is not None
                values = (
                    _reference_bulk_incomes(lines, column) if is_csv else _reference_bulk_lines(lines)
                )
            except UnicodeDecodeError:
                raise
            except (ValueError, IndexError, csv.Error):
                values = None
        # the one rule the reader gained since: a CSV whose quoted field is
        # still open at the end of the file is refused, naming its line
        with open(path, "r", encoding="utf-8-sig") as handle:
            opened = _reference_open_quote(handle.read()) if is_csv else None
        if opened is not None:
            raise DomainError(f"{path}: line {opened}: quoted field opened here is never closed")
        if values is None or not (np.isfinite(values) & (values > 0.0)).all():
            with open(path, "r", encoding="utf-8-sig") as handle:
                scan = _read._scan_incomes if is_csv else _read._scan_lines
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


def _reference_open_quote(text):
    # the csv module's states, one character at a time: the line where a
    # quoted field opens that is still open at the end of `text`, or None
    line, opened, state = 1, None, "start"
    for char in text:
        if state == "quoted":
            state = "quote" if char == '"' else "quoted"
        elif char == '"' and state != "field":
            # a quote at a field's start opens it; after a closing quote,
            # a second one is a quote inside the field
            opened = line if state == "start" else opened
            state = "quoted"
        elif char in ",\n":
            state = "start"
        else:
            state = "field"
        line += char == "\n"
    return opened if state == "quoted" else None


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
    live = _read_outcome(_read._read_observations, str(data))
    reference = _read_outcome(_reference_read_observations, str(data))
    if live != reference and "\x1c" in text and isinstance(live, bytes):
        # the one difference allowed here, fixed by
        # test_csv_income_between_ascii_separator_controls_is_read: numpy
        # strips U+001C around a CSV income as float strips a space
        data.write_bytes(data.read_bytes().replace(b"\x1c", b" "))
        reference = _read_outcome(_reference_read_observations, str(data))
    assert live == reference, text


def _in_process_fork_map(fn, jobs):
    """A stand-in for fork_map that runs every job here, in order."""
    return [fn(job) for job in jobs]


def _newline_ends(payload):
    # every offset just after a newline, short of the end: where a range may begin
    return [i + 1 for i, byte in enumerate(payload[:-1]) if byte == ord("\n")]


def _ranges_outcome(payload, cuts, column=None):
    # the values of the ranges between `cuts`, each read from a file holding
    # `payload` as _read_ranges reads it, joined, or "fails" if any range
    # fails, a byte that is not UTF-8 included
    with tempfile.TemporaryFile() as file:
        file.write(payload)
        file.flush()
        parts = [_read._read_file_range(file.fileno(), a, b, column) for a, b in zip(cuts, cuts[1:])]
        if any(part is None for part in parts):
            return "fails"
        return np.concatenate(parts).tobytes()


def _read_in_ranges(monkeypatch, path, cuts):
    # the reader, the files it would cut cut at those of `cuts` past the
    # first byte of their ranges, and the ranges read here, one after another
    with monkeypatch.context() as patch:
        patch.setattr(
            _read, "_cuts", lambda source, size, parts, start: [start, *(cut for cut in cuts if cut > start), size]
        )
        patch.setattr(_read, "fork_map", _in_process_fork_map)
        return _read_outcome(_read._read_observations, path)


RANGE_TOKENS = [token.encode() for token in BODY_TOKENS] + ["\ufeff".encode(), b"\xff"]
# (header, the income column it names): the header's first non-blank line,
# read as a CSV row, decides. With no column the file holds one value per
# line, read from its first byte; else the rows are cut after the header,
# which may run on over quoted newlines
RANGE_HEADERS = [
    (b"", None),
    (b"income\n", 0),
    (b"id,income\r\n", 1),
    (b" a , income ,b\n", 1),
    (b'"income\n', 0),
    (b"\n\nid,income\n", 1),
    (b'income,"x\ny"\n', 0),
    (b"id,income\r", 1),
    (b'a,"x\ny",income\n', None),
]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    bom=st.booleans(),
    layout=st.sampled_from(RANGE_HEADERS),
    body=st.lists(st.sampled_from(RANGE_TOKENS), max_size=30).map(b"".join),
    data=st.data(),
)
def test_ranges_cut_after_any_newlines_read_as_one_range(tmp_path, monkeypatch, bom, layout, body, data):
    header, column = layout
    start = 0 if column is None else (3 if bom else 0) + len(header)
    payload = (b"\xef\xbb\xbf" if bom else b"") + header + body
    ends = [end for end in _newline_ends(payload) if end > start]
    cuts = sorted(data.draw(st.sets(st.sampled_from(ends or [start]))) - {start})
    # the range function: the joined ranges hold the one range's values, or
    # both fail
    assert _ranges_outcome(payload, [start, *cuts, len(payload)], column) == _ranges_outcome(
        payload, [start, len(payload)], column
    )
    # the reader: the same values or the same error as one range gives
    path = tmp_path / "obs.txt"
    path.write_bytes(payload)
    assert _read_in_ranges(monkeypatch, str(path), cuts) == _read_outcome(_read._read_observations, str(path))


@pytest.mark.parametrize(
    "payload, expected",
    [
        (b"\xef\xbb\xbf1.5\n2\n3\n", [1.5, 2.0, 3.0]),
        (b"1\r\n2\r3\r\n4\n5\r6\n", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        (b"1\n\n\n2\n \n\t\n3", [1.0, 2.0, 3.0]),
        ("1\n\ufeff2\n3\n".encode(), "line 2: could not parse observation '\\ufeff2'"),
        (b"1\n2\n3\n-4\n", "line 4: observation must be strictly positive and finite, got -4"),
        (b"1\n2\n3\n\xff4\n", "byte 6: not UTF-8 text (invalid start byte)"),
        (b"\xef\xbb\xbfid,income\n1,1.5\n2,2\n3,3\n", [1.5, 2.0, 3.0]),
        (b"id,income\r\na,1\r\nb,2\rc,3\r\nd,4\ne,5\rf,6\n", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        (b"id,income\n1,1\n\n\n2,2\n,\n \n,\n3,3", [1.0, 2.0, 3.0]),
        (b"id,income\n1,1\n2,2\n3\n4,4\n", "line 4: missing income value"),
        (b"id,income\n1,1\n2,2\n3,\xff3\n", "byte 20: not UTF-8 text (invalid start byte)"),
        (b'id,income\n1,1\n"2",2\n3,"3"\n', [1.0, 2.0, 3.0]),
        (b'id,note,income\n1,"a\nb\n",1\n2,,2\n', [1.0, 2.0]),
        # numpy ends an unclosed quote at the end of its input: cut after
        # `"x`, both ranges would parse, to 1 and to 2, 3
        (b'income,note\n1,"x\n2,y\n3,"\n4,z\n', [1.0, 4.0]),
        # the header's quoted field runs to the end, taking every row
        (b'"income\n1\n2\n', "line 1: quoted field opened here is never closed"),
        (b"\n \r\n\nid,income\n1,1\n2,2\n3,3\n", [1.0, 2.0, 3.0]),
        (b'income,"x\ny\n"\n1,a\n2,b\n3\n', [1.0, 2.0, 3.0]),
        (b"id,income\r1,1\n2,2\r\n3,3\n", [1.0, 2.0, 3.0]),
        # the header's first line names no income column: one value per line
        (b'a,"x\ny",income\n1,2,3\n', "line 1: could not parse observation 'a,\"x'"),
        (b'income,note\n1,a\n2,"x\n3,b\r\n4,c\n', "line 3: quoted field opened here is never closed"),
        (b'income\n1\n-2\n3\n\xff\n', "byte 14: not UTF-8 text (invalid start byte)"),
    ],
    ids=["bom", "crlf-and-lone-cr", "blank-lines-at-cuts", "bom-char-starts-a-range",
         "invalid-in-last-range", "not-utf8-in-last-range", "csv-bom", "csv-crlf-and-lone-cr",
         "csv-blank-rows-at-cuts", "csv-short-row-in-last-range", "csv-not-utf8-in-last-range",
         "csv-quoted-fields", "csv-quoted-field-across-cuts", "csv-unclosed-quote-in-a-range",
         "csv-header-unclosed-quote", "csv-blank-lines-before-header", "csv-quoted-header-across-lines",
         "csv-lone-cr-header", "header-first-line-names-no-income", "csv-unclosed-quote",
         "csv-not-utf8-after-invalid-value"],
)
def test_every_choice_of_cuts_reads_as_one_range(tmp_path, monkeypatch, payload, expected):
    path = tmp_path / "obs.txt"
    path.write_bytes(payload)
    if isinstance(expected, str):
        expected = f"{path}: {expected}"
    else:
        expected = np.array(expected).tobytes()
    assert _read_outcome(_read._read_observations, str(path)) == expected
    ends = _newline_ends(payload)
    for count in range(1, len(ends) + 1):
        for cuts in itertools.combinations(ends, count):
            assert _read_in_ranges(monkeypatch, str(path), list(cuts)) == expected, cuts


@pytest.mark.parametrize("first_line", [b"1\n", b"id,income\n"], ids=["lines", "csv"])
def test_a_bad_byte_is_named_before_a_rejected_row_in_another_range(tmp_path, monkeypatch, first_line):
    payload = _rejected_row_then_bad_byte(first_line, 20_000)
    path = tmp_path / "obs.txt"
    path.write_bytes(payload)
    expected = f"{path}: byte 20000: not UTF-8 text (invalid start byte)"
    ends = _newline_ends(payload)
    between = [end for end in ends if 20 < end < 20_000]
    # one range; the row and the byte on either side of a cut; each in a
    # range of its own; and many ranges
    for cuts in ([], [between[len(between) // 2]], [between[0], between[-1], 20_002], ends[::97]):
        assert _read_in_ranges(monkeypatch, str(path), cuts) == expected, cuts


def test_a_quoted_field_over_the_csv_field_limit_across_a_whole_range_is_read_in_one_pass(
    tmp_path, monkeypatch
):
    # a range wholly inside the quoted field fails, so the cut ranges fail,
    # and the reader parses the whole file again with numpy, which has no
    # field limit; the csv module's scan would reject the field
    lines = 100_000
    head = b'id,note,income\n1,"'
    payload = head + b"x\n" * lines + b'",2\n3,,4\n'
    assert 2 * lines > csv.field_size_limit()
    path = tmp_path / "obs.csv"
    path.write_bytes(payload)
    expected = np.array([2.0, 4.0]).tobytes()
    assert _read_outcome(_read._read_observations, str(path)) == expected
    inside = [len(head) + 2 * 10, len(head) + 2 * (lines - 10)]
    assert _read_in_ranges(monkeypatch, str(path), inside) == expected


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
@pytest.mark.parametrize(
    "header, column", [(b"", None), (b"id,income\r\n", 1)], ids=["lines", "csv"]
)
def test_rows_start_just_after_the_byte_order_mark_or_header(bom, header, column):
    source = io.BytesIO(bom + header + b"1.5\n2\n")
    assert _read._rows_start(source) == (len(bom) + len(header), column)


def test_the_cli_reads_through_the_reader_module():
    # cmd_estimate, and a tracer that wraps it by this name, call the reader
    # through the CLI's namespace
    assert cli._read_observations is _read._read_observations


def _libc_shapes(calls):
    """Stand-ins for ctypes.CDLL: a C library with both malloc calls, which
    record their name and arguments in `calls`, one with neither, and no
    library at all."""

    def recorder(name):
        return lambda *args: calls.append((name, *args))

    def no_library(name):
        raise OSError(f"{name}: cannot open shared object file")

    return [
        lambda name: types.SimpleNamespace(mallopt=recorder("mallopt"), malloc_trim=recorder("malloc_trim")),
        lambda name: types.SimpleNamespace(),
        no_library,
    ]


def _use_libc(monkeypatch, library):
    monkeypatch.setattr(_fork, "ctypes", types.SimpleNamespace(**{**vars(ctypes), "CDLL": library}))


def test_reader_returns_the_values_where_libc_cannot_trim_the_heap(tmp_path, monkeypatch):
    data = tmp_path / "obs.txt"
    data.write_text("1\n3\n")
    calls = []
    for library in _libc_shapes(calls):
        _use_libc(monkeypatch, library)
        assert _read._read_observations(str(data)).tolist() == [1.0, 3.0]
    # where there is one, the heap is trimmed once per read
    assert calls == [("malloc_trim", 0)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_writes_the_same_csv_where_libc_lacks_the_malloc_calls(tmp_path, capsys, monkeypatch, workers):
    calls = []
    payloads = []
    for i, library in enumerate(_libc_shapes(calls)):
        _use_libc(monkeypatch, library)
        out_path = tmp_path / f"{i}.csv"
        assert run_cli(capsys, "simulate", *SIM_FLAGS, "--workers", workers, "--out", str(out_path))[0] == 0
        payloads.append(out_path.read_bytes())
    assert payloads[1:] == payloads[:-1]
    # where they exist, this process sets the top pad once per run, and no
    # process of the grid trims its heap
    assert calls == [("mallopt", _fork.M_TOP_PAD, cli._SIMULATE_TOP_PAD)]


@pytest.mark.parametrize("parts", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "payload",
    [b"", b"1", b"1\n", b"1\n2\n3\n4\n", b"12345678901\n2\n", b"1\n" + b"2" * 40 + b"\n3\n", b"\n\n\n\n"],
)
def test_cuts_fall_just_after_newlines(tmp_path, payload, parts):
    path = tmp_path / "obs.txt"
    path.write_bytes(payload)
    with open(path, "rb") as file:
        cuts = _read._cuts(file, len(payload), parts)
    assert cuts[0] == 0 and cuts[-1] == len(payload)
    assert cuts == sorted(set(cuts)) or payload == b""
    assert len(cuts) - 1 <= max(parts, 1)
    assert all(payload[cut - 1 : cut] == b"\n" for cut in cuts[1:-1])


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # newline-free stretches of up to 10 kB, past the file's 8 KiB buffer
    payload=st.lists(
        st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"1.5", "\u20ac".encode(), b"9" * 300, b"9" * 10_000]),
        min_size=1,
        max_size=30,
    ).map(b"".join),
    parts=st.integers(1, 9),
    data=st.data(),
)
def test_cuts_fall_one_past_the_first_newline_from_each_target(tmp_path, payload, parts, data):
    size = len(payload)
    start = data.draw(st.integers(0, size - 1), label="start")
    path = tmp_path / "obs.txt"
    path.write_bytes(payload)
    with open(path, "rb") as file:
        cuts = _read._cuts(file, size, parts, start)
    assert cuts[0] == start and cuts[-1] == size
    for i in range(1, parts):
        newline = payload.find(b"\n", max(start + (size - start) * i // parts, cuts[i - 1]))
        if newline in (-1, size - 1):
            # no newline follows, or only the last byte: no cut here or later
            assert cuts[i:] == [size]
            break
        assert cuts[i] == newline + 1
    else:
        assert cuts[parts:] == [size]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    bom=st.booleans(),
    text=st.lists(st.sampled_from(['"', '""', ",", "\r", "\n", "\r\n", "a"]), max_size=30).map("".join),
    scan_bytes=st.sampled_from([1, 3, 2**16]),
)
def test_open_quote_follows_the_csv_states_across_chunks(monkeypatch, bom, text, scan_bytes):
    # chunks of a few bytes, so that runs of quotes, CRLFs and the
    # byte-order mark meet the ends of reads
    monkeypatch.setattr(_read, "_SCAN_BYTES", scan_bytes)
    data = ("\ufeff" if bom else "") + text
    expected = _reference_open_quote(text.replace("\r\n", "\n").replace("\r", "\n"))
    assert _read._open_quote(io.BytesIO(data.encode())) == expected


def _check_reads_in_ranges_as_in_one(monkeypatch, capfd, tmp_path, path, start, n):
    # ranges from 128 KiB: the file of about 1 MiB at `path`, whose rows
    # begin at byte `start`, goes to two processes, and its last range holds
    # only blank lines
    monkeypatch.setattr(_read, "_RANGE_BYTES", 2**16)
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size
        cuts = _read._cuts(file, size, 2 * _read._RANGES_PER_WORKER, start)
        # _cuts moves the file's offset
        file.seek(0)
        assert len(cuts) == 2 * _read._RANGES_PER_WORKER + 1 and not file.read()[cuts[-2] :].strip()

    def estimate():
        code = main(["estimate", "--correct", str(path)])
        return (code, *capfd.readouterr())

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_range = estimate()
    assert one_range[0] == 0 and one_range[1].startswith(f"n = {n}\n") and one_range[2] == ""

    # what every process does, logged through one O_APPEND file
    log = tmp_path / "log"

    def logged(name, original):
        def call(*args, **kwargs):
            append_line(log, f"{name} {os.getpid()} {args[1:] if name == 'range' else ''}")
            return original(*args, **kwargs)

        return call

    for name in ("_scan_lines", "_scan_incomes"):
        monkeypatch.setattr(_read, name, logged("scan", getattr(_read, name)))
    monkeypatch.setattr(_read, "_read_file_range", logged("range", _read._read_file_range))
    monkeypatch.setattr(_read, "_read_range", logged("parse", _read._read_range))
    monkeypatch.setattr(_read, "open", logged("open", open), raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert estimate() == one_range
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    calls = [line.split(" ", 2) for line in read_lines(log)]
    # the path is opened once, here; each range is parsed exactly once, in
    # whichever process took it, and nothing is parsed again or scanned
    assert [(pid, args) for name, pid, args in calls if name == "open"] == [(str(os.getpid()), "")]
    ranges = [args for name, _, args in calls if name == "range"]
    assert sorted(ranges) == sorted(str(span) for span in zip(cuts, cuts[1:]))
    assert [name for name, _, _ in calls].count("parse") == len(ranges)
    assert {name for name, _, _ in calls} == {"open", "range", "parse"}


# numpy's "input contained no data" warning for the all-blank range, if a
# process did not filter it, would raise there
@pytest.mark.filterwarnings("error")
def test_estimate_reads_a_large_file_in_ranges_as_in_one(tmp_path, monkeypatch, capfd):
    values = np.random.default_rng(15).gamma(1.5, size=15_000)
    payload = "\ufeff" + "".join(f" {value!r}\r\n" for value in values.tolist()) + "\n" * 600_000
    path = tmp_path / "obs.txt"
    path.write_text(payload, encoding="utf-8", newline="")
    # the rows begin just after the byte-order mark
    _check_reads_in_ranges_as_in_one(monkeypatch, capfd, tmp_path, path, 3, 15_000)


@pytest.mark.filterwarnings("error")
def test_estimate_reads_a_large_csv_in_ranges_as_in_one(tmp_path, monkeypatch, capfd):
    values = np.random.default_rng(17).gamma(1.5, size=15_000)
    header = "\ufeffid, region ,income,size\r\n"
    rows = "".join(f"{i},north, {value!r},{i % 7}\r\n" for i, value in enumerate(values.tolist()))
    path = tmp_path / "obs.csv"
    path.write_text(header + rows + "\n" * 450_000, encoding="utf-8", newline="")
    # the rows begin just after the header and its byte-order mark
    start = len(header.encode())
    _check_reads_in_ranges_as_in_one(monkeypatch, capfd, tmp_path, path, start, 15_000)


@pytest.mark.filterwarnings("error")
def test_estimate_reads_a_large_csv_with_a_quoted_header_after_blank_lines_in_ranges(tmp_path, monkeypatch, capfd):
    values = np.random.default_rng(20).gamma(1.5, size=15_000)
    header = '\ufeff\n \r\n"id","region",income,"size,\nin m2"\r\n'
    rows = "".join(f"{i},north, {value!r},{i % 7}\n" for i, value in enumerate(values.tolist()))
    path = tmp_path / "obs.csv"
    path.write_text(header + rows + "\n" * 450_000, encoding="utf-8", newline="")
    # the rows begin just after the header record, its quoted newline included
    start = len(header.encode())
    _check_reads_in_ranges_as_in_one(monkeypatch, capfd, tmp_path, path, start, 15_000)


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


def test_write_results_csv_removes_its_temporary_file_when_the_write_fails(tmp_path, monkeypatch):
    summaries = run_grid(SimConfig(alphas=(0.5,), ns=(2,), n_sim=3))
    out_path = tmp_path / "results.csv"
    out_path.write_bytes(b"earlier results\n")

    def fail(source, target):
        raise OSError(errno.EIO, "replace failed")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        cli.write_results_csv(str(out_path), summaries)
    # no .results-*.csv.tmp is left, and the target keeps its bytes
    assert [path.name for path in tmp_path.iterdir()] == ["results.csv"]
    assert out_path.read_bytes() == b"earlier results\n"


def test_simulate_rate_alpha_writes_the_library_grid(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    argv = ("--rate", "alpha", "--alphas", "0.5,2.0", "--ns", "5", "--nsim", "50")
    assert run_cli(capsys, "simulate", *argv, "--out", str(out_path))[:2] == (0, "")
    expected = tmp_path / "expected.csv"
    config = SimConfig(alphas=(0.5, 2.0), ns=(5,), n_sim=50, rate="alpha")
    cli.write_results_csv(str(expected), run_grid(config))
    assert out_path.read_bytes() == expected.read_bytes()
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--rate", "x", "--out", str(out_path)])
    assert err.value.code == 2
    assert "argument --rate: expected a number or 'alpha', got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_default_grid_sha256_pinned(tmp_path, capsys, workers):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "simulate", "--seed", "42", "--workers", workers, "--out", str(out_path))
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == pinned(DEFAULT_GRID_SHA256), numpy_build_note()


# numpy's CPU features that hold its float64 log and exp below AVX-512, and
# those that hold them to the baseline as well
WITHOUT_AVX512 = "AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX AVX512_SKX AVX512FP16 AVX512BF16 X86_V4"
WITHOUT_AVX2 = f"{WITHOUT_AVX512} AVX2 FMA3 X86_V3"

# prints the SIMD targets, the default CSV's sha256 and the {1, 3} report
PINNED_OUTPUTS = """
import hashlib, sys
from conftest import simd_targets
from gammaineq import Sample, estimate_all
from gammaineq.cli import main
assert main(["simulate", "--seed", "42", "--out", sys.argv[1]]) == 0
with open(sys.argv[1], "rb") as handle:
    digest = hashlib.sha256(handle.read()).hexdigest()
print(simd_targets())
print(digest)
print(repr(estimate_all(Sample([1.0, 3.0]), apply_correction=True)))
"""


@pytest.mark.parametrize("disabled", [WITHOUT_AVX512, WITHOUT_AVX2], ids=["without-avx512", "without-avx2"])
def test_pinned_outputs_hold_in_the_simd_classes_below_this_one(tmp_path, monkeypatch, disabled):
    # numpy in a child process, held to a lower SIMD class on this machine:
    # the default CSV and the {1, 3} report equal the pins of the class the
    # child reports, so every recorded class is checked on one host
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", disabled)
    result = _run_python("-c", PINNED_OUTPUTS, str(tmp_path / "grid.csv"), cwd=pathlib.Path(__file__).parent)
    assert result.returncode == 0, result.stderr
    targets, digest, report = result.stdout.splitlines()
    assert targets != X86_V4
    assert digest == pinned(DEFAULT_GRID_SHA256, targets), numpy_build_note(targets)
    assert report == repr(pinned(PAIR_REPORT, targets)), numpy_build_note(targets)


def test_simulate_rejects_bad_grid(tmp_path, capsys):
    out_path = str(tmp_path / "x.csv")
    code, _, err = run_cli(capsys, "simulate", "--alphas", "1e6", "--out", out_path)
    assert code == 1
    assert "relative bias" in err
    assert run_cli(capsys, "simulate", "--nsim", "0", "--out", out_path)[0] == 1
    assert run_cli(capsys, "simulate", "--rate", "-1", "--out", out_path)[0] == 1
    assert run_cli(capsys, "simulate", "--seed", "-1", "--out", out_path)[0] == 1


def test_simulate_at_a_rate_whose_sums_pass_float64_matches_rate_1(tmp_path, capsys):
    # the draws at rate 1e-306 sum past the largest double; the indices
    # depend on the shape alone, so the grid gives what it gives at rate 1
    means = []
    for rate in ("1e-306", "1"):
        out_path = tmp_path / f"rate-{rate}.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--alphas", "2", "--ns", "200", "--nsim", "5",
            "--rate", rate, "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            means.append([float(row["mean_estimate"]) for row in csv.DictReader(handle)])
    assert len(means[0]) == 6
    assert means[0] == pytest.approx(means[1], rel=1e-11, abs=0.0)


def test_simulate_rate_that_pushes_draws_below_the_normal_range_exits_1(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--alphas", "0.1", "--ns", "10", "--nsim", "50",
        "--rate", "1e300", "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == (
        "gammaineq: a gamma draw falls below the normal float64 range at shape = 0.1, rate = 1e+300\n"
    )
    assert not out_path.exists()


def test_simulate_worker_error_reaches_the_cli_as_the_serial_one(tmp_path, capsys):
    # every cell draws below the normal range, each naming its own shape;
    # the two workers each fail, and the first failure in cell order wins,
    # as it does serially
    errors = []
    for workers in ("1", "2"):
        code, out, err = run_cli(
            capsys, "simulate", "--alphas", "1.5,2", "--ns", "100,200", "--nsim", "5",
            "--rate", "1e307", "--workers", workers, "--out", str(tmp_path / "x.csv"),
        )
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors == [
        "gammaineq: a gamma draw falls below the normal float64 range at shape = 1.5, rate = 1e+307\n"
    ] * 2
    assert list(tmp_path.iterdir()) == []


def test_simulate_at_a_shape_too_small_to_sample_exits_1(tmp_path):
    # it redrew every draw, all of which round to zero, without end
    out_path = tmp_path / "x.csv"
    result = _run_module(
        "simulate", "--alphas", "1e-300", "--ns", "2", "--nsim", "3", "--out", str(out_path), timeout=5
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "gammaineq: more than half of all gamma draws round to zero at shape = 1e-300, below 0.00093\n"
    )
    assert not out_path.exists()


def test_simulate_worker_that_ends_without_a_result_exits_1(tmp_path, capsys, monkeypatch):
    # a forked worker dies mid-run, as one the kernel kills would: one line
    # on stderr, exit 1, no CSV, and no child left behind
    parent = os.getpid()
    log = tmp_path / "log"
    summarize = simulation._summarize

    def dying(cells, n_sim, master_seed):
        if os.getpid() != parent:
            append_line(log, "child")
            os._exit(3)
        # hold this process on its run until the child has taken the other
        wait_for(lambda: read_lines(log))
        return summarize(cells, n_sim, master_seed)

    monkeypatch.setattr(simulation, "_summarize", dying)
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "simulate", *SIM_FLAGS, "--workers", "2", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert re.fullmatch(r"gammaineq: worker process \d+ ended without a result \(exit code 3\)\n", err), err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", ["3", "13"])
def test_simulate_csv_at_more_workers_than_cores_or_runs_equals_serial(tmp_path, capsys, workers):
    # SIM_FLAGS's grid has 4 cells: 13 workers give 4 runs
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(capsys, "simulate", *SIM_FLAGS, "--out", str(serial))[0] == 0
    assert run_cli(capsys, "simulate", *SIM_FLAGS, "--workers", workers, "--out", str(parallel))[0] == 0
    assert parallel.read_bytes() == serial.read_bytes()


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
    # an --out that names no file is reported before the grid, and nothing
    # is written, not even in the parent of the working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for out in ("", "newname/", "newname/."):
        code, stdout, err = run_cli(capsys, "simulate", "--out", out)
        assert (code, stdout, len(calls)) == (1, "", 1)
        assert err == f"gammaineq: --out must name a file, got {out!r}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["work", "x.csv"]
    assert not any(work.iterdir())


def test_simulate_out_that_names_a_fifo_exits_1(tmp_path, capsys):
    # os.replace would put the CSV in the FIFO's place, and a reader waiting
    # on the FIFO would get nothing
    fifo = tmp_path / "f"
    os.mkfifo(fifo)
    code, out, err = run_cli(
        capsys, "simulate", "--alphas", "1.5", "--ns", "10", "--nsim", "5", "--out", str(fifo)
    )
    assert (code, out) == (1, "")
    assert err == f"gammaineq: --out must name a regular file, got {str(fifo)!r}\n"
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [path.name for path in tmp_path.iterdir()] == ["f"]


def test_module_entry_point():
    result = _run_module("population", "--alpha", "1.0")
    assert result.returncode == 0
    assert "theil_t = 0.422784335098" in result.stdout


def test_main_leaves_the_collector_as_it_is(tmp_path, capsys):
    data = tmp_path / "obs.txt"
    data.write_text("1\n3\n")
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "population", "--alpha", "1")[0] == 0
    assert run_cli(capsys, "estimate", "--correct", str(data))[0] == 0
    assert run_cli(capsys, "population", "--alpha", "-1")[0] == 1
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize(
    "argv",
    [
        ["population", "--alpha", "1"],
        ["population", "--alpha", "-1"],
        ["population"],
        ["estimate", "--correct", "obs.txt"],
        ["estimate", "--correct", "single.txt"],
    ],
    ids=["ok", "domain-error", "usage-error", "estimate", "correction-unavailable"],
)
def test_module_exits_as_main_returns(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "obs.txt").write_text("1\n3\n")
    (tmp_path / "single.txt").write_text("4.0\n")
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    result = _run_module(*argv, cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (code, *capsys.readouterr())
    assert code in (0, 1, 2, 3)


def test_module_and_script_freeze_the_start_up_heap():
    # `python -m gammaineq` runs the entry with the collector's objects
    # frozen by the time the process exits; the console script is the same entry
    script = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
        "sys.argv[1:] = ['population', '--alpha', '1']; "
        "runpy.run_module('gammaineq', run_name='__main__', alter_sys=True)"
    )
    result = _run_python("-c", script)
    assert result.returncode == 0 and result.stdout.endswith("\nfrozen True\n"), result
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^gammaineq = \"(.*)\"$", pyproject, re.M) == ["gammaineq.cli:_entry"]
