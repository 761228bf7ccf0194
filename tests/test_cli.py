"""Command-line interface: output formats, exit codes, file parsing, and
byte-stable CSV export."""

import csv
import hashlib
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pinned_gamma_sample
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
    assert run_cli(capsys, "estimate", str(data), "--correct") == (0, expected, "")


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


@pytest.mark.parametrize(
    "payload, offset",
    [(b"1.5\n\xff\xfe2\n", 4), (b"\xef\xbb\xbf1.5\n\xff\xfe2\n", 7), (b"1\n" * 50_000 + b"\xc3(", 100_000)],
    ids=["second-line", "after-bom", "past-first-read-chunk"],
)
def test_estimate_non_utf8_exits_1_naming_the_byte(tmp_path, capsys, payload, offset):
    data = tmp_path / "bad.txt"
    data.write_bytes(payload)
    code, out, err = run_cli(capsys, "estimate", str(data))
    assert (code, out) == (1, "")
    assert err.startswith(f"gammaineq: {data}: byte {offset}: not UTF-8 text (")


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


def test_valid_files_never_reach_the_line_by_line_scan(tmp_path, monkeypatch):
    calls = {}

    def count(name):
        original = getattr(cli, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(cli, name, counted)

    count("_scan_lines")
    count("_scan_incomes")
    valid = {
        "lines.txt": b"\xef\xbb\xbf 1.5\r\n\r\n\t2e-3 \n1_000\n",
        "incomes.csv": b'\xef\xbb\xbf\nid, note ,income\r\n1,"a, b",1.5\r\n\r\n2,"two\nlines",2e-3\n3,,1_000,extra\n',
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


# sha256 of the default `simulate --seed 42` CSV: any change to the stream
# model or to the last bit of any estimate, fit or aggregate shows here
DEFAULT_GRID_SHA256 = "8438eb42e441386b1c0e18d9b30390d2524f75f64b9f7501be51c57f094c4823"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_default_grid_sha256_pinned(tmp_path, capsys, workers):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "simulate", "--seed", "42", "--workers", workers, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == DEFAULT_GRID_SHA256


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
    # a writable --out runs the grid once and leaves only the results behind
    assert run_cli(capsys, "simulate", "--out", str(tmp_path / "x.csv"))[0] == 0
    assert len(calls) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["x.csv"]


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gammaineq", "population", "--alpha", "1.0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "theil_t = 0.422784335098" in result.stdout
