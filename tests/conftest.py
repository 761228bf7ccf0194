"""Shared fixtures: test grids, summary-statistics helpers, an mpmath
oracle of the sample Theil indices, the sample whose outputs are pinned and
the pins kept for each SIMD class."""

import dataclasses
import math
import os
import time

import hypothesis
import mpmath
import numpy as np
import pytest

from gammaineq import EstimateReport, GammaParams, derive_stream, sample_gamma

hypothesis.settings.register_profile("slow_box", deadline=None)
hypothesis.settings.load_profile("slow_box")

# identity/sign suite grid
IDENTITY_ALPHAS = (0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 100.0)
IDENTITY_NS = (1, 2, 10, 200)


def se_from_summary(row):
    """Standard error of the mean estimate recovered from stored aggregates:
    SD^2 = mse - (mean - true)^2."""
    variance = row.mse - (row.mean_estimate - row.true_value) ** 2
    if variance < 0.0:
        variance = 0.0
    return math.sqrt(variance / row.n_effective)


def oracle_dps(alpha, n=1):
    """Working precision, in digits, of an mpmath oracle at shape alpha and
    sample size n: 40 + 2|log10 alpha| + 2 log10 n. At tiny alpha psi(alpha)
    and 1/alpha cancel about |log10 alpha| digits, at large alpha
    ln Gamma(alpha) and the ln(alpha) it is compared with about
    2 log10 alpha, and a factor n carries log10 n more."""
    return 40 + 2 * math.ceil(abs(math.log10(alpha))) + 2 * math.ceil(math.log10(n))


def mpmath_theil(xs):
    """Theil T and Theil L of the doubles xs, in 50-digit mpmath."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(x) for x in xs]
        mean = mpmath.fsum(xs) / len(xs)
        theil_t = mpmath.fsum(x / mean * mpmath.log(x / mean) for x in xs) / len(xs)
        theil_l = mpmath.fsum(mpmath.log(mean / x) for x in xs) / len(xs)
        return float(theil_t), float(theil_l)


def simd_targets():
    """The SIMD targets that numpy dispatches its float64 log, exp and power
    to in this process, e.g. "exp/dd X86_V4, log/dd X86_V4, power/ddd
    X86_V4"; "unknown" where numpy cannot tell (numpy < 2). Output bits
    that pass through these functions hold within one such class only."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2
        return "unknown"
    info = opt_func_info(func_name="^(log|exp|power)$", signature="^d")
    return ", ".join(
        f"{name}/{signature} {target['current']}"
        for name, signatures in sorted(info.items())
        for signature, target in signatures.items()
    )


def numpy_build_note(targets=None):
    """The numpy version and the SIMD targets of its float64 log, exp and
    power (this process's where targets is None), for the message of a test
    that pins output bits: those bits hold only on one machine class with
    one numpy build."""
    return f"numpy {np.__version__}; float64 SIMD targets: {targets or simd_targets()}"


# simd_targets() of the x86-64 classes whose pins are recorded: with
# AVX-512, with AVX2, and on the baseline, with neither
X86_V4 = "exp/dd X86_V4, log/dd X86_V4, power/ddd X86_V4"
X86_V3 = "exp/dd X86_V3, log/dd X86_V3, power/ddd baseline(X86_V2)"
X86_V2 = "exp/dd baseline(X86_V2), log/dd baseline(X86_V2), power/ddd baseline(X86_V2)"

# sha256 of the default `simulate --seed 42` CSV: any change to the stream
# model or to the last bit of any estimate, fit or aggregate shows here
DEFAULT_GRID_SHA256 = {
    X86_V4: "c3fb04083b0f99c6c13fc1d1677254dc65d38cd583c6d36ce28d00f11d2ccd05",
    X86_V3: "4788efef60af315a8d9d836f2a314b16e3cb780466ec1276144cf5978ae3f765",
    X86_V2: "4788efef60af315a8d9d836f2a314b16e3cb780466ec1276144cf5978ae3f765",
}

# estimate_all(Sample([1.0, 3.0]), apply_correction=True); the classes
# differ in the last bit of theil_l_corrected only
_PAIR_REPORT_X86_V4 = EstimateReport(
    n=2,
    theil_t_hat=0.130812035941137,
    theil_l_hat=0.1438410362258904,
    atkinson_hat=0.1339745962155613,
    alpha_hat=3.6343027805778383,
    theil_t_corrected=0.19802667202063692,
    theil_l_corrected=0.21420437044431428,
    atkinson_corrected=0.2016710761897894,
)
PAIR_REPORT = {
    X86_V4: _PAIR_REPORT_X86_V4,
    X86_V3: dataclasses.replace(_PAIR_REPORT_X86_V4, theil_l_corrected=0.2142043704443144),
    X86_V2: dataclasses.replace(_PAIR_REPORT_X86_V4, theil_l_corrected=0.2142043704443144),
}


def pinned(pins, targets=None):
    """The value that pins records for the SIMD class of targets (this
    process's where None). A class with no recorded value fails the test,
    naming its targets: it does not skip."""
    targets = targets or simd_targets()
    if targets not in pins:
        pytest.fail(f"no pin recorded for {numpy_build_note(targets)}")
    return pins[targets]


def pinned_gamma_sample():
    """The 10,000-row Gamma(1.5) sample whose estimates and shape fit are
    pinned bit for bit."""
    return sample_gamma(GammaParams(1.5), 10_000, derive_stream(42, 0, 0, 0))


def append_line(path, line):
    """Append `line` and a newline to the file `path` in one O_APPEND write,
    so that lines from forked processes land whole, each exactly once."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


def read_lines(path):
    """The lines of the file `path`, or [] if it does not exist."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().splitlines()
    except FileNotFoundError:
        return []


def wait_for(condition, timeout=30.0):
    """Poll `condition` until it holds; AssertionError after `timeout` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError(f"waited {timeout} s for a condition")
        time.sleep(0.001)
