"""Shared fixtures: test grids, summary-statistics helpers and the sample
whose outputs are pinned."""

import math
import os
import time

import hypothesis
import numpy as np

from gammaineq import GammaParams, derive_stream, sample_gamma

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


def numpy_build_note():
    """The numpy version and the SIMD targets of its float64 log, exp and
    power, for the message of a test that pins output bits: those bits
    hold only on one machine class with one numpy build."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2
        return f"numpy {np.__version__}"
    info = opt_func_info(func_name="^(log|exp|power)$", signature="^d")
    targets = ", ".join(
        f"{name}/{signature} {target['current']}"
        for name, signatures in sorted(info.items())
        for signature, target in signatures.items()
    )
    return f"numpy {np.__version__}; float64 SIMD targets: {targets}"


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
