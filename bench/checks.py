"""Output checks for the benchmark, computed from scipy and math.fsum alone.

Nothing here imports gammaineq: every reference value is worked out
independently, so the checks keep holding when the program's arithmetic or
random stream model changes, and catch it when its answers go wrong.
Each check returns a list of problems; an empty list means the output passed.
"""

import csv
import io
import math

from scipy import optimize, special

# The default grid of `gammaineq simulate`.
ALPHAS = (0.1, 0.5, 1.5, 2.0)
NS = (10, 20, 50, 100, 200)
N_SIM = 1000
ESTIMATORS = ("theil_t", "theil_t_corr", "theil_l", "theil_l_corr", "atkinson", "atkinson_corr")
GRID_HEADER = "alpha,n,estimator,true_value,mean_estimate,rel_bias,mse,n_effective,n_failed"

TRUE_VALUE_TOL = 1e-12
MAX_STANDARD_ERRORS = 5.0
SIGNIFICANT_DIGITS = 12
# gammaineq's shape fit stops once |ln a - psi(a) - s| <= 1e-10, which pins
# alpha_hat only to about 1e-10 / |1/a - psi'(a)|: near a = 1.5 that is the
# tenth significant digit, so alpha_hat is held to the root condition.
FIT_RESIDUAL_TOL = 1e-10


def population(alpha):
    gap = math.log(alpha) - special.digamma(alpha)
    return {
        "theil_t": special.digamma(alpha) + 1.0 / alpha - math.log(alpha),
        "theil_l": gap,
        "atkinson": -math.expm1(-gap),
    }


def expectation(alpha, n):
    """Exact means of the three plug-in estimators over samples of size n."""
    na = n * alpha
    lgr = n * (special.gammaln(alpha + 1.0 / n) - special.gammaln(alpha))
    return {
        "theil_t": special.digamma(alpha) + 1.0 / alpha + math.log(n) - 1.0 / na - special.digamma(na),
        "theil_l": special.digamma(na) - math.log(n) - special.digamma(alpha),
        "atkinson": -math.expm1(lgr - math.log(alpha)),
    }


def check_grid_csv(text):
    """The default-grid CSV: header and 120 rows in grid order, counts that
    add up, true values that match scipy, and uncorrected means within
    MAX_STANDARD_ERRORS standard errors of the exact expectation."""
    lines = text.splitlines()
    if not lines or lines[0] != GRID_HEADER:
        return [f"bad header: {lines[0] if lines else ''!r}"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    expected_keys = [(a, n, e) for a in ALPHAS for n in NS for e in ESTIMATORS]
    if len(rows) != len(expected_keys):
        return [f"expected {len(expected_keys)} rows, got {len(rows)}"]
    problems = []
    for row, (alpha, n, estimator) in zip(rows, expected_keys):
        where = f"row alpha={alpha} n={n} {estimator}"
        try:
            a, size, name = float(row[0]), int(row[1]), row[2]
            true_value, mean, rel_bias, mse = (float(v) for v in row[3:7])
            n_effective, n_failed = int(row[7]), int(row[8])
        except (IndexError, ValueError) as exc:
            problems.append(f"{where}: unreadable ({exc})")
            continue
        if (a, size, name) != (alpha, n, estimator):
            problems.append(f"{where}: found ({a}, {size}, {name}) instead")
            continue
        if n_effective + n_failed != N_SIM:
            problems.append(f"{where}: n_effective + n_failed = {n_effective + n_failed}")
        base = estimator.removesuffix("_corr")
        reference = population(alpha)[base]
        if not abs(true_value - reference) <= TRUE_VALUE_TOL * max(1.0, abs(reference)):
            problems.append(f"{where}: true_value {true_value!r}, scipy gives {reference!r}")
        if estimator.endswith("_corr"):
            continue
        # mse is the mean squared error about the true value, so the spread
        # about the mean is mse minus the squared bias.
        bias = rel_bias * true_value
        variance = mse - bias * bias
        target = expectation(alpha, n)[base]
        if not (n_effective > 0 and variance > 0.0):
            problems.append(f"{where}: no spread to test the mean against (variance {variance!r})")
            continue
        standard_error = math.sqrt(variance / n_effective)
        if not abs(mean - target) <= MAX_STANDARD_ERRORS * standard_error:
            problems.append(
                f"{where}: mean {mean!r} is {abs(mean - target) / standard_error:.1f} standard errors "
                f"from the exact expectation {target!r}"
            )
    return problems


def _log_gamma_ratio_gap(alpha, n):
    """psi(alpha) - n*(lnGamma(alpha + 1/n) - lnGamma(alpha)), from the
    Taylor series of lnGamma about alpha (converges for 1/n < alpha)."""
    h = 1.0 / n
    terms = []
    for k in range(1, 16):
        term = special.polygamma(k, alpha) * h**k / math.factorial(k + 1)
        terms.append(term)
        if abs(term) < 1e-18 * abs(terms[0]):
            break
    return -math.fsum(terms)


def _shape_score(a, s):
    return math.log(a) - special.digamma(a) - s


def estimate_reference(values):
    """What `gammaineq estimate --correct` should print for these values."""
    n = len(values)
    total = math.fsum(values)
    mean = total / n
    theil_l = math.log(mean) - math.fsum(map(math.log, values)) / n
    theil_t = math.fsum(v * math.log(v) for v in values) / total - math.log(mean)
    atkinson = -math.expm1(-theil_l)

    alpha = optimize.brentq(
        _shape_score, 1e-8, 1e8, args=(theil_l,), xtol=1e-300, rtol=4 * 2.0**-52, maxiter=500
    )
    na = n * alpha
    ln_minus_psi = math.log(na) - special.digamma(na)
    gap = _log_gamma_ratio_gap(alpha, n)
    lgr = special.digamma(alpha) - gap
    bias_atkinson = math.exp(lgr - math.log(alpha)) * math.expm1(gap)
    return {
        "n": n,
        "theil_t_hat": theil_t,
        "theil_l_hat": theil_l,
        "atkinson_hat": atkinson,
        "alpha_hat": alpha,
        "theil_t_corrected": theil_t - (ln_minus_psi - 1.0 / na),
        "theil_l_corrected": theil_l + ln_minus_psi,
        "atkinson_corrected": atkinson - bias_atkinson,
    }


def check_estimate_stdout(text, reference):
    """Every printed field agrees with the reference to SIGNIFICANT_DIGITS
    significant digits (within one unit in the last printed digit), except
    alpha_hat, which must satisfy the fit's root condition to within
    FIT_RESIDUAL_TOL plus its printing error."""
    printed = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            printed[key] = value
    if set(printed) != set(reference):
        return [f"fields {sorted(printed)} instead of {sorted(reference)}"]
    problems = []
    if printed["n"] != str(reference["n"]):
        problems.append(f"n = {printed['n']}, expected {reference['n']}")
    for key, want in reference.items():
        if key == "n":
            continue
        try:
            got = float(printed[key])
        except ValueError:
            problems.append(f"{key} = {printed[key]!r} is not a number")
            continue
        unit = 10.0 ** (math.floor(math.log10(abs(want))) - (SIGNIFICANT_DIGITS - 1))
        if key == "alpha_hat":
            slope = 1.0 / want - special.polygamma(1, want)
            residual = _shape_score(got, reference["theil_l_hat"])
            if not abs(residual) <= FIT_RESIDUAL_TOL + abs(slope) * unit:
                problems.append(f"alpha_hat = {printed[key]} leaves the fit residual {residual!r}")
        elif not abs(got - want) <= unit:
            problems.append(f"{key} = {printed[key]}, reference {want!r}")
    return problems
