"""Benchmark of the gammaineq command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it runs the package under ./src, writes
only under ./.bench_work, and prints one JSON result as its last line of
output. `--workload all` runs every workload in turn.

Each workload is a closed loop: one client issues one CLI invocation at a
time and starts the next only when the previous one has ended, for about
S seconds. Every output is checked (see checks.py); an invocation fails
when it exits non-zero, when its output fails a check, or when it differs
from another invocation of the same command.

  sim_grid_serial    gammaineq simulate, default grid, --workers 1
  sim_grid_parallel  the same grid with --workers 2; its CSV must equal the
                     --workers 1 CSV, run once after the loop as a reference
  estimate_files     gammaineq estimate --correct on a 1M-row one-value-per-
                     line file, then on a 250k-row CSV with an income column;
                     both are drawn from Gamma(1.5) with the given seed

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run (tracer.py), alternating
traced and untraced invocations. The metric names and units are read from
BENCHMARK.json; README.md says what each one should move.

The host's speed drifts by tens of percent over seconds to minutes, from
load outside this machine. So a thread of the benchmark times a small fixed
pure-Python kernel every CAL_PERIOD_S while the children run, and each
child's wall time is scaled by CAL_NOMINAL_S over the median kernel time
seen within CAL_PAD_S of it: times read as seconds on a machine running the
kernel in CAL_NOMINAL_S. Raw times are printed and stored too.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import scipy

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")

WORKLOADS = ("sim_grid_serial", "sim_grid_parallel", "estimate_files")
GRID_WORKERS = {"sim_grid_serial": 1, "sim_grid_parallel": 2}
GRID_REPS = len(checks.ALPHAS) * len(checks.NS) * checks.N_SIM
GRID_ROWS = len(checks.ALPHAS) * sum(checks.NS) * checks.N_SIM

SHAPE = 1.5
LINES_ROWS = 1_000_000
CSV_ROWS = 250_000
REGIONS = ("north", "south", "east", "west")

# setup_s times a fresh interpreter running this before each untraced
# iteration, after one untimed warm-up that fills the bytecode cache.
SETUP_PROBE = (
    "import sys, gammaineq.cli; "
    "gammaineq.cli.build_parser().parse_args(sys.argv[1:]); "
    "print(gammaineq.__file__)"
)

# A run must end within this many seconds of its start, children included.
HARD_LIMIT_S = 170.0

# Speed calibration: a fixed nominal kernel time (about the kernel's time on
# the 2-core Xeon KVM guest with Python 3.11 the benchmark was written on),
# the sampling period, how far around a child's span samples are taken, and
# the fewest samples a scale factor rests on.
CAL_NOMINAL_S = 1.6e-3
CAL_PERIOD_S = 0.05
CAL_PAD_S = 0.5
CAL_MIN_SAMPLES = 5


def calibration_kernel():
    total = 0
    for i in range(20_000):
        total += i * i
    return total


class SpeedProbe:
    """Times calibration_kernel every CAL_PERIOD_S on a background thread."""

    def __init__(self):
        self.samples = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(CAL_PERIOD_S):
            start = time.perf_counter()
            calibration_kernel()
            self.samples.append((start, time.perf_counter() - start))

    def scale(self, start, end):
        """CAL_NOMINAL_S over the median kernel time within CAL_PAD_S of
        [start, end], or nearest it when that window holds too few samples."""
        samples = list(self.samples)
        inside = [d for t, d in samples if start - CAL_PAD_S <= t <= end + CAL_PAD_S]
        if len(inside) < CAL_MIN_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [d for _, d in nearest[:CAL_MIN_SAMPLES]]
        return CAL_NOMINAL_S / statistics.median(inside)


def kill_session(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Invocation:
    """One finished child process."""

    def __init__(self, wall_s, scaled_s, rss_mib, returncode, output, stats_dir):
        self.wall_s = wall_s
        self.scaled_s = scaled_s
        self.rss_mib = rss_mib
        self.returncode = returncode
        self.output = output
        self.stats_dir = stats_dir


class Context:
    def __init__(self, root, seed, run_dir, speed):
        self.root = root
        self.speed = speed
        self.seed = seed
        self.run_dir = run_dir
        self.started = time.perf_counter()
        self.counter = 0
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_work", "pycache")
        self.env = env

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def spawn(self, argv, output_file=None, traced=False):
        """Run one child to completion. Its output is its stdout, or the
        file `output_file` when given. Peak RSS comes from wait4 on this
        child alone, which covers the pool workers it reaped."""
        self.counter += 1
        tag = f"call{self.counter}"
        stats_dir = None
        if traced:
            stats_dir = self.path(f"{tag}-stats")
            os.mkdir(stats_dir)
            argv = [sys.executable, TRACER, stats_dir, *argv]
        else:
            argv = [sys.executable, "-m", "gammaineq", *argv]
        return self._wait(argv, tag, output_file, stats_dir)

    def _wait(self, argv, tag, output_file, stats_dir):
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        stdout_path = self.path(f"{tag}.out")
        with open(stdout_path, "wb") as out, open(self.path(f"{tag}.err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=self.run_dir, start_new_session=True
            )
            # On overrun, kill the child's whole session: pool workers too.
            timer = threading.Timer(max(remaining, 1.0), kill_session, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        wall_s = end - start
        scaled_s = wall_s * self.speed.scale(start, end)
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = b""
        result_path = output_file or stdout_path
        if os.path.exists(result_path):
            with open(result_path, "rb") as handle:
                output = handle.read()
        return Invocation(
            wall_s, scaled_s, usage.ru_maxrss / 1024.0, proc.returncode, output, stats_dir
        )

    def probe_setup(self, cli_args):
        """A fresh interpreter imports gammaineq.cli and parses `cli_args`."""
        self.counter += 1
        argv = [sys.executable, "-c", SETUP_PROBE, *cli_args]
        probe = self._wait(argv, f"probe{self.counter}", None, None)
        if probe.returncode != 0:
            raise BenchError(f"setup probe exited with {probe.returncode}")
        loaded = os.path.realpath(probe.output.decode().strip())
        if not loaded.startswith(os.path.realpath(os.path.join(self.root, "src")) + os.sep):
            raise BenchError(f"gammaineq was imported from {loaded}, not from ./src")
        return probe


# ---------------------------------------------------------------- workloads


class Grid:
    def __init__(self, ctx, workers):
        self.ctx = ctx
        self.workers = workers
        self.reps = GRID_REPS
        self.rows = GRID_ROWS
        self.reference = None
        self.setup_args = self.args(workers, "probe.csv")

    def args(self, workers, out):
        return ["simulate", "--workers", str(workers), "--seed", str(self.ctx.seed), "--out", out]

    def iterate(self, traced):
        out = self.ctx.path(f"grid{self.ctx.counter + 1}.csv")
        call = self.ctx.spawn(self.args(self.workers, out), output_file=out, traced=traced)
        return [("grid", call)]

    def finish(self):
        """The parallel grid is compared against one --workers 1 run."""
        if self.workers == 1:
            return []
        out = self.ctx.path("reference.csv")
        call = self.ctx.spawn(self.args(1, out), output_file=out)
        self.reference = call.output
        return [("reference", call)]

    def check(self, label, output):
        problems = checks.check_grid_csv(output.decode("utf-8", "replace"))
        if label == "grid" and self.reference is not None and output != self.reference:
            problems.append(f"CSV with --workers {self.workers} differs from the --workers 1 CSV")
        return problems


class EstimateFiles:
    def __init__(self, ctx):
        self.ctx = ctx
        self.reps = 2
        self.rows = LINES_ROWS + CSV_ROWS
        rng = np.random.default_rng(ctx.seed)
        lines = rng.gamma(SHAPE, 1.0, LINES_ROWS).tolist()
        incomes = rng.gamma(SHAPE, 1.0, CSV_ROWS).tolist()
        regions = rng.integers(0, len(REGIONS), CSV_ROWS).tolist()
        sizes = rng.integers(1, 7, CSV_ROWS).tolist()
        self.files = {"lines": ctx.path("observations.txt"), "csv": ctx.path("households.csv")}
        with open(self.files["lines"], "w", encoding="utf-8") as handle:
            handle.write("\n".join(map(repr, lines)))
            handle.write("\n")
        with open(self.files["csv"], "w", encoding="utf-8") as handle:
            handle.write("id,region,income,household_size\n")
            handle.writelines(
                f"{i},{REGIONS[r]},{v!r},{s}\n"
                for i, (r, v, s) in enumerate(zip(regions, incomes, sizes), start=1)
            )
        self.references = {
            "lines": checks.estimate_reference(lines),
            "csv": checks.estimate_reference(incomes),
        }
        self.setup_args = ["estimate", "--correct", self.files["lines"]]

    def iterate(self, traced):
        return [
            (label, self.ctx.spawn(["estimate", "--correct", path], traced=traced))
            for label, path in self.files.items()
        ]

    def finish(self):
        return []

    def check(self, label, output):
        return checks.check_estimate_stdout(output.decode("utf-8", "replace"), self.references[label])


# ---------------------------------------------------------------- tracing


def load_stats(stats_dirs):
    """Merge the per-process aggregates tracer.py wrote into one."""
    stats, durations = {}, {}
    for stats_dir in stats_dirs:
        for name in sorted(os.listdir(stats_dir)):
            with open(os.path.join(stats_dir, name), encoding="utf-8") as handle:
                part = json.load(handle)
            for fn, rec in part["stats"].items():
                into = stats.setdefault(fn, {"errors": {}})
                for key, value in rec.items():
                    if key == "errors":
                        for err, count in value.items():
                            into["errors"][err] = into["errors"].get(err, 0) + count
                    else:
                        into[key] = into.get(key, 0) + value
            for fn, values in part["durations"].items():
                durations.setdefault(fn, []).extend(values)
    return stats, durations


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(iteration, workers, csv_bytes):
    """Per-layer metrics of one traced iteration: [(label, Invocation)]."""
    stats, durations = load_stats([call.stats_dir for _, call in iteration])

    def get(fn, key="calls"):
        return stats.get(fn, {}).get(key, 0)

    def seconds(fn, key="busy_ns"):
        return get(fn, key) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    reps = get("simulation.derive_stream") + get("estimators.estimate_all")
    for fn, extra in (("simulation.derive_stream", None), ("model.sample_gamma", "variates")):
        us = [d / 1e3 for d in durations.get(fn, [])]
        m[f"{fn}.calls"] = get(fn)
        m[f"{fn}.busy_s"] = seconds(fn)
        m[f"{fn}.p50_us"] = percentile(us, 0.50)
        m[f"{fn}.p99_us"] = percentile(us, 0.99)
        if extra:
            m[f"{fn}.{extra}"] = get(fn, "units")
    for fn in ("estimators.theil_t_hat", "estimators.theil_l_hat", "estimators.atkinson_hat"):
        m[f"{fn}.calls"] = get(fn)
        m[f"{fn}.busy_s"] = seconds(fn)
        m[f"{fn}.self_s"] = seconds(fn, "self_ns")
    m["estimators.theil_l_hat.calls_per_rep"] = ratio(get("estimators.theil_l_hat"), reps)

    fits = get("mle.fit_shape")
    errors = stats.get("mle.fit_shape", {}).get("errors", {})
    succeeded = fits - sum(errors.values())
    m["mle.fit_shape.calls"] = fits
    m["mle.fit_shape.busy_s"] = seconds("mle.fit_shape")
    m["mle.fit_shape.self_s"] = seconds("mle.fit_shape", "self_ns")
    m["mle.fit_shape.iterations_mean"] = ratio(get("mle.fit_shape", "units"), succeeded)
    m["mle.fit_shape.success_ratio"] = ratio(succeeded, fits)
    m["mle.fit_shape.failed.degenerate"] = errors.get("DegenerateSampleError", 0)
    m["mle.fit_shape.failed.no_convergence"] = errors.get("NoConvergenceError", 0)
    for fn in ("special.digamma", "special.trigamma"):
        m[f"{fn}.calls_per_fit"] = ratio(get(fn, "in_scope"), fits)
    m["special.busy_s"] = sum(
        rec["module_outer_ns"] for fn, rec in stats.items() if fn.startswith("special.")
    ) / 1e9

    bias = ("model.bias_theil_t", "model.bias_theil_l", "model.bias_atkinson")
    m["model.bias.calls"] = sum(get(fn) for fn in bias)
    m["model.bias.busy_s"] = sum(seconds(fn) for fn in bias)
    m["model.Sample.busy_s"] = seconds("model.Sample")

    cells = [d / 1e9 for d in durations.get("simulation.run_cell", [])]
    m["simulation.run_cell.busy_s"] = seconds("simulation.run_cell")
    m["simulation.run_cell.self_s"] = seconds("simulation.run_cell", "self_ns")
    m["simulation.run_cell.max_s"] = max(cells, default=0.0)
    m["simulation.cell_imbalance"] = ratio(max(cells), statistics.fmean(cells)) if cells else 0.0
    m["simulation.run_grid.pool_busy_frac"] = ratio(
        sum(cells), workers * seconds("simulation.run_grid")
    )

    for label in ("lines", "csv"):
        dirs = [call.stats_dir for name, call in iteration if name == label]
        rec = load_stats(dirs)[0].get("cli._read_observations", {})
        busy = rec.get("busy_ns", 0) / 1e9
        m[f"cli.read_observations.{label}.busy_s"] = busy
        m[f"cli.read_observations.{label}.rows_per_s"] = ratio(rec.get("units", 0), busy)
    m["cli.write_results_csv.busy_s"] = seconds("cli.write_results_csv")
    m["cli.write_results_csv.bytes"] = csv_bytes
    return m


# ---------------------------------------------------------------- running


def provenance(root):
    digest = hashlib.sha256()
    for base in ("src", "pyproject.toml"):
        top = os.path.join(root, base)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files if f.endswith(".py")
        )
        for path in paths:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def iteration_time(iteration, attr="scaled_s"):
    return sum(getattr(call, attr) for _, call in iteration)


def run_workload(root, spec, workload, seed, seconds, trace):
    run_dir = os.path.join(root, ".bench_work", f"run-{os.getpid()}-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        with SpeedProbe() as speed:
            ctx = Context(root, seed, run_dir, speed)
            if workload == "estimate_files":
                plan = EstimateFiles(ctx)
            else:
                plan = Grid(ctx, GRID_WORKERS[workload])
            ctx.probe_setup(plan.setup_args)

            probes, plain, traced = [], [], []
            loop_start = time.perf_counter()
            while True:
                if not trace:
                    probes.append(ctx.probe_setup(plan.setup_args))
                plain.append(plan.iterate(traced=False))
                if trace:
                    traced.append(plan.iterate(traced=True))
                last = sum(iteration_time(it, "wall_s") for it in plain[-1:] + traced[-1:])
                if time.perf_counter() - loop_start + last > seconds:
                    break
            extra = plan.finish()

        attempted = failed = 0
        canonical, verdicts = {}, {}
        for label, call in [pair for it in plain + traced for pair in it] + extra:
            attempted += 1
            canonical.setdefault(label, call.output)
            if call.output not in verdicts:
                verdicts[call.output] = plan.check(label, call.output)
            problems = list(verdicts[call.output])
            if call.returncode != 0:
                problems.insert(0, f"exit code {call.returncode}")
            elif call.output != canonical[label]:
                problems.insert(0, "output differs from the first invocation of the same command")
            if problems:
                failed += 1
                print(f"FAIL {workload} {label}: " + "; ".join(problems[:5]), file=sys.stderr)

        samples = {
            "setup_s": [p.scaled_s for p in probes],
            "raw_setup_s": [p.wall_s for p in probes],
            "wall_s": [iteration_time(it) for it in plain],
            "raw_wall_s": [iteration_time(it, "wall_s") for it in plain],
            "traced_wall_s": [iteration_time(it) for it in traced],
            "raw_traced_wall_s": [iteration_time(it, "wall_s") for it in traced],
            "peak_rss_mb": [max(call.rss_mib for _, call in it) for it in plain],
        }
        wall_s = statistics.median(samples["wall_s"])
        if trace:
            per_iteration = [
                layer_metrics(it, GRID_WORKERS.get(workload, 1), len(canonical.get("grid", b"")))
                for it in traced
            ]
            metrics = {
                name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]
            }
            metrics["trace.overhead_frac"] = statistics.median(samples["traced_wall_s"]) / wall_s - 1
            basis = f"per-layer medians over {len(traced)} traced iterations"
        else:
            metrics = {
                "setup_s": statistics.median(samples["setup_s"]),
                "wall_s": wall_s,
                "reps_per_s": plan.reps / wall_s,
                "rows_per_s": plan.rows / wall_s,
                "peak_rss_mb": max(samples["peak_rss_mb"]),
            }
            basis = (
                f"setup_s and wall_s medians of {len(probes)} probes and {len(plain)} iterations "
                f"(raw {statistics.median(samples['raw_setup_s']):.4g} s and "
                f"{statistics.median(samples['raw_wall_s']):.4g} s); peak_rss_mb the largest"
            )
        print(
            f"{workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced iterations, "
            f"{attempted} invocations, {failed} failed, fail_frac = {failed / attempted:.4g}; {basis}"
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    return result, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "gammaineq", "cli.py")):
            raise BenchError("no ./src/gammaineq here; run from the repository root")
        if not 0 <= args.seed < 2**64:
            raise BenchError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        info = provenance(root)
        print("provenance " + json.dumps(info, sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            w: run_workload(root, spec, w, args.seed, args.seconds, bool(args.trace))
            for w in workloads
        }
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    results_dir = os.path.join(root, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    for w, (result, samples) in results.items():
        path = os.path.join(results_dir, f"{w}-seed{args.seed}-trace{args.trace}.json")
        record = {"workload": w, "seed": args.seed, "provenance": info, **result, "samples": samples}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    results = {w: result for w, (result, _) in results.items()}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
