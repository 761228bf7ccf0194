"""Run the gammaineq CLI with every public function of its modules timed.

Usage: python3 bench/tracer.py STATS_DIR [gammaineq CLI arguments...]

Nothing in the package changes. Before the CLI runs, each public function
defined in gammaineq.{special,model,estimators,mle,simulation,cli} gets one
timing wrapper, and that wrapper is bound in every module namespace that
holds the function, so a call is counted once whichever module looks it up
(theil_l_hat, for one, is looked up in simulation, estimators and mle).
`Sample.__post_init__` and `cli._read_observations` are wrapped too: they
are the input-validation and file-parsing boundaries.

Spans are aggregated in memory per function: calls, busy time, self time
(span duration minus the time covered by child spans), errors by type and
an optional per-call unit count. A few functions also keep every duration
for percentiles. Each process writes its aggregate to
STATS_DIR/stats-<pid>.json when it ends; forked pool workers reset the
aggregate they inherit and write their own on exit.
"""

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time

MODULES = ("special", "model", "estimators", "mle", "simulation", "cli")
PRIVATE_BOUNDARIES = {"cli": ("_read_observations",)}

# Functions whose individual durations are kept, for percentiles and maxima.
KEEP_DURATIONS = ("simulation.derive_stream", "model.sample_gamma", "simulation.run_cell")

# Calls of a function made while this span is open are also counted apart.
SCOPE = "mle.fit_shape"

# Work units read from a function's result.
UNITS = {
    "model.sample_gamma": lambda sample: sample.n,
    "mle.fit_shape": lambda fit: fit.iterations,
    "cli._read_observations": len,
}


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self._reset()

    def _reset(self):
        self.stats = {}
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.stack = []  # one [child_ns] cell per open span
        self.open_modules = {}
        self.scope_depth = 0

    def _record(self, name):
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = {
                "calls": 0,
                "busy_ns": 0,
                "self_ns": 0,
                "module_outer_ns": 0,
                "in_scope": 0,
                "units": 0,
                "errors": {},
            }
        return rec

    def wrap(self, name, fn):
        module = name.split(".", 1)[0]
        units = UNITS.get(name)
        keep = name in KEEP_DURATIONS
        perf_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._record(name)
            rec["calls"] += 1
            if self.scope_depth:
                rec["in_scope"] += 1
            if name == SCOPE:
                self.scope_depth += 1
            outer = not self.open_modules.get(module)
            self.open_modules[module] = self.open_modules.get(module, 0) + 1
            cell = [0]
            self.stack.append(cell)
            error = None
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                elapsed = perf_ns() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.open_modules[module] -= 1
                if name == SCOPE:
                    self.scope_depth -= 1
                rec["busy_ns"] += elapsed
                rec["self_ns"] += elapsed - cell[0]
                if outer:
                    rec["module_outer_ns"] += elapsed
                if keep:
                    self.durations[name].append(elapsed)
                if error is not None:
                    rec["errors"][error] = rec["errors"].get(error, 0) + 1
            if units is not None:
                rec["units"] += units(result)
            return result

        return traced

    def install(self, package):
        modules = {name: getattr(package, name) for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            names = [
                attr
                for attr, value in vars(module).items()
                if not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ]
            names.extend(PRIVATE_BOUNDARIES.get(short, ()))
            for attr in names:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        # Rebind in every namespace that holds an original, the package's own included.
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
        sample_cls = package.model.Sample
        sample_cls.__post_init__ = self.wrap("model.Sample", sample_cls.__post_init__)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        self._reset()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self):
        path = os.path.join(self.out_dir, f"stats-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "durations": self.durations}, handle)


def main(argv):
    out_dir, cli_args = argv[0], argv[1:]
    import gammaineq
    import gammaineq.cli

    tracer = Tracer(out_dir)
    tracer.install(gammaineq)
    try:
        return gammaineq.cli.main(cli_args)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
