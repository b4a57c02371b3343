"""Per-layer tracing of onebitmc from outside the package.

A Tracer replaces each traced function with a timing wrapper wherever a
onebitmc module holds it: as a module attribute (including the names a module
bound with ``from .x import f``) or as a value of a module-level dict such as
an estimator registry.  Every call becomes a span with its name, start, end
and parent; a span's self time is its duration minus the part of that
interval its traced children cover.  Spans stay in memory until the run ends.

A call made on a worker thread whose own span stack is empty is parented to
the innermost open span of the thread that started tracing, so cells run on a
thread pool count as children of the run_sweep call that started the pool.
Calls made in other processes are not seen.
"""

import importlib
import threading
import time

# layer -> traced functions, looked up by name in onebitmc.<layer>;
# names missing from a module (a later version may drop a private helper)
# are skipped and their metrics read 0
TRACED = {
    "spectral": ("svd", "nuclear_norm", "project_nuclear_ball",
                 "clip_entries", "project_factor_rows"),
    "model": ("neg_log_likelihood", "nll_gradient", "generate_truth",
              "sample_observations"),
    "solvers": ("solve_nuclear_penalized", "solve_nuclear_constrained",
                "solve_maxnorm_constrained", "refit_low_rank", "select_lambda",
                "_project_ball_box"),
    "risk": ("risk_report",),
    "experiments": ("run_cell", "run_sweep"),
}
PACKAGE_MODULES = ("onebitmc", "onebitmc.model", "onebitmc.spectral",
                   "onebitmc.solvers", "onebitmc.risk", "onebitmc.experiments",
                   "onebitmc.cli")

FIT_FUNCTIONS = ("solvers.solve_nuclear_penalized",
                 "solvers.solve_nuclear_constrained",
                 "solvers.solve_maxnorm_constrained", "solvers.refit_low_rank")
# _project_ball_box's default sweep cap: a projection that ran this many
# nuclear-ball projections stopped on the cap, not on its tolerance
DYKSTRA_CAP = 100

# every per-layer metric, with its unit; counts and seconds are per pass
LAYER_UNITS = {
    "spectral.svd.calls": "count", "spectral.svd.self_s": "s",
    "spectral.svd.ms_per_call": "ms", "spectral.nuclear_norm.calls": "count",
    "spectral.nuclear_norm.self_s": "s",
    "spectral.project_nuclear_ball.calls": "count",
    "spectral.project_nuclear_ball.self_s": "s",
    "spectral.clip_entries.self_s": "s",
    "spectral.project_factor_rows.self_s": "s",
    "model.neg_log_likelihood.calls": "count",
    "model.neg_log_likelihood.self_s": "s", "model.nll_gradient.calls": "count",
    "model.nll_gradient.self_s": "s", "model.generate_truth.self_s": "s",
    "model.sample_observations.self_s": "s", "solvers.self_s": "s",
    "solvers.fits": "count", "solvers.iterations": "count",
    "solvers.accepted_per_eval": "1", "solvers.svd_per_iteration": "1",
    "solvers.dykstra_sweeps_per_projection": "1",
    "solvers.dykstra_cap_hits": "count", "solvers.converged_fits": "count",
    "solvers.select_lambda.s": "s", "solvers.select_lambda.iterations": "count",
    "risk.risk_report.calls": "count", "risk.risk_report.self_s": "s",
    # quality of the first pass's estimates, filled in by run.py
    "risk.excess": "1", "risk.frob_err": "1",
    "experiments.run_cell.s": "s", "experiments.self_s": "s",
    "experiments.worker_busy_share": "1", "experiments.csv_bytes": "bytes",
}


def _lookup(layer, names):
    home = importlib.import_module(f"onebitmc.{layer}")
    return [(name, getattr(home, name)) for name in names if hasattr(home, name)]


def patch_everywhere(replacements: dict) -> list:
    """Swap each function for its wrapper in every onebitmc module namespace.

    Covers module attributes and the values of module-level dicts.  Returns
    the patches, for restore().
    """
    patches = []
    for module in map(importlib.import_module, PACKAGE_MODULES):
        for key, value in list(vars(module).items()):
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    if callable(v) and v in replacements:
                        patches.append((value, k, v))
                        value[k] = replacements[v]
            elif callable(value) and value in replacements:
                patches.append((module, key, value))
                setattr(module, key, replacements[value])
    return patches


def restore(patches: list):
    for holder, key, original in reversed(patches):
        if isinstance(holder, dict):
            holder[key] = original
        else:
            setattr(holder, key, original)
    patches.clear()


class FitLog:
    """Times every estimator call and keeps its arguments and result.

    The light probe of the untraced pass: it wraps only the FIT_FUNCTIONS, so
    a sweep pays a few microseconds per fit.  Clearing keep after the first
    pass keeps memory from growing with the number of passes.
    """

    def __init__(self):
        self.calls = []   # (name, seconds, args, result)
        self.keep = True  # while False, args and result are dropped (None)
        self._patches = []

    def __enter__(self):
        wrappers = {}
        for key in FIT_FUNCTIONS:
            layer, name = key.split(".")
            for _, fn in _lookup(layer, (name,)):
                wrappers[fn] = self._wrap(name, fn)
        self._patches = patch_everywhere(wrappers)
        return self

    def __exit__(self, *exc):
        restore(self._patches)
        return False

    def _wrap(self, name, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            seconds = clock() - start
            self.calls.append((name, seconds, args, result) if self.keep
                              else (name, seconds, None, None))
            return result

        timed.__wrapped__ = fn
        return timed


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "child_calls",
                 "child_iterations", "iterations", "converged", "workers")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.children = []          # (start, end) of traced direct children
        self.child_calls = {}       # direct child name -> call count
        self.child_iterations = 0   # iterations of direct child fits
        self.iterations = None
        self.converged = None
        self.workers = 1

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_seconds(self):
        return self.seconds - _covered(self.children, self.start, self.end)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Context manager that traces onebitmc calls while it is active."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root_stack = None
        self._patches = []

    def __enter__(self):
        self._root_stack = self._stack()
        targets = {f"{layer}.{name}": fn for layer, names in TRACED.items()
                   for name, fn in _lookup(layer, names)}
        self._patches = patch_everywhere(
            {fn: self._wrap(key, fn) for key, fn in targets.items()})
        return self

    def __exit__(self, *exc):
        restore(self._patches)
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._root_stack:
                parent = self._root_stack[-1]
            else:
                parent = None
            span = Span(name, parent, clock())
            if name == "experiments.run_sweep":
                span.workers = max(1, int(kwargs.get(
                    "threads", args[2] if len(args) > 2 else 1)))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.children.append((span.start, span.end))
                    parent.child_calls[name] = parent.child_calls.get(name, 0) + 1
                self.spans.append(span)
            if name in FIT_FUNCTIONS:
                span.iterations = int(result.iterations)
                span.converged = bool(result.converged)
                if parent is not None:
                    parent.child_iterations += span.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, passes: int = 1, csv_bytes: int = 0) -> dict:
        """Every per-layer metric, with counts and times per pass."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum(s.self_seconds for s in by_name.get(name, ()))

        def incl_s(name):
            return sum(s.seconds for s in by_name.get(name, ()))

        def ratio(a, b):
            return a / b if b else 0.0

        fits = [s for name in FIT_FUNCTIONS for s in by_name.get(name, ())]
        iterations = sum(s.iterations for s in fits)
        boxes = by_name.get("solvers._project_ball_box", ())
        sweeps = [s.child_calls.get("spectral.project_nuclear_ball", 0)
                  for s in boxes]
        selects = by_name.get("solvers.select_lambda", ())
        sweep_spans = by_name.get("experiments.run_sweep", ())
        per = 1.0 / passes
        return {
            "spectral.svd.calls": calls("spectral.svd") * per,
            "spectral.svd.self_s": self_s("spectral.svd") * per,
            "spectral.svd.ms_per_call": 1e3 * ratio(self_s("spectral.svd"),
                                                    calls("spectral.svd")),
            "spectral.nuclear_norm.calls": calls("spectral.nuclear_norm") * per,
            "spectral.nuclear_norm.self_s": self_s("spectral.nuclear_norm") * per,
            "spectral.project_nuclear_ball.calls":
                calls("spectral.project_nuclear_ball") * per,
            "spectral.project_nuclear_ball.self_s":
                self_s("spectral.project_nuclear_ball") * per,
            "spectral.clip_entries.self_s": self_s("spectral.clip_entries") * per,
            "spectral.project_factor_rows.self_s":
                self_s("spectral.project_factor_rows") * per,
            "model.neg_log_likelihood.calls":
                calls("model.neg_log_likelihood") * per,
            "model.neg_log_likelihood.self_s":
                self_s("model.neg_log_likelihood") * per,
            "model.nll_gradient.calls": calls("model.nll_gradient") * per,
            "model.nll_gradient.self_s": self_s("model.nll_gradient") * per,
            "model.generate_truth.self_s": self_s("model.generate_truth") * per,
            "model.sample_observations.self_s":
                self_s("model.sample_observations") * per,
            "solvers.self_s": sum(self_s(f"solvers.{n}")
                                  for n in TRACED["solvers"]) * per,
            "solvers.fits": len(fits) * per,
            "solvers.iterations": iterations * per,
            "solvers.accepted_per_eval": ratio(
                iterations, calls("model.neg_log_likelihood")),
            "solvers.svd_per_iteration": ratio(
                calls("spectral.svd") + calls("spectral.nuclear_norm"),
                iterations),
            "solvers.dykstra_sweeps_per_projection": ratio(sum(sweeps),
                                                           len(sweeps)),
            "solvers.dykstra_cap_hits":
                sum(n >= DYKSTRA_CAP for n in sweeps) * per,
            "solvers.converged_fits": sum(s.converged for s in fits) * per,
            "solvers.select_lambda.s": incl_s("solvers.select_lambda") * per,
            "solvers.select_lambda.iterations":
                sum(s.child_iterations for s in selects) * per,
            "risk.risk_report.calls": calls("risk.risk_report") * per,
            "risk.risk_report.self_s": self_s("risk.risk_report") * per,
            "experiments.run_cell.s": incl_s("experiments.run_cell") * per,
            "experiments.self_s": self_s("experiments.run_sweep") * per,
            "experiments.worker_busy_share": ratio(
                incl_s("experiments.run_cell"),
                sum(s.seconds * s.workers for s in sweep_spans)),
            "experiments.csv_bytes": float(csv_bytes),
        }

    def write(self, path):
        """Write every span as one tab-separated line: name, start, end, self, parent index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as handle:
            handle.write("name\tstart_s\tend_s\tself_s\tparent\n")
            for s in self.spans:
                parent = index.get(id(s.parent), -1) if s.parent else -1
                handle.write(f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                             f"{s.self_seconds:.9f}\t{parent}\n")
