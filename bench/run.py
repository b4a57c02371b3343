"""onebitmc benchmark: three workloads, checked outputs, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep_penalized --seed 1 --seconds 30 --trace 0

Run from the repository root or anywhere else; the package is imported from
../src next to this file, with every BLAS pool pinned to one thread.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics with
tracing off; --trace 1 wraps the onebitmc layers (see tracing.py) and reports
the per-layer metrics.  Outputs go to bench/results/, which git ignores.
See bench/README.md for the workloads and what each metric should move.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import onebitmc  # noqa: E402
from onebitmc import (Shape, SolverConfig, SweepConfig,  # noqa: E402
                      generate_truth, sample_observations, sweep_cells)

import checks  # noqa: E402
import tracing  # noqa: E402

GAMMA = 1.5
RANK = 2
# every fit in the sweeps stops after at most this many iterations; with the
# default 2000 the selection fits run 40 to 1700 iterations depending on the
# seed's data, and a sweep's work varies by a quarter from seed to seed.  On
# seed 1, at 40 the held-out selection picked the same penalty weights as at
# 100 and every replicate's excess and error stayed the same, while one
# 100x100 sweep of one replicate took 6 s instead of 13.
SWEEP_MAX_ITERS = 40
SETUP_REPEATS = 9
# times other than setup_s are in units of the reference kernel's time ("ref")
UNITS = {"setup_s": "s", "wall_ref": "ref", "solves_per_ref": "1/ref",
         "solve_ref": "ref", "replicates_per_ref": "1/ref",
         "peak_rss_mib": "MiB", "objective": "nats"}


def _seed(seed: int, *parts: int) -> int:
    """Input seed for one part of a workload, a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0])


# ------------------------------------------------------------------ inputs
#
# A workload's inputs are a list of variants; one round runs one variant and
# one pass runs every variant once, in order.

@dataclass(frozen=True)
class FitInstance:
    truth: object       # onebitmc.TruthMatrix
    samples: object     # onebitmc.SampleSet
    config: SolverConfig


def penalized_sweep(seed: int, shape=(100, 100),
                    n_values=(1000, 2000, 4000, 8000), replicates: int = 1,
                    sweeps: int = 2) -> list:
    """The acceptance sweep's pipeline, `sweeps` times over, one cell per variant.

    The variants of one sweep share its base seed, so a pass computes
    exactly the cells of every sweep.  Each run_sweep call runs one cell, so
    that each cell's time gets a median of its own.  The penalty selection, made once
    per cell, takes most of the time, so more sweeps rather than more
    replicates average out how a seed's data sets the selection's work.
    """
    return [SweepConfig(shapes=(Shape(*shape),), ranks=(RANK,), gammas=(GAMMA,),
                        n_values=(n,), estimators=("nuclear_penalized",),
                        generator="block_sign", sampling_scheme="iid_uniform",
                        replicates=replicates, base_seed=_seed(seed, 1, k),
                        solver_defaults={"max_iters": SWEEP_MAX_ITERS})
            for k in range(sweeps) for n in n_values]


def constrained_instances(seed: int, sides=(40, 50, 60),
                          per_entry: float = 0.6, max_iters: int = 15) -> list:
    """block_sign truths, which lie on the boundary of the nuclear ball and the box.

    The fits converge in about 20 iterations, some by a last step that
    backtracks to a vanishing step size through about 50 full projections;
    stopping every fit at max_iters keeps the work per seed the same.
    """
    out = []
    for i, m in enumerate(sides):
        truth = generate_truth(Shape(m, m), RANK, GAMMA, "block_sign",
                               _seed(seed, 2, i, 0))
        samples = sample_observations(truth, round(per_entry * m * m),
                                      "iid_uniform", _seed(seed, 2, i, 1))
        out.append(FitInstance(truth, samples, SolverConfig(
            gamma=GAMMA, rank_hint=RANK, max_iters=max_iters)))
    return out


def maxnorm_instances(seed: int, side: int = 200, fraction: float = 0.5,
                      count: int = 4, max_iters: int = 40) -> list:
    """gaussian_factor truths seen through a Bernoulli mask of about half the entries.

    max_iters caps every restart at the same number of iterations, so the
    work per fit does not depend on how fast a seed's data converge.
    """
    out = []
    for i in range(count):
        truth = generate_truth(Shape(side, side), RANK, GAMMA, "gaussian_factor",
                               _seed(seed, 3, i, 0))
        samples = sample_observations(truth, round(fraction * side * side),
                                      "bernoulli_mask", _seed(seed, 3, i, 1))
        out.append(FitInstance(truth, samples, SolverConfig(
            gamma=GAMMA, rank_hint=RANK, max_iters=max_iters,
            seed=_seed(seed, 3, i, 2))))
    return out


# ---------------------------------------------------------------- workloads

class SweepWorkload:
    """A variant is a SweepConfig, a round one run_sweep call, an operation one replicate row."""

    def __init__(self, name, make_inputs, reference):
        self.name = name
        self.make_inputs = make_inputs
        self.reference = reference   # kind of Reference kernel

    def run_round(self, config, path):
        try:
            onebitmc.experiments.run_sweep(config, path, threads=1)
        except Exception:  # a failed sweep fails every replicate it holds
            traceback.print_exc()
            return None
        return path.read_bytes()

    def check_pass(self, variants, outputs, first):
        """Problems per operation of one pass; first holds the outputs of pass 0."""
        per_op, rows = [], []
        for config, blob, reference in zip(variants, outputs, first):
            if blob is None:
                per_op += [["sweep raised"]] * (len(sweep_cells(config))
                                                * config.replicates)
                continue
            own = checks.parse_csv(blob.decode())
            rows += own
            differs = (["CSV bytes differ from the first pass"]
                       if blob != reference else [])
            per_op += [p + differs for p in checks.check_sweep_rows(own, GAMMA)]
        trend = checks.check_sweep_trend(rows)
        return [p + trend for p in per_op]

    def quality(self, variants, first):
        """Mean excess and error of pass 0's replicate rows, and its CSV bytes."""
        reps = [r for blob in first if blob is not None
                for r in checks.parse_csv(blob.decode())
                if r["row_kind"] == "replicate" and r["converged"] != "failed"]
        if not reps:
            return {"excess": math.nan, "frob_err": math.nan}, 0
        return {
            "excess": float(np.mean([float(r["excess"]) for r in reps])),
            "frob_err": float(np.mean([float(r["frob_err_sq_norm"])
                                       for r in reps])),
        }, sum(len(b) for b in first if b is not None)


class FitWorkload:
    """A variant is a FitInstance, a round (and an operation) one fit of it."""

    def __init__(self, name, make_inputs, solver_name, reference):
        self.name = name
        self.make_inputs = make_inputs
        self.solver_name = solver_name
        self.reference = reference   # kind of Reference kernel

    def run_round(self, inst, path):
        try:
            return getattr(onebitmc.solvers, self.solver_name)(inst.samples,
                                                               inst.config)
        except Exception:  # a failed fit is one failed operation
            traceback.print_exc()
            return None

    def check_pass(self, variants, outputs, first):
        """Problems per operation of one pass."""
        kind = self.solver_name.removeprefix("solve_")
        per_op = []
        for inst, fit in zip(variants, outputs):
            if fit is None:
                per_op.append(["fit raised"])
                continue
            s = inst.samples
            per_op.append(checks.check_fit(
                kind, fit.estimate, fit.objective_trace, s.rows, s.cols,
                s.labels, inst.truth.entries, inst.config.gamma,
                inst.config.rank_hint, fit.feasibility_report.maxnorm_upper_bound))
        return per_op

    def quality(self, variants, first):
        """Mean excess and error of pass 0's estimates; fits write no CSV."""
        pairs = [(i.truth.entries, f.estimate)
                 for i, f in zip(variants, first) if f is not None]
        if not pairs:
            return {"excess": math.nan, "frob_err": math.nan}, 0
        return {
            "excess": float(np.mean([checks.excess_risk(X, T) for T, X in pairs])),
            "frob_err": float(np.mean([np.mean((X - T) ** 2) for T, X in pairs])),
        }, 0


WORKLOADS = {w.name: w for w in (
    SweepWorkload("sweep_penalized", penalized_sweep, "svd"),
    FitWorkload("constrained_fit", constrained_instances,
                "solve_nuclear_constrained", "svd"),
    FitWorkload("maxnorm_fit", maxnorm_instances, "solve_maxnorm_constrained",
                "likelihood"),
)}


def _run_key(inputs) -> str:
    """Hash of the library sources and the workload's inputs."""
    h = hashlib.sha256(repr(inputs).encode())
    for path in sorted((ROOT / "src" / "onebitmc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_digest(path: Path, blobs: list) -> list:
    """Compare with the CSVs an earlier run of the same seed and sources wrote."""
    digest = hashlib.sha256(b"".join(b or b"" for b in blobs)).hexdigest()
    if not path.exists():
        path.write_text(digest + "\n")
    elif path.read_text().strip() != digest:
        return [f"CSV differs from the earlier run recorded in {path.name}"]
    return []


# ------------------------------------------------------------------ metrics

def fit_objective(name, args, result) -> float:
    """Final objective of one logged estimator call, recomputed with numpy."""
    samples = args[0]
    value = checks.mean_nll(result.estimate, samples.rows, samples.cols,
                            samples.labels)
    if name == "solve_nuclear_penalized":
        value += args[1].lam * checks.nuclear_norm(result.estimate)
    return value


def setup_seconds(workload: str, seed: int) -> float:
    """Time for a fresh process to import onebitmc and build the inputs."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited with {child.returncode}")
    return elapsed


def peak_rss_mib() -> float:
    """Peak resident memory of this process, which runs every round itself."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """A fixed numpy kernel, apart from onebitmc, timed between the rounds.

    Kind "svd" repeats a thin SVD of a 100x100 matrix, the hot path of the
    penalized and constrained fits; kind "likelihood" repeats a logistic
    likelihood and a scatter-add gradient over 20 000 sampled entries of a
    200x200 matrix, the hot path of the max-norm fits.  The inputs never
    change.  The speed of this shared host drifts by a third over spells of
    tens of seconds, and work of different kinds drifts apart; a round's time
    divided by the time of the kernel of its own kind, measured just before
    and after it, does not.
    """

    REPEATS = {"svd": 48, "likelihood": 72}   # about 0.12 s per call either way

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((100, 100))
        self.matrix = rng.standard_normal((200, 200))
        self.rows, self.cols = rng.integers(0, 200, (2, 20000))
        self.labels = rng.choice([-1.0, 1.0], 20000)
        self.step = getattr(self, f"_{kind}")
        self.repeats = self.REPEATS[kind]

    def _svd(self):
        np.linalg.svd(self.square, full_matrices=False)

    def _likelihood(self):
        z = self.labels * self.matrix[self.rows, self.cols]
        np.mean(np.logaddexp(0.0, -z))
        grad = np.zeros_like(self.matrix)
        np.add.at(grad, (self.rows, self.cols), z)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(self.repeats):
            self.step()
        return time.perf_counter() - start


def measure(workload, variants, seconds: float, trace: bool, csv_path: Path,
            digest_path: Path | None = None, setup=None) -> dict:
    """Run whole passes until `seconds` of round time have passed.

    Each round is timed, with the time spent in estimator calls, and the
    reference kernel runs before the first round and after every round.
    Each pass is checked as soon as it ends, outside the timed rounds, so
    that memory does not grow with the number of passes.  setup(), when
    given, times one fresh set-up; it runs after each pass and then until
    SETUP_REPEATS samples are taken, so that they spread over the run.
    """
    probe = tracing.Tracer() if trace else tracing.FitLog()
    log = [] if trace else probe.calls
    reference = Reference(workload.reference)
    reference()  # warm-up: first-call costs of LAPACK and numpy
    passes, per_op, first, setup_times = [], [], None, []
    with probe:
        before = reference()
        while not passes or sum(r[0] for p in passes for r in p) < seconds:
            rounds, outputs = [], []
            for variant in variants:
                mark = len(log)
                start = time.perf_counter()
                outputs.append(workload.run_round(variant, csv_path))
                elapsed = time.perf_counter() - start
                after = reference()
                calls = log[mark:]
                rounds.append((elapsed, sum(c[1] for c in calls), len(calls),
                               (before + after) / 2))
                before = after
            if first is None:
                first = outputs
                if not trace:
                    probe.keep = False
                shared = (_check_digest(digest_path, first)
                          if digest_path is not None else [])
            per_op += [p + shared for p in
                       workload.check_pass(variants, outputs, first)]
            passes.append(rounds)
            if setup is not None and len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup())
    rss = peak_rss_mib()
    while setup is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup())
    quality, csv_bytes = workload.quality(variants, first)
    return {"probe": probe, "passes": passes, "per_op": per_op,
            "quality": quality, "csv_bytes": csv_bytes, "rss": rss,
            "setup_s": statistics.median(setup_times) if setup_times else None}


def pass_time(passes: list, field: int, relative: bool = True) -> float:
    """Time of one pass: the sum over the variants of the median over passes.

    With relative, each round's time is first divided by the reference
    kernel's time beside it, so the result is in units of that kernel.
    """
    return sum(statistics.median(p[v][field] / (p[v][3] if relative else 1.0)
                                 for p in passes)
               for v in range(len(passes[0])))


def summarize(workload, run: dict, trace: bool) -> dict:
    """Assemble the result object of a measured run."""
    per_op, passes = run["per_op"], run["passes"]
    for i, problems in enumerate(per_op):
        for p in problems:
            print(f"check failed, operation {i}: {p}", file=sys.stderr)
    failed = sum(bool(p) for p in per_op)
    if trace:
        values = {**run["probe"].layer_metrics(passes=len(passes),
                                               csv_bytes=run["csv_bytes"]),
                  **{f"risk.{k}": v for k, v in run["quality"].items()}}
        units = tracing.LAYER_UNITS
        values = {k: values[k] for k in units}
    else:
        wall = pass_time(passes, 0)
        fits = sum(r[2] for r in passes[0])
        logged = [c for c in run["probe"].calls if c[3] is not None]
        values = {
            "setup_s": run["setup_s"],
            "wall_ref": wall,
            "solves_per_ref": fits / wall,
            "solve_ref": pass_time(passes, 1) / fits,
            "replicates_per_ref": len(per_op) / len(passes) / wall,
            "peak_rss_mib": run["rss"],
            "objective": float(np.mean([fit_objective(name, args, result)
                                        for name, _, args, result in logged])),
        }
        units = UNITS
    return {"correct": failed == 0, "attempted": len(per_op), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    variants = workload.make_inputs(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    digest_path = (RESULTS / f"{tag}-{_run_key(variants)}.sha256"
                   if isinstance(workload, SweepWorkload) else None)
    setup = (None if args.trace else
             lambda: setup_seconds(args.workload, args.seed))
    run = measure(workload, variants, args.seconds, bool(args.trace),
                  RESULTS / f"{tag}.csv", digest_path, setup)
    if args.trace:
        run["probe"].write(RESULTS / f"{tag}-trace.tsv")
    passes = run["passes"]
    print(f"{len(passes)} passes of {len(variants)} rounds; one pass "
          f"{pass_time(passes, 0, relative=False):.3f} s, reference kernel "
          f"median {statistics.median(r[3] for p in passes for r in p):.4f} s; "
          f"round seconds {[round(r[0], 3) for p in passes for r in p]}",
          file=sys.stderr)
    result = summarize(workload, run, bool(args.trace))
    line = json.dumps(result)
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
