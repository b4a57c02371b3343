"""Print one digest line per fit, to check that a change leaves fits bit-identical.

    PYTHONPATH=src python3 tools/fit_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/fit_digest.py > before.txt
    diff before.txt after.txt

The package is imported from PYTHONPATH, so one copy of this script digests
any checkout; the path of the package it imported goes to standard error.
Each line names the fit and gives a SHA-256 of the estimate and
objective-trace bytes, then iterations, converged, work and the three
feasibility-report fields.  The fits are:

* the seed-301 inputs of the three benchmark workloads, built by
  bench/run.py: every fit that the sweep_penalized variants run (each
  selection fit, penalized fit and refit), and every constrained_fit and
  maxnorm_fit instance;
* penalized, refit, constrained and max-norm fits of four 20x16 block_sign
  instances (n=400, gamma=1.5, r=2, truth seeds 50-53, sample seeds
  1050-1053, penalty weight 0.005, max-norm seed equal to the truth seed).

A last line gives the SHA-256 of the CSV that run_sweep writes for a 20x20
block_sign grid over all three estimators (r=2, gamma=1.5, n 100/200/400,
3 replicates, base seed 5).

Before the fits, one line per (sample set, scale) digests the likelihood
kernels on their own: the SHA-256 of neg_log_likelihood's float64 bytes and
nll_gradient's bytes at a fixed standard normal matrix times each of
KERNEL_SCALES, on the seed-301 constrained_fit and maxnorm_fit sample sets.
A kernel change that moves a bit shows there even where no fit happens to
read it.

The bytes depend on the machine and its BLAS, so compare two checkouts on one
machine; the script is not a test.  It takes about 15 s on one core.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

# import the package from PYTHONPATH before bench/run.py puts its own
# checkout's src first on sys.path
import onebitmc
from onebitmc import (ESTIMATORS, Shape, SolverConfig, SweepConfig,
                      generate_truth, neg_log_likelihood, nll_gradient,
                      refit_low_rank, sample_observations, solvers)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run  # noqa: E402

SEED = 301
# from near zero, where both link branches meet, to far into the saturated tails
KERNEL_SCALES = (1e-2, 1e-1, 1.0, 4.0, 10.0, 40.0)


def digest(label: str, fit) -> str:
    h = hashlib.sha256(fit.estimate.tobytes())
    h.update(fit.objective_trace.tobytes())
    rep = fit.feasibility_report
    return (f"{label} {h.hexdigest()} {fit.iterations} {fit.converged} "
            f"{fit.work} {rep.inf_norm_violation!r} {rep.nuclear_norm!r} "
            f"{rep.maxnorm_upper_bound!r}")


def kernel_digest(label: str, X, samples) -> str:
    h = hashlib.sha256(np.float64(neg_log_likelihood(X, samples)).tobytes())
    h.update(nll_gradient(X, samples).tobytes())
    return f"{label} {h.hexdigest()}"


def sweep_fits(config) -> list:
    """(name, FitResult) of every fit one run_sweep call makes, in call order."""
    fits = []

    def record(name, fn):
        def wrapper(*args):
            fit = fn(*args)
            fits.append((name, fit))
            return fit
        return wrapper

    # select_lambda calls solvers.solve_nuclear_penalized, run_cell reads the
    # registry and its own refit_low_rank name
    saved = (solvers.solve_nuclear_penalized, dict(solvers.SOLVERS),
             onebitmc.experiments.refit_low_rank)
    solvers.solve_nuclear_penalized = record("penalized", saved[0])
    solvers.SOLVERS["nuclear_penalized"] = record(
        "penalized", saved[1]["nuclear_penalized"])
    onebitmc.experiments.refit_low_rank = record("refit", saved[2])
    try:
        onebitmc.run_sweep(config, os.devnull)
    finally:
        solvers.solve_nuclear_penalized = saved[0]
        solvers.SOLVERS.update(saved[1])
        onebitmc.experiments.refit_low_rank = saved[2]
    return fits


def small_instances():
    for seed in range(50, 54):
        truth = generate_truth(Shape(20, 16), 2, 1.5, "block_sign", seed)
        yield seed, sample_observations(truth, 400, "iid_uniform", seed + 1000)


def main() -> int:
    print(f"onebitmc from {Path(onebitmc.__file__).parent}", file=sys.stderr)
    instances = {"constrained_fit": run.constrained_instances(SEED),
                 "maxnorm_fit": run.maxnorm_instances(SEED)}
    for workload, insts in instances.items():
        for i, inst in enumerate(insts):
            shape = inst.samples.shape
            # numpy's own generator, so the matrices do not depend on onebitmc
            base = np.random.default_rng(SEED).standard_normal(
                (shape.m1, shape.m2))
            for scale in KERNEL_SCALES:
                print(kernel_digest(f"kernel.{workload}[{i}].scale={scale:g}",
                                    scale * base, inst.samples))
    for v, config in enumerate(run.penalized_sweep(SEED)):
        for i, (name, fit) in enumerate(sweep_fits(config)):
            print(digest(f"sweep_penalized[{v}].{i}.{name}", fit))
    for workload, insts in instances.items():
        solve = getattr(solvers, run.WORKLOADS[workload].solver_name)
        for i, inst in enumerate(insts):
            print(digest(f"{workload}[{i}]", solve(inst.samples, inst.config)))
    for seed, samples in small_instances():
        cfg = SolverConfig(gamma=1.5, rank_hint=2, lam=0.005, seed=seed)
        penalized = solvers.solve_nuclear_penalized(samples, cfg)
        print(digest(f"20x16[{seed}].penalized", penalized))
        print(digest(f"20x16[{seed}].refit",
                     refit_low_rank(samples, penalized.estimate, cfg)))
        print(digest(f"20x16[{seed}].constrained",
                     solvers.solve_nuclear_constrained(samples, cfg)))
        print(digest(f"20x16[{seed}].maxnorm",
                     solvers.solve_maxnorm_constrained(samples, cfg)))
    grid = SweepConfig(shapes=(Shape(20, 20),), ranks=(2,), gammas=(1.5,),
                       n_values=(100, 200, 400), estimators=ESTIMATORS,
                       replicates=3, base_seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        onebitmc.run_sweep(grid, path)
        print(f"sweep_csv {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
