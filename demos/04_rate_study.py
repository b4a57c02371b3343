"""Miniature rate study: how fast does the excess risk fall with n?

Runs a small replicated sweep for two estimators, fits log-log slopes to the
mean excess, and writes the sweep CSV plus an SVG plot next to this script.
A slope near -1 matches a 1/n decay; the constrained estimators are expected
to decay more slowly.
"""

from pathlib import Path

from onebitmc import (Shape, SweepConfig, aggregate_points, fit_rate,
                      read_sweep_rows, run_sweep)
from onebitmc.svgplot import loglog_plot

out_dir = Path(__file__).resolve().parent
csv_path = out_dir / "rate_study_runs.csv"

config = SweepConfig(
    shapes=(Shape(40, 40),),
    ranks=(1,),
    gammas=(1.5,),
    n_values=(200, 400, 800, 1600),
    estimators=("nuclear_penalized", "maxnorm_constrained"),
    generator="block_sign",
    sampling_scheme="iid_uniform",
    replicates=8,
    base_seed=123,
)

print("running", len(config.n_values) * len(config.estimators), "cells x",
      config.replicates, "replicates ...")
run_sweep(config, csv_path)
rows = read_sweep_rows(csv_path)

series = []
for estimator in config.estimators:
    groups = aggregate_points(rows, estimator)
    (key, values), = groups.items()
    points = [(n, excess) for n, excess, _ in values if excess > 0]
    exact = [n for n, excess, _ in values if excess <= 0]
    if exact:
        print(f"{estimator:22s} zero excess (every replicate recovered the "
              f"sign pattern) at n={exact}")
    slope = intercept = None
    if len(points) >= 3:
        fit = fit_rate(points)
        slope, intercept = fit.slope, fit.intercept
        print(f"{estimator:22s} slope {slope:+.3f}  R^2 {fit.r_squared:.3f}")
    else:
        print(f"{estimator:22s} too few positive points for a slope")
    series.append({"label": estimator, "points": points,
                   "slope": slope, "intercept": intercept})

svg_path = out_dir / "rate_study.svg"
svg_path.write_text(loglog_plot(series, "mean excess risk vs n (40x40, r=1)"))
print("wrote", csv_path.name, "and", svg_path.name)
