"""Replicated sweeps over (shape, rank, gamma, n, estimator) grids with CSV output.

Each grid cell runs a configured number of replicates; every replicate draws
its own truth and samples from seeds mixed out of the base seed and the cell
coordinates, so any cell can be reproduced in isolation and thread scheduling
never changes a byte of the output.  A nuclear_penalized cell selects its
penalty weight on replicate 0, fits the penalized estimator on every
replicate, and refits each fit at rank r (solvers.refit_low_rank); the refit
is what the cell reports.  Mean excess risk per cell feeds a log-log slope fit
used to check how fast the excess shrinks with the sample count.
"""

import csv
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .model import (GENERATORS, SCHEMES, Shape, generate_truth,
                    sample_observations)
from .risk import risk_report
from .seeding import TAG_SAMPLES, TAG_SOLVER, TAG_TRUTH, float_bits, mix_seed
from .solvers import (ESTIMATORS, SOLVERS, SolverConfig, SolverNumericalError,
                      refit_low_rank, select_lambda)

# 1, 2, 3 in registry order; the ids feed every replicate seed, so the order
# of ESTIMATORS is part of the output format
ESTIMATOR_IDS = {name: i + 1 for i, name in enumerate(ESTIMATORS)}
# the registry under the name bench/test_bench.py checks the tracer patches;
# the same dict as solvers.SOLVERS, not a copy
_SOLVER_FNS = SOLVERS

CSV_COLUMNS = ["row_kind", "estimator", "m1", "m2", "r", "gamma", "margin_tau",
               "generator", "sampling_scheme", "n", "replicate", "seed",
               "lambda_used", "excess", "risk", "bayes_risk",
               "frob_err_sq_norm", "iterations", "converged", "work"]

# each SweepConfig field's kind, which _read checks and normalizes; a tuple
# kind is a registry the value must name, and each field in _LISTS is a
# nonempty list of distinct values of its kind
_KINDS = {"shapes": "shape", "ranks": "whole", "gammas": "positive",
          "n_values": "count", "estimators": ESTIMATORS,
          "generator": GENERATORS, "sampling_scheme": SCHEMES,
          "replicates": "count", "base_seed": "whole",
          "solver_defaults": "solver_defaults", "lambda_grid": "positive"}
_LISTS = ("shapes", "ranks", "gammas", "n_values", "estimators", "lambda_grid")


def _read(key: str, kind, value):
    """value checked as one of kind, or a ValueError that names key.

    A whole number or count comes back as an int, a positive number as a
    float, and an [m1, m2] pair as a Shape.
    """
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{key} must be one of {', '.join(kind)}; "
                             f"not {value!r}")
        return value
    if kind == "shape":
        if isinstance(value, Shape):
            return value
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(f"{key} must be [m1, m2] pairs, not {value!r}")
        return Shape(*(_read(key, "count", m) for m in value))
    if kind == "solver_defaults":
        # null reads as no defaults; gamma, rank_hint and seed are derived per
        # cell, and each penalized cell selects its own lam
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ValueError(f"{key} must be a mapping, not {value!r}")
        for name in value:
            if name != "max_iters":
                raise ValueError(f"unknown solver default {name!r}")
        return {name: _read(f"{key}.{name}", "count", v)
                for name, v in value.items()}
    number = (not isinstance(value, bool) and isinstance(value, (int, float))
              and math.isfinite(value))
    # a count is both whole and positive
    if kind != "positive" and not (number and int(value) == value):
        raise ValueError(f"{key} must be whole numbers, not {value!r}")
    if kind != "whole" and not (number and value > 0):
        raise ValueError(f"{key} must be finite and positive, not {value!r}")
    return float(value) if kind == "positive" else int(value)


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid and settings, each field checked by its kind in _KINDS.

    The checks run on construction, for a config built in Python as for one
    read from JSON, so a bad config fails before run_sweep opens its output.
    Lists come back as tuples; every rank must fit every shape, every n must
    fit every shape under bernoulli_mask, and a nuclear_penalized sweep
    needs n >= 10 to select its penalty.
    """

    shapes: tuple
    ranks: tuple
    gammas: tuple
    n_values: tuple
    estimators: tuple
    generator: str = "block_sign"
    sampling_scheme: str = "iid_uniform"
    replicates: int = 1
    base_seed: int = 0
    solver_defaults: dict = field(default_factory=dict)
    lambda_grid: tuple | None = None

    def __post_init__(self):
        for key, kind in _KINDS.items():
            value = getattr(self, key)
            if key not in _LISTS:
                value = _read(key, kind, value)
            elif value is not None or key != "lambda_grid":
                # a lambda_grid of None gives each cell its default grid; a
                # string is not a list, though it iterates as one
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{key} must be a list, not {value!r}")
                if not value:
                    raise ValueError(f"{key} must be nonempty")
                value = tuple(_read(key, kind, v) for v in value)
                for i, v in enumerate(value):
                    if v in value[:i]:
                        raise ValueError(f"{key} repeats {v!r}")
            object.__setattr__(self, key, value)
        for shape in self.shapes:
            for r in self.ranks:
                if not 1 <= r <= shape.min_dim:
                    raise ValueError(f"rank budget {r} outside "
                                     f"[1, {shape.min_dim}] of shape "
                                     f"{shape.m1}x{shape.m2}")
            n = max(self.n_values)
            if self.sampling_scheme == "bernoulli_mask" and n > shape.n_entries:
                raise ValueError(f"n {n} above the {shape.n_entries} entries "
                                 f"of shape {shape.m1}x{shape.m2} under "
                                 "bernoulli_mask")
        # select_lambda holds out a fifth of the samples and needs 10
        n = min(self.n_values)
        if "nuclear_penalized" in self.estimators and n < 10:
            raise ValueError(f"n {n} below the 10 samples nuclear_penalized "
                             "selects its penalty on")


@dataclass(frozen=True)
class CellKey:
    shape: Shape
    r: int
    gamma: float
    n: int
    estimator: str

    @property
    def sort_tuple(self):
        return (self.shape.m1, self.shape.m2, self.r, self.gamma, self.n,
                ESTIMATOR_IDS[self.estimator])


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    seed: int
    margin_tau: float
    lambda_used: float | None
    excess: float
    risk: float
    bayes_risk: float
    frob_error_sq_normalized: float
    iterations: int
    converged: bool
    work: int
    failed: bool = False


@dataclass(frozen=True)
class CellResult:
    key: CellKey
    records: tuple
    mean_excess: float
    stderr_excess: float
    mean_frob: float
    stderr_frob: float
    mean_risk: float
    mean_bayes_risk: float
    lambda_used: float | None


def default_lambda_grid(shape: Shape, n: int) -> np.ndarray:
    """Ten geometric points spanning [1e-4, 1] * sqrt(d / n)."""
    return np.geomspace(1e-4, 1.0, 10) * math.sqrt(shape.d / n)


def replicate_seed(base_seed: int, key: CellKey, t: int) -> int:
    """Stable 64-bit seed for one replicate of one cell.

    Mixes (base_seed, m1, m2, r, bit pattern of gamma, n, estimator id,
    replicate) through the splitmix64 chain, in that order.
    """
    return mix_seed(base_seed, key.shape.m1, key.shape.m2, key.r,
                    float_bits(key.gamma), key.n, ESTIMATOR_IDS[key.estimator], t)


def _solver_config(key: CellKey, config: SweepConfig, seed: int,
                   lam: float | None) -> SolverConfig:
    kwargs = dict(config.solver_defaults)
    if lam is not None:
        kwargs["lam"] = lam
    return SolverConfig(gamma=key.gamma, rank_hint=key.r, seed=seed, **kwargs)


def run_cell(key: CellKey, config: SweepConfig) -> CellResult:
    """Run all replicates of one grid cell and aggregate.

    Each replicate draws its own truth and samples, once.  The penalty weight
    for nuclear_penalized is selected once on replicate 0's samples and
    frozen for every replicate of the cell; each replicate's penalized fit is
    then refit at rank r, and the refit's estimate is the one evaluated.
    Such a replicate's iterations and work are the sums over the fit and the
    refit, and it counts as converged only if both stages converged.  A
    replicate whose fit or refit hits a numerical failure
    (SolverNumericalError, or an ArithmeticError such as an SVD that LAPACK
    cannot converge) is recorded as failed and skipped in the aggregates;
    more than 20% failures abort the cell.
    """
    solver = SOLVERS[key.estimator]

    def draw(t):
        seed_t = replicate_seed(config.base_seed, key, t)
        truth = generate_truth(key.shape, key.r, key.gamma, config.generator,
                               mix_seed(seed_t, TAG_TRUTH))
        return seed_t, truth, sample_observations(
            truth, key.n, config.sampling_scheme, mix_seed(seed_t, TAG_SAMPLES))

    first = draw(0)  # replicate 0's (seed, truth, samples), kept for the loop
    lam_frozen: float | None = None
    if key.estimator == "nuclear_penalized":
        grid = (config.lambda_grid if config.lambda_grid is not None
                else default_lambda_grid(key.shape, key.n))
        lam_frozen = select_lambda(
            first[2],
            _solver_config(key, config, mix_seed(first[0], TAG_SOLVER), None),
            grid)

    records = []
    for t in range(config.replicates):
        seed_t, truth, samples = first if t == 0 else draw(t)
        solver_cfg = _solver_config(key, config, mix_seed(seed_t, TAG_SOLVER),
                                    lam_frozen)
        try:
            stages = [solver(samples, solver_cfg)]
            if key.estimator == "nuclear_penalized":
                stages.append(refit_low_rank(samples, stages[0].estimate,
                                             solver_cfg))
        except (SolverNumericalError, ArithmeticError):
            records.append(ReplicateRecord(
                replicate=t, seed=seed_t, margin_tau=truth.margin_tau,
                lambda_used=lam_frozen, excess=math.nan, risk=math.nan,
                bayes_risk=math.nan, frob_error_sq_normalized=math.nan,
                iterations=0, converged=False, work=0, failed=True))
            continue
        report = risk_report(stages[-1].estimate, truth)
        records.append(ReplicateRecord(
            replicate=t, seed=seed_t, margin_tau=truth.margin_tau,
            lambda_used=lam_frozen, excess=report.excess, risk=report.risk,
            bayes_risk=report.bayes_risk,
            frob_error_sq_normalized=report.frob_error_sq_normalized,
            iterations=sum(f.iterations for f in stages),
            converged=all(f.converged for f in stages),
            work=sum(f.work for f in stages)))

    failed = sum(r.failed for r in records)
    if failed > 0.2 * len(records):
        raise RuntimeError(
            f"cell {key}: {failed}/{len(records)} replicates failed")

    good = [r for r in records if not r.failed]
    excesses = np.array([r.excess for r in good])
    frobs = np.array([r.frob_error_sq_normalized for r in good])

    def stderr(values):
        if values.size < 2:
            return 0.0
        return float(values.std(ddof=1) / math.sqrt(values.size))

    return CellResult(
        key=key, records=tuple(records),
        mean_excess=float(excesses.mean()), stderr_excess=stderr(excesses),
        mean_frob=float(frobs.mean()), stderr_frob=stderr(frobs),
        mean_risk=float(np.mean([r.risk for r in good])),
        mean_bayes_risk=float(np.mean([r.bayes_risk for r in good])),
        lambda_used=lam_frozen)


def sweep_cells(config: SweepConfig) -> list:
    """The grid's cells in canonical order."""
    cells = [CellKey(shape, r, gamma, n, est)
             for shape in config.shapes for r in config.ranks
             for gamma in config.gammas for n in config.n_values
             for est in config.estimators]
    return sorted(cells, key=lambda k: k.sort_tuple)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{float(x):.17g}"


def _replicate_row(key: CellKey, config: SweepConfig, rec: ReplicateRecord):
    return ["replicate", key.estimator, str(key.shape.m1), str(key.shape.m2),
            str(key.r), _fmt(key.gamma),
            "" if rec.failed else _fmt(rec.margin_tau),
            config.generator, config.sampling_scheme, str(key.n),
            str(rec.replicate), str(rec.seed), _fmt(rec.lambda_used),
            "" if rec.failed else _fmt(rec.excess),
            "" if rec.failed else _fmt(rec.risk),
            "" if rec.failed else _fmt(rec.bayes_risk),
            "" if rec.failed else _fmt(rec.frob_error_sq_normalized),
            str(rec.iterations),
            "failed" if rec.failed else _fmt(rec.converged),
            str(rec.work)]


def _aggregate_row(result: CellResult, config: SweepConfig):
    key = result.key
    return ["aggregate", key.estimator, str(key.shape.m1), str(key.shape.m2),
            str(key.r), _fmt(key.gamma), "", config.generator,
            config.sampling_scheme, str(key.n), "", "", _fmt(result.lambda_used),
            _fmt(result.mean_excess), _fmt(result.mean_risk),
            _fmt(result.mean_bayes_risk), _fmt(result.mean_frob), "", "", ""]


def run_sweep(config: SweepConfig, output_path, threads: int = 1) -> list:
    """Run every cell of the grid and write the replicate/aggregate CSV.

    Cells execute on a thread pool of the requested width; rows are written in
    canonical cell order with replicates ascending, so the output bytes do not
    depend on the thread count.  The output location is opened before any
    computation starts; a thread count that is not an int >= 1 is a
    ValueError raised before that.
    """
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an int >= 1, not {threads!r}")
    cells = sweep_cells(config)
    with open(output_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda k: run_cell(k, config), cells))
        else:
            results = [run_cell(k, config) for k in cells]
        for result in results:
            for rec in result.records:
                writer.writerow(_replicate_row(result.key, config, rec))
            writer.writerow(_aggregate_row(result, config))
    return results


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log mean excess) points."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def fit_rate(points) -> RateFit:
    """Fit log(mean excess) against log(n) by ordinary least squares.

    Points with nonpositive excess (possible when every replicate recovered
    the exact sign pattern) are dropped with a warning; at least three must
    survive.
    """
    kept = []
    for n, excess in points:
        if n <= 0:
            raise ValueError("sample counts must be positive")
        if excess <= 0:
            warnings.warn(f"dropping nonpositive excess {excess} at n={n}")
            continue
        kept.append((math.log(n), math.log(excess)))
    if len(kept) < 3:
        raise ValueError(f"need at least 3 positive points, have {len(kept)}")
    logn = np.array([p[0] for p in kept])
    logy = np.array([p[1] for p in kept])
    slope, intercept = np.polyfit(logn, logy, 1)
    fitted = slope * logn + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r_squared, points=tuple(kept))


# the columns aggregate_points and the rate command read
_RATE_COLUMNS = ("row_kind", "estimator", "m1", "m2", "r", "gamma", "n",
                 "excess", "frob_err_sq_norm")


def read_sweep_rows(path) -> list:
    """Read a sweep CSV back as a list of column-name dicts.

    A ValueError names the file and the first column that aggregate_points
    reads and the header lacks; a file without a header lacks them all.
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for column in _RATE_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no {column!r} column; "
                                 "not a sweep CSV")
        return list(reader)


def aggregate_points(rows, estimator: str):
    """Group aggregate rows by (m1, m2, r, gamma) and collect (n, mean excess).

    Returns {group key: sorted list of (n, mean_excess, mean_frob)}.
    """
    groups = {}
    for row in rows:
        if row["row_kind"] != "aggregate" or row["estimator"] != estimator:
            continue
        key = (int(row["m1"]), int(row["m2"]), int(row["r"]), float(row["gamma"]))
        groups.setdefault(key, []).append(
            (int(row["n"]), float(row["excess"]), float(row["frob_err_sq_norm"])))
    return {key: sorted(vals) for key, vals in groups.items()}


def sweep_config_from_dict(raw: dict) -> SweepConfig:
    """The SweepConfig of a JSON object's fields; absent ones default.

    A ValueError names any key that is not a field and any required field
    that is absent; SweepConfig checks and normalizes the values.
    """
    unknown = set(raw) - set(_KINDS)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    required = {f.name for f in fields(SweepConfig)
                if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(raw)
    if missing:
        raise ValueError(f"missing sweep config keys: {sorted(missing)}")
    return SweepConfig(**raw)
