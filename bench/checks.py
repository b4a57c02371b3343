"""Correctness checks on benchmark outputs, computed apart from onebitmc.

Each check returns a list of problems (empty when the output passes).  None
compares against a stored copy of an earlier output: every check recomputes a
quantity with numpy or scipy, or tests a property the method must have.
"""

import csv
import io
import math

import numpy as np

MONOTONE_SLACK = 1e-10


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def mean_nll(X: np.ndarray, rows, cols, labels) -> float:
    """Negative mean log-likelihood log(1 + exp(-y x)) on the sampled entries."""
    z = np.asarray(labels, dtype=float) * np.asarray(X)[rows, cols]
    return float(np.mean(np.logaddexp(0.0, -z)))


def nuclear_norm(X: np.ndarray) -> float:
    import scipy.linalg  # imported on first use, to keep it out of set-up time
    return float(scipy.linalg.svdvals(X).sum())


def excess_risk(X: np.ndarray, truth: np.ndarray) -> float:
    """Excess misclassification risk of the sign classifier of X.

    Mean over all entries of |2 sigmoid(T) - 1| where sign(X) and sign(T)
    disagree, with sign(0) = +1.
    """
    T = np.asarray(truth, dtype=float)
    gap = np.abs(2.0 / (1.0 + np.exp(-T)) - 1.0)
    return float(np.mean(np.where((np.asarray(X) >= 0) != (T >= 0), gap, 0.0)))


def check_fit(kind: str, estimate, trace, rows, cols, labels, truth,
              gamma: float, r: int, maxnorm_bound: float | None = None) -> list:
    """Problems with one constrained or max-norm fit.

    kind is "nuclear_constrained" or "maxnorm_constrained".  The truth is
    feasible for both estimators, so the fit's likelihood on the sampled
    entries must not exceed the truth's own.
    """
    problems = []
    X = np.asarray(estimate, dtype=float)
    trace = np.asarray(trace, dtype=float)
    if not np.all(np.isfinite(X)):
        return ["estimate has non-finite entries"]
    peak = float(np.max(np.abs(X)))
    if peak > gamma:
        problems.append(f"||X||_inf = {peak!r} exceeds gamma = {gamma!r}")
    rises = np.diff(trace)
    if trace.size == 0 or np.any(rises > MONOTONE_SLACK):
        worst = float(rises.max()) if rises.size else math.nan
        problems.append(f"objective trace rises by {worst!r}")
    m1, m2 = X.shape
    if kind == "nuclear_constrained":
        radius = gamma * math.sqrt(r * m1 * m2)
        nuc = nuclear_norm(X)
        if nuc > radius * (1 + 1e-9):
            problems.append(f"nuclear norm {nuc!r} exceeds radius {radius!r}")
    elif kind == "maxnorm_constrained":
        cap = gamma * math.sqrt(r)
        if maxnorm_bound is None or not maxnorm_bound <= cap * (1 + 1e-12):
            problems.append(f"max-norm bound {maxnorm_bound!r} exceeds {cap!r}")
    else:
        raise ValueError(f"unknown fit kind {kind!r}")
    fit_nll = mean_nll(X, rows, cols, labels)
    truth_nll = mean_nll(truth, rows, cols, labels)
    if not fit_nll <= truth_nll:
        problems.append(f"likelihood {fit_nll!r} above the truth's {truth_nll!r}")
    return problems


def parse_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def lambda_grid(m1: int, m2: int, n: int) -> np.ndarray:
    """The sweep's default penalty grid, ten geometric points times sqrt(d / n)."""
    return np.geomspace(1e-4, 1.0, 10) * math.sqrt((m1 + m2) / n)


def check_sweep_rows(rows: list, gamma: float) -> list:
    """Problems with the replicate rows of a block_sign sweep CSV, one list per row.

    Returns a list parallel to the replicate rows.  A block_sign truth has
    |entries| = gamma, so the Bayes risk is 1 / (1 + e^gamma) and the excess
    of any sign estimate is a whole number of mismatched entries times
    (2 sigmoid(gamma) - 1) / (m1 m2).
    """
    bayes = 1.0 / (1.0 + math.exp(gamma))
    unit_gap = 2.0 * sigmoid(gamma) - 1.0
    out = []
    for row in rows:
        if row["row_kind"] != "replicate":
            continue
        problems = []
        out.append(problems)
        if row["converged"] == "failed":
            problems.append("replicate failed")
            continue
        m1, m2, n = int(row["m1"]), int(row["m2"]), int(row["n"])
        risk, bayes_risk = float(row["risk"]), float(row["bayes_risk"])
        excess = float(row["excess"])
        if abs(bayes_risk - bayes) > 1e-12:
            problems.append(f"bayes_risk {bayes_risk!r} != {bayes!r}")
        if abs(risk - bayes_risk - excess) > 1e-12:
            problems.append(f"risk - bayes_risk != excess {excess!r}")
        if excess < 0:
            problems.append(f"negative excess {excess!r}")
        mismatches = excess * m1 * m2 / unit_gap
        if abs(mismatches - round(mismatches)) > 1e-9:
            problems.append(f"excess {excess!r} is {mismatches!r} mismatches")
        if row["estimator"] == "nuclear_penalized":
            lam = float(row["lambda_used"])
            grid = lambda_grid(m1, m2, n)
            if not np.any(np.abs(grid - lam) <= 1e-12 * grid):
                problems.append(f"lambda {lam!r} is off the grid")
    return out


def cell_means(rows: list) -> dict:
    """(estimator, n) -> (mean excess, mean frob) over the replicate rows."""
    acc = {}
    for row in rows:
        if row["row_kind"] == "replicate" and row["converged"] != "failed":
            key = (row["estimator"], int(row["n"]))
            acc.setdefault(key, []).append(
                (float(row["excess"]), float(row["frob_err_sq_norm"])))
    return {key: tuple(np.mean(vals, axis=0)) for key, vals in acc.items()}


def check_sweep_trend(rows: list) -> list:
    """Mean excess and Frobenius error must fall from the smallest n to the largest."""
    problems = []
    means = cell_means(rows)
    for est in sorted({e for e, _ in means}):
        ns = sorted(n for e, n in means if e == est)
        lo, hi = means[(est, ns[0])], means[(est, ns[-1])]
        if not (hi[0] < lo[0] and hi[1] < lo[1]):
            problems.append(f"{est}: means at n={ns[-1]} {hi} not below "
                            f"n={ns[0]} {lo}")
    return problems

