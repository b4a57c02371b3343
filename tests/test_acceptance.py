"""Acceptance suite: ten numbered criteria, one pass/fail line printed each.

Criteria 5 through 9 share one replicated sweep (100x100, rank 2, four sample
counts, 20 replicates), run in process at 8 threads beside its CLI rerun at 1
thread, which criterion 9 compares byte for byte: about 55 s of the suite's
70 s on 2 cores.  Run with `pytest tests/test_acceptance.py -v -s` to watch
the lines appear.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from onebitmc import (CellKey, Shape, SolverConfig, SweepConfig,
                      bayes_classifier, exact_risk, excess_risk, fit_rate,
                      generate_truth, logistic_link, monte_carlo_risk,
                      neg_log_likelihood, nll_gradient, nuclear_norm,
                      project_nuclear_ball, read_sweep_rows,
                      run_cell, run_sweep, sample_observations,
                      solve_maxnorm_constrained, solve_nuclear_constrained,
                      solve_nuclear_penalized, svt_prox,
                      sweep_config_from_dict)
import onebitmc
from onebitmc.seeding import make_rng

import oracles


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------- criterion 6
# block_sign truth, 100x100, r=2, gamma=1.5 (low-noise margin holds since
# f(1.5) - 0.5 = 0.3176), iid sampling, 20 replicates, penalized estimator
# with the per-cell frozen penalty weight
SWEEP_CONFIG = SweepConfig(
    shapes=(Shape(100, 100),), ranks=(2,), gammas=(1.5,),
    n_values=(1000, 2000, 4000, 8000), estimators=("nuclear_penalized",),
    generator="block_sign", sampling_scheme="iid_uniform",
    replicates=20, base_seed=0)


def _config_json(config: SweepConfig) -> str:
    """config as the JSON object that `onebitmc sweep --config` reads."""
    raw = {f.name: getattr(config, f.name) for f in fields(config)}
    raw["shapes"] = [[shape.m1, shape.m2] for shape in config.shapes]
    return json.dumps(raw)


class Sweep(NamedTuple):
    csv: Path  # run_sweep in this process at 8 threads; criteria 5-8 read it
    cli_csv: Path  # the CLI on the JSON form in a child process at 1 thread
    cli_code: int
    cli_log: str


@pytest.fixture(scope="session")
def sweep6(tmp_path_factory):
    """SWEEP_CONFIG run by the CLI from its JSON form in a child process at 1
    thread while run_sweep runs it here at 8 threads; criterion 9 compares
    the two, so its check spans thread counts, processes and the JSON reader."""
    tmp = tmp_path_factory.mktemp("acceptance")
    config = tmp / "sweep.json"
    config.write_text(_config_json(SWEEP_CONFIG))
    src = str(Path(onebitmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(tmp / "child.log", "w+") as log:
        child = subprocess.Popen(
            [sys.executable, "-m", "onebitmc.cli", "sweep", "--config",
             str(config), "--out", str(tmp / "cli1.csv"), "--threads", "1"],
            env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            run_sweep(SWEEP_CONFIG, tmp / "sweep8.csv", threads=8)
            child.wait(timeout=900)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        log.seek(0)
        return Sweep(tmp / "sweep8.csv", tmp / "cli1.csv", child.returncode,
                     log.read())


def _aggregate_series(path):
    rows = read_sweep_rows(path)
    agg = [r for r in rows if r["row_kind"] == "aggregate"]
    agg.sort(key=lambda r: int(r["n"]))
    ns = [int(r["n"]) for r in agg]
    excess = [float(r["excess"]) for r in agg]
    frob = [float(r["frob_err_sq_norm"]) for r in agg]
    return ns, excess, frob


class TestCriterion1:
    def test_gradient_matches_finite_differences(self):
        start = time.time()
        rng = make_rng(1001)
        worst = 0.0
        for _ in range(20):
            truth = generate_truth(Shape(8, 6), 2, 1.0, "gaussian_factor",
                                   int(rng.integers(2 ** 32)))
            samples = sample_observations(truth, 40, "iid_uniform",
                                          int(rng.integers(2 ** 32)))
            X = rng.standard_normal((8, 6))
            grad = nll_gradient(X, samples)
            fd = oracles.fd_gradient(lambda M: neg_log_likelihood(M, samples), X)
            mask = np.abs(fd) > 1e-12
            rel = np.max(np.abs(grad[mask] - fd[mask]) / np.abs(fd[mask]))
            assert np.all(np.abs(grad[~mask]) <= 1e-12)
            worst = max(worst, rel)
        elapsed = time.time() - start
        ok = worst <= 1e-5 and elapsed < 1.0
        assert report(1, ok, f"max relative gradient error {worst:.2e} on 20 "
                             f"instances in {elapsed:.2f}s (budget 1s)")


class TestCriterion2:
    def test_prox_and_projection_oracles(self):
        start = time.time()
        assert np.allclose(svt_prox(np.diag([3.0, 1.0]), 2.0),
                           np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(project_nuclear_ball(np.diag([3.0, 1.0]), 2.0),
                           np.diag([2.0, 0.0]), atol=1e-12)

        rng = make_rng(1002)
        Z = rng.standard_normal((5, 5))
        tau = 0.7
        out = svt_prox(Z, tau)
        base = 0.5 * np.linalg.norm(out - Z) ** 2 + tau * nuclear_norm(out)
        for _ in range(1000):
            delta = rng.standard_normal((5, 5))
            delta *= 1e-3 / np.linalg.norm(delta)
            trial = out + delta
            assert base <= (0.5 * np.linalg.norm(trial - Z) ** 2
                            + tau * nuclear_norm(trial))

        Z2 = rng.standard_normal((5, 5)) * 2.0
        radius = 3.0
        proj = project_nuclear_ball(Z2, radius)
        assert abs(nuclear_norm(proj) - radius) <= 1e-9
        d_best = np.linalg.norm(proj - Z2)
        for _ in range(1000):
            W = rng.standard_normal((5, 5))
            nw = nuclear_norm(W)
            if nw > radius:
                W *= radius / nw
            assert d_best <= np.linalg.norm(W - Z2) + 1e-12
        elapsed = time.time() - start
        ok = elapsed < 5.0
        assert report(2, ok, f"2000 probes plus diagonal cases in "
                             f"{elapsed:.2f}s (budget 5s)")


class TestCriterion3:
    def test_solvers_match_brute_force(self):
        start = time.time()
        gamma, lam = 3.0, 0.05
        gaps = {"penalized": 0.0, "constrained": 0.0, "maxnorm": 0.0}
        for seed in range(50):
            truth = generate_truth(Shape(2, 2), 1, gamma / 2,
                                   "gaussian_factor", seed)
            samples = sample_observations(truth, 12, "iid_uniform", seed + 77)

            fit = solve_nuclear_penalized(
                samples, SolverConfig(gamma=gamma, rank_hint=1, lam=lam))
            val = (neg_log_likelihood(fit.estimate, samples)
                   + lam * nuclear_norm(fit.estimate))
            _, ref = oracles.oracle_penalized(samples, gamma, lam)
            gaps["penalized"] = max(gaps["penalized"], abs(val - ref))

            fit = solve_nuclear_constrained(
                samples, SolverConfig(gamma=gamma, rank_hint=1))
            val = neg_log_likelihood(fit.estimate, samples)
            _, ref = oracles.oracle_nuclear_constrained(
                samples, gamma, gamma * math.sqrt(4))
            gaps["constrained"] = max(gaps["constrained"], abs(val - ref))

            fit = solve_maxnorm_constrained(
                samples, SolverConfig(gamma=gamma, rank_hint=2))
            val = neg_log_likelihood(fit.estimate, samples)
            _, ref = oracles.oracle_box_only(samples, gamma)
            gaps["maxnorm"] = max(gaps["maxnorm"], abs(val - ref))
        elapsed = time.time() - start
        worst = max(gaps.values())
        ok = worst <= 1e-3 and elapsed < 120.0
        assert report(3, ok, "worst objective gap vs oracle over 50 "
                             "instances: " +
                      ", ".join(f"{k}={v:.2e}" for k, v in gaps.items()) +
                      f" in {elapsed:.0f}s (budget 120s)")


class TestCriterion4:
    def test_risk_identity_and_monte_carlo(self):
        rng = make_rng(1004)
        worst_gap = 0.0
        in_band = 0
        trials = 10 ** 5
        for i in range(100):
            truth = generate_truth(Shape(8, 7), 2, 1.5, "gaussian_factor", i)
            eta = np.where(rng.random((8, 7)) < 0.5, -1.0, 1.0)
            diff_form = (exact_risk(eta, truth)
                         - exact_risk(bayes_classifier(truth.entries), truth))
            p = logistic_link(truth.entries)
            star = bayes_classifier(truth.entries)
            mismatch = float(np.where(eta != star, np.abs(2 * p - 1), 0).mean())
            worst_gap = max(worst_gap, abs(diff_form - mismatch))
            assert excess_risk(eta, truth) == pytest.approx(diff_form,
                                                            abs=1e-15)

            exact = exact_risk(eta, truth)
            mc = monte_carlo_risk(eta, truth, trials, seed=2000 + i)
            band = 3 * math.sqrt(exact * (1 - exact) / trials)
            in_band += abs(mc - exact) <= band
        ok = worst_gap <= 1e-12 and in_band >= 99
        assert report(4, ok, f"formula gap {worst_gap:.2e} (tol 1e-12); "
                             f"Monte Carlo within 3-sigma band in "
                             f"{in_band}/100 trials (need >= 99)")


class TestCriterion5:
    def test_excess_nonnegative_and_bayes_optimal(self, sweep6):
        rows = read_sweep_rows(sweep6.csv)
        excesses = [float(r["excess"]) for r in rows if r["excess"] != ""]
        min_excess = min(excesses)

        rng = make_rng(1005)
        bayes_wins = True
        for i in range(10):
            truth = generate_truth(Shape(9, 8), 2, 1.2, "gaussian_factor",
                                   300 + i)
            bayes = exact_risk(bayes_classifier(truth.entries), truth)
            for _ in range(1000):
                eta = np.where(rng.random((9, 8)) < 0.5, -1.0, 1.0)
                if bayes > exact_risk(eta, truth) + 1e-15:
                    bayes_wins = False
        ok = min_excess >= -1e-12 and bayes_wins
        assert report(5, ok, f"min excess across sweep rows {min_excess:.3g} "
                             f"(>= -1e-12); Bayes beat 10000 random sign "
                             f"matrices: {bayes_wins}")


class TestCriterion6:
    def test_fast_rate_slope(self, sweep6):
        ns, excess, _ = _aggregate_series(sweep6.csv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_rate(list(zip(ns, excess)))
        ok = fit.slope <= -0.7 and fit.r_squared >= 0.9
        assert report(6, ok, f"mean excess {['%.3g' % e for e in excess]} at "
                             f"n={ns}; log-log slope {fit.slope:.3f} "
                             f"(need <= -0.7), R^2 {fit.r_squared:.3f} "
                             f"(need >= 0.9)")


class TestCriterion7:
    def test_rate_ordering_soft_check(self, sweep6):
        ns, excess, _ = _aggregate_series(sweep6.csv)
        pen_at_8000 = excess[ns.index(8000)]
        key = CellKey(Shape(100, 100), 2, 1.5, 8000, "maxnorm_constrained")
        cell = run_cell(key, replace(SWEEP_CONFIG,
                                     estimators=("maxnorm_constrained",)))
        ratio = cell.mean_excess / pen_at_8000
        ordered = ratio >= 0.9
        if not ordered:
            warnings.warn(f"rate ordering violated: ratio {ratio:.3f} < 0.9; "
                          "flagged for investigation, not a failure")
        # soft check: a violation is reported, never an automatic failure
        assert report(7, True,
                      f"maxnorm mean excess {cell.mean_excess:.4g} vs "
                      f"penalized {pen_at_8000:.4g} at n=8000; ratio "
                      f"{ratio:.3g} (soft threshold 0.9"
                      + (", FLAG: violated)" if not ordered else ")"))


class TestCriterion8:
    def test_estimation_error_slope(self, sweep6):
        ns, _, frob = _aggregate_series(sweep6.csv)
        fit = fit_rate(list(zip(ns, frob)))
        ok = fit.slope <= -0.6
        assert report(8, ok, f"mean frob {['%.3g' % f for f in frob]} at "
                             f"n={ns}; slope {fit.slope:.3f} (need <= -0.6), "
                             f"R^2 {fit.r_squared:.3f}")


class TestCriterion9:
    def test_json_form_reads_back_equal(self):
        raw = json.loads(_config_json(SWEEP_CONFIG))
        assert sweep_config_from_dict(raw) == SWEEP_CONFIG

    def test_sweep_determinism_across_threads(self, sweep6):
        assert sweep6.cli_code == 0, sweep6.cli_log
        same = sweep6.cli_csv.read_bytes() == sweep6.csv.read_bytes()
        assert report(9, same, f"byte-identical at 1 thread (CLI child) and "
                               f"8 threads (in process): {same}")


class TestCriterion10:
    def test_monotone_descent_on_random_fits(self):
        rng = make_rng(1010)
        solvers = (
            lambda s, c: solve_nuclear_penalized(s, replace(c, lam=0.02)),
            solve_nuclear_constrained,
            solve_maxnorm_constrained,
        )
        checked = 0
        worst_rise = -np.inf
        for i in range(100):
            m1 = int(rng.integers(5, 15))
            m2 = int(rng.integers(5, 15))
            r = int(rng.integers(1, 3))
            gamma = float(rng.uniform(0.8, 2.0))
            truth = generate_truth(Shape(m1, m2), r, gamma, "gaussian_factor",
                                   int(rng.integers(2 ** 32)))
            samples = sample_observations(truth, int(rng.integers(30, 150)),
                                          "iid_uniform",
                                          int(rng.integers(2 ** 32)))
            config = SolverConfig(gamma=gamma, rank_hint=r, max_iters=400,
                                  seed=i)
            fit = solvers[i % 3](samples, config)
            rises = np.diff(fit.objective_trace)
            worst_rise = max(worst_rise, float(rises.max()) if rises.size else 0.0)
            assert np.all(rises <= 1e-10)
            checked += 1
        assert report(10, checked == 100,
                      f"objective traces nonincreasing on {checked}/100 random "
                      f"fits; largest per-step rise {worst_rise:.2e} "
                      f"(slack 1e-10)")
