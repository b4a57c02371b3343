"""Tests of the benchmark itself.

Each correctness check must reject a deliberately wrong output, and both
passes must report every metric BENCHMARK.json names.  Workloads run here on
tiny inputs, so the file takes a few seconds.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing

import onebitmc

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
GAMMA, RANK = run.GAMMA, run.RANK
TINY = {
    "sweep_penalized": dict(shape=(12, 12), n_values=(150, 600), replicates=2,
                            sweeps=1),
    "constrained_fit": dict(sides=(10,), per_entry=3.0),
    "maxnorm_fit": dict(side=12, count=1, max_iters=5),
}


@pytest.fixture(scope="module")
def constrained():
    inst = run.constrained_instances(3, **TINY["constrained_fit"])[0]
    return inst, onebitmc.solve_nuclear_constrained(inst.samples, inst.config)


def _check(kind, inst, estimate, trace, bound=None):
    s = inst.samples
    return checks.check_fit(kind, estimate, trace, s.rows, s.cols, s.labels,
                            inst.truth.entries, GAMMA, RANK, bound)


def test_a_real_fit_passes(constrained):
    inst, fit = constrained
    assert _check("nuclear_constrained", inst, fit.estimate,
                  fit.objective_trace) == []


def test_estimate_outside_the_box_is_rejected(constrained):
    inst, fit = constrained
    X = fit.estimate.copy()
    X[0, 0] = GAMMA + 1e-9
    assert any("exceeds gamma" in p for p in
               _check("nuclear_constrained", inst, X, fit.objective_trace))


def test_rising_trace_is_rejected(constrained):
    inst, fit = constrained
    trace = np.append(fit.objective_trace, fit.objective_trace[-1] + 1e-8)
    assert any("rises" in p for p in
               _check("nuclear_constrained", inst, fit.estimate, trace))
    within = np.append(fit.objective_trace, fit.objective_trace[-1] + 1e-11)
    assert _check("nuclear_constrained", inst, fit.estimate, within) == []


def test_nuclear_norm_over_the_radius_is_rejected(constrained):
    inst, fit = constrained
    signs = np.where(np.random.default_rng(0).random((10, 10)) < 0.5, -1.0, 1.0)
    X = GAMMA * signs    # in the box, nuclear norm about twice the radius
    assert any("exceeds radius" in p for p in
               _check("nuclear_constrained", inst, X, fit.objective_trace))


def test_maxnorm_bound_over_the_cap_is_rejected(constrained):
    inst, fit = constrained
    cap = GAMMA * math.sqrt(RANK)
    assert _check("maxnorm_constrained", inst, fit.estimate,
                  fit.objective_trace, cap) == []
    assert any("max-norm" in p for p in
               _check("maxnorm_constrained", inst, fit.estimate,
                      fit.objective_trace, cap * 1.001))


def test_likelihood_above_the_truths_is_rejected(constrained):
    inst, fit = constrained
    X = -inst.truth.entries    # feasible, but every sign is wrong
    assert any("above the truth" in p for p in
               _check("nuclear_constrained", inst, X, fit.objective_trace))


def test_excess_risk_counts_weighted_sign_mismatches():
    T = np.array([[1.5, -1.5], [0.5, -0.2]])
    X = np.array([[1.0, 1.0], [-1.0, -1.0]])   # wrong at (0, 1) and (1, 0)
    gap = lambda t: 2 / (1 + math.exp(-abs(t))) - 1
    assert checks.excess_risk(X, T) == pytest.approx((gap(1.5) + gap(0.5)) / 4)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    config = dataclasses.replace(
        run.penalized_sweep(5, **TINY["sweep_penalized"])[0],
        n_values=(150, 600))
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    onebitmc.run_sweep(config, path)
    return path.read_text()


def _row_problems(rows):
    return [p for problems in checks.check_sweep_rows(rows, GAMMA)
            for p in problems]


def test_a_real_sweep_passes(sweep_csv):
    rows = checks.parse_csv(sweep_csv)
    assert len(checks.check_sweep_rows(rows, GAMMA)) == 4
    assert _row_problems(rows) == []
    assert checks.check_sweep_trend(rows) == []


def test_excess_shifted_by_one_mismatch_is_rejected(sweep_csv):
    rows = checks.parse_csv(sweep_csv)
    row = next(r for r in rows if r["row_kind"] == "replicate")
    one = (2 * checks.sigmoid(GAMMA) - 1) / (int(row["m1"]) * int(row["m2"]))
    row["excess"] = repr(float(row["excess"]) + one)
    assert any("!= excess" in p for p in _row_problems(rows))


def test_excess_off_the_mismatch_lattice_is_rejected(sweep_csv):
    rows = checks.parse_csv(sweep_csv)
    row = next(r for r in rows if r["row_kind"] == "replicate")
    shift = 0.5 * (2 * checks.sigmoid(GAMMA) - 1) / 144
    row["excess"] = repr(float(row["excess"]) + shift)
    row["risk"] = repr(float(row["risk"]) + shift)
    assert any("mismatches" in p for p in _row_problems(rows))


def test_lambda_off_the_grid_is_rejected(sweep_csv):
    rows = checks.parse_csv(sweep_csv)
    row = next(r for r in rows if r["row_kind"] == "replicate")
    row["lambda_used"] = repr(float(row["lambda_used"]) * 1.5)
    assert any("off the grid" in p for p in _row_problems(rows))


def test_wrong_bayes_risk_and_failed_rows_are_rejected(sweep_csv):
    rows = checks.parse_csv(sweep_csv)
    reps = [r for r in rows if r["row_kind"] == "replicate"]
    reps[0]["bayes_risk"] = repr(float(reps[0]["bayes_risk"]) + 1e-9)
    reps[1]["converged"] = "failed"
    problems = checks.check_sweep_rows(rows, GAMMA)
    assert any("bayes_risk" in p for p in problems[0])
    assert problems[1] == ["replicate failed"]


def test_flat_error_across_n_is_rejected(sweep_csv):
    rows = checks.parse_csv(sweep_csv)
    for r in rows:
        r["frob_err_sq_norm"] = "1.0"
    assert checks.check_sweep_trend(rows)


def test_one_variant_per_cell_makes_the_whole_sweep():
    variants = run.penalized_sweep(5, n_values=(150, 600), sweeps=2)
    assert [v.n_values for v in variants] == [(150,), (600,)] * 2
    assert len({v.base_seed for v in variants}) == 2
    assert all(v.estimators == ("nuclear_penalized",) for v in variants)


def test_differing_csv_bytes_are_rejected(tmp_path):
    workload = run.WORKLOADS["sweep_penalized"]
    variants = workload.make_inputs(5, **TINY["sweep_penalized"])
    blobs = [workload.run_round(v, tmp_path / "s.csv") for v in variants]
    assert not any(workload.check_pass(variants, blobs, blobs))
    changed = [blobs[0].replace(b"0", b"1", 1), blobs[1]]
    per_op = workload.check_pass(variants, changed, blobs)
    assert any("differ from the first pass" in p for p in per_op[0])
    assert not any("differ" in p for p in per_op[-1])
    digest = tmp_path / "digest"
    assert run._check_digest(digest, blobs) == []
    assert run._check_digest(digest, blobs) == []
    assert any("earlier run" in p for p in run._check_digest(digest, changed))


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_pass_reports_every_named_metric(name, tmp_path):
    workload = run.WORKLOADS[name]
    inputs = workload.make_inputs(7, **TINY[name])
    traced = run.measure(workload, inputs, 0, True, tmp_path / "t.csv")
    layers = run.summarize(workload, traced, True)["metrics"]
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(layers[m["name"]]["unit"] == m["unit"]
               for m in BENCHMARK["per_layer"])
    plain = run.measure(workload, inputs, 0.3, False, tmp_path / "p.csv",
                        setup=lambda: 0.5)
    assert plain["setup_s"] == 0.5
    result = run.summarize(workload, plain, False)
    e2e = result["metrics"]
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(e2e[m["name"]]["unit"] == m["unit"]
               for m in BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 and math.isfinite(v["value"])
               for v in e2e.values())
    assert result["attempted"] >= 1
    # only the first pass keeps estimator results; later passes keep times
    per_pass = sum(r[2] for r in plain["passes"][0])
    assert sum(c[3] is not None for c in plain["probe"].calls) == per_pass
    assert len(plain["probe"].calls) == per_pass * len(plain["passes"])

    value = {k: v["value"] for k, v in layers.items()}
    assert value["solvers.fits"] > 0 and value["solvers.iterations"] > 0
    assert value["model.neg_log_likelihood.calls"] > 0
    if name == "constrained_fit":
        assert value["solvers.dykstra_sweeps_per_projection"] > 0
        assert value["spectral.project_nuclear_ball.calls"] > 0
    if name == "maxnorm_fit":
        assert value["spectral.svd.calls"] == 0
        assert value["model.nll_gradient.calls"] > 0
    if name.startswith("sweep"):
        assert value["solvers.select_lambda.s"] > 0
        assert value["experiments.csv_bytes"] > 0
        assert 0 < value["experiments.worker_busy_share"] <= 1


def test_tracer_restores_every_name():
    before = (onebitmc.solvers.svd, onebitmc.experiments._SOLVER_FNS.copy(),
              onebitmc.spectral.svd, onebitmc.svd)
    with tracing.Tracer():
        assert onebitmc.solvers.svd is not before[0]
        assert onebitmc.experiments._SOLVER_FNS != before[1]
    assert (onebitmc.solvers.svd, onebitmc.experiments._SOLVER_FNS,
            onebitmc.spectral.svd, onebitmc.svd) == before


def test_self_time_subtracts_the_union_of_children():
    span = tracing.Span("x", None, 0.0)
    span.end = 10.0
    span.children = [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]   # overlapping, clipped
    assert span.self_seconds == pytest.approx(10.0 - 4.0 - 2.0)
