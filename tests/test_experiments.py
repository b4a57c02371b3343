import math

import numpy as np
import pytest

from onebitmc import (CellKey, Shape, SolverConfig, SweepConfig,
                      aggregate_points, default_lambda_grid, fit_rate,
                      generate_truth, read_sweep_rows, refit_low_rank,
                      replicate_seed, risk_report, run_cell, run_sweep,
                      sample_observations, solve_nuclear_penalized,
                      sweep_cells, sweep_config_from_dict)
import onebitmc.experiments
import onebitmc.solvers
from onebitmc.experiments import CSV_COLUMNS
from onebitmc.seeding import (TAG_SAMPLES, TAG_SOLVER, TAG_TRUTH, make_rng,
                              mix_seed)


def small_config(**overrides):
    base = dict(shapes=(Shape(8, 8),), ranks=(1,), gammas=(1.5,),
                n_values=(40, 80), estimators=("nuclear_constrained",),
                generator="block_sign", sampling_scheme="iid_uniform",
                replicates=3, base_seed=11,
                solver_defaults={"max_iters": 300})
    base.update(overrides)
    return SweepConfig(**base)


class TestFitRate:
    def test_exact_inverse_law(self):
        points = [(n, 10.0 / n) for n in (100, 200, 400, 800)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_sqrt_law(self):
        points = [(n, 5.0 / math.sqrt(n)) for n in (100, 200, 400, 800)]
        assert fit_rate(points).slope == pytest.approx(-0.5, abs=1e-12)

    def test_multiplicative_noise(self):
        rng = make_rng(123)
        points = [(n, 10.0 / n * (1 + 0.05 * float(rng.standard_normal())))
                  for n in (100, 200, 400, 800, 1600)]
        fit = fit_rate(points)
        assert -1.1 <= fit.slope <= -0.9

    def test_drops_nonpositive_with_warning(self):
        points = [(100, 1.0), (200, 0.5), (400, 0.25), (800, 0.0)]
        with pytest.warns(UserWarning):
            fit = fit_rate(points)
        assert len(fit.points) == 3

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate([(100, 1.0), (200, 0.5)])

    def test_refit_on_stored_points_reproduces(self):
        points = [(n, 7.0 * n ** -0.8) for n in (50, 100, 200, 400)]
        fit = fit_rate(points)
        logn = np.array([p[0] for p in fit.points])
        logy = np.array([p[1] for p in fit.points])
        slope, intercept = np.polyfit(logn, logy, 1)
        assert abs(slope - fit.slope) <= 1e-10
        assert abs(intercept - fit.intercept) <= 1e-10


class TestSeeding:
    def test_replicate_seed_is_stable(self):
        key = CellKey(Shape(100, 100), 2, 1.5, 1000, "nuclear_penalized")
        first = replicate_seed(7, key, 0)
        assert first == replicate_seed(7, key, 0)
        assert first != replicate_seed(7, key, 1)
        assert first != replicate_seed(8, key, 0)
        other = CellKey(Shape(100, 100), 2, 1.5, 2000, "nuclear_penalized")
        assert first != replicate_seed(7, other, 0)
        # the estimator ids 1, 2, 3 feed every seed; pin what they give
        pinned = {"nuclear_penalized": 4140008383110170037,
                  "nuclear_constrained": 11103888978821890873,
                  "maxnorm_constrained": 796773761284043160}
        for est, seed in pinned.items():
            key = CellKey(Shape(100, 100), 2, 1.5, 1000, est)
            assert replicate_seed(7, key, 0) == seed

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)
        assert 0 <= mix_seed(0) < 2 ** 64


class TestRunCell:
    def test_deterministic_and_counts(self):
        config = small_config()
        key = CellKey(Shape(8, 8), 1, 1.5, 40, "nuclear_constrained")
        a = run_cell(key, config)
        b = run_cell(key, config)
        assert len(a.records) == 3
        assert a == b

    def test_aggregates_match_records(self):
        config = small_config(replicates=4)
        key = CellKey(Shape(8, 8), 1, 1.5, 80, "nuclear_constrained")
        cell = run_cell(key, config)
        excesses = np.array([r.excess for r in cell.records])
        assert cell.mean_excess == pytest.approx(excesses.mean(), abs=1e-12)
        assert cell.stderr_excess == pytest.approx(
            excesses.std(ddof=1) / 2.0, abs=1e-12)

    def test_lambda_frozen_across_replicates(self):
        config = small_config(estimators=("nuclear_penalized",),
                              lambda_grid=(0.01, 0.1), replicates=3)
        key = CellKey(Shape(8, 8), 1, 1.5, 60, "nuclear_penalized")
        cell = run_cell(key, config)
        lams = {r.lambda_used for r in cell.records}
        assert len(lams) == 1
        assert cell.lambda_used in (0.01, 0.1)

    def test_penalized_replicates_report_the_refit(self):
        config = small_config(estimators=("nuclear_penalized",),
                              lambda_grid=(0.003, 0.03), replicates=3)
        key = CellKey(Shape(8, 8), 1, 1.5, 60, "nuclear_penalized")
        cell = run_cell(key, config)
        refit_differs = False
        for rec in cell.records:
            truth = generate_truth(key.shape, key.r, key.gamma,
                                   config.generator,
                                   mix_seed(rec.seed, TAG_TRUTH))
            samples = sample_observations(truth, key.n, config.sampling_scheme,
                                          mix_seed(rec.seed, TAG_SAMPLES))
            cfg = SolverConfig(gamma=key.gamma, rank_hint=key.r,
                               lam=cell.lambda_used,
                               seed=mix_seed(rec.seed, TAG_SOLVER),
                               **config.solver_defaults)
            fit = solve_nuclear_penalized(samples, cfg)
            refit = refit_low_rank(samples, fit.estimate, cfg)
            frob = risk_report(refit.estimate, truth).frob_error_sq_normalized
            assert rec.frob_error_sq_normalized == frob
            assert rec.iterations == fit.iterations + refit.iterations
            assert rec.work == fit.work + refit.work
            assert rec.converged == (fit.converged and refit.converged)
            refit_differs |= frob != risk_report(
                fit.estimate, truth).frob_error_sq_normalized
        assert refit_differs

    def test_oversampled_cell_has_tiny_excess(self):
        # huge n with a matched amplitude bound drives excess far below 1%
        key = CellKey(Shape(40, 40), 1, 1.5, 4800, "nuclear_constrained")
        excesses = []
        for seed in range(10):
            cell = run_cell(key, small_config(
                shapes=(Shape(40, 40),), n_values=(4800,), replicates=1,
                base_seed=seed, solver_defaults={}))
            excesses.append(cell.mean_excess)
        assert np.median(excesses) < 0.01

    def test_fresh_truth_varies(self):
        key = CellKey(Shape(8, 8), 1, 1.5, 40, "nuclear_constrained")
        fresh = run_cell(key, small_config(generator="gaussian_factor"))
        assert len({r.seed for r in fresh.records}) == 3
        # a gaussian_factor truth's margin differs from draw to draw
        assert len({r.margin_tau for r in fresh.records}) == 3


class TestRunSweep:
    def test_row_counts_and_order(self, tmp_path):
        out = tmp_path / "runs.csv"
        config = small_config()
        run_sweep(config, out)
        rows = read_sweep_rows(out)
        assert len(rows) == 2 * 3 + 2
        kinds = [r["row_kind"] for r in rows]
        assert kinds == ["replicate"] * 3 + ["aggregate"] + \
            ["replicate"] * 3 + ["aggregate"]
        ns = [int(r["n"]) for r in rows]
        assert ns == sorted(ns)
        with open(out) as handle:
            assert handle.readline().strip() == ",".join(CSV_COLUMNS)

    def test_rerun_byte_identical(self, tmp_path):
        config = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(config, a)
        run_sweep(config, b)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        config = small_config(replicates=2)
        one, many = tmp_path / "one.csv", tmp_path / "many.csv"
        run_sweep(config, one, threads=1)
        run_sweep(config, many, threads=4)
        assert one.read_bytes() == many.read_bytes()
        for threads in (0, -4, 1.5, True):
            with pytest.raises(ValueError, match="threads must be an int"):
                run_sweep(config, many, threads=threads)
            assert many.read_bytes() == one.read_bytes()

    def test_aggregate_row_recomputable(self, tmp_path):
        out = tmp_path / "runs.csv"
        run_sweep(small_config(), out)
        rows = read_sweep_rows(out)
        for n in (40, 80):
            reps = [r for r in rows if r["row_kind"] == "replicate"
                    and int(r["n"]) == n]
            agg = next(r for r in rows if r["row_kind"] == "aggregate"
                       and int(r["n"]) == n)
            mean = np.mean([float(r["excess"]) for r in reps])
            assert float(agg["excess"]) == pytest.approx(mean, abs=1e-12)
            assert agg["replicate"] == "" and agg["seed"] == ""

    def test_arithmetic_error_fails_one_replicate(self, tmp_path, monkeypatch):
        config = small_config(replicates=5)
        clean, broken = tmp_path / "clean.csv", tmp_path / "broken.csv"
        run_sweep(config, clean)
        solve = onebitmc.solvers.SOLVERS["nuclear_constrained"]
        calls = []

        def failing_second_call(samples, cfg):
            calls.append(None)
            if len(calls) == 2:
                raise ArithmeticError("SVD failed to converge")
            return solve(samples, cfg)

        monkeypatch.setitem(onebitmc.solvers.SOLVERS,
                            "nuclear_constrained", failing_second_call)
        run_sweep(config, broken)
        old, new = clean.read_text().splitlines(), broken.read_text().splitlines()
        assert len(old) == len(new) == 1 + 2 * 6
        # row 0 is the header; the first cell's replicate 1 is row 2 and its
        # aggregate, now a mean over four replicates, is row 6
        assert new[2].split(",")[CSV_COLUMNS.index("converged")] == "failed"
        assert [r for i, r in enumerate(new) if i not in (2, 6)] == \
            [r for i, r in enumerate(old) if i not in (2, 6)]
        rows = read_sweep_rows(broken)
        survivors = [float(r["excess"]) for r in rows[:5] if r["excess"]]
        assert len(survivors) == 4
        assert float(rows[5]["excess"]) == pytest.approx(np.mean(survivors),
                                                         abs=1e-12)

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        with pytest.raises(OSError):
            run_sweep(small_config(), tmp_path / "missing" / "runs.csv")

    def test_canonical_cell_order(self):
        config = small_config(
            shapes=(Shape(10, 10), Shape(8, 8)), n_values=(80, 40),
            estimators=("maxnorm_constrained", "nuclear_penalized"))
        cells = sweep_cells(config)
        tuples = [c.sort_tuple for c in cells]
        assert tuples == sorted(tuples)
        assert cells[0].shape == Shape(8, 8)

    def test_mean_excess_nonincreasing_in_n(self, tmp_path):
        out = tmp_path / "runs.csv"
        results = run_sweep(small_config(replicates=5), out)
        by_n = sorted(results, key=lambda c: c.key.n)
        for lo, hi in zip(by_n, by_n[1:]):
            slack = 2 * (lo.stderr_excess + hi.stderr_excess)
            assert hi.mean_excess <= lo.mean_excess + slack

    def test_aggregate_points_grouping(self, tmp_path):
        out = tmp_path / "runs.csv"
        run_sweep(small_config(), out)
        groups = aggregate_points(read_sweep_rows(out), "nuclear_constrained")
        assert list(groups) == [(8, 8, 1, 1.5)]
        assert [n for n, _, _ in groups[(8, 8, 1, 1.5)]] == [40, 80]


class TestConfigParsing:
    def test_round_trip_from_dict(self):
        raw = {"shapes": [[8, 8]], "ranks": [1], "gammas": [1.5],
               "n_values": [40], "estimators": ["nuclear_penalized"],
               "replicates": 2, "base_seed": 3,
               "solver_defaults": {"max_iters": 100},
               "lambda_grid": [0.01, 0.1]}
        config = sweep_config_from_dict(raw)
        assert config.shapes == (Shape(8, 8),)
        assert config.solver_defaults == {"max_iters": 100}
        assert config.lambda_grid == (0.01, 0.1)
        # every penalized cell selects its own weight, so a preset one would
        # be read by no estimator; the stop tolerance is not configurable
        for key in ("lambda", "lam", "rel_tol"):
            with pytest.raises(ValueError, match="unknown solver default"):
                sweep_config_from_dict(
                    dict(raw, solver_defaults={key: 0.05, "max_iters": 100}))

    def test_rejects_unknown_or_missing_keys(self):
        with pytest.raises(ValueError):
            sweep_config_from_dict({"shapes": [[4, 4]], "ranks": [1],
                                    "gammas": [1.0], "n_values": [10],
                                    "estimators": ["nuclear_penalized"],
                                    "bogus": 1})
        with pytest.raises(ValueError):
            sweep_config_from_dict({"shapes": [[4, 4]]})

    @pytest.mark.parametrize("key, value", [
        ("shapes", [[8, 8.5]]), ("ranks", [1.7]), ("n_values", [100.9, 200]),
        ("replicates", 1.9), ("base_seed", 0.5), ("replicates", "2"),
        ("n_values", [math.inf]), ("ranks", [True]), ("replicates", True),
        ("solver_defaults", {"max_iters": 40.5}),
        ("solver_defaults", {"max_iters": True}), ("ranks", (True,)),
        ("n_values", (40.5,))],
        ids=["shape_8.5", "rank_1.7", "n_100.9", "replicates_1.9",
             "base_seed_0.5", "replicates_str", "n_inf", "rank_true",
             "replicates_true", "max_iters_40.5", "max_iters_true",
             "rank_true_tuple", "n_40.5_tuple"])
    def test_rejects_counts_that_are_not_whole(self, key, value):
        raw = {"shapes": [[8, 8]], "ranks": [1], "gammas": [1.5],
               "n_values": [40], "estimators": ["nuclear_penalized"]}
        # a solver default is named with its key, solver_defaults.max_iters
        with pytest.raises(ValueError, match=f"{key}.* must be whole numbers"):
            sweep_config_from_dict(dict(raw, **{key: value}))
        # a config built in Python is checked the same way
        with pytest.raises(ValueError, match=f"{key}.* must be whole numbers"):
            SweepConfig(**dict(raw, **{key: value}))

    def test_absent_keys_take_the_dataclass_defaults(self):
        raw = {"shapes": [[8, 8]], "ranks": [1], "gammas": [1.5],
               "n_values": [40.0], "estimators": ["nuclear_penalized"]}
        config = sweep_config_from_dict(raw)
        assert config == SweepConfig(shapes=(Shape(8, 8),), ranks=(1,),
                                     gammas=(1.5,), n_values=(40,),
                                     estimators=("nuclear_penalized",))
        # a whole float reads as its integer
        assert type(config.n_values[0]) is int

    @pytest.mark.parametrize("key, value", [
        ("shapes", [8]), ("shapes", [[8, 8, 8]]), ("shapes", 8),
        ("ranks", 1), ("gammas", 1.5), ("n_values", 40),
        ("estimators", "nuclear_penalized"), ("lambda_grid", 0.1),
        ("solver_defaults", [["max_iters", 100]])],
        ids=["shapes_flat", "shapes_triple", "shapes_int", "ranks_int",
             "gammas_float", "n_values_int", "estimators_str",
             "lambda_grid_float", "solver_defaults_list"])
    def test_rejects_lists_that_are_not_lists(self, key, value):
        raw = {"shapes": [[8, 8]], "ranks": [1], "gammas": [1.5],
               "n_values": [40], "estimators": ["nuclear_penalized"]}
        with pytest.raises(ValueError, match=f"^{key} must be"):
            sweep_config_from_dict(dict(raw, **{key: value}))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SweepConfig(**dict(raw, **{key: value}))

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(replicates=0)
        with pytest.raises(ValueError):
            small_config(estimators=("bogus",))
        with pytest.raises(ValueError):
            small_config(solver_defaults={"gamma": 1.0})
        for gammas in ((-1.0,), (0.0,), (math.nan,), (math.inf,), ("1.5",),
                       (True,)):
            with pytest.raises(ValueError, match="gammas must be finite"):
                small_config(gammas=gammas)
        for grid in ((-0.1,), (0.1, 0.0), (math.nan,), (math.inf,), ("0.1",),
                     (True,)):
            with pytest.raises(ValueError, match="lambda_grid must be finite"):
                small_config(lambda_grid=grid)
        with pytest.raises(ValueError, match="lambda_grid must be nonempty"):
            small_config(lambda_grid=())
        # values are compared after they are read, so 1 and 1.0 repeat, and
        # so do a Shape and its pair
        with pytest.raises(ValueError, match="gammas repeats 1.0"):
            small_config(gammas=(1, 1.5, 1.0))
        with pytest.raises(ValueError, match="shapes repeats"):
            small_config(shapes=(Shape(8, 8), [8, 8.0]))
        with pytest.raises(ValueError, match="^shapes must be finite and pos"):
            small_config(shapes=([0, 8],))
        # a rank must fit every shape of the grid, not only the first
        for ranks, shapes in (((0,), (Shape(8, 8),)), ((9,), (Shape(8, 8),)),
                              ((1, 4), (Shape(8, 8), Shape(3, 10)))):
            with pytest.raises(ValueError, match="rank budget"):
                small_config(ranks=ranks, shapes=shapes)
        # an n that run_sweep could not sample or select a penalty on; the
        # bounds themselves pass
        with pytest.raises(ValueError, match="n 30 above the 24 entries of "
                                             "shape 4x6 under bernoulli_mask"):
            small_config(shapes=(Shape(8, 8), Shape(4, 6)), n_values=(20, 30),
                         sampling_scheme="bernoulli_mask")
        small_config(sampling_scheme="bernoulli_mask", n_values=(40, 64))
        with pytest.raises(ValueError, match="n 9 below the 10 samples"):
            small_config(estimators=("nuclear_constrained",
                                     "nuclear_penalized"), n_values=(40, 9))
        small_config(estimators=("nuclear_penalized",), n_values=(10,))

    def test_default_lambda_grid_spans_scaled_range(self):
        grid = default_lambda_grid(Shape(100, 100), 2000)
        scale = math.sqrt(200 / 2000)
        assert len(grid) == 10
        assert grid[0] == pytest.approx(1e-4 * scale)
        assert grid[-1] == pytest.approx(scale)
