import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from onebitmc import (SampleSet, Shape, SolverConfig, bayes_classifier,
                      clip_entries, generate_truth, neg_log_likelihood,
                      nll_gradient, nuclear_norm, refit_low_rank,
                      sample_observations, select_lambda, svd,
                      solve_maxnorm_constrained, solve_nuclear_constrained,
                      solve_nuclear_penalized)
from onebitmc.seeding import make_rng
from onebitmc.solvers import _REL_TOL, _project_ball_box

import oracles


def make_problem(m1=6, m2=6, r=2, gamma=1.5, n=80, seed=0,
                 generator="gaussian_factor"):
    truth = generate_truth(Shape(m1, m2), r, gamma, generator, seed)
    samples = sample_observations(truth, n, "iid_uniform", seed + 1000)
    return truth, samples


def make_2x2(seed, gamma=3.0, n=12):
    truth = generate_truth(Shape(2, 2), 1, gamma / 2, "gaussian_factor", seed)
    return sample_observations(truth, n, "iid_uniform", seed + 77)


class TestNuclearPenalized:
    def test_kkt_zero_solution(self):
        _, samples = make_problem(seed=4)
        lam = 1.01 * np.linalg.norm(nll_gradient(np.zeros((6, 6)), samples),
                                    ord=2)
        fit = solve_nuclear_penalized(samples, SolverConfig(gamma=1.5,
                                                            rank_hint=2,
                                                            lam=lam))
        assert np.linalg.norm(fit.estimate) <= 1e-6
        assert fit.converged

    def test_single_sample_saturates_box(self):
        s = SampleSet(indices=np.array([[0, 0]]), labels=np.array([1], np.int8),
                      scheme="iid_uniform", seed=0, shape=Shape(3, 3))
        fit = solve_nuclear_penalized(s, SolverConfig(gamma=2.0, rank_hint=1,
                                                      lam=0.0, max_iters=5000))
        assert fit.estimate[0, 0] == pytest.approx(2.0, abs=1e-9)
        others = fit.estimate.copy()
        others[0, 0] = 0.0
        assert np.all(others == 0.0)

    def test_matches_grid_oracle(self):
        gamma, lam = 3.0, 0.05
        for seed in range(6):
            samples = make_2x2(seed, gamma=gamma)
            fit = solve_nuclear_penalized(
                samples, SolverConfig(gamma=gamma, rank_hint=1, lam=lam))
            achieved = (neg_log_likelihood(fit.estimate, samples)
                        + lam * nuclear_norm(fit.estimate))
            _, oracle_val = oracles.oracle_penalized(samples, gamma, lam)
            assert achieved <= oracle_val + 1e-4

    def test_box_feasible_exactly(self):
        _, samples = make_problem(seed=9, n=60)
        fit = solve_nuclear_penalized(samples, SolverConfig(gamma=0.8,
                                                            rank_hint=2,
                                                            lam=0.01))
        assert np.max(np.abs(fit.estimate)) <= 0.8

    def test_shrinkage_path_monotone(self):
        _, samples = make_problem(seed=12, n=100)
        norms = []
        for lam in (0.01, 0.05, 0.2, 0.8):
            fit = solve_nuclear_penalized(
                samples, SolverConfig(gamma=1.5, rank_hint=2, lam=lam))
            norms.append(nuclear_norm(fit.estimate))
        assert all(norms[i] >= norms[i + 1] - 1e-6 for i in range(len(norms) - 1))


class TestNuclearConstrained:
    def test_inactive_constraints_match_gradient_descent(self):
        _, samples = make_problem(seed=5, n=70)
        cfg = SolverConfig(gamma=1e9, rank_hint=2, max_iters=200)
        fit = solve_nuclear_constrained(samples, cfg)

        # plain gradient descent with the identical stepping policy
        X, trace = oracles.gradient_descent_reference(samples, cfg)

        assert np.max(np.abs(fit.estimate - X)) <= 1e-8
        assert np.allclose(fit.objective_trace, trace, atol=1e-12)

    def test_matches_grid_oracle(self):
        gamma, r = 3.0, 1
        radius = gamma * math.sqrt(r * 4)
        for seed in range(6):
            samples = make_2x2(seed, gamma=gamma)
            fit = solve_nuclear_constrained(
                samples, SolverConfig(gamma=gamma, rank_hint=r))
            achieved = neg_log_likelihood(fit.estimate, samples)
            _, oracle_val = oracles.oracle_nuclear_constrained(samples, gamma,
                                                               radius)
            assert achieved <= oracle_val + 1e-3

    def test_final_feasibility(self):
        for seed in range(4):
            _, samples = make_problem(seed=seed, n=90, gamma=0.6)
            cfg = SolverConfig(gamma=0.6, rank_hint=1)
            fit = solve_nuclear_constrained(samples, cfg)
            radius = 0.6 * math.sqrt(1 * 36)
            assert fit.feasibility_report.nuclear_norm <= radius * (1 + 1e-6)
            assert np.max(np.abs(fit.estimate)) <= 0.6

    def test_projection_lands_in_both_sets(self):
        # Dykstra stops on its sweep cap a hair outside the ball on all of these
        rng = make_rng(17)
        for _ in range(20):
            X = _project_ball_box(3.0 * rng.standard_normal((20, 16)), 20.0, 1.0)
            assert np.max(np.abs(X)) <= 1.0
            assert nuclear_norm(X) <= 20.0 * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(50, 54))
    def test_trace_ends_at_the_feasible_estimate(self, seed):
        _, samples = make_problem(m1=20, m2=16, n=400, seed=seed,
                                  generator="block_sign")
        fit = solve_nuclear_constrained(samples,
                                        SolverConfig(gamma=1.5, rank_hint=2))
        radius = 1.5 * math.sqrt(2 * 20 * 16)
        assert fit.objective_trace[-1] == neg_log_likelihood(fit.estimate,
                                                             samples)
        assert nuclear_norm(fit.estimate) <= radius * (1 + 1e-12)
        assert fit.feasibility_report.nuclear_norm <= radius * (1 + 1e-12)


def rejected_candidates(fit, cfg):
    """Candidates a penalized or constrained fit rejected, from its work counter.

    work counts the likelihood at the start, one gradient per started
    iteration and one likelihood per candidate.  A fit that stopped because
    no step descended started one iteration more than it accepted.
    """
    trace = fit.objective_trace
    stalled = fit.iterations < cfg.max_iters and (
        fit.iterations == 0 or abs(trace[-1] - trace[-2])
        > _REL_TOL * max(1.0, abs(trace[-2])))
    return fit.work - 1 - 2 * fit.iterations - int(stalled)


class TestBacktrackBudget:
    """A fit that ends by the _REL_TOL stop rejects few candidates.

    A rejection either undoes a try to grow the step, and tries back off
    exponentially while they fail, or halves the step for good, which can
    happen at most 54 times more than the step grew before it falls below
    step0 * 1e-16.  A step that grew back before every iteration rejected
    120, 135, 72 and 59 candidates on the penalized and constrained
    instances, and 92, 100 and 35 in the factor steps.
    """

    @staticmethod
    def pinned(m, n):
        truth = generate_truth(Shape(m, m), 2, 1.5, "block_sign", 1)
        return sample_observations(truth, n, "iid_uniform", 101)

    @pytest.mark.parametrize("m, n, lam", [(20, 200, 0.003), (30, 300, 0.002),
                                           (30, 900, 0.002)])
    def test_penalized(self, m, n, lam):
        cfg = SolverConfig(gamma=1.5, rank_hint=2, lam=lam, max_iters=300)
        fit = solve_nuclear_penalized(self.pinned(m, n), cfg)
        assert fit.iterations >= 50
        assert 0 <= rejected_candidates(fit, cfg) <= 54

    def test_constrained(self):
        cfg = SolverConfig(gamma=1.5, rank_hint=2, max_iters=300)
        fit = solve_nuclear_constrained(self.pinned(30, 900), cfg)
        assert fit.iterations >= 10
        assert 0 <= rejected_candidates(fit, cfg) <= 54

    @pytest.mark.parametrize("case", [0, 1, "refit"])
    def test_factor_steps(self, case):
        if case == "refit":
            samples, cfg, X, _ = refit_problems()[4]
            fit = refit_low_rank(samples, X, cfg)
        else:
            truth = generate_truth(Shape(30, 30), 2, 1.5, "block_sign", case)
            samples = sample_observations(truth, 540, "iid_uniform",
                                          100 + case)
            fit = solve_maxnorm_constrained(
                samples, SolverConfig(gamma=1.5, rank_hint=2))
        assert fit.iterations >= 10
        # work counts the likelihood at the start, then per iteration
        # two gradients and at least one candidate per half step
        assert fit.work - 1 - 4 * fit.iterations <= 30

    def test_constrained_step_grows_back(self):
        # the logistic curvature falls as the iterate grows, so the right
        # step rises; a step that never grew took 45 iterations here
        truth = generate_truth(Shape(30, 30), 2, 1.5, "block_sign", 0)
        samples = sample_observations(truth, 540, "iid_uniform", 100)
        cfg = SolverConfig(gamma=1.5, rank_hint=2)
        fit = solve_nuclear_constrained(samples, cfg)
        assert fit.converged and fit.iterations <= 30
        assert rejected_candidates(fit, cfg) <= 10


class TestFeasibilityReport:
    @pytest.mark.parametrize("solver, lam", [(solve_nuclear_penalized, 0.02),
                                             (solve_nuclear_constrained, 0.0),
                                             (solve_maxnorm_constrained, 0.0),
                                             (refit_low_rank, 0.02)])
    def test_figures_from_one_svd(self, solver, lam):
        gamma, r = 1.5, 1
        for seed in range(3):
            _, samples = make_problem(m1=8, m2=6, seed=seed, n=120)
            cfg = SolverConfig(gamma=gamma, rank_hint=r, lam=lam, max_iters=200)
            if solver is refit_low_rank:
                fit = refit_low_rank(
                    samples, solve_nuclear_penalized(samples, cfg).estimate, cfg)
            else:
                fit = solver(samples, cfg)
            X, rep = fit.estimate, fit.feasibility_report
            assert rep.nuclear_norm == pytest.approx(
                scipy.linalg.svdvals(X).sum(), rel=1e-10)
            if solver in (solve_nuclear_penalized, solve_nuclear_constrained):
                assert rep.maxnorm_upper_bound == pytest.approx(
                    oracles.balanced_maxnorm_bound(X), rel=1e-12)
                assert rep.inf_norm_violation == max(
                    0.0, float(np.max(np.abs(X))) - gamma)
            else:
                # factor fits report their row-norm certificate and the
                # violation of the product before the clip
                assert rep.maxnorm_upper_bound <= (gamma * math.sqrt(r)
                                                   * (1 + 1e-12))
                assert rep.inf_norm_violation >= 0.0


class TestMaxnormConstrained:
    def test_certified_bound_holds(self):
        _, samples = make_problem(seed=3, n=100)
        cfg = SolverConfig(gamma=1.5, rank_hint=2)
        fit = solve_maxnorm_constrained(samples, cfg)
        limit = 1.5 * math.sqrt(2)
        assert fit.feasibility_report.maxnorm_upper_bound <= limit * (1 + 1e-9)
        assert np.max(np.abs(fit.estimate)) <= 1.5

    def test_matches_box_oracle(self):
        gamma = 3.0
        for seed in range(6):
            samples = make_2x2(seed, gamma=gamma)
            # rank hint 2 makes the max-norm radius cover the whole box, so
            # the reference is the likelihood minimum over the box alone
            fit = solve_maxnorm_constrained(
                samples, SolverConfig(gamma=gamma, rank_hint=2))
            achieved = neg_log_likelihood(fit.estimate, samples)
            _, oracle_val = oracles.oracle_box_only(samples, gamma)
            assert achieved <= oracle_val + 1e-3

    def test_huge_bound_matches_unpenalized(self):
        _, samples = make_problem(m1=4, m2=4, r=1, gamma=1.0, n=300, seed=21)
        big = 1e6
        loose = SolverConfig(gamma=big, rank_hint=2, max_iters=4000)
        fit_factored = solve_maxnorm_constrained(samples, loose)
        fit_plain = solve_nuclear_penalized(
            samples, SolverConfig(gamma=big, rank_hint=1, lam=0.0,
                                  max_iters=4000))
        obj_factored = neg_log_likelihood(fit_factored.estimate, samples)
        obj_plain = neg_log_likelihood(fit_plain.estimate, samples)
        assert abs(obj_factored - obj_plain) <= 1e-4

    def test_matches_alternating_reference(self):
        # the fit is one descent from the seeded start
        for seed, rank in ((0, 2), (1, 2), (2, 1)):
            _, samples = make_problem(m1=8, m2=6, n=200, seed=seed,
                                      generator="block_sign")
            cfg = SolverConfig(gamma=1.5, rank_hint=rank, seed=seed + 11)
            U, V = oracles.seeded_gaussian_start(
                samples.shape, cfg.gamma, 2 * rank, cfg.seed)
            assert_matches_alternating_reference(
                solve_maxnorm_constrained(samples, cfg), samples, cfg, U, V)

    def test_recovers_block_sign_pattern(self):
        m, gamma = 40, 1.5
        matches = []
        for seed in range(10):
            truth = generate_truth(Shape(m, m), 1, gamma, "block_sign", seed)
            samples = sample_observations(truth, int(0.8 * m * m),
                                          "iid_uniform", seed + 500)
            fit = solve_maxnorm_constrained(
                samples, SolverConfig(gamma=gamma, rank_hint=1, seed=seed))
            agree = np.mean(bayes_classifier(fit.estimate)
                            == bayes_classifier(truth.entries))
            matches.append(agree)
        assert np.median(matches) >= 0.95


def assert_matches_alternating_reference(fit, samples, cfg, U, V):
    """fit equals oracles.alternating_descent_reference from (U, V)."""
    product, trace, work = oracles.alternating_descent_reference(
        samples, cfg, U, V)
    expected = np.clip(product, -cfg.gamma, cfg.gamma)
    assert np.max(np.abs(fit.estimate - expected)) <= 1e-12
    assert fit.objective_trace.size == len(trace)
    assert np.max(np.abs(fit.objective_trace - trace)) <= 1e-12
    assert fit.work == work


def refit_problems():
    """Penalized fits to refit, as (samples, config, penalized estimate, clip).

    The first four are oversampled (about 40 labels per entry) with the truth
    well inside a loose box, so the rank-2 likelihood minimizer lies inside
    the box and the final clip is inactive; the last two are sparse block-sign
    instances whose refit product the clip does cut back (clip=True).
    """
    problems = []
    for seed in range(4):
        _, samples = make_problem(m1=8, m2=6, gamma=1.0, n=2000, seed=seed)
        problems.append((samples, SolverConfig(gamma=3.0, rank_hint=2,
                                               lam=0.003), False))
    for seed in range(2):
        _, samples = make_problem(m1=12, m2=10, n=240, seed=seed,
                                  generator="block_sign")
        problems.append((samples, SolverConfig(gamma=1.5, rank_hint=2,
                                               lam=0.02), True))
    return [(s, c, solve_nuclear_penalized(s, c).estimate, clip)
            for s, c, clip in problems]


class TestRefitLowRank:
    def test_rank_and_box(self):
        for samples, cfg, X, clip in refit_problems():
            fit = refit_low_rank(samples, X, cfg)
            assert np.max(np.abs(fit.estimate)) <= cfg.gamma
            assert (fit.feasibility_report.inf_norm_violation > 0.0) == clip
            if not clip:
                assert np.linalg.matrix_rank(fit.estimate) <= cfg.rank_hint

    def test_monotone_trace(self):
        for samples, cfg, X, _ in refit_problems():
            trace = refit_low_rank(samples, X, cfg).objective_trace
            assert trace.size >= 2
            assert np.all(np.diff(trace) <= 1e-10)

    def test_deterministic(self):
        for samples, cfg, X, _ in refit_problems()[::4]:
            a = refit_low_rank(samples, X, cfg)
            b = refit_low_rank(samples, X, replace(cfg, seed=cfg.seed + 1))
            assert a.estimate.tobytes() == b.estimate.tobytes()
            assert a.objective_trace.tobytes() == b.objective_trace.tobytes()
            assert (a.iterations, a.converged, a.work) == \
                (b.iterations, b.converged, b.work)

    def test_matches_alternating_reference(self):
        for samples, cfg, X, _ in refit_problems():
            r = cfg.rank_hint
            u, s, v = oracles.signed_svd(X)
            root = np.sqrt(s[:r])
            assert_matches_alternating_reference(
                refit_low_rank(samples, X, cfg), samples, cfg,
                u[:, :r] * root, v[:, :r] * root)

    def test_rejects_mismatched_shape(self):
        _, samples = make_problem(seed=2, n=50)
        with pytest.raises(ValueError):
            refit_low_rank(samples, np.zeros((6, 5)),
                           SolverConfig(gamma=1.5, rank_hint=2))

    def test_no_worse_than_clipped_truncation(self):
        for samples, cfg, X, _ in refit_problems():
            r = cfg.rank_hint
            t = svd(X)
            start, _ = clip_entries(
                (t.left[:, :r] * t.singular_values[:r]) @ t.right[:, :r].T,
                cfg.gamma)
            fit = refit_low_rank(samples, X, cfg)
            assert (neg_log_likelihood(fit.estimate, samples)
                    <= neg_log_likelihood(start, samples))


class TestSharedContracts:
    def test_monotone_traces(self):
        rng = make_rng(31)
        solvers = (lambda s: solve_nuclear_penalized(
                       s, SolverConfig(gamma=1.2, rank_hint=2, lam=0.05)),
                   lambda s: solve_nuclear_constrained(
                       s, SolverConfig(gamma=1.2, rank_hint=2)),
                   lambda s: solve_maxnorm_constrained(
                       s, SolverConfig(gamma=1.2, rank_hint=2)))
        for i in range(5):
            _, samples = make_problem(seed=int(rng.integers(2 ** 31)), n=60,
                                      gamma=1.2)
            for solve in solvers:
                trace = solve(samples).objective_trace
                assert np.all(np.diff(trace) <= 1e-10)

    def test_deterministic_fit(self):
        _, samples = make_problem(seed=8, n=90)
        for solve, cfg in (
                (solve_nuclear_penalized,
                 SolverConfig(gamma=1.5, rank_hint=2, lam=0.03)),
                (solve_nuclear_constrained,
                 SolverConfig(gamma=1.5, rank_hint=2)),
                (solve_maxnorm_constrained,
                 SolverConfig(gamma=1.5, rank_hint=2, seed=5))):
            a = solve(samples, cfg)
            b = solve(samples, cfg)
            assert np.array_equal(a.estimate, b.estimate)
            assert np.array_equal(a.objective_trace, b.objective_trace)
            assert a.iterations == b.iterations
            assert a.work == b.work

    @pytest.mark.parametrize("fit", [
        pytest.param(solve_nuclear_penalized, id="nuclear_penalized"),
        pytest.param(solve_nuclear_constrained, id="nuclear_constrained"),
        pytest.param(solve_maxnorm_constrained, id="maxnorm_constrained"),
        pytest.param(lambda s, cfg: refit_low_rank(s, np.ones((3, 3)), cfg),
                     id="refit_low_rank")])
    def test_rejects_empty_samples(self, fit):
        s = SampleSet(indices=np.zeros((0, 2), np.int64),
                      labels=np.zeros(0, np.int8), scheme="iid_uniform",
                      seed=0, shape=Shape(3, 3))
        with pytest.raises(ValueError, match="sample set is empty"):
            fit(s, SolverConfig(gamma=1.0, rank_hint=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=-1.0, rank_hint=1)
        for bad in (dict(rank_hint=1.5), dict(rank_hint=True),
                    dict(rank_hint=1, max_iters=40.5),
                    dict(rank_hint=1, max_iters=True),
                    dict(rank_hint=1, seed=0.5), dict(rank_hint=1, seed=True)):
            with pytest.raises(ValueError, match="must be an int"):
                SolverConfig(gamma=1.5, **bad)
        for bad in (dict(gamma=math.nan), dict(gamma=math.inf),
                    dict(gamma=1.0, lam=math.nan), dict(gamma=1.0, lam=math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                SolverConfig(rank_hint=1, **bad)


class TestSelectLambda:
    def test_single_value_grid(self):
        _, samples = make_problem(seed=2, n=50)
        cfg = SolverConfig(gamma=1.5, rank_hint=2)
        assert select_lambda(samples, cfg, [0.3]) == 0.3

    def test_strong_signal_prefers_small_lambda(self):
        truth = generate_truth(Shape(6, 6), 1, 2.0, "block_sign", 14)
        samples = sample_observations(truth, 120, "iid_uniform", 15)
        cfg = SolverConfig(gamma=2.0, rank_hint=1)
        assert select_lambda(samples, cfg, [1e-6, 1e6]) == 1e-6

    def test_order_independent(self):
        _, samples = make_problem(seed=6, n=60)
        cfg = SolverConfig(gamma=1.5, rank_hint=2)
        grid = [0.001, 0.01, 0.1, 1.0]
        forward = select_lambda(samples, cfg, grid)
        backward = select_lambda(samples, cfg, grid[::-1])
        assert forward == backward

    def test_rejects_bad_inputs(self):
        _, samples = make_problem(seed=2, n=50)
        cfg = SolverConfig(gamma=1.5, rank_hint=2)
        with pytest.raises(ValueError):
            select_lambda(samples, cfg, [])
        with pytest.raises(ValueError):
            select_lambda(samples, cfg, [-0.1])
        small = SampleSet(indices=samples.indices[:5], labels=samples.labels[:5],
                          scheme=samples.scheme, seed=0, shape=samples.shape)
        with pytest.raises(ValueError):
            select_lambda(small, cfg, [0.1])
