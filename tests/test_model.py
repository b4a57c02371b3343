import math

import numpy as np
import pytest
from scipy import stats

from onebitmc import (Shape, generate_truth, logistic_link,
                      neg_log_likelihood, nll_gradient, sample_observations)
from onebitmc.seeding import make_rng

from oracles import fd_gradient, scatter_gradient, softplus_nll


class TestLogisticLink:
    def test_zero_is_half(self):
        assert logistic_link(0.0) == 0.5

    def test_log_nine(self):
        assert logistic_link(math.log(9)) == pytest.approx(0.9, abs=1e-15)

    def test_large_negative_no_underflow(self):
        p = logistic_link(-50.0)
        assert 0.0 < p < 1e-20

    def test_large_positive_no_overflow(self):
        assert logistic_link(710.0) == 1.0  # saturates without warning

    def test_symmetry(self):
        xs = np.linspace(-30, 30, 401)
        total = logistic_link(xs) + logistic_link(-xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_strictly_increasing(self):
        xs = np.linspace(-20, 20, 200)
        assert np.all(np.diff(logistic_link(xs)) > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            logistic_link(np.inf)
        with pytest.raises(ValueError):
            logistic_link(np.array([0.0, np.nan]))


class TestShape:
    def test_derived_quantities(self):
        s = Shape(3, 7)
        assert (s.d, s.max_dim, s.min_dim, s.n_entries) == (10, 7, 3, 21)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Shape(0, 4)
        # a float or bool dimension would build a truth of its int() size
        for m1, m2, dims in ((8, 8.5, "8x8.5"), (True, 8, "Truex8"),
                             (8.0, 8, "8.0x8")):
            with pytest.raises(ValueError,
                               match=f"must be positive ints, got {dims}"):
                Shape(m1, m2)


class TestGenerateTruth:
    def test_block_sign_rank_one(self):
        t = generate_truth(Shape(4, 4), 1, 2.0, "block_sign", 11)
        assert np.all(np.abs(t.entries) == 2.0)
        assert t.margin_tau == 2.0
        s = np.linalg.svd(t.entries, compute_uv=False)
        assert s[1] <= 1e-8 * s[0]

    def test_gaussian_peak_is_gamma(self):
        t = generate_truth(Shape(6, 6), 2, 1.0, "gaussian_factor", 5)
        assert np.max(np.abs(t.entries)) == pytest.approx(1.0, abs=1e-15)
        assert t.margin_tau == np.min(np.abs(t.entries))

    def test_block_sign_exact_rank(self):
        t = generate_truth(Shape(50, 40), 3, 1.5, "block_sign", 9)
        s = np.linalg.svd(t.entries, compute_uv=False)
        assert s[2] > 0
        assert s[3] <= 1e-8 * s[0]
        assert np.all(np.abs(t.entries) == 1.5)

    def test_rank_budget_respected(self):
        for seed in range(5):
            t = generate_truth(Shape(12, 9), 4, 0.7, "gaussian_factor", seed)
            s = np.linalg.svd(t.entries, compute_uv=False)
            assert s[4] <= 1e-8 * s[0]
            assert np.max(np.abs(t.entries)) <= 0.7 + 1e-12

    def test_rejects_rank_above_min_dim(self):
        with pytest.raises(ValueError):
            generate_truth(Shape(4, 3), 4, 1.0, "block_sign", 0)

    def test_rejects_bad_generator(self):
        with pytest.raises(ValueError):
            generate_truth(Shape(4, 4), 1, 1.0, "bogus", 0)

    def test_deterministic(self):
        a = generate_truth(Shape(8, 8), 2, 1.0, "gaussian_factor", 77)
        b = generate_truth(Shape(8, 8), 2, 1.0, "gaussian_factor", 77)
        assert np.array_equal(a.entries, b.entries)


class TestSampleSetTake:
    def test_selects_in_the_given_order(self):
        t = generate_truth(Shape(4, 5), 1, 1.0, "block_sign", 1)
        s = sample_observations(t, 12, "iid_uniform", 2)
        idx = np.array([7, 0, 7, 11, 3])
        part = s.take(idx)
        assert np.array_equal(part.indices, s.indices[idx])
        assert np.array_equal(part.labels, s.labels[idx])
        assert part.indices.dtype == s.indices.dtype
        assert part.labels.dtype == s.labels.dtype
        assert (part.scheme, part.seed, part.shape, part.n) == \
            (s.scheme, s.seed, s.shape, 5)

    def test_flat_index_is_recomputed_for_every_set(self):
        t = generate_truth(Shape(6, 9), 2, 1.0, "gaussian_factor", 4)
        s = sample_observations(t, 50, "iid_uniform", 6)
        assert np.array_equal(s.flat, s.rows * 9 + s.cols)
        # s.flat is cached before the take; the part must not reuse it
        for idx in (np.array([3, 3, 0, 49]), np.arange(50)[::-1],
                    np.arange(0)):
            part = s.take(idx)
            assert np.array_equal(part.flat,
                                  part.indices[:, 0] * 9 + part.indices[:, 1])

    def test_split_covers_the_samples_and_leaves_them_unchanged(self):
        t = generate_truth(Shape(8, 8), 2, 1.0, "gaussian_factor", 3)
        s = sample_observations(t, 40, "bernoulli_mask", 4)
        before = s.indices.copy()
        perm = make_rng(5).permutation(s.n)
        head, tail = s.take(perm[:30]), s.take(perm[30:])
        assert head.n + tail.n == s.n
        merged = np.concatenate([head.indices, tail.indices])
        assert np.array_equal(merged[np.argsort(perm)], s.indices)
        assert np.array_equal(s.indices, before)
        assert s.take(np.arange(0)).n == 0


class TestSampleObservations:
    def test_saturated_link_all_positive(self):
        from onebitmc import TruthMatrix
        truth = TruthMatrix(entries=np.full((5, 5), 50.0), rank_budget=1,
                            gamma=50.0, margin_tau=50.0,
                            generator_tag="block_sign")
        s = sample_observations(truth, 100, "iid_uniform", 4)
        assert np.all(s.labels == 1)

    def test_deterministic(self):
        t = generate_truth(Shape(6, 7), 2, 1.0, "gaussian_factor", 2)
        a = sample_observations(t, 40, "iid_uniform", 9)
        b = sample_observations(t, 40, "iid_uniform", 9)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_truth_label_balance(self):
        from onebitmc import TruthMatrix
        truth = TruthMatrix(entries=np.zeros((10, 10)), rank_budget=1,
                            gamma=1.0, margin_tau=0.0, generator_tag="block_sign")
        s = sample_observations(truth, 10 ** 5, "iid_uniform", 13)
        frac = np.mean(s.labels == 1)
        assert abs(frac - 0.5) <= 0.005  # 3 sigma binomial band at p = 1/2

    def test_indices_in_range(self):
        t = generate_truth(Shape(7, 3), 1, 1.0, "block_sign", 3)
        s = sample_observations(t, 500, "iid_uniform", 8)
        assert s.rows.min() >= 0 and s.rows.max() < 7
        assert s.cols.min() >= 0 and s.cols.max() < 3

    def test_bernoulli_mask_distinct_and_sized(self):
        t = generate_truth(Shape(20, 20), 2, 1.0, "block_sign", 6)
        s = sample_observations(t, 200, "bernoulli_mask", 21)
        flat = s.rows * 20 + s.cols
        assert len(np.unique(flat)) == s.n
        assert abs(s.n - 200) < 4 * math.sqrt(200)  # count concentrates near n

    def test_invalid_counts(self):
        t = generate_truth(Shape(4, 4), 1, 1.0, "block_sign", 0)
        with pytest.raises(ValueError):
            sample_observations(t, 0, "iid_uniform", 0)
        with pytest.raises(ValueError):
            sample_observations(t, 17, "bernoulli_mask", 0)

    def test_iid_uniform_chi_square(self):
        t = generate_truth(Shape(20, 25), 1, 1.0, "block_sign", 5)
        draws = 10 ** 6
        s = sample_observations(t, draws, "iid_uniform", 123)
        counts = np.bincount(s.rows * 25 + s.cols, minlength=500)
        expected = draws / 500
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(1 - 1e-3, df=499)


def _random_problem(rng, m1=5, m2=5, n=30):
    t = generate_truth(Shape(m1, m2), 2, 1.0, "gaussian_factor",
                       int(rng.integers(2 ** 32)))
    s = sample_observations(t, n, "iid_uniform", int(rng.integers(2 ** 32)))
    X = rng.standard_normal((m1, m2))
    return X, s


class TestNegLogLikelihood:
    def test_zero_matrix_is_log_two(self):
        t = generate_truth(Shape(4, 5), 1, 1.0, "block_sign", 1)
        s = sample_observations(t, 25, "iid_uniform", 2)
        assert neg_log_likelihood(np.zeros((4, 5)), s) == pytest.approx(
            math.log(2), abs=1e-15)

    def test_single_sample_analytic(self):
        from onebitmc import SampleSet
        s = SampleSet(indices=np.array([[1, 1]]), labels=np.array([1], np.int8),
                      scheme="iid_uniform", seed=0, shape=Shape(3, 3))
        X = np.zeros((3, 3))
        X[1, 1] = math.log(9)
        assert neg_log_likelihood(X, s) == pytest.approx(-math.log(0.9),
                                                         abs=1e-15)

    def test_matches_naive_extended_precision(self):
        rng = make_rng(42)
        for _ in range(5):
            X, s = _random_problem(rng)
            naive = np.longdouble(0)
            for (i, j), y in zip(s.indices, s.labels):
                x = np.longdouble(X[i, j])
                p = np.exp(x) / (1 + np.exp(x))
                naive += -np.log(p) if y == 1 else -np.log(1 - p)
            naive /= s.n
            assert abs(neg_log_likelihood(X, s) - float(naive)) <= 1e-12

    def test_shape_mismatch(self):
        t = generate_truth(Shape(4, 4), 1, 1.0, "block_sign", 1)
        s = sample_observations(t, 10, "iid_uniform", 2)
        with pytest.raises(ValueError):
            neg_log_likelihood(np.zeros((4, 5)), s)

    def test_convex_along_segments(self):
        rng = make_rng(7)
        for _ in range(20):
            X1, s = _random_problem(rng)
            X2 = rng.standard_normal(X1.shape)
            t = float(rng.uniform(0.05, 0.95))
            mid = neg_log_likelihood(t * X1 + (1 - t) * X2, s)
            bound = (t * neg_log_likelihood(X1, s)
                     + (1 - t) * neg_log_likelihood(X2, s))
            assert mid <= bound + 1e-12


class TestNllGradient:
    def test_positive_sample_at_zero(self):
        from onebitmc import SampleSet
        s = SampleSet(indices=np.array([[1, 1]]), labels=np.array([1], np.int8),
                      scheme="iid_uniform", seed=0, shape=Shape(3, 3))
        g = nll_gradient(np.zeros((3, 3)), s)
        assert g[1, 1] == -0.5
        assert np.count_nonzero(g) == 1

    def test_negative_sample_at_zero(self):
        from onebitmc import SampleSet
        s = SampleSet(indices=np.array([[2, 3]]), labels=np.array([-1], np.int8),
                      scheme="iid_uniform", seed=0, shape=Shape(4, 5))
        g = nll_gradient(np.zeros((4, 5)), s)
        assert g[2, 3] == 0.5
        assert np.count_nonzero(g) == 1

    def test_matches_finite_differences(self):
        rng = make_rng(3)
        X, s = _random_problem(rng, m1=8, m2=6, n=40)
        g = nll_gradient(X, s)
        fd = fd_gradient(lambda M: neg_log_likelihood(M, s), X)
        mask = np.abs(fd) > 1e-12
        rel = np.abs(g[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() <= 1e-5
        assert np.all(np.abs(g[~mask]) <= 1e-12)

    def test_zero_at_unsampled_entries(self):
        rng = make_rng(11)
        X, s = _random_problem(rng, m1=6, m2=6, n=8)
        g = nll_gradient(X, s)
        sampled = np.zeros((6, 6), bool)
        sampled[s.rows, s.cols] = True
        assert np.all(g[~sampled] == 0)

    def test_shape_mismatch(self):
        t = generate_truth(Shape(4, 4), 1, 1.0, "block_sign", 1)
        s = sample_observations(t, 10, "iid_uniform", 2)
        with pytest.raises(ValueError):
            nll_gradient(np.zeros((5, 4)), s)

    def test_bit_equal_to_scatter_add_with_repeats(self):
        # 3000 draws over 7x5 entries: every entry is hit many times, in an
        # order that interleaves entries
        rng = make_rng(17)
        X, s = _random_problem(rng, m1=7, m2=5, n=3000)
        assert np.unique(s.indices, axis=0).shape[0] < s.n
        assert np.array_equal(nll_gradient(X, s), scatter_gradient(X, s))


def _same_bytes(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestKernelsBitForBit:
    """The in-place kernels against out-of-place references, byte for byte."""

    @staticmethod
    def _check(X, s):
        assert _same_bytes(nll_gradient(X, s), scatter_gradient(X, s))
        assert _same_bytes(neg_log_likelihood(X, s), softplus_nll(X, s))

    def test_repeated_indices(self):
        rng = make_rng(23)
        X, s = _random_problem(rng, m1=9, m2=4, n=2000)
        assert np.unique(s.flat).size < s.n
        self._check(5 * X, s)

    def test_sampled_zeros_and_thirties(self):
        rng = make_rng(29)
        X, s = _random_problem(rng, m1=12, m2=10, n=400)
        X[s.rows, s.cols] = rng.choice([0.0, -0.0, 30.0, -30.0], size=s.n)
        self._check(X, s)
        self._check(np.zeros_like(X), s)

    def test_bernoulli_mask(self):
        t = generate_truth(Shape(15, 11), 2, 1.5, "gaussian_factor", 8)
        s = sample_observations(t, 80, "bernoulli_mask", 9)
        self._check(make_rng(31).standard_normal((15, 11)), s)

    def test_fortran_and_transposed_matrices(self):
        rng = make_rng(37)
        X, s = _random_problem(rng, m1=7, m2=11, n=300)
        fortran = np.asfortranarray(X)
        transposed = np.ascontiguousarray(X.T).T
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert transposed.base is not None and not transposed.flags.c_contiguous
        for view in (fortran, transposed):
            self._check(view, s)
            assert _same_bytes(nll_gradient(view, s), nll_gradient(X, s))
            assert _same_bytes(neg_log_likelihood(view, s),
                               neg_log_likelihood(X, s))
