import numpy as np
import pytest

from onebitmc import (Shape, clip_entries, generate_truth, nuclear_norm,
                      project_factor_rows, project_nuclear_ball, svd, svt_prox)
from onebitmc.seeding import make_rng
from onebitmc.spectral import _project_simplex

import oracles


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


class TestSvd:
    def test_diagonal(self):
        t = svd(np.diag([3.0, 1.0]))
        assert np.allclose(t.singular_values, [3.0, 1.0])

    def test_zero_matrix(self):
        t = svd(np.zeros((4, 3)))
        assert np.all(t.singular_values == 0)

    def test_reconstruction(self):
        rng = make_rng(1)
        X = rng.standard_normal((7, 5))
        t = svd(X)
        err = np.linalg.norm(t.reconstruct() - X) / np.linalg.norm(X)
        assert err <= 1e-10

    def test_orthonormal_columns(self):
        rng = make_rng(2)
        X = rng.standard_normal((6, 4))
        t = svd(X)
        k = t.singular_values.size
        assert np.linalg.norm(t.left.T @ t.left - np.eye(k)) <= 1e-8
        assert np.linalg.norm(t.right.T @ t.right - np.eye(k)) <= 1e-8

    def test_descending_and_sign_convention(self):
        rng = make_rng(3)
        X = rng.standard_normal((5, 5))
        t = svd(X)
        assert np.all(np.diff(t.singular_values) <= 0)
        for k in range(5):
            col = t.left[:, k]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] >= 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan]]))


def sign_convention_inputs():
    """Named matrices on which the sign convention has edge cases to get right."""
    rng = make_rng(13)
    block = np.zeros((6, 6))
    block[:2, :2] = [[3.0, 1.0], [1.0, -2.0]]
    block[2:, 2:] = -rng.standard_normal((4, 4))
    tiny_lead = rng.standard_normal((6, 5))
    tiny_lead[0] = 1e-17 * rng.standard_normal(5)
    rank_deficient = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
    return {"block_diagonal": block, "tiny_leading_entries": tiny_lead,
            "zero": np.zeros((5, 4)), "rank_deficient": rank_deficient,
            "wide": rng.standard_normal((4, 9)),
            "tall": rng.standard_normal((9, 4))}


class TestSignConvention:
    @pytest.mark.parametrize("name", sorted(sign_convention_inputs()))
    def test_matches_column_loop_exactly(self, name):
        X = sign_convention_inputs()[name]
        t = svd(X)
        left, values, right = oracles.signed_svd(X)
        assert np.array_equal(t.left, left)
        assert np.array_equal(t.singular_values, values)
        assert np.array_equal(t.right, right)

    def test_inputs_reach_every_branch(self):
        # some column is flipped, some is not, and on the tiny-lead input the
        # leading entry below the threshold is not the one that decides
        flipped = kept = 0
        for X in sign_convention_inputs().values():
            raw = np.linalg.svd(X, full_matrices=False)[0]
            same = np.all(raw == svd(X).left, axis=0)
            kept += int(same.sum())
            flipped += int((~same).sum())
        assert flipped and kept
        X = sign_convention_inputs()["tiny_leading_entries"]
        left = svd(X).left
        assert np.any(left[0] < 0) and np.all(left[1] >= 0)

    def test_prox_and_projection_equal_rebuild_from_public_svd(self):
        rng = make_rng(14)
        for shape in ((6, 6), (4, 9), (9, 4)):
            Z = rng.standard_normal(shape) * 2.0
            t = svd(Z)
            shrunk = np.maximum(t.singular_values - 0.8, 0.0)
            assert np.array_equal(svt_prox(Z, 0.8),
                                  (t.left * shrunk) @ t.right.T)
            projected = _project_simplex(t.singular_values, 2.5)
            assert np.array_equal(project_nuclear_ball(Z, 2.5),
                                  (t.left * projected) @ t.right.T)


class TestSvtProx:
    def test_diagonal_shrinkage(self):
        out = svt_prox(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_identity(self):
        rng = make_rng(4)
        Z = rng.standard_normal((5, 4))
        assert np.max(np.abs(svt_prox(Z, 0.0) - Z)) <= 1e-10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt_prox(np.eye(2), -0.1)

    def test_local_optimality_probes(self):
        rng = make_rng(5)
        Z = rng.standard_normal((5, 5))
        tau = 0.7
        out = svt_prox(Z, tau)

        def objective(X):
            return 0.5 * np.linalg.norm(X - Z) ** 2 + tau * nuclear_norm(X)

        base = objective(out)
        for _ in range(1000):
            delta = rng.standard_normal((5, 5))
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(out + delta)

    def test_operator_norm_displacement(self):
        rng = make_rng(6)
        for tau in (0.1, 0.9, 3.0):
            Z = rng.standard_normal((6, 4))
            disp = np.linalg.norm(svt_prox(Z, tau) - Z, ord=2)
            assert disp <= tau + 1e-9


class TestProjectNuclearBall:
    def test_hand_derived_diagonal(self):
        out = project_nuclear_ball(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_interior_point_unchanged(self):
        rng = make_rng(7)
        Z = rng.standard_normal((4, 4))
        Z *= 1.0 / nuclear_norm(Z)
        assert np.array_equal(project_nuclear_ball(Z, 5.0), Z)

    def test_closest_point_probes(self):
        rng = make_rng(8)
        Z = rng.standard_normal((6, 4)) * 2.0
        radius = 3.0
        out = project_nuclear_ball(Z, radius)
        assert abs(nuclear_norm(out) - radius) <= 1e-9
        d_out = np.linalg.norm(out - Z)
        for _ in range(1000):
            W = rng.standard_normal((6, 4))
            nw = nuclear_norm(W)
            if nw > radius:
                W *= radius / nw
            assert d_out <= np.linalg.norm(W - Z) + 1e-12

    def test_idempotent(self):
        rng = make_rng(9)
        Z = rng.standard_normal((5, 5)) * 3
        once = project_nuclear_ball(Z, 2.0)
        twice = project_nuclear_ball(once, 2.0)
        assert np.max(np.abs(twice - once)) <= 1e-9

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_nuclear_ball(np.eye(2), 0.0)


class TestOrthogonalEquivariance:
    def test_svt_and_projection_commute_with_rotations(self):
        rng = make_rng(10)
        Z = rng.standard_normal((5, 5))
        Q = random_orthogonal(rng, 5)
        P = random_orthogonal(rng, 5)
        for op in (lambda M: svt_prox(M, 0.6),
                   lambda M: project_nuclear_ball(M, 2.5)):
            lhs = op(Q @ Z @ P)
            rhs = Q @ op(Z) @ P
            assert np.max(np.abs(lhs - rhs)) <= 1e-8


class TestClipEntries:
    def test_inside_box_unchanged(self):
        Z = np.array([[0.5, -0.2], [0.9, 0.0]])
        out, violation = clip_entries(Z, 1.0)
        assert np.array_equal(out, Z)
        assert violation == 0.0

    def test_scalar_overflow(self):
        out, violation = clip_entries(np.array([[5.0]]), 2.0)
        assert out[0, 0] == 2.0
        assert violation == 3.0

    def test_clamp_is_exact(self):
        rng = make_rng(11)
        Z = rng.standard_normal((8, 8)) * 4
        out, _ = clip_entries(Z, 1.0)
        assert np.max(np.abs(out)) <= 1.0

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            clip_entries(np.eye(2), 0.0)


class TestProjectFactorRows:
    def test_row_at_bound_unchanged(self):
        U = np.array([[3.0, 4.0]])
        assert np.array_equal(project_factor_rows(U, 5.0), U)

    def test_row_rescaled(self):
        U = np.array([[3.0, 4.0]])
        assert np.allclose(project_factor_rows(U, 1.0), [[0.6, 0.8]])

    def test_all_rows_within_bound(self):
        rng = make_rng(12)
        U = rng.standard_normal((10, 3)) * 5
        out = project_factor_rows(U, 1.3)
        assert np.all(np.linalg.norm(out, axis=1) <= 1.3 + 1e-12)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            project_factor_rows(np.ones((2, 2)), -1.0)


class TestFeasibleSetNesting:
    def test_block_sign_maxnorm_ball_inside_nuclear_ball(self):
        # rank <= r with certified max-norm <= gamma sqrt(r) implies the
        # nuclear-ball membership ||X||_* <= gamma sqrt(r m1 m2)
        for seed in range(5):
            gamma, r = 1.5, 3
            t = generate_truth(Shape(30, 24), r, gamma, "block_sign", seed)
            assert np.max(np.abs(t.entries)) <= gamma
            assert nuclear_norm(t.entries) <= gamma * np.sqrt(r * 30 * 24) + 1e-9
