"""Independent reference computations used to check the library.

The 2x2 grid-search oracle evaluates objectives on dense point grids that
zoom toward the best feasible point; it shares no code with the solvers (the
likelihood and nuclear norm are recomputed from scratch on flat arrays).
The SVD sign convention, the scatter-add gradient and the balanced-factor
max-norm bound are kept here in their plain per-column / per-sample forms.
"""

import numpy as np


def softplus(z):
    return np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def nll_flat(P, entry_idx, labels):
    """Mean logistic loss for a stack of flattened 2x2 matrices.

    P is (K, 4); entry_idx maps each sample to a flat entry; labels in {-1,+1}.
    """
    z = labels[None, :] * P[:, entry_idx]
    return softplus(z).mean(axis=1)


def nuclear_flat(P):
    """Nuclear norm of flattened 2x2 matrices: sqrt(||P||_F^2 + 2 |det|)."""
    frob_sq = np.sum(P * P, axis=1)
    det = P[:, 0] * P[:, 3] - P[:, 1] * P[:, 2]
    return np.sqrt(frob_sq + 2.0 * np.abs(det))


def zoom_grid_search(objective, feasible, gamma, levels=12, points=13,
                     shrink=0.5):
    """Minimize over [-gamma, gamma]^4 by nested dense grids.

    objective(P) -> (K,) values; feasible(P) -> (K,) bool mask.  Each level
    lays a points^4 grid on the current window (clamped to the box), keeps the
    best feasible value seen anywhere, and halves the window around it.  The
    objective is assumed convex so the basin around the incumbent contains the
    true minimizer.
    """
    center = np.zeros(4)
    half = float(gamma)
    best_val = np.inf
    best_point = center
    for _ in range(levels):
        axes = [np.clip(np.linspace(center[i] - half, center[i] + half, points),
                        -gamma, gamma) for i in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        mask = feasible(grid)
        if mask.any():
            candidates = grid[mask]
            vals = objective(candidates)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best_point = candidates[k]
        center = best_point
        half *= shrink
    return best_point, best_val


def sample_arrays(samples):
    """Flat entry indices and float labels for a 2x2 sample set."""
    entry_idx = samples.rows * 2 + samples.cols
    return entry_idx, samples.labels.astype(float)


def oracle_penalized(samples, gamma, lam):
    entry_idx, labels = sample_arrays(samples)

    def objective(P):
        return nll_flat(P, entry_idx, labels) + lam * nuclear_flat(P)

    return zoom_grid_search(objective, lambda P: np.ones(len(P), bool), gamma)


def oracle_nuclear_constrained(samples, gamma, radius):
    entry_idx, labels = sample_arrays(samples)

    def objective(P):
        return nll_flat(P, entry_idx, labels)

    def feasible(P):
        return nuclear_flat(P) <= radius * (1 + 1e-12)

    return zoom_grid_search(objective, feasible, gamma)


def oracle_box_only(samples, gamma):
    """Plain likelihood minimum over the entrywise box.

    Serves as the max-norm solver's reference on 2x2 problems with rank hint
    2: there the certified max-norm radius gamma * sqrt(2) provably contains
    the whole box (any X factors as I * X with row-norm product at most
    sqrt(2) * ||X||_inf), so the box is the entire feasible set.
    """
    entry_idx, labels = sample_arrays(samples)

    def objective(P):
        return nll_flat(P, entry_idx, labels)

    return zoom_grid_search(objective, lambda P: np.ones(len(P), bool), gamma)


def fd_gradient(fn, X, h=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    G = np.zeros_like(X, dtype=float)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            xp = X.copy()
            xp[i, j] += h
            xm = X.copy()
            xm[i, j] -= h
            G[i, j] = (fn(xp) - fn(xm)) / (2.0 * h)
    return G


def signed_svd(X):
    """Thin SVD (left, values, right) with the sign convention as a column loop.

    Each (left, right) pair is negated when the left vector's first entry
    above 1e-14 * max(1, its largest magnitude) is negative.
    """
    u, s, vt = np.linalg.svd(np.asarray(X, dtype=float), full_matrices=False)
    v = vt.T
    for k in range(s.size):
        col = u[:, k]
        nz = np.nonzero(np.abs(col) > 1e-14 * max(1.0, np.max(np.abs(col))))[0]
        if nz.size and col[nz[0]] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    return u, s, v


def scatter_gradient(X, samples):
    """Likelihood gradient accumulated sample by sample with np.add.at."""
    z = X[samples.rows, samples.cols]
    p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                 np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    grad = np.zeros(X.shape)
    np.add.at(grad, (samples.rows, samples.cols), p - (samples.labels == 1))
    grad /= samples.n
    return grad


def balanced_maxnorm_bound(X):
    """Largest row norm of U sqrt(S) times that of V sqrt(S), from signed_svd."""
    u, s, v = signed_svd(X)
    root = np.sqrt(s)
    return float(np.linalg.norm(u * root, axis=1).max()
                 * np.linalg.norm(v * root, axis=1).max())
