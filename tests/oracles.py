"""Independent reference computations used to check the library.

The 2x2 grid-search oracle evaluates objectives on dense point grids that
zoom toward the best feasible point; it shares no code with the solvers (the
likelihood and nuclear norm are recomputed from scratch on flat arrays).
The SVD sign convention, the scatter-add gradient and the balanced-factor
max-norm bound are kept here in their plain per-column / per-sample forms,
and the solvers' stepping policy as plain gradient descent on the matrix and
as plain alternating descent on two factors, with the max-norm solver's
seeded start drawn by hand.
"""

import numpy as np

from onebitmc import neg_log_likelihood, nll_gradient
from onebitmc.seeding import make_rng, mix_seed


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


def softplus_nll(X, samples):
    """Mean of max(-yx, 0) + log1p(exp(-|yx|)) over the samples, out of place."""
    z = samples.labels * X[samples.rows, samples.cols]
    return float(np.mean(np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))))


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


def gradient_descent_reference(samples, config):
    """Unconstrained gradient descent from zero with the solvers' stepping policy.

    The step starts at step0 = 4n.  A step is accepted when the
    quadratic-majorization bound holds and the likelihood does not rise; a
    rejected step is halved.  The step is doubled (capped at step0) once
    `wait` iterations in a row took their first step; `wait`
    doubles when that grown step is rejected and goes back to 1 when it is
    accepted.  Stops when no step above step0 * 1e-16 descends, on a small
    relative change, or after max_iters iterations.  Returns
    (X, objective trace).
    """
    X = np.zeros((samples.shape.m1, samples.shape.m2))
    f_cur = neg_log_likelihood(X, samples)
    step0 = 4 * samples.n
    step = step0
    first_taken = 0  # iterations in a row that took their first step
    wait = 1
    trace = [f_cur]
    for _ in range(config.max_iters):
        grad = nll_gradient(X, samples)
        grown = first_taken >= wait and step < step0
        if grown:
            step = min(step / 0.5, step0)
        tries = 0
        accepted = False
        while step >= step0 * 1e-16:
            tries += 1
            xc = X - step * grad
            f_new = neg_log_likelihood(xc, samples)
            diff = xc - X
            quad_ok = f_new <= (f_cur + float(np.vdot(grad, diff))
                                + float(np.vdot(diff, diff)) / (2 * step)
                                + 1e-12)
            if quad_ok and f_new <= f_cur + 1e-12:
                accepted = True
                break
            step *= 0.5
        took_first = accepted and tries == 1
        if grown:
            wait = 1 if took_first else 2 * wait
            first_taken = 0
        first_taken = first_taken + 1 if took_first else 0
        if not accepted:
            break
        X = xc
        f_prev, f_cur = f_cur, f_new
        trace.append(f_cur)
        if abs(f_cur - f_prev) <= 1e-7 * max(1.0, abs(f_prev)):
            break
    return X, trace


def rows_onto_ball(F, bound):
    """Scale each row of F with norm above bound back onto it, row by row."""
    out = np.array(F, dtype=float)
    for i in range(out.shape[0]):
        norm = np.sqrt(np.sum(out[i] ** 2))
        if norm > bound:
            out[i] = out[i] * (bound / norm)
    return out


def seeded_gaussian_start(shape, gamma, width, seed):
    """The max-norm solver's start: Philox Gaussian factors, product peak min(gamma, 2)/2.

    U (m1 x width) then V (m2 x width) are drawn from one stream keyed by
    mix_seed(mix_seed(seed, 0), 0); both are scaled by one factor so that
    the largest entry of U V^T in magnitude is half of min(gamma, 2).
    """
    rng = make_rng(mix_seed(mix_seed(seed, 0), 0))
    U = rng.standard_normal((shape.m1, width))
    V = rng.standard_normal((shape.m2, width))
    scale = np.sqrt(min(gamma, 2.0) / 2.0 / np.max(np.abs(U @ V.T)))
    return U * scale, V * scale


def alternating_descent_reference(samples, config, U, V):
    """Alternating projected gradient on the likelihood of U V^T, policy as above.

    Both factors' rows are first put inside the ball of radius
    sqrt(gamma * sqrt(r)), and every candidate is put back into it.  Each
    iteration takes a U half step, then a V half step from the gradient at
    the product after the U step.  Each factor keeps its own step, started
    at 4n, halved on a rejected candidate and doubled (capped at 4n) once
    `wait` of its half steps in a row rejected no candidate; `wait` doubles
    when that grown step is rejected and goes back to 1 when it is not.  A
    half step gives up below 4n * 1e-16.  Stops when neither half step moved
    (adding no trace entry), on a small relative change, or after max_iters
    iterations.  Returns (U V^T, objective trace, work), where work counts
    the likelihood at the start, one gradient per half step and one
    likelihood per candidate.
    """
    bound = np.sqrt(config.gamma * np.sqrt(config.rank_hint))
    factors = {"U": rows_onto_ball(U, bound), "V": rows_onto_ball(V, bound)}
    step0 = 4 * samples.n
    policy = {"U": [step0, 0, 1], "V": [step0, 0, 1]}  # step, clean run, wait
    f_cur = neg_log_likelihood(factors["U"] @ factors["V"].T, samples)
    trace = [f_cur]
    work = 1

    def product(name, F):
        return (F @ factors["V"].T if name == "U" else factors["U"] @ F.T)

    for _ in range(config.max_iters):
        moved = False
        for name in ("U", "V"):
            F = factors[name]
            G = nll_gradient(factors["U"] @ factors["V"].T, samples)
            grad = G @ factors["V"] if name == "U" else G.T @ factors["U"]
            step, clean_run, wait = policy[name]
            grown = clean_run >= wait and step < step0
            if grown:
                step = min(step / 0.5, step0)
            tries = 0
            accepted = None
            while step >= step0 * 1e-16:
                tries += 1
                Fc = rows_onto_ball(F - step * grad, bound)
                f_new = neg_log_likelihood(product(name, Fc), samples)
                diff = Fc - F
                quad_ok = f_new <= (f_cur + float(np.vdot(grad, diff))
                                    + float(np.vdot(diff, diff)) / (2 * step)
                                    + 1e-12)
                if quad_ok and f_new <= f_cur + 1e-12:
                    accepted = Fc
                    break
                step *= 0.5
            work += 1 + tries
            clean = tries == (0 if accepted is None else 1)
            if grown:
                wait = 1 if clean else 2 * wait
                clean_run = 0
            policy[name] = [step, clean_run + 1 if clean else 0, wait]
            if accepted is not None:
                factors[name] = accepted
                f_cur = f_new
                moved = True
        if not moved:
            break
        f_prev = trace[-1]
        trace.append(f_cur)
        if abs(f_cur - f_prev) <= 1e-7 * max(1.0, abs(f_prev)):
            break
    return factors["U"] @ factors["V"].T, trace, work
