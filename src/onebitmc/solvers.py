"""Estimators for the binary observation model.

Three fits of the same negative mean log-likelihood:

* nuclear-norm penalized: proximal gradient on likelihood + lam * nuclear
  norm, restricted to the entrywise box by a clip after each shrinkage step;
* nuclear-norm constrained: projected gradient over the intersection of a
  nuclear ball of radius gamma * sqrt(r m1 m2) and the entrywise box, with
  Dykstra's alternating projections supplying the exact projection;
* max-norm constrained: alternating projected gradient on a two-factor
  parameterization whose row norms certify a max-norm bound of gamma * sqrt(r).

refit_low_rank refits the likelihood on rank-r factors started from a given
estimate, with the max-norm solver's two blocks and row bound.  The sweep
applies it to every nuclear-norm penalized fit (select the penalty weight,
fit the penalized estimator, refit at rank r) to remove the shrinkage the
penalty leaves on the leading singular values; solve_nuclear_penalized
itself, and the CLI fit command, return the penalized minimizer.

All three run one descent loop, _descend, which takes its steps with one
backtracking line search, _backtrack, whose acceptance rule requires the
objective not to increase, so objective traces are nonincreasing by
construction.  Each iteration runs one search per block: the penalized and
constrained solvers pass one block, the matrix, and the max-norm solver and
the refit two, the factors U then V.  Every search follows one step policy
(_StepSize): it starts at the last accepted step and grows back only after a
run of searches that accepted their first candidate.  Every fit stops on one
tolerance, _REL_TOL, and ends in one builder, _fit_result.  Every solve is
deterministic given (samples, config); FitResult.work counts likelihood and
gradient evaluations, not wall-clock time, so repeated runs produce
bit-identical results.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import SampleSet, Shape, neg_log_likelihood, nll_gradient
from .seeding import TAG_SPLIT, make_rng, mix_seed
from .spectral import (_thin_svd, clip_entries, nuclear_norm,
                       project_factor_rows, project_nuclear_ball, svd)

_ACCEPT_SLACK = 1e-12
# The mean log-likelihood over n samples has per-entry curvature at most
# (sample count at the entry) / (4n), so an initial step of 4n inverts the
# smoothness of a singly-observed entry; backtracking halves it where
# entries repeat.
_STEP_PER_SAMPLE = 4.0
# the relative change of the objective at which a fit has converged
_REL_TOL = 1e-7
# a rejected step is multiplied by this, a step that grows back divided by it
_BACKTRACK = 0.5


class SolverNumericalError(RuntimeError):
    """Raised when a solve encounters a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all three solvers.

    gamma and rank_hint are the generator's amplitude bound and rank budget,
    taken as known.  lam only affects the penalized solver; factor_width and
    restarts only the max-norm solver.  factor_width defaults to twice the
    rank hint when left unset.  The step sizes (see _StepSize) and the stop
    tolerance (_REL_TOL) are not configured; max_iters caps every fit.
    """

    gamma: float
    rank_hint: int
    lam: float = 0.0
    max_iters: int = 2000
    factor_width: int | None = None
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        # NaN passes every comparison below, and an infinite bound or weight
        # fails only deep inside the solve
        for name in ("gamma", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.rank_hint < 1:
            raise ValueError("rank_hint must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.factor_width is not None and self.factor_width < self.rank_hint:
            raise ValueError("factor_width must be at least rank_hint")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")

    @property
    def effective_factor_width(self) -> int:
        return self.factor_width if self.factor_width is not None else 2 * self.rank_hint


@dataclass(frozen=True)
class FeasibilityReport:
    inf_norm_violation: float
    nuclear_norm: float
    maxnorm_upper_bound: float


@dataclass(frozen=True)
class FitResult:
    """Estimate plus solve diagnostics.

    objective_trace[0] is the objective at the zero (or random factor)
    starting point; one entry follows per accepted iteration, nonincreasing
    within 1e-10 per step.  work counts likelihood/gradient evaluations, a
    deterministic stand-in for elapsed time.
    """

    estimate: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    feasibility_report: FeasibilityReport
    work: int


def _require_samples(samples: SampleSet):
    if samples.n == 0:
        raise ValueError("sample set is empty")


def _fit_result(product: np.ndarray, trace: np.ndarray, converged: bool,
                work: int, gamma: float, bound: float | None = None) -> FitResult:
    """The FitResult of every fit: product clipped into the box, and its report.

    The report keeps the pre-clip violation and reads one thin SVD (u, s, vt)
    of the estimate: the nuclear norm s.sum() and, unless the fit certifies
    its own bound, the row-norm product of the balanced factors u sqrt(s) and
    vt.T sqrt(s).  Neither depends on the signs of the singular vectors.
    """
    estimate, violation = clip_entries(product, gamma)
    u, s, vt = _thin_svd(estimate)
    if bound is None:
        root = np.sqrt(s)
        bound = float(np.linalg.norm(u * root, axis=1).max()
                      * np.linalg.norm(vt.T * root, axis=1).max())
    report = FeasibilityReport(inf_norm_violation=violation,
                               nuclear_norm=float(s.sum()),
                               maxnorm_upper_bound=bound)
    return FitResult(estimate=estimate, objective_trace=trace,
                     iterations=len(trace) - 1, converged=converged,
                     feasibility_report=report, work=work)


class _StepSize:
    """The step of one backtracking search and when it may grow back.

    A search starts at the step its previous search accepted.  The step grows
    back (divided by _BACKTRACK, capped at the initial step) only once `wait`
    searches in a row accepted their first candidate; a grown step that is
    rejected doubles `wait`, and one that is accepted resets it to 1.  Where
    the right step stays put, as in the penalized fits, a try to grow mostly
    costs one rejected candidate, so tries soon become rare; where it rises
    as the iterate moves, as in the constrained fits, the step keeps growing.
    """

    def __init__(self, n: int):
        self.initial = _STEP_PER_SAMPLE * n
        self.size = self.initial
        self.streak = 0   # searches in a row that accepted their first candidate
        self.wait = 1


def _backtrack(point, grad, g_cur, f_cur, trial, samples, step: _StepSize):
    """One monotone backtracking search from point along -grad.

    trial(size) returns (next point, the matrix it stands for, nonsmooth
    penalty there); g_cur is the likelihood at point and f_cur the full
    objective.  A candidate is accepted only if the likelihood satisfies the
    quadratic-majorization bound in the point's coordinates and the full
    objective does not increase; otherwise the step shrinks by _BACKTRACK,
    down to 1e-16 of the initial step.  Returns ((next point, matrix,
    likelihood, objective) or None when no step descends, the number of
    likelihood evaluations).
    """
    grow = step.streak >= step.wait and step.size < step.initial
    if grow:
        step.size = min(step.size / _BACKTRACK, step.initial)
    evals = 0
    found = None
    while step.size >= step.initial * 1e-16:
        nxt, x_new, penalty = trial(step.size)
        g_new = neg_log_likelihood(x_new, samples)
        evals += 1
        if not (np.isfinite(g_new) and np.isfinite(penalty)):
            raise SolverNumericalError("non-finite objective during descent")
        diff = nxt - point
        quad_ok = g_new <= (g_cur + float(np.vdot(grad, diff))
                            + float(np.vdot(diff, diff)) / (2.0 * step.size)
                            + _ACCEPT_SLACK)
        f_new = g_new + penalty
        if quad_ok and f_new <= f_cur + _ACCEPT_SLACK:
            found = (nxt, x_new, g_new, f_new)
            break
        step.size *= _BACKTRACK
    rejected = evals - (found is not None)
    if grow:
        step.streak, step.wait = 0, (1 if rejected == 0 else 2 * step.wait)
    step.streak = step.streak + 1 if rejected == 0 else 0
    return found, evals


def _descend(samples: SampleSet, config: SolverConfig, parts: list,
             matrix: np.ndarray, blocks):
    """Monotone block descent from parts, the one loop of every solver.

    parts is [X] or [U, V], a list the loop updates, and matrix the matrix
    they stand for; blocks holds one (gradient, move) pair per part.
    gradient(parts, G) maps the likelihood gradient G at matrix to the
    block's gradient, and move(parts, grad, size) is the trial of _backtrack:
    (next part, the matrix then, nonsmooth penalty there).  Each iteration
    runs one _backtrack per block in order, each block with its own
    _StepSize, and counts one gradient plus the search's likelihood
    evaluations as work.  The objective at the start is the likelihood
    alone: the penalty vanishes at the zero matrix, and factor fits have
    none.

    The trace holds the objective at the start, then one entry per iteration
    in which some block moved.  The fit has converged when an iteration moves
    no block, which adds no entry, or when the objective changes by at most
    _REL_TOL relative to max(1, |previous objective|).  Returns (parts,
    matrix, trace, converged, work).
    """
    work = 1
    g_cur = f_cur = neg_log_likelihood(matrix, samples)
    trace = [f_cur]
    # one step per block: the right step for a factor changes as the other moves
    steps = [_StepSize(samples.n) for _ in blocks]
    converged = False

    for _ in range(config.max_iters):
        moved = False
        for i, (gradient, move) in enumerate(blocks):
            grad = gradient(parts, nll_gradient(matrix, samples))
            found, evals = _backtrack(
                parts[i], grad, g_cur, f_cur,
                lambda size: move(parts, grad, size), samples, steps[i])
            work += 1 + evals
            if found:
                parts[i], matrix, g_cur, f_cur = found
                moved = True
        if not moved:
            converged = True
            break
        f_prev = trace[-1]
        trace.append(f_cur)
        if abs(f_cur - f_prev) <= _REL_TOL * max(1.0, abs(f_prev)):
            converged = True
            break

    return parts, matrix, np.asarray(trace), converged, work


def solve_nuclear_penalized(samples: SampleSet, config: SolverConfig) -> FitResult:
    """Minimize likelihood + lam * ||X||_* over the box ||X||_inf <= gamma.

    Proximal gradient: descend the smooth part, soft-threshold singular values
    by step * lam, clip into the box.  The clip runs last so the returned
    estimate satisfies the box exactly; its nuclear norm is recomputed after
    clipping whenever the clip was active.
    """
    _require_samples(samples)
    lam, gamma = config.lam, config.gamma

    def candidate(parts, grad, step):
        u, s, vt = _thin_svd(parts[0] - step * grad)
        shrunk = np.maximum(s - step * lam, 0.0)
        xc, violation = clip_entries((u * shrunk) @ vt, gamma)
        if lam == 0.0:
            return xc, xc, 0.0
        nuc = float(shrunk.sum()) if violation == 0.0 else nuclear_norm(xc)
        return xc, xc, lam * nuc

    zero = np.zeros((samples.shape.m1, samples.shape.m2))
    _, X, trace, converged, work = _descend(samples, config, [zero], zero,
                                            [(lambda parts, G: G, candidate)])
    return _fit_result(X, trace, converged, work, gamma)


def _project_ball_box(Z: np.ndarray, radius: float, gamma: float,
                      max_sweeps: int = 100) -> np.ndarray:
    """Euclidean projection onto {||X||_* <= radius, ||X||_inf <= gamma}.

    Dykstra's alternating projections with correction terms; a single
    composed sweep is not the exact projection and measurably stalls the
    solver when both constraints bind.  The box projection runs last, so the
    result satisfies the entrywise bound exactly and the nuclear bound to the
    sweep tolerance.
    """
    X = np.asarray(Z, dtype=float)
    p = np.zeros_like(X)
    q = np.zeros_like(X)
    scale = max(1.0, float(np.max(np.abs(X))))
    for _ in range(max_sweeps):
        Y = project_nuclear_ball(X + p, radius)
        p = X + p - Y
        X_new, _ = clip_entries(Y + q, gamma)
        q = Y + q - X_new
        change = float(np.max(np.abs(X_new - X)))
        X = X_new
        if change <= 1e-13 * scale:
            break
    return X


def solve_nuclear_constrained(samples: SampleSet, config: SolverConfig) -> FitResult:
    """Minimize the likelihood over the nuclear ball intersected with the box.

    Projected gradient; each candidate is projected onto the intersection of
    the nuclear ball of radius gamma * sqrt(r m1 m2) and the entrywise box by
    Dykstra's alternating projections.  Any residual infeasibility of the
    final iterate is reported, not hidden.
    """
    _require_samples(samples)
    shape = samples.shape
    radius = config.gamma * math.sqrt(config.rank_hint * shape.m1 * shape.m2)
    gamma = config.gamma

    def candidate(parts, grad, step):
        xc = _project_ball_box(parts[0] - step * grad, radius, gamma)
        return xc, xc, 0.0

    zero = np.zeros((shape.m1, shape.m2))
    _, X, trace, converged, work = _descend(samples, config, [zero], zero,
                                            [(lambda parts, G: G, candidate)])
    result = _fit_result(X, trace, converged, work, gamma)
    # Dykstra can stop on its sweep cap a hair outside the ball
    if result.feasibility_report.nuclear_norm > radius * (1 + 1e-9):
        result = _fit_result(_project_ball_box(X, radius, gamma), trace,
                             converged, work, gamma)
    return result


def _row_bound(config: SolverConfig) -> float:
    """Row-norm bound on both factors; certifies ||U V^T||_max <= gamma sqrt(r)."""
    return math.sqrt(config.gamma * math.sqrt(config.rank_hint))


def _random_factors(shape: Shape, gamma: float, width: int, seed: int):
    """Seeded Gaussian factors whose product peaks at half of min(gamma, 2)."""
    attempt = 0
    while True:
        rng = make_rng(mix_seed(seed, attempt))
        U = rng.standard_normal((shape.m1, width))
        V = rng.standard_normal((shape.m2, width))
        peak = float(np.max(np.abs(U @ V.T)))
        if peak > 0:
            break
        attempt += 1
    # start the product at half the amplitude bound, capped at unit scale so
    # a loose bound does not strand the iterates far from the optimum
    scale = math.sqrt(min(gamma, 2.0) / 2.0 / peak)
    return U * scale, V * scale


def _fit_factors(samples: SampleSet, config: SolverConfig, U: np.ndarray,
                 V: np.ndarray, row_bound: float):
    """Alternating projected gradient on the likelihood of U V^T from (U, V).

    Both starting factors are first projected onto the row-norm ball of
    radius row_bound, and every step keeps them there.  Each iteration steps
    U, then V; returns _descend's tuple.
    """
    def move_u(parts, grad, size):
        F = project_factor_rows(parts[0] - size * grad, row_bound)
        return F, F @ parts[1].T, 0.0

    def move_v(parts, grad, size):
        F = project_factor_rows(parts[1] - size * grad, row_bound)
        return F, parts[0] @ F.T, 0.0

    U = project_factor_rows(U, row_bound)
    V = project_factor_rows(V, row_bound)
    return _descend(samples, config, [U, V], U @ V.T,
                    [(lambda parts, G: G @ parts[1], move_u),
                     (lambda parts, G: G.T @ parts[0], move_v)])


def solve_maxnorm_constrained(samples: SampleSet, config: SolverConfig) -> FitResult:
    """Minimize the likelihood under a certified max-norm bound of gamma * sqrt(r).

    The variable is factored as U V^T with factor_width columns; after every
    gradient step each factor's rows are projected onto the Euclidean ball of
    radius sqrt(gamma * sqrt(r)), so the row-norm product certifies the
    max-norm bound throughout.  Several random restarts are run and the best
    final objective kept.  The returned estimate is the factor product clipped
    into the entrywise box, with the pre-clip violation reported.
    """
    _require_samples(samples)
    width = config.effective_factor_width
    row_bound = _row_bound(config)
    best, best_objective, total_work = None, math.inf, 0
    for restart in range(config.restarts):
        try:
            U, V = _random_factors(samples.shape, config.gamma, width,
                                   mix_seed(config.seed, restart))
            run = _fit_factors(samples, config, U, V, row_bound)
        except SolverNumericalError:
            continue
        _, _, trace, _, work = run
        total_work += work
        if trace[-1] < best_objective:
            best, best_objective = run, trace[-1]
    if best is None:
        raise SolverNumericalError("all restarts failed")

    return _factor_result(best, config.gamma, total_work)


def _factor_result(run, gamma: float, work: int) -> FitResult:
    """FitResult for _fit_factors's tuple; its row norms certify the bound."""
    (U, V), product, trace, converged, _ = run
    bound = float(np.linalg.norm(U, axis=1).max()
                  * np.linalg.norm(V, axis=1).max())
    return _fit_result(product, trace, converged, work, gamma, bound)


def refit_low_rank(samples: SampleSet, X: np.ndarray,
                   config: SolverConfig) -> FitResult:
    """Refit the likelihood on rank_hint factors started from the top of X.

    Removes the shrinkage that a nuclear penalty leaves on the leading
    singular values: the factors start at the top rank_hint singular pairs of
    X, each scaled by the square root of its singular value, and descend the
    unpenalized likelihood under the max-norm solver's row bound
    sqrt(gamma * sqrt(r)).  The estimate is the factor product clipped into
    the box ||X||_inf <= gamma, with the pre-clip violation reported; when the
    clip is inactive its rank is at most rank_hint.  The start is
    deterministic, so config.seed plays no part.
    """
    _require_samples(samples)
    shape = samples.shape
    if np.shape(X) != (shape.m1, shape.m2):
        raise ValueError(f"estimate shape {np.shape(X)} does not match "
                         f"samples ({shape.m1}, {shape.m2})")
    r = config.rank_hint
    t = svd(X)
    root = np.sqrt(t.singular_values[:r])
    run = _fit_factors(samples, config, t.left[:, :r] * root,
                       t.right[:, :r] * root, _row_bound(config))
    return _factor_result(run, config.gamma, run[-1])


def select_lambda(samples: SampleSet, config: SolverConfig, grid) -> float:
    """Pick the penalty weight by a seeded 80/20 holdout.

    The sample order is permuted with a stream derived from config.seed; the
    first 80% are fit for every grid value and the one with the smallest
    held-out likelihood wins, ties going to the larger value.  The selection
    does not depend on the order of the grid.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(v <= 0 for v in grid):
        raise ValueError("lambda grid values must be positive")
    if samples.n < 10:
        raise ValueError("need at least 10 samples to split")

    perm = make_rng(mix_seed(config.seed, TAG_SPLIT)).permutation(samples.n)
    n_fit = (4 * samples.n) // 5
    fit_idx, hold_idx = perm[:n_fit], perm[n_fit:]
    fit_set, hold_set = samples.take(fit_idx), samples.take(hold_idx)

    best_lam = None
    best_loss = math.inf
    for lam in sorted(grid):
        fit = solve_nuclear_penalized(fit_set, replace(config, lam=lam))
        loss = neg_log_likelihood(fit.estimate, hold_set)
        if loss <= best_loss:
            best_lam, best_loss = lam, loss
    return best_lam


# estimator name -> solve function; ESTIMATORS lists the names in this order
SOLVERS = {"nuclear_penalized": solve_nuclear_penalized,
           "nuclear_constrained": solve_nuclear_constrained,
           "maxnorm_constrained": solve_maxnorm_constrained}
ESTIMATORS = tuple(SOLVERS)
