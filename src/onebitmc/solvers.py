"""Estimators for the binary observation model.

Three fits of the same negative mean log-likelihood:

* nuclear-norm penalized: proximal gradient on likelihood + lam * nuclear
  norm, restricted to the entrywise box by a clip after each shrinkage step;
* nuclear-norm constrained: projected gradient over the intersection of a
  nuclear ball of radius gamma * sqrt(r m1 m2) and the entrywise box, with
  Dykstra's alternating projections supplying the projection;
* max-norm constrained: alternating projected gradient, from one seeded
  random start, on a two-factor parameterization whose row norms certify a
  max-norm bound of gamma * sqrt(r).

refit_low_rank refits the likelihood on rank-r factors started from a given
estimate, with the max-norm solver's two blocks and row bound.  The sweep
applies it to every nuclear-norm penalized fit (select the penalty weight,
fit the penalized estimator, refit at rank r) to remove the shrinkage the
penalty leaves on the leading singular values; solve_nuclear_penalized
itself, and the CLI fit command, return the penalized minimizer.

All three run one descent loop, _descend, from the start to the FitResult.
It takes its steps with one backtracking line search, _backtrack, whose
acceptance rule requires the objective not to increase, so objective traces
are nonincreasing by construction.  Each iteration runs one search per
block: the penalized and constrained solvers pass one block, the matrix, and
the max-norm solver and the refit two, the factors U then V.  Every search
follows one step policy (_StepSize): it starts at the last accepted step and
grows back only after a run of searches that accepted their first
candidate.  Every fit stops on one tolerance, _REL_TOL.  Every solve is
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
# Dykstra sweeps per box-and-ball projection
_DYKSTRA_SWEEPS = 100


class SolverNumericalError(RuntimeError):
    """Raised when a solve encounters a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all three solvers.

    gamma and rank_hint are the generator's amplitude bound and rank budget,
    taken as known.  lam only affects the penalized solver; seed draws the
    max-norm solver's random start and select_lambda's holdout split.  The
    max-norm factors are 2 * rank_hint wide, the step sizes (see _StepSize)
    and the stop tolerance (_REL_TOL) are not configured, and max_iters caps
    every fit.
    """

    gamma: float
    rank_hint: int
    lam: float = 0.0
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        # a float count fails only inside the solve, a float seed is
        # truncated, and a bool reads as 0 or 1
        for name in ("rank_hint", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
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
             blocks) -> FitResult:
    """Monotone block descent from parts, the one loop of every solver.

    parts is [X] or [U, V], a list the loop updates, standing for the matrix
    X or U V^T; blocks holds one (gradient, move) pair per part.
    gradient(parts, G) maps the likelihood gradient G at that matrix to the
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
    _REL_TOL relative to max(1, |previous objective|).

    The estimate is the last matrix clipped into the box; the report holds
    the pre-clip violation and the nuclear norm s.sum() of one thin SVD
    (u, s, vt) of the estimate.  Its max-norm bound is the product of the
    largest row norms of [U, V], or of one part's balanced factors u sqrt(s)
    and vt.T sqrt(s), which do not depend on the singular vectors' signs.
    """
    if samples.n == 0:
        raise ValueError("sample set is empty")
    matrix = parts[0] if len(parts) == 1 else parts[0] @ parts[1].T
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

    estimate, violation = clip_entries(matrix, config.gamma)
    u, s, vt = _thin_svd(estimate)
    root = np.sqrt(s)
    U, V = parts if len(parts) == 2 else (u * root, vt.T * root)
    bound = float(np.linalg.norm(U, axis=1).max()
                  * np.linalg.norm(V, axis=1).max())
    report = FeasibilityReport(inf_norm_violation=violation,
                               nuclear_norm=float(s.sum()),
                               maxnorm_upper_bound=bound)
    return FitResult(estimate=estimate, objective_trace=np.asarray(trace),
                     iterations=len(trace) - 1, converged=converged,
                     feasibility_report=report, work=work)


def solve_nuclear_penalized(samples: SampleSet, config: SolverConfig) -> FitResult:
    """Minimize likelihood + lam * ||X||_* over the box ||X||_inf <= gamma.

    Proximal gradient: descend the smooth part, soft-threshold singular values
    by step * lam, clip into the box.  The clip runs last so the returned
    estimate satisfies the box exactly; its nuclear norm is recomputed after
    clipping whenever the clip was active.
    """
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
    return _descend(samples, config, [zero], [(lambda parts, G: G, candidate)])


def _project_ball_box(Z: np.ndarray, radius: float, gamma: float) -> np.ndarray:
    """Euclidean projection onto {||X||_* <= radius, ||X||_inf <= gamma}.

    Dykstra's alternating projections with correction terms, at most
    _DYKSTRA_SWEEPS sweeps; a single composed sweep is not the exact
    projection and measurably stalls the solver when both constraints bind.
    The box projection runs last, so the sweeps end inside the box, but
    when they stop on the cap, a hair outside the ball; such a point is
    scaled toward zero onto the ball.  The result satisfies the box bound
    exactly, and the ball bound up to the rounding of that one scaling.
    """
    X = np.asarray(Z, dtype=float)
    p = np.zeros_like(X)
    q = np.zeros_like(X)
    scale = max(1.0, float(np.max(np.abs(X))))
    for _ in range(_DYKSTRA_SWEEPS):
        Y = project_nuclear_ball(X + p, radius)
        p = X + p - Y
        X_new, _ = clip_entries(Y + q, gamma)
        q = Y + q - X_new
        change = float(np.max(np.abs(X_new - X)))
        X = X_new
        if change <= 1e-13 * scale:
            break
    nuc = nuclear_norm(X)
    return X * (radius / nuc) if nuc > radius else X


def solve_nuclear_constrained(samples: SampleSet, config: SolverConfig) -> FitResult:
    """Minimize the likelihood over the nuclear ball intersected with the box.

    Projected gradient; each candidate is projected onto the intersection of
    the nuclear ball of radius gamma * sqrt(r m1 m2) and the entrywise box by
    Dykstra's alternating projections, scaled onto the ball where the
    sweeps stop outside it.  Every candidate, and so the estimate, lies in
    both sets, and the last trace entry is the likelihood of the estimate.
    """
    shape = samples.shape
    radius = config.gamma * math.sqrt(config.rank_hint * shape.m1 * shape.m2)
    gamma = config.gamma

    def candidate(parts, grad, step):
        xc = _project_ball_box(parts[0] - step * grad, radius, gamma)
        return xc, xc, 0.0

    zero = np.zeros((shape.m1, shape.m2))
    return _descend(samples, config, [zero], [(lambda parts, G: G, candidate)])


def _random_factors(shape: Shape, gamma: float, width: int, seed: int):
    """Seeded Gaussian factors whose product peaks at half of min(gamma, 2).

    The stream is keyed by mix_seed(mix_seed(seed, 0), 0); another key would
    change every max-norm estimate.  The product of two Gaussian matrices is
    almost surely nonzero, so its peak can be scaled.
    """
    rng = make_rng(mix_seed(mix_seed(seed, 0), 0))
    U = rng.standard_normal((shape.m1, width))
    V = rng.standard_normal((shape.m2, width))
    peak = float(np.max(np.abs(U @ V.T)))
    # start the product at half the amplitude bound, capped at unit scale so
    # a loose bound does not strand the iterates far from the optimum
    scale = math.sqrt(min(gamma, 2.0) / 2.0 / peak)
    return U * scale, V * scale


def _fit_factors(samples: SampleSet, config: SolverConfig, U: np.ndarray,
                 V: np.ndarray) -> FitResult:
    """Alternating projected gradient on the likelihood of U V^T from (U, V).

    Both starting factors are first projected onto the row-norm ball of
    radius sqrt(gamma * sqrt(r)), and every step keeps them there, so the
    row-norm product certifies ||U V^T||_max <= gamma sqrt(r).  Each
    iteration steps U, then V.
    """
    row_bound = math.sqrt(config.gamma * math.sqrt(config.rank_hint))

    def move_u(parts, grad, size):
        F = project_factor_rows(parts[0] - size * grad, row_bound)
        return F, F @ parts[1].T, 0.0

    def move_v(parts, grad, size):
        F = project_factor_rows(parts[1] - size * grad, row_bound)
        return F, parts[0] @ F.T, 0.0

    U = project_factor_rows(U, row_bound)
    V = project_factor_rows(V, row_bound)
    return _descend(samples, config, [U, V],
                    [(lambda parts, G: G @ parts[1], move_u),
                     (lambda parts, G: G.T @ parts[0], move_v)])


def solve_maxnorm_constrained(samples: SampleSet, config: SolverConfig) -> FitResult:
    """Minimize the likelihood under a certified max-norm bound of gamma * sqrt(r).

    The variable is factored as U V^T with 2 * rank_hint columns; after every
    gradient step each factor's rows are projected onto the Euclidean ball of
    radius sqrt(gamma * sqrt(r)), so the row-norm product certifies the
    max-norm bound throughout.  The fit runs once, from Gaussian factors
    drawn with config.seed.  The returned estimate is the factor product
    clipped into the entrywise box, with the pre-clip violation reported.
    """
    U, V = _random_factors(samples.shape, config.gamma, 2 * config.rank_hint,
                           config.seed)
    return _fit_factors(samples, config, U, V)


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
    shape = samples.shape
    if np.shape(X) != (shape.m1, shape.m2):
        raise ValueError(f"estimate shape {np.shape(X)} does not match "
                         f"samples ({shape.m1}, {shape.m2})")
    r = config.rank_hint
    t = svd(X)
    root = np.sqrt(t.singular_values[:r])
    return _fit_factors(samples, config, t.left[:, :r] * root,
                        t.right[:, :r] * root)


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
