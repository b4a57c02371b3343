"""Observation model: ground-truth generation, binary sampling, logistic likelihood.

A ground-truth matrix with bounded entries and low rank parametrizes a
Bernoulli observation model: an entry index is drawn (uniformly with
replacement, or through an independent Bernoulli mask) and the observed label
is +1 with probability given by the logistic link of the entry value.  The
estimators in :mod:`onebitmc.solvers` minimize the negative mean log-likelihood
of such samples.

The likelihood and its gradient read a matrix at the samples through one
row-major flat index per sample set, computed once (:attr:`SampleSet.flat`):
each evaluation gathers the sampled entries with one ``take`` and, for the
gradient, scatters the residuals back with one ``bincount`` over the same
index.  Their arithmetic runs in place on the gathered vector, in the same
order as the textbook formulas, so the results are those formulas' bit for bit.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .seeding import make_rng, mix_seed

GENERATORS = ("gaussian_factor", "block_sign")
SCHEMES = ("iid_uniform", "bernoulli_mask")


@dataclass(frozen=True)
class Shape:
    """Matrix dimensions with the derived size quantities."""

    m1: int
    m2: int

    def __post_init__(self):
        # a float or bool dimension would build a truth of its int() size
        if not all(type(m) is int and m >= 1 for m in (self.m1, self.m2)):
            raise ValueError(f"dimensions must be positive ints, got "
                             f"{self.m1!r}x{self.m2!r}")

    @property
    def d(self) -> int:
        """Sum of the two dimensions."""
        return self.m1 + self.m2

    @property
    def max_dim(self) -> int:
        return max(self.m1, self.m2)

    @property
    def min_dim(self) -> int:
        return min(self.m1, self.m2)

    @property
    def n_entries(self) -> int:
        return self.m1 * self.m2


@dataclass(frozen=True)
class TruthMatrix:
    """Ground-truth parameter matrix with its generation certificates.

    entries has max absolute value <= gamma, numerical rank <= rank_budget,
    and min absolute value >= margin_tau.  margin_tau == 0 means no margin
    guarantee.
    """

    entries: np.ndarray
    rank_budget: int
    gamma: float
    margin_tau: float
    generator_tag: str

    @property
    def shape(self) -> Shape:
        return Shape(*self.entries.shape)


@dataclass(frozen=True)
class SampleSet:
    """Observed (row, col) indices with binary labels.

    indices is an (n, 2) integer array; labels is a length-n array with values
    in {-1, +1}.  Under iid_uniform duplicates may occur; under bernoulli_mask
    indices are distinct and listed in row-major order.  ``flat`` is computed
    from indices and shape on first use and then kept; a set made by
    :meth:`take` or :func:`dataclasses.replace` computes its own.
    """

    indices: np.ndarray
    labels: np.ndarray
    scheme: str
    seed: int
    shape: Shape

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self.indices[:, 0]

    @property
    def cols(self) -> np.ndarray:
        return self.indices[:, 1]

    @cached_property
    def flat(self) -> np.ndarray:
        """Row-major flat index of each sample: rows * m2 + cols."""
        return self.indices[:, 0] * self.shape.m2 + self.indices[:, 1]

    def take(self, idx) -> "SampleSet":
        """The samples at positions idx, in that order; scheme, seed and shape kept."""
        return replace(self, indices=self.indices[idx], labels=self.labels[idx])


def logistic_link(x):
    """Logistic function exp(x) / (1 + exp(x)), computed without overflow.

    Accepts a scalar or an ndarray; returns the same shape.  Negative inputs
    use exp(x) / (1 + exp(x)) and nonnegative inputs 1 / (1 + exp(-x)), so the
    exponential argument is never positive; both branches share the one
    exponential and the one division.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("logistic_link requires finite input")
    # e = exp(-|x|); the link is 1 / (1 + e) for x >= 0 and e / (1 + e) below
    e = np.abs(arr, out=np.empty_like(arr))
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(arr >= 0, 1.0, e)
    e += 1.0
    out /= e
    if np.ndim(x) == 0:
        return float(out)
    return out


def generate_truth(shape: Shape, r: int, gamma: float, generator: str,
                   seed: int) -> TruthMatrix:
    """Draw a bounded low-rank ground-truth matrix.

    gaussian_factor: product of two independent standard normal factors of
    width r, rescaled so the largest absolute entry equals gamma; the margin
    is whatever minimum absolute entry the draw produced.

    block_sign: rows and columns are split into r contiguous groups and each
    (row group, col group) cell is filled with +gamma or -gamma from an r x r
    random sign table, redrawn until the table has full rank.  Every entry
    has absolute value exactly gamma, so the margin equals gamma.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if r < 1 or r > shape.min_dim:
        raise ValueError(f"rank budget {r} outside [1, {shape.min_dim}]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    if generator == "gaussian_factor":
        attempt = 0
        while True:
            rng = make_rng(mix_seed(seed, attempt))
            a = rng.standard_normal((shape.m1, r))
            b = rng.standard_normal((shape.m2, r))
            prod = a @ b.T
            peak = np.max(np.abs(prod))
            if peak > 0:
                break
            attempt += 1
        entries = prod * (gamma / peak)
        tau = float(np.min(np.abs(entries)))
    else:
        attempt = 0
        while True:
            rng = make_rng(mix_seed(seed, attempt))
            signs = rng.integers(0, 2, size=(r, r)) * 2 - 1
            if np.linalg.matrix_rank(signs) == r:
                break
            attempt += 1
        row_groups = np.repeat(np.arange(r), np.diff(_group_bounds(shape.m1, r)))
        col_groups = np.repeat(np.arange(r), np.diff(_group_bounds(shape.m2, r)))
        entries = gamma * signs[np.ix_(row_groups, col_groups)].astype(float)
        tau = gamma

    return TruthMatrix(entries=entries, rank_budget=r, gamma=float(gamma),
                       margin_tau=tau, generator_tag=generator)


def _group_bounds(m: int, r: int) -> np.ndarray:
    """Boundaries of r near-equal contiguous groups covering range(m)."""
    return np.linspace(0, m, r + 1).round().astype(int)


def sample_observations(truth: TruthMatrix, n: int, scheme: str,
                        seed: int) -> SampleSet:
    """Draw observed indices and binary labels from the truth.

    iid_uniform draws n flat indices uniformly with replacement (one call to
    the generator), then one uniform variate per index for the label.
    bernoulli_mask draws one uniform variate per matrix entry and keeps
    entries below n / (m1 m2), in row-major order, then labels the kept
    entries.  Both consume a single Philox stream keyed by `seed`, indices
    first, labels second, so results are reproducible bit for bit.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    shape = truth.shape
    if n < 1:
        raise ValueError("sample count must be positive")
    if scheme == "bernoulli_mask" and n > shape.n_entries:
        raise ValueError("bernoulli_mask expected count exceeds matrix size")

    rng = make_rng(seed)
    if scheme == "iid_uniform":
        flat = rng.integers(0, shape.n_entries, size=n)
        rows, cols = np.divmod(flat, shape.m2)
        indices = np.column_stack([rows, cols]).astype(np.int64)
    else:
        mask = rng.random((shape.m1, shape.m2)) < n / shape.n_entries
        indices = np.argwhere(mask).astype(np.int64)

    probs = logistic_link(truth.entries[indices[:, 0], indices[:, 1]])
    u = rng.random(indices.shape[0])
    labels = np.where(u < probs, 1, -1).astype(np.int8)
    return SampleSet(indices=indices, labels=labels, scheme=scheme,
                     seed=int(seed), shape=shape)


def _check_matrix(X: np.ndarray, samples: SampleSet) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    expected = (samples.shape.m1, samples.shape.m2)
    if X.shape != expected:
        raise ValueError(f"matrix shape {X.shape} does not match samples {expected}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix entries must be finite")
    return X


def neg_log_likelihood(X: np.ndarray, samples: SampleSet) -> float:
    """Negative mean log-likelihood of the labels at the sampled entries.

    Each sample with label y at entry value x contributes log(1 + exp(-y x)),
    evaluated as max(-yx, 0) + log1p(exp(-|yx|)) so the link value is never
    materialized near 0 or 1.  The sampled entries are gathered through
    ``samples.flat`` into one vector that the rest of the evaluation reuses.
    """
    X = _check_matrix(X, samples)
    z = X.ravel().take(samples.flat)
    z *= samples.labels
    soft = np.abs(z)
    np.log1p(np.exp(np.negative(soft, out=soft), out=soft), out=soft)
    np.maximum(np.negative(z, out=z), 0.0, out=z)
    z += soft
    return float(np.mean(z))


def nll_gradient(X: np.ndarray, samples: SampleSet) -> np.ndarray:
    """Gradient of :func:`neg_log_likelihood` with respect to X.

    Entry (a, b) accumulates (link(X_ab) - 1{y=+1}) / n over the samples that
    hit it; unsampled entries stay zero.  The residuals are gathered and
    scattered through ``samples.flat``.
    """
    X = _check_matrix(X, samples)
    resid = logistic_link(X.ravel().take(samples.flat))
    resid -= samples.labels == 1
    # bincount adds the weights in sample order, as a scatter-add would
    grad = np.bincount(samples.flat, weights=resid,
                       minlength=X.size).reshape(X.shape)
    grad /= samples.n
    return grad
