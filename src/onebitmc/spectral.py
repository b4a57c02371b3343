"""Dense spectral primitives: SVD, singular-value shrinkage, norm-ball projections.

Everything here operates on full dense matrices through LAPACK; the problem
sizes this package targets (a few hundred per side) make truncated or
randomized decompositions unnecessary, and dense determinism keeps runs
reproducible.

Only the public svd() fixes the signs of the singular vectors (see its
docstring).  svt_prox, project_nuclear_ball and the solvers' prox steps and
feasibility reports rebuild a matrix from its singular triple or read
quantities that do not depend on signs, so they call the sign-free
_thin_svd: flipping a (left, right) pair negates both factors exactly, and
every reconstruction is the same bit for bit either way.  nuclear_norm asks
LAPACK for singular values only, through the same checks as _thin_svd.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SvdTriple:
    """Thin SVD with descending singular values and a fixed sign convention."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.T


def _thin_svd(X: np.ndarray, compute_uv: bool = True):
    """LAPACK thin SVD (u, s, vt) of a finite matrix, signs as LAPACK left them.

    With compute_uv=False only the singular values s.  Raises ValueError on
    non-finite entries and ArithmeticError when LAPACK does not converge.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("svd requires finite entries")
    try:
        return np.linalg.svd(X, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"SVD failed to converge on {X.shape} matrix: {exc}")


def svd(X: np.ndarray) -> SvdTriple:
    """Thin SVD with signs fixed so each left vector's first nonzero entry is >= 0.

    An entry of a left vector counts as nonzero when its magnitude exceeds
    1e-14 * max(1, largest magnitude in that vector); a vector with no such
    entry keeps LAPACK's sign.  numpy already returns descending singular
    values; the sign flip is applied jointly to each (left, right) column pair
    so the reconstruction is unchanged.
    """
    u, s, vt = _thin_svd(X)
    if s.size:
        mag = np.abs(u)
        nonzero = mag > 1e-14 * np.maximum(1.0, mag.max(axis=0))
        lead = u[np.argmax(nonzero, axis=0), np.arange(s.size)]
        flip = nonzero.any(axis=0) & (lead < 0)
        u[:, flip] *= -1.0
        vt[flip] *= -1.0
    return SvdTriple(left=u, singular_values=s, right=vt.T)


def nuclear_norm(X: np.ndarray) -> float:
    """Sum of singular values; raises as _thin_svd does."""
    return float(_thin_svd(X, compute_uv=False).sum())


def svt_prox(Z: np.ndarray, tau: float) -> np.ndarray:
    """Soft-threshold the singular values of Z by tau.

    Returns the unique minimizer of 0.5 ||X - Z||_F^2 + tau ||X||_*.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    u, s, vt = _thin_svd(Z)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def project_nuclear_ball(Z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto { X : ||X||_* <= radius }.

    If Z is already inside the ball it is returned unchanged.  Otherwise the
    singular values are projected onto the simplex of radius `radius` with the
    sort-and-shift rule (Duchi et al. 2008) and the matrix is rebuilt.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    u, s, vt = _thin_svd(Z)
    if s.sum() <= radius:
        return np.asarray(Z, dtype=float)
    return (u * _project_simplex(s, radius)) @ vt


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Project a nonnegative sorted-or-not vector onto { w >= 0, sum w = total }."""
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    rho = np.nonzero(u * k > cssv - total)[0][-1]
    theta = (cssv[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def clip_entries(Z: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """Entrywise clamp to [-gamma, gamma].

    Returns the clamped matrix together with the pre-clip violation
    max(0, ||Z||_inf - gamma) as a diagnostic.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    Z = np.asarray(Z, dtype=float)
    violation = max(0.0, float(np.max(np.abs(Z))) - gamma) if Z.size else 0.0
    return np.clip(Z, -gamma, gamma), violation


def project_factor_rows(U: np.ndarray, bound: float) -> np.ndarray:
    """Rescale every row with Euclidean norm above `bound` back onto the bound."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    U = np.asarray(U, dtype=float)
    norms = np.linalg.norm(U, axis=1)
    scale = np.ones_like(norms)
    over = norms > bound
    scale[over] = bound / norms[over]
    return U * scale[:, None]
