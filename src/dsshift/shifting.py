"""Graph shifts, polynomial graph filters, diffusion, matrix norms, and
wide-sense stationarity checks for doubly stochastic operators.

A shift replaces each vertex value by a convex combination of its incoming
neighbours' values, ``y[m] = sum_n S[m, n] x[n]``.  For a doubly stochastic
``S`` this preserves the signal mean and contracts every L1/L2/Linf norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import _require_square, as_matrix

__all__ = [
    "DiffusionResult",
    "WSSDiagnostics",
    "apply_filter",
    "apply_shift",
    "diffuse",
    "diffusion_convergence",
    "matrix_norm",
    "wss_check",
]


def _operator_and_signal(S, x):
    a = as_matrix(S)
    _require_square(a, "operator")
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise ValueError(
            f"signal of shape {v.shape} does not match operator of shape {a.shape}"
        )
    return a, v


def apply_shift(S, x) -> np.ndarray:
    """One graph shift: ``y = S @ x``."""
    a, v = _operator_and_signal(S, x)
    return np.asarray(a @ v).ravel()


def apply_filter(S, coefficients, x) -> np.ndarray:
    """Apply the polynomial filter ``y = sum_k h[k] * S**k @ x``.

    Evaluated Horner style with one shift per order, never forming matrix
    powers, so cost is O(K * nnz).
    """
    a, v = _operator_and_signal(S, x)
    h = np.asarray(coefficients, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("coefficients must be a nonempty 1-D sequence")
    y = h[-1] * v
    for hk in h[-2::-1]:
        y = hk * v + np.asarray(a @ y).ravel()
    return y


def diffuse(S, x, k: int) -> np.ndarray:
    """``k`` repeated shifts, ``y = S**k @ x`` (``k = 0`` returns a copy of x)."""
    if k < 0 or int(k) != k:
        raise ValueError(f"shift count must be a nonnegative integer, got {k}")
    a, v = _operator_and_signal(S, x)
    y = v.copy()
    for _ in range(int(k)):
        y = np.asarray(a @ y).ravel()
    return y


@dataclass(frozen=True)
class DiffusionResult:
    """Outcome of iterated diffusion toward the uniform mean signal."""

    converged: bool
    steps: int
    residual: float
    status: str


def diffusion_convergence(
    S, x, tol: float = 1e-6, max_steps: int = 1000, window: int = 10
) -> DiffusionResult:
    """Iterate shifts until ``S**k x`` is uniformly within ``tol`` of mean(x).

    Convergence holds for primitive operators (for instance strictly
    positive ones).  Operators with periodic structure, such as permutation
    matrices, oscillate forever: this is detected when the best residual
    has not improved for ``window`` consecutive steps, and reported as
    ``status="non-convergent diffusion"`` rather than looping to
    ``max_steps``.
    """
    a, v = _operator_and_signal(S, x)
    target = v.mean()
    y = v.copy()
    best = np.inf
    stale = 0
    residual = float(np.abs(y - target).max())
    if residual <= tol:
        return DiffusionResult(True, 0, residual, "converged")
    for step in range(1, max_steps + 1):
        y = np.asarray(a @ y).ravel()
        residual = float(np.abs(y - target).max())
        if residual <= tol:
            return DiffusionResult(True, step, residual, "converged")
        if residual < best:
            best = residual
            stale = 0
        else:
            stale += 1
            if stale >= window:
                return DiffusionResult(False, step, residual, "non-convergent diffusion")
    return DiffusionResult(False, max_steps, residual, "max steps reached")


def matrix_norm(A, p) -> float:
    """Matrix norm for ``p`` in {1, 2, inf}.

    p=1 is the maximum absolute column sum, p=inf the maximum absolute row
    sum, and p=2 the spectral norm sqrt(lambda_max(A.T @ A)), computed by
    power iteration with a fixed-seed start vector to relative tolerance
    1e-10.
    """
    a = as_matrix(A)
    _require_square(a)
    if p == 1:
        return float(np.asarray(abs(a).sum(axis=0)).ravel().max())
    if p == np.inf or p == float("inf"):
        return float(np.asarray(abs(a).sum(axis=1)).ravel().max())
    if p == 2:
        return _spectral_norm(a)
    raise ValueError(f"unsupported norm order {p!r}; expected 1, 2, or inf")


def _spectral_norm(a, rel_tol: float = 1e-10, max_iter: int = 20_000) -> float:
    """Largest singular value by power iteration on ``A.T @ A``."""
    n = a.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        av = np.asarray(a @ v).ravel()
        sigma_new = float(np.linalg.norm(av))
        u = np.asarray(a.T @ av).ravel()
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return sigma_new
        v = u / norm_u
        if abs(sigma_new - sigma) <= rel_tol * max(sigma_new, 1e-30):
            return sigma_new
        sigma = sigma_new
    return sigma


@dataclass(frozen=True)
class WSSDiagnostics:
    """Closed-form wide-sense stationarity residuals under a given shift."""

    mean_residual: float
    covariance_residual: float
    tolerance: float
    passed: bool


def wss_check(S, mean, covariance, tol: float) -> WSSDiagnostics:
    """Check that first and second moments are invariant under the shift.

    Evaluates ``max|S mu - mu|`` and ``max|S Sigma S.T - Sigma|`` in closed
    form; both must be within ``tol`` to pass.  The covariance must be
    symmetric (to 1e-12) and is assumed positive semidefinite.
    """
    a = as_matrix(S)
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(covariance, dtype=float)
    n = _require_square(a, "operator")
    if mu.shape != (n,):
        raise ValueError(f"mean of shape {mu.shape} does not match operator size {n}")
    if sigma.shape != (n, n):
        raise ValueError(
            f"covariance of shape {sigma.shape} does not match operator size {n}"
        )
    if float(np.abs(sigma - sigma.T).max()) > 1e-12:
        raise ValueError("covariance must be symmetric (tolerance 1e-12)")

    ad = a.toarray() if sp.issparse(a) else a
    mean_res = float(np.abs(ad @ mu - mu).max())
    cov_res = float(np.abs(ad @ sigma @ ad.T - sigma).max())
    return WSSDiagnostics(
        mean_residual=mean_res,
        covariance_residual=cov_res,
        tolerance=tol,
        passed=mean_res <= tol and cov_res <= tol,
    )
