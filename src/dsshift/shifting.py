"""Graph shifts, polynomial graph filters, diffusion, matrix norms, and
wide-sense stationarity checks for doubly stochastic operators.

A shift replaces each vertex value by a convex combination of its incoming
neighbours' values, ``y[m] = sum_n S[m, n] x[n]``.  For a doubly stochastic
``S`` this preserves the signal mean and contracts every L1/L2/Linf norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _require_square, _values

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

_MAX_STEPS = 1000
_STALE_STEPS = 10


def _operator_and_signal(S, x):
    a, n = _require_square(S, "operator")
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != n:
        raise ValueError(
            f"signal of shape {v.shape} does not match operator of shape {a.shape}"
        )
    return a, v


def apply_shift(S, x) -> np.ndarray:
    """One graph shift: ``y = S @ x``."""
    a, v = _operator_and_signal(S, x)
    return a @ v


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
        y = hk * v + a @ y
    return y


def diffuse(S, x, k: int) -> np.ndarray:
    """``k`` repeated shifts, ``y = S**k @ x`` (``k = 0`` returns a copy of x)."""
    if k < 0 or int(k) != k:
        raise ValueError(f"shift count must be a nonnegative integer, got {k}")
    a, v = _operator_and_signal(S, x)
    y = v.copy()
    for _ in range(int(k)):
        y = a @ y
    return y


@dataclass(frozen=True)
class DiffusionResult:
    """Outcome of iterated diffusion toward the uniform mean signal."""

    converged: bool
    steps: int
    residual: float
    status: str


def diffusion_convergence(S, x, tol: float = 1e-6) -> DiffusionResult:
    """Iterate shifts until ``S**k x`` is uniformly within ``tol`` of mean(x).

    Convergence holds for primitive operators (for instance strictly
    positive ones).  Operators with periodic structure, such as permutation
    matrices, oscillate forever: this is detected when the best residual
    has not improved for 10 consecutive steps, and reported as
    ``status="non-convergent diffusion"`` rather than looping to the limit
    of 1000 steps.
    """
    a, v = _operator_and_signal(S, x)
    target = v.mean()
    y = v.copy()
    best = np.inf
    stale = 0
    residual = float(np.abs(y - target).max())
    if residual <= tol:
        return DiffusionResult(True, 0, residual, "converged")
    for step in range(1, _MAX_STEPS + 1):
        y = a @ y
        residual = float(np.abs(y - target).max())
        if residual <= tol:
            return DiffusionResult(True, step, residual, "converged")
        if residual < best:
            best = residual
            stale = 0
        else:
            stale += 1
            if stale >= _STALE_STEPS:
                return DiffusionResult(False, step, residual, "non-convergent diffusion")
    return DiffusionResult(False, _MAX_STEPS, residual, "max steps reached")


def matrix_norm(A, p) -> float:
    """Matrix norm of a square matrix for ``p`` in {1, 2, inf}.

    p=1 is the maximum absolute column sum, p=inf the maximum absolute row
    sum, and p=2 the spectral norm (largest singular value), computed by
    scipy's ``svds`` (ARPACK on ``A.T @ A``, to machine precision) from a
    fixed-seed start vector, so the result is deterministic.  Dense and
    sparse storage give the same norms.
    """
    a, n = _require_square(A)
    if p == 1:
        return float(abs(a).sum(axis=0).max())
    if p == np.inf or p == float("inf"):
        return float(abs(a).sum(axis=1).max())
    if p != 2:
        raise ValueError(f"unsupported norm order {p!r}; expected 1, 2, or inf")
    if n < 2 or not _values(a).any():  # ARPACK needs n >= 2 and fails on a zero operator
        return float(abs(a).max())
    # Imported here: scipy.sparse.linalg is not needed by ``import dsshift``.
    from scipy.sparse.linalg import svds

    v0 = np.random.default_rng(0).standard_normal(n)
    return float(svds(a, k=1, v0=v0, return_singular_vectors=False)[0])


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
    a, n = _require_square(S, "operator")
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(covariance, dtype=float)
    if mu.shape != (n,):
        raise ValueError(f"mean of shape {mu.shape} does not match operator size {n}")
    if sigma.shape != (n, n):
        raise ValueError(
            f"covariance of shape {sigma.shape} does not match operator size {n}"
        )
    if float(np.abs(sigma - sigma.T).max()) > 1e-12:
        raise ValueError("covariance must be symmetric (tolerance 1e-12)")

    mean_res = float(np.abs(a @ mu - mu).max())
    cov_res = float(np.abs(a @ (a @ sigma).T - sigma).max())  # S Sigma S.T, Sigma symmetric
    return WSSDiagnostics(
        mean_residual=mean_res,
        covariance_residual=cov_res,
        tolerance=tol,
        passed=mean_res <= tol and cov_res <= tol,
    )
