"""Graph shifts, polynomial graph filters, diffusion, matrix norms, and
wide-sense stationarity checks for doubly stochastic operators.

A shift replaces each vertex value by a convex combination of its incoming
neighbours' values, ``y[m] = sum_n S[m, n] x[n]``.  For a doubly stochastic
``S`` this preserves the signal mean and contracts every L1/L2/Linf norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _require_square, _row_blocks, _Scaled

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


def _require_finite(v: np.ndarray, what: str, label: str) -> None:
    """ValueError naming the first non-finite entry of ``v``, in row-major order."""
    if not (finite := np.isfinite(v)).all():
        bad = np.unravel_index(finite.argmin(), v.shape)
        at = int(bad[0]) if v.ndim == 1 else tuple(int(i) for i in bad)
        raise ValueError(f"{what} must be finite, got {v[bad]} at {label} {at}")


def _operator_and_signal(S, x):
    a, n = _require_square(S, "operator")
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != n:
        raise ValueError(f"signal of shape {v.shape} does not match operator of shape {a.shape}")
    _require_finite(v, "signal", "vertex")
    return a, v


def apply_shift(S, x) -> np.ndarray:
    """One graph shift: ``y = S @ x``."""
    a, v = _operator_and_signal(S, x)
    return a @ v


def apply_filter(S, coefficients, x) -> np.ndarray:
    """Apply the polynomial filter ``y = sum_k h[k] * S**k @ x``.

    Evaluated Horner style with one shift per order, never forming matrix
    powers, so cost is O(K * nnz).  A non-finite coefficient or signal entry
    is a ValueError naming its index.
    """
    a, v = _operator_and_signal(S, x)
    h = np.asarray(coefficients, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("coefficients must be a nonempty 1-D sequence")
    _require_finite(h, "coefficients", "index")
    y = h[-1] * v
    for hk in h[-2::-1]:
        y = hk * v + a @ y
    return y


def diffuse(S, x, k: int) -> np.ndarray:
    """``k`` repeated shifts, ``y = S**k @ x`` (``k = 0`` returns a copy of x).
    ``k`` must be a Python or numpy integer: a float or a bool is a ValueError."""
    if not (integer := np.issubdtype(type(k), np.integer)) or k < 0:
        got = k if integer else repr(k)  # "2" reads '2', not a count
        raise ValueError(f"shift count must be a nonnegative integer, got {got}")
    a, v = _operator_and_signal(S, x)
    y = v.copy()
    for _ in range(k):
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
    of 1000 steps.  ``tol`` must be nonnegative (ValueError otherwise).
    """
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    a, v = _operator_and_signal(S, x)
    target = v.mean()
    y = v.copy()
    best, stale = np.inf, 0
    residual = float(np.abs(y - target).max())
    if residual <= tol:
        return DiffusionResult(True, 0, residual, "converged")
    for step in range(1, _MAX_STEPS + 1):
        y = a @ y
        residual = float(np.abs(y - target).max())
        if residual <= tol:
            return DiffusionResult(True, step, residual, "converged")
        best, stale = (residual, 0) if residual < best else (best, stale + 1)
        if stale >= _STALE_STEPS:
            return DiffusionResult(False, step, residual, "non-convergent diffusion")
    return DiffusionResult(False, _MAX_STEPS, residual, "max steps reached")


def matrix_norm(A, p) -> float:
    """Matrix norm of a square matrix for ``p`` in {1, 2, inf}.

    p=1 is the maximum absolute column sum, p=inf the maximum absolute row
    sum, and p=2 the spectral norm (largest singular value), computed by
    scipy's ``svds`` (ARPACK on ``A.T @ A``, to machine precision) from a
    fixed-seed start vector, so the result is deterministic.  Dense (``|a|`` summed a
    row block at a time) and sparse storage agree; a balanced operator is read unformed.
    """
    a, n = _require_square(A)
    if p not in (1, 2, np.inf):
        raise ValueError(f"unsupported norm order {p!r}; expected 1, 2, or inf")
    axis = 1 if p == np.inf else 0
    if isinstance(a, np.ndarray):  # |a| a row block at a time, never a dense copy
        sums = [np.abs(rows).sum(axis) for _, rows in _row_blocks(a)]
        sums = np.sum(sums, 0) if axis == 0 else np.concatenate(sums)
    else:  # CSR's abs copies only its data; a balanced operator's entries are nonnegative
        sums = a.sum(axis) if isinstance(a, _Scaled) else abs(a).sum(axis)
    norm = float(sums.max())
    if p != 2 or n < 2 or norm == 0:  # ARPACK needs n >= 2 and fails on a zero operator
        return norm  # of a 1 x 1 matrix, |a_00| is every norm
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
    form; both must be within ``tol >= 0`` to pass.  The covariance must be
    symmetric (to 1e-12) and is assumed positive semidefinite; a non-finite
    mean or covariance entry is a ValueError naming its index.
    """
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    a, n = _require_square(S, "operator")
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(covariance, dtype=float)
    if mu.shape != (n,):
        raise ValueError(f"mean of shape {mu.shape} does not match operator size {n}")
    if sigma.shape != (n, n):
        raise ValueError(f"covariance of shape {sigma.shape} does not match operator size {n}")
    _require_finite(mu, "mean", "vertex")
    _require_finite(sigma, "covariance", "entry")
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
