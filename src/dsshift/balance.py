"""Doubly stochastic balancing of nonnegative matrices by Sinkhorn-Knopp.

Alternating row/column normalization converges, for matrices with total
support, to ``S = diag(r) @ W @ diag(c)`` whose rows and columns all sum
to one.  Scaling preserves the zero pattern of ``W`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import _dense, _require_finite_nonnegative, _require_square, _row

__all__ = [
    "BalanceResult",
    "DSOperator",
    "DSDiagnostics",
    "NotConvergedError",
    "UnbalanceableError",
    "sinkhorn_knopp",
    "verify_doubly_stochastic",
]

# Scaling entries below this signal numerical collapse (loss of support).
_UNDERFLOW_FLOOR = 1e-300


class UnbalanceableError(ValueError):
    """The matrix has an all-zero row or column and admits no balancing."""


class NotConvergedError(RuntimeError):
    """Balancing did not reach tolerance; the matrix likely lacks total support."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class DSOperator:
    """A (near) doubly stochastic operator with balancing provenance.

    ``matrix`` is dense or ``csr_array``; ``tolerance_achieved`` is the worst
    row/column-sum residual at construction and ``iterations_used`` the
    number of balancing sweeps (both zero for hand-built operators).
    """

    matrix: object
    tolerance_achieved: float = 0.0
    iterations_used: int = 0

    def __post_init__(self):
        m, _ = _require_square(self.matrix, "operator")
        _require_finite_nonnegative(m, "operator entries")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row(self, m: int) -> np.ndarray:
        return _row(self.matrix, m)

    def dense(self) -> np.ndarray:
        return _dense(self.matrix)


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Balanced operator together with the diagonal scaling vectors,
    satisfying ``operator.matrix == diag(row_scaling) @ W @ diag(col_scaling)``."""

    operator: DSOperator
    row_scaling: np.ndarray
    col_scaling: np.ndarray


@dataclass(frozen=True)
class DSDiagnostics:
    """Row/column-sum residuals of a candidate doubly stochastic matrix."""

    max_row_residual: float
    max_col_residual: float
    min_entry: float
    tolerance: float
    passed: bool

    @property
    def residual(self) -> float:
        return max(self.max_row_residual, self.max_col_residual)


def verify_doubly_stochastic(S, tol: float = 1e-8) -> DSDiagnostics:
    """Check row sums, column sums, and nonnegativity of ``S`` against ``tol``."""
    m, _ = _require_square(S)
    row_res = float(np.abs(m.sum(axis=1) - 1.0).max())
    col_res = float(np.abs(m.sum(axis=0) - 1.0).max())
    min_entry = float(m.min())  # implicit zeros of CSR count, as dense zeros do
    passed = row_res <= tol and col_res <= tol and min_entry >= -tol
    return DSDiagnostics(
        max_row_residual=row_res,
        max_col_residual=col_res,
        min_entry=min_entry,
        tolerance=tol,
        passed=passed,
    )


def sinkhorn_knopp(weights, tol: float = 1e-10, max_iter: int = 10_000) -> BalanceResult:
    """Balance a nonnegative matrix to doubly stochastic form.

    Each sweep updates the column scaling from the current row scaling and
    then the row scaling from the new column scaling:

        c <- 1 / (W.T @ r),   r <- 1 / (W @ c)

    and stops once every row and column sum of ``diag(r) @ W @ diag(c)``
    is within ``tol`` of one.

    Raises ValueError for non-finite or negative weights, before any
    sweep; UnbalanceableError for an all-zero row or column; and
    NotConvergedError (carrying the last residual) when ``max_iter``
    sweeps do not reach ``tol``, which signals a matrix with support but
    no total support.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")

    w, n = _require_square(weights)
    _require_finite_nonnegative(w, "weights")
    sparse = sp.issparse(w)

    empty_rows = np.flatnonzero(w.sum(axis=1) == 0)
    empty_cols = np.flatnonzero(w.sum(axis=0) == 0)
    if empty_rows.size or empty_cols.size:
        parts = []
        if empty_rows.size:
            parts.append(f"empty row(s) {empty_rows.tolist()}")
        if empty_cols.size:
            parts.append(f"empty column(s) {empty_cols.tolist()}")
        raise UnbalanceableError("unbalanceable: " + ", ".join(parts))

    wt = w.T.tocsr() if sparse else w.T
    r = np.ones(n)
    wtr = wt @ r
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        c = 1.0 / wtr
        wc = w @ c
        r = 1.0 / wc
        if min(r.min(), c.min()) < _UNDERFLOW_FLOOR:
            raise NotConvergedError(
                "scaling underflow during balancing (entries below 1e-300)",
                residual=float(residual),
                iterations=iteration,
            )
        # Reused by the next sweep's column update: two matvecs per sweep.
        wtr = wt @ r
        # Residuals of S = diag(r) W diag(c): rows are exact by construction
        # of r; columns carry the remaining error.
        row_res = float(np.abs(r * wc - 1.0).max())
        col_res = float(np.abs(c * wtr - 1.0).max())
        residual = max(row_res, col_res)
        if residual <= tol:
            break
    else:
        raise NotConvergedError(
            f"no convergence after {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e}); "
            "the matrix may lack total support",
            residual=float(residual),
            iterations=max_iter,
        )

    if sparse:
        s = sp.diags_array(r) @ w @ sp.diags_array(c)
    else:
        s = r[:, None] * w
        s *= c
    operator = DSOperator(s, tolerance_achieved=residual, iterations_used=iteration)
    return BalanceResult(operator=operator, row_scaling=r, col_scaling=c)
