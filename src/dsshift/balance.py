"""Doubly stochastic balancing of nonnegative matrices by ``bnewt``, the
inexact Newton iteration of Knight & Ruiz (2013, "A fast algorithm for
matrix balancing", IMA J. Numer. Anal. 33(3)).

It solves ``x * (A @ x) = 1``: ``A`` is ``W`` if symmetric, so ``r = c =
x``, and otherwise the embedding ``[[0, W], [W.T, 0]]``, never formed, so
``x = (r, c)``.  For ``W`` with total support ``S = diag(r) @ W @ diag(c)``
has unit row and column sums and exactly the zero pattern of ``W``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import (
    Graph, _dense, _is_symmetric, _require_finite_nonnegative, _require_square, _row, _values,
)

__all__ = [
    "BalanceResult",
    "DSOperator",
    "DSDiagnostics",
    "NotConvergedError",
    "UnbalanceableError",
    "sinkhorn_knopp",
    "verify_doubly_stochastic",
]

# Knight & Ruiz's delta and Delta: a Newton step scales each x_i by [0.1, 3].
_DELTA = 0.1
_BIG_DELTA = 3.0
_SQRT_EPS = np.sqrt(np.finfo(float).eps)


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
    number of balancing iterations (both zero for hand-built operators).
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
    #: Products with ``W``, or with its symmetric embedding (one each way).
    matvecs: int = field(default=0, compare=False)
    #: Worst row/column residual per iteration; the last is ``tolerance_achieved``.
    residual_history: np.ndarray = field(default=None, compare=False)


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

    The name is kept for API stability; the algorithm is Knight & Ruiz's
    (see the module docstring).  An iteration stops when every row and
    column sum is within ``tol`` of one, and otherwise takes a Newton step.

    Raises ValueError for non-finite or negative weights, before any
    iteration; UnbalanceableError for an all-zero row or column; and
    NotConvergedError (carrying the last residual) when ``max_iter``
    iterations do not reach ``tol``, which signals a matrix with support
    but no total support.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")

    w, n = _require_square(weights)
    if not isinstance(weights, Graph):  # a Graph checked its weights when built
        _require_finite_nonnegative(w, "weights")
    sparse = sp.issparse(w)
    symmetric = _is_symmetric(w)

    def matvec(z):
        return w @ z if symmetric else np.concatenate((w @ z[n:], w.T @ z[:n]))

    # x * (A @ x) holds the row sums of S, then (embedding) its column sums.
    x = np.ones(n if symmetric else 2 * n)
    v = matvec(x)
    matvecs = 1
    empty = {"row": np.flatnonzero(v[:n] == 0), "column": np.flatnonzero(v[-n:] == 0)}
    parts = [f"empty {kind}(s) {found.tolist()}" for kind, found in empty.items() if found.size]
    if parts:
        raise UnbalanceableError("unbalanceable: " + ", ".join(parts))
    history = []
    rold = float((1.0 - v) @ (1.0 - v))
    floor_ratio = None
    for iteration in range(1, max_iter + 1):
        rk = 1.0 - v
        residual = float(np.abs(rk).max())
        history.append(residual)
        if residual <= tol or iteration == max_iter:
            break
        # Knight & Ruiz's forcing term, without their eta_old safeguard.
        rout = float(rk @ rk)
        eta = max(min(0.9 * rout / rold, 0.1), 0.5 * tol / np.sqrt(rout))
        rold = rout
        # Preconditioned CG on (diag(x) A diag(x) + diag(v)) y = 1 + v from y = 1.
        y = np.ones_like(x)
        p = z = rk / v
        rho = float(rk @ z)
        while float(rk @ rk) > max(eta**2 * rout, tol**2):
            ap = x * matvec(x * p) + v * p
            matvecs += 1
            alpha = rho / float(p @ ap)
            y_next = y + alpha * p
            if y_next.min() <= _DELTA or y_next.max() >= _BIG_DELTA:
                moving = p != 0  # stop where the step leaves the box
                bound = np.where(p[moving] < 0, _DELTA, _BIG_DELTA)
                y += ((bound - y[moving]) / (alpha * p[moving])).min() * alpha * p
                break
            y = y_next
            rk = rk - alpha * ap
            z = rk / v
            rho, rho_old = float(rk @ z), rho
            p = z + (rho / rho_old) * p
        x *= y
        # Without total support x tends to 0 and infinity; capping its spread
        # at (spread of the weights) / sqrt(eps) makes such input stall.
        if x.max() * _SQRT_EPS > x.min():
            if floor_ratio is None:
                vals = _values(w)
                floor_ratio = vals.max() / np.min(vals, where=vals > 0, initial=np.inf) / _SQRT_EPS
            np.maximum(x, x.max() / floor_ratio, out=x)
        v = x * matvec(x)
        matvecs += 1
    if not residual <= tol:  # NaN too, so the operator below is finite
        raise NotConvergedError(
            f"no convergence after {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e}); "
            "the matrix may lack total support",
            residual=residual,
            iterations=max_iter,
        )

    r, c = x[:n], x[-n:]
    if sparse:
        s = sp.diags_array(r) @ w @ sp.diags_array(c)
    else:
        s = r[:, None] * w
        s *= c
    # Positive scalings of checked weights: no second pass of DSOperator's checks.
    operator = object.__new__(DSOperator)
    operator.__dict__.update(matrix=s, tolerance_achieved=residual, iterations_used=iteration)
    return BalanceResult(operator, r, c, matvecs=matvecs, residual_history=np.array(history))
