"""Doubly stochastic balancing by ``bnewt``, the inexact Newton iteration of
Knight & Ruiz (2013, "A fast algorithm for matrix balancing", IMA J. Numer.
Anal. 33(3)), which solves ``x * (A @ x) = 1``: ``A`` is ``W`` if symmetric,
so ``r = c = x``, and otherwise the embedding ``[[0, W], [W.T, 0]]``, never
formed, so ``x = (r, c)``.  ``S = diag(r) @ W @ diag(c)``, with unit row and
column sums and exactly the zero pattern of ``W``, exists exactly when ``W``
has total support (Sinkhorn & Knopp 1967).  Balancing stops on what it
measures, the residual and the spread of ``x``, not on an iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    Graph, _checked, _dense, _min_positive, _positive_row, _require_square, _Scaled,
    _total_support_issue, _trusted,
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
_STALL = 10  # iterations without a better residual, once it is at rounding level
_MAX_ITERATIONS = 10_000  # a backstop: the stall or the exact test stops balancing first


class UnbalanceableError(ValueError):
    """The matrix lacks total support (see ``validate_weights``) and admits no balancing."""


class NotConvergedError(RuntimeError):
    """Balancing stopped above ``tol``: the residual stalled at rounding level."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False, init=False)
class DSOperator:
    """A (near) doubly stochastic operator with balancing provenance.

    ``tolerance_achieved`` is the worst row/column-sum residual at construction
    and ``iterations_used`` the number of balancing iterations (both zero for
    hand-built operators).  A hand-built operator copies its matrix, as a Graph
    does, or shares another operator's storage.  A balanced one keeps ``W``, ``r``
    and ``c`` of ``diag(r) W diag(c)``; ``matrix`` is formed on request, then kept.
    """

    tolerance_achieved: float = 0.0
    iterations_used: int = 0

    def __init__(self, matrix, tolerance_achieved: float = 0.0, iterations_used: int = 0):
        stored = matrix._stored if isinstance(matrix, DSOperator) else _checked(matrix, "operator")
        self.__dict__.update(_stored=stored,
                             tolerance_achieved=tolerance_achieved, iterations_used=iterations_used)

    @property
    def matrix(self):
        s = self._stored
        return s.formed() if isinstance(s, _Scaled) else s

    @property
    def n(self) -> int:
        return self._stored.shape[0]

    def row(self, m: int) -> np.ndarray:
        columns, values = _positive_row(self._stored, m)
        row = np.zeros(self.n)
        row[columns] = values
        return row

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
    """Check row sums, column sums, and nonnegativity of ``S`` against ``tol >= 0``."""
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    m, _ = _require_square(S)
    row_res = float(np.abs(m.sum(axis=1) - 1.0).max())
    col_res = float(np.abs(m.sum(axis=0) - 1.0).max())
    min_entry = float(m.min())  # implicit zeros of CSR count, as dense zeros do
    passed = row_res <= tol and col_res <= tol and min_entry >= -tol
    return DSDiagnostics(max_row_residual=row_res, max_col_residual=col_res,
                         min_entry=min_entry, tolerance=tol, passed=passed)


def sinkhorn_knopp(weights, tol: float = 1e-10) -> BalanceResult:
    """Balance a nonnegative matrix to doubly stochastic form.

    The name is kept for API stability; the algorithm is Knight & Ruiz's
    (see the module docstring).  An iteration stops when every row and
    column sum is within ``tol`` of one, and otherwise takes a Newton step.

    Raises ValueError for non-finite or negative weights, or a ``tol`` that
    is not positive (NaN included), before any iteration; UnbalanceableError
    for an all-zero row or column, or for an entry on no positive diagonal,
    named by the exact total-support test that runs once if the scaling
    spreads too wide or the Newton system turns singular; NotConvergedError
    when the residual stalls at rounding level above ``tol``.
    """
    if not tol > 0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")

    graph = weights if isinstance(weights, Graph) else Graph(weights)
    n, symmetric = graph.n_vertices, graph.is_symmetric()
    supported = False  # W passed the exact total-support test, which then never runs again

    def scaled(p):  # diag(x) A diag(x) @ p, by the operator returned: diag(r) W diag(c), (r, c) = x
        s = _Scaled(graph, x[:n], x[-n:])
        return s @ p if symmetric else np.concatenate((s @ p[n:], s.rmatvec(p[:n])))

    def require_total_support():
        nonlocal supported
        if not supported and (issue := _total_support_issue(graph.weights, symmetric)):
            raise UnbalanceableError(issue)
        supported = True

    # x * (A @ x) holds the row sums of S, then (embedding) its column sums.
    x = np.ones(n if symmetric else 2 * n)
    v = scaled(x)  # A @ 1
    matvecs = 1
    empty = {"row": np.flatnonzero(v[:n] == 0), "column": np.flatnonzero(v[-n:] == 0)}
    parts = [f"empty {kind}(s) {found.tolist()}" for kind, found in empty.items() if found.size]
    if parts:
        raise UnbalanceableError("unbalanceable: " + ", ".join(parts))
    # the uniform start balances the mean sum: exact for constant sums, free of W's units
    x *= (s := 1.0 / np.sqrt(v.mean()))
    v *= s * s
    history = []
    best, stalled = np.inf, 0
    spread_limit = None
    rold = float((1.0 - v) @ (1.0 - v))
    for iteration in range(1, _MAX_ITERATIONS + 1):
        rk = 1.0 - v
        residual = float(np.abs(rk).max())
        history.append(residual)
        if residual <= tol:
            break
        best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
        if (best <= _SQRT_EPS and stalled == _STALL) or iteration == _MAX_ITERATIONS:
            raise NotConvergedError(f"no convergence: residual stalled at {best:.3e} after "
                                    f"{iteration} iterations, above tol {tol:.3e}", best, iteration)
        # Knight & Ruiz's forcing term, without their eta_old safeguard.
        rout = float(rk @ rk)
        eta = max(min(0.9 * rout / rold, 0.1), 0.5 * tol / np.sqrt(rout))
        rold = rout
        # Preconditioned CG on (diag(x) A diag(x) + diag(v)) y = 1 + v from y = 1.
        y = np.ones_like(x)
        p = z = rk / v
        rho = float(rk @ z)
        while float(rk @ rk) > max(eta**2 * rout, tol**2):
            ap = scaled(p) + v * p
            matvecs += 1
            curvature = float(p @ ap)
            if curvature <= 0:  # p is in the null space of the system
                require_total_support()
                break
            alpha = rho / curvature
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
        # Without total support x tends to 0 and infinity: test W when x spreads wide.
        if not supported and x.max() * _SQRT_EPS > x.min():
            if spread_limit is None:
                spread_limit = graph.weights.max() / _min_positive(graph.weights) / _SQRT_EPS
            if x.max() > x.min() * spread_limit:
                require_total_support()
        v = scaled(np.ones_like(x))
        matvecs += 1
    r, c = x[:n], x[-n:]
    # Positive scalings of checked weights: no second pass of DSOperator's checks;
    # copies, since the result's scalings are the caller's to change.
    operator = _trusted(DSOperator, _stored=_Scaled(graph, r.copy(), c.copy()),
                        tolerance_achieved=residual, iterations_used=iteration)
    return BalanceResult(operator, r, c, matvecs=matvecs, residual_history=np.array(history))
