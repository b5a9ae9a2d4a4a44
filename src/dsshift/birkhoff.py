"""Decompose a doubly stochastic matrix into a convex combination of
permutation matrices, and reconstruct it.

Greedy extraction: repeatedly find a perfect matching on the bipartite
graph of positive entries, subtract the minimum matched entry times the
corresponding permutation, and stop when the residual mass is negligible.
Every extraction zeroes at least one entry, so the process terminates; for
an N x N input it needs at most (N-1)**2 + 1 terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .balance import verify_doubly_stochastic
from .graphs import _require_square, as_matrix

__all__ = [
    "BirkhoffDecomposition",
    "DecompositionError",
    "birkhoff_decompose",
    "max_terms",
    "perfect_matching",
    "reconstruct",
]


class DecompositionError(RuntimeError):
    """No perfect matching exists while significant residual mass remains."""


def max_terms(n: int) -> int:
    """Worst-case number of permutations needed for an ``n x n`` matrix."""
    return (n - 1) ** 2 + 1


@dataclass(frozen=True, eq=False)
class BirkhoffDecomposition:
    """Convex combination ``sum_i a_i P_i`` of permutation matrices.

    ``coefficients`` has shape (k,) and sums to 1; ``permutations`` has
    shape (k, n) where row i is the image array of P_i, meaning
    ``P_i[m, permutations[i, m]] = 1``.
    """

    coefficients: np.ndarray
    permutations: np.ndarray

    @property
    def n_terms(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.permutations.shape[1])

    def terms(self):
        """Iterate ``(coefficient, image_array)`` pairs in extraction order."""
        return zip(self.coefficients, self.permutations)


def perfect_matching(support) -> np.ndarray | None:
    """Perfect matching of rows to columns on a boolean support matrix.

    Kuhn's augmenting-path algorithm with rows processed, and candidate
    columns scanned, in ascending order, so the result is deterministic.
    Returns the image array (row -> matched column) or None when no
    perfect matching exists.
    """
    mask = np.asarray(support, dtype=bool)
    n = _require_square(mask, "support")
    adjacency = [np.flatnonzero(mask[m]) for m in range(n)]
    col_owner = np.full(n, -1, dtype=np.int64)
    row_match = np.full(n, -1, dtype=np.int64)

    # Greedy seed: each row claims its lowest free column.
    for m in range(n):
        for c in adjacency[m]:
            if col_owner[c] == -1:
                col_owner[c] = m
                row_match[m] = c
                break

    def augment(m: int, visited: np.ndarray) -> bool:
        for c in adjacency[m]:
            if not visited[c]:
                visited[c] = True
                if col_owner[c] == -1 or augment(col_owner[c], visited):
                    col_owner[c] = m
                    row_match[m] = c
                    return True
        return False

    for m in range(n):
        if row_match[m] == -1 and not augment(m, np.zeros(n, dtype=bool)):
            return None
    return row_match


def birkhoff_decompose(S, zero_tol: float = 1e-12) -> BirkhoffDecomposition:
    """Greedy Birkhoff extraction of a doubly stochastic matrix.

    Residual entries at or below ``zero_tol`` are treated as structural
    zeros, which absorbs floating-point dust that would otherwise prevent
    termination.  Coefficients are renormalized to sum exactly to 1 once
    the residual mass drops below ``n * zero_tol``.

    ``zero_tol`` should sit at or above the row/column-sum residual of the
    input: a matrix balanced to 1e-10 carries leftover imbalance near that
    scale, which only counts as dust when ``zero_tol`` covers it.

    Raises ValueError when ``S`` is not doubly stochastic to 1e-8, and
    DecompositionError if no perfect matching exists while the residual
    mass is still above ``n * zero_tol``.
    """
    if zero_tol <= 0:
        raise ValueError(f"zero_tol must be positive, got {zero_tol}")
    a = as_matrix(S)
    if sp.issparse(a):
        a = a.toarray()
    check = verify_doubly_stochastic(a, tol=1e-8)
    if not check.passed:
        raise ValueError(
            "input is not doubly stochastic to 1e-8 "
            f"(row residual {check.max_row_residual:.3e}, "
            f"column residual {check.max_col_residual:.3e}, "
            f"min entry {check.min_entry:.3e})"
        )

    n = a.shape[0]
    residual = a.copy()
    rows = np.arange(n)
    coefficients = []
    permutations = []
    # Hard cap: every extraction zeroes at least one of the n*n entries.
    for _ in range(n * n + 1):
        residual[residual <= zero_tol] = 0.0
        mass = float(residual.sum())
        if mass <= n * zero_tol:
            break
        image = perfect_matching(residual > 0)
        if image is None:
            raise DecompositionError(
                f"no perfect matching on the positive support with residual "
                f"mass {mass:.3e} remaining; input is not doubly stochastic "
                "to working tolerance"
            )
        weight = float(residual[rows, image].min())
        coefficients.append(weight)
        permutations.append(image)
        residual[rows, image] -= weight
    else:
        raise DecompositionError("extraction failed to terminate")

    coeffs = np.asarray(coefficients, dtype=float)
    coeffs /= coeffs.sum()
    return BirkhoffDecomposition(
        coefficients=coeffs,
        permutations=np.asarray(permutations, dtype=np.int64),
    )


def reconstruct(decomposition: BirkhoffDecomposition, n: int | None = None) -> np.ndarray:
    """Rebuild ``sum_i a_i P_i`` as a dense matrix.

    ``n`` defaults to the decomposition's own dimension; a mismatch, or a
    row that is not a permutation of range(n), raises ValueError.
    """
    perms = np.asarray(decomposition.permutations)
    coeffs = np.asarray(decomposition.coefficients, dtype=float)
    if perms.ndim != 2 or perms.shape[0] != coeffs.shape[0]:
        raise ValueError("coefficients and permutations disagree in length")
    if n is None:
        n = perms.shape[1]
    if perms.shape[1] != n:
        raise ValueError(
            f"permutations act on {perms.shape[1]} elements, expected {n}"
        )
    out = np.zeros((n, n))
    rows = np.arange(n)
    for weight, image in zip(coeffs, perms):
        if not np.array_equal(np.sort(image), rows):
            raise ValueError(f"{image.tolist()} is not a permutation of range({n})")
        out[rows, image] += weight
    return out
