"""Decompose a doubly stochastic matrix into a convex combination of
permutation matrices, and reconstruct it.

Greedy extraction: repeatedly find a perfect matching (Hopcroft-Karp) on
the bipartite graph of residual entries above ``zero_tol``, and subtract
the minimum matched entry times the corresponding permutation.  When no
matching is left, every residual entry must be rounding dust: at most
``zero_tol`` plus machine epsilon per term extracted.  Every extraction
zeroes at least one entry, so the process terminates; for an N x N input
it needs at most (N-1)**2 + 1 terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .balance import verify_doubly_stochastic
from .graphs import _dense, _require_square

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

    Hopcroft-Karp, as scipy's iterative
    ``scipy.sparse.csgraph.maximum_bipartite_matching``: deterministic, and
    no recursion limits the size.  Returns the image array (row -> matched
    column) or None when no perfect matching exists.
    """
    # Imported here: at module level it adds about a third to ``import dsshift``.
    from scipy.sparse.csgraph import maximum_bipartite_matching

    mask = np.asarray(support, dtype=bool)
    _require_square(mask, "support")
    image = maximum_bipartite_matching(sp.csr_array(mask), perm_type="column")
    return None if (image < 0).any() else image.astype(np.int64)


def birkhoff_decompose(S, zero_tol: float = 1e-12) -> BirkhoffDecomposition:
    """Greedy Birkhoff extraction of a doubly stochastic matrix.

    Each step matches rows to columns on the residual entries above
    ``zero_tol`` and subtracts the smallest matched entry times that
    permutation.  When no perfect matching is left, every residual entry
    must be at most ``zero_tol + k * eps`` after ``k`` terms: ``k * eps``
    bounds the rounding that ``k`` subtractions can leave in one entry, so
    ``zero_tol`` only has to cover the input's own imbalance (a matrix
    balanced to 1e-10 needs ``zero_tol`` near 1e-10).  Coefficients are
    then renormalized to sum exactly to 1.

    Raises ValueError when ``S`` is not doubly stochastic to 1e-8, and
    DecompositionError when a residual entry above that bound has no
    perfect matching to carry it.
    """
    if zero_tol <= 0:
        raise ValueError(f"zero_tol must be positive, got {zero_tol}")
    a, n = _require_square(S)
    check = verify_doubly_stochastic(a, tol=1e-8)
    if not check.passed:
        raise ValueError(
            "input is not doubly stochastic to 1e-8 "
            f"(row residual {check.max_row_residual:.3e}, "
            f"column residual {check.max_col_residual:.3e}, "
            f"min entry {check.min_entry:.3e})"
        )

    residual = _dense(a)
    rows = np.arange(n)
    coefficients = []
    permutations = []
    # Each extraction takes the smallest matched entry to exactly 0, so the
    # support shrinks every step and the loop ends within n*n steps.
    while (image := perfect_matching(residual > zero_tol)) is not None:
        weight = float(residual[rows, image].min())
        coefficients.append(weight)
        permutations.append(image)
        residual[rows, image] -= weight
    dust = zero_tol + len(coefficients) * np.finfo(float).eps
    largest = float(residual.max())
    if largest > dust:
        raise DecompositionError(
            f"no perfect matching on the residual support, whose largest "
            f"entry {largest:.3e} exceeds the dust bound {dust:.3e} after "
            f"{len(coefficients)} terms; input is not doubly stochastic "
            "to working tolerance"
        )
    if not coefficients:
        raise DecompositionError(f"no perfect matching on entries above zero_tol={zero_tol:g}")

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
