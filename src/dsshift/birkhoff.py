"""Decompose a doubly stochastic matrix into a convex combination of
permutation matrices, and reconstruct it.

Greedy extraction on the stored entries: the residual is the operator's
nonzero entries in one sorted CSR, never a dense N x N array.  The first
perfect matching (Hopcroft-Karp) is taken on the entries above
``zero_tol``; each step subtracts the smallest matched entry times that
permutation, frees every row whose matched entry has fallen to
``zero_tol`` or below, and repairs the matching with one breadth-first
augmenting path per freed row (after Dufosse & Ucar 2016, "Notes on
Birkhoff-von Neumann decomposition of doubly stochastic matrices", LAA 497).
Memory is O(nnz), and a step costs its augmenting searches, which mostly
visit a few rows, instead of a new support and matching.  When a freed row
has no augmenting path, Berge's theorem says no perfect matching is left on
the residual support, and every residual entry must be rounding dust: at
most ``zero_tol`` plus machine epsilon per term extracted.

Every extraction zeroes at least one entry, so the process terminates
within nnz terms; for an N x N input the term count stays within
(N-1)**2 + 1 on the tested operators.  Repair keeps the old matching where
it can, so it takes somewhat more terms than matching each residual from
scratch (about a quarter more on the demo-kernel grids).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .balance import verify_doubly_stochastic
from .graphs import _require_square

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

    ``birkhoff_decompose`` also reports its work, in fields that take no
    part in comparisons and are None on a decomposition built elsewhere
    (read from a file, say): ``repairs`` is the number of augmenting paths
    it found, ``dust`` the largest residual entry left at the stop, and
    ``dust_bound`` the bound that entry had to meet, ``zero_tol + k * eps``.
    """

    coefficients: np.ndarray
    permutations: np.ndarray
    repairs: int | None = field(default=None, compare=False)
    dust: float | None = field(default=None, compare=False)
    dust_bound: float | None = field(default=None, compare=False)

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
    """Perfect matching of rows to columns on the nonzero entries of a square
    support matrix: dense, scipy sparse, or nested lists.

    Hopcroft-Karp, as scipy's iterative
    ``scipy.sparse.csgraph.maximum_bipartite_matching``: deterministic, and
    no recursion limits the size.  Returns the image array (row -> matched
    column) or None when no perfect matching exists.
    """
    # Imported here: at module level it adds about a third to ``import dsshift``.
    from scipy.sparse.csgraph import maximum_bipartite_matching

    mask = sp.csr_array(support, dtype=bool, copy=True)
    if len(mask.shape) != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"support must be square, got shape {mask.shape}")
    mask.eliminate_zeros()  # csgraph would match a stored False as an edge
    image = maximum_bipartite_matching(mask, perm_type="column")
    return None if (image < 0).any() else image.astype(np.int64)


def birkhoff_decompose(S, zero_tol: float = 1e-12) -> BirkhoffDecomposition:
    """Greedy Birkhoff extraction of a doubly stochastic matrix.

    Each step subtracts the smallest matched entry times the current
    permutation, then repairs the matching on the residual entries above
    ``zero_tol`` (see the module docstring).  When no perfect matching is
    left, every residual entry must be at most ``zero_tol + k * eps`` after
    ``k`` terms: ``k * eps`` bounds the rounding that ``k`` subtractions can
    leave in one entry, so ``zero_tol`` only has to cover the input's own
    imbalance (a matrix balanced to 1e-10 needs ``zero_tol`` near 1e-10).
    Coefficients are then renormalized to sum exactly to 1.

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

    residual = sp.csr_array(a, copy=True)
    residual.sum_duplicates()  # sorted indices, which the position lookup needs
    data, indices, indptr = residual.data, residual.indices, residual.indptr
    coefficients = []
    permutations = []
    image = perfect_matching(sp.csr_array((data > zero_tol, indices, indptr), shape=(n, n)))
    if image is not None:
        # pos[r]: the data index of row r's matched entry, found by one
        # search over the row-major (row, column) keys of the stored entries.
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
        pos = np.searchsorted(keys, np.arange(n, dtype=np.int64) * n + image)
        augment = _Augmenter(data, indices.tolist(), indptr.tolist(), image, pos, zero_tol)
        # Each step takes the smallest matched entry to exactly 0, which no
        # later matching uses, so the loop ends within nnz steps.
        while True:
            matched = data[pos]
            weight = float(matched.min())
            coefficients.append(weight)
            permutations.append(indices[pos])
            matched -= weight
            data[pos] = matched
            freed = np.flatnonzero(matched <= zero_tol).tolist()
            augment.free(freed)
            if not all(augment(r) for r in freed):
                break

    bound = zero_tol + len(coefficients) * np.finfo(float).eps
    dust = float(data.max(initial=0.0))
    if dust > bound:
        raise DecompositionError(
            f"no perfect matching on the residual support, whose largest "
            f"entry {dust:.3e} exceeds the dust bound {bound:.3e} after "
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
        repairs=augment.repairs,
        dust=dust,
        dust_bound=bound,
    )


class _Augmenter:
    """Repairs a matching on the stored entries above ``zero_tol``.

    ``data`` is the residual, which the caller updates in place; ``pos``
    maps each row to the data index of its matched entry, ``owner`` each
    column to its matched row (-1 when free).  Both change in place.
    """

    def __init__(self, data, indices: list, indptr: list, image, pos, zero_tol: float):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.pos, self.zero_tol = pos, zero_tol
        self.repairs = 0  # augmenting paths found
        self.owner = [-1] * (len(indptr) - 1)
        for r, c in enumerate(image.tolist()):
            self.owner[c] = r

    def free(self, rows: list) -> None:
        """Unmatch ``rows`` and their columns."""
        for r in rows:
            self.owner[self.indices[self.pos[r]]] = -1

    def __call__(self, root: int) -> bool:
        """Match the free row ``root`` along a shortest augmenting path
        (breadth-first); False, with nothing changed, when there is none."""
        data, indices, indptr, owner = self.data, self.indices, self.indptr, self.owner
        tol = self.zero_tol
        via = {}  # column -> (row, data index) of the entry that reached it
        queue = [root]
        for u in queue:
            lo = indptr[u]
            for k in (np.flatnonzero(data[lo : indptr[u + 1]] > tol) + lo).tolist():
                c = indices[k]
                if c in via:
                    continue
                via[c] = (u, k)
                if owner[c] >= 0:
                    queue.append(owner[c])
                    continue
                # Flip the path back to the root: each row takes the entry
                # that reached a column and gives up the one it held.
                while True:
                    u, k = via[c]
                    held = int(self.pos[u])
                    owner[c] = u
                    self.pos[u] = k
                    if u == root:
                        self.repairs += 1
                        return True
                    c = indices[held]
        return False


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
