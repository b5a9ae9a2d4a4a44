"""Decompose a doubly stochastic matrix into a convex combination of
permutation matrices, and reconstruct it.

Greedy extraction on the stored entries: the residual is the operator's
nonzero entries in one sorted CSR, never a dense N x N array.  The first
perfect matching (Hopcroft-Karp) is taken on the entries above ``_CUT``;
each step subtracts the smallest matched entry times that permutation,
frees every row whose matched entry has fallen to the cut or below, and
repairs the matching with one breadth-first augmenting path per freed row
(after Dufosse & Ucar 2016, "Notes on Birkhoff-von Neumann decomposition of
doubly stochastic matrices", LAA 497).  Memory is O(nnz), and a step costs
its augmenting searches, which mostly visit a few rows, instead of a new
support and matching.  When a freed row has no augmenting path, Berge's
theorem says no perfect matching is left above the cut, and the input's own
imbalance bounds the mass left (see ``birkhoff_decompose``).

Every extraction zeroes at least one entry, so the process terminates
within nnz terms; for an N x N input the term count stays within
(N-1)**2 + 1 on the tested operators.  Repair keeps the old matching where
it can, so it takes somewhat more terms than matching each residual from
scratch (about a quarter more on the demo-kernel grids).
"""

from __future__ import annotations

import math
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

# Residual entries at or below this are never matched.
_CUT = 1e-12


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
    it found, ``dust`` the mass it left unextracted, ``1 - sum(a_i)`` before
    renormalizing, and ``dust_bound`` its bound (see ``birkhoff_decompose``).
    """

    coefficients: np.ndarray
    permutations: np.ndarray
    repairs: int | None = field(default=None, compare=False)
    dust: float | None = field(default=None, compare=False)
    dust_bound: float | None = field(default=None, compare=False)

    @property
    def n_terms(self) -> int:
        return int(self.coefficients.shape[0])

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


def birkhoff_decompose(S) -> BirkhoffDecomposition:
    """Greedy Birkhoff extraction of a doubly stochastic matrix (see the
    module docstring), with the coefficients renormalized to sum to 1.

    Leftover bound.  Let ``r`` be the input's largest row or column sum
    error (the 1e-8 gate measures it), ``sigma`` the sum of the ``k``
    coefficients and ``E = S - sum_i a_i P_i``.  No perfect matching is left
    above the cut, so (Frobenius-Koenig) some rows ``I`` and columns ``J``
    with ``|I| + |J| = n + 1`` have ``E[I, J] <= cut``.  The column sums of
    ``E`` over ``J`` minus its row sums over the other rows ``I'`` come to
    ``sum E[I, J] - sum E[I', J']``; each is within ``r`` of ``1 - sigma``,
    and ``|J| = |I'| + 1 <= n``, so ``1 - sigma`` is at most ``(2n - 1) r``
    plus the two blocks.  They hold at most ``nnz`` entries, each adding at
    most ``nu = max(cut, -min S)``: a subtraction never takes an entry below
    0, and a negative entry is never matched.  Rounding adds ``n k eps / 2``
    (n entries of at most ``1 + r`` per subtraction) and ``nnz eps`` (the
    measured sums); doubling the first covers the rest.  So ``dust =
    1 - sigma <= dust_bound = (2n - 1) r + nnz (nu + eps) + n k eps``, and
    ``reconstruct`` is within about ``2 dust + r`` of ``S`` entrywise.

    Raises ValueError when ``S`` is not doubly stochastic to 1e-8, and
    DecompositionError when the unextracted mass exceeds ``dust_bound``.
    """
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
    # By the bound below at k = 0, an input that passes the gate with n and
    # nnz under 2.5e7 has a first perfect matching above the cut.
    image = perfect_matching(sp.csr_array((data > _CUT, indices, indptr), shape=(n, n)))
    # pos[r]: the data index of row r's matched entry, found by one
    # search over the row-major (row, column) keys of the stored entries.
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    pos = np.searchsorted(keys, np.arange(n, dtype=np.int64) * n + image)
    augment = _Augmenter(data, indices.tolist(), indptr.tolist(), image, pos)
    # Each step takes the smallest matched entry to exactly 0, which no
    # later matching uses, so the loop ends within nnz steps.
    while True:
        matched = data[pos]
        weight = float(matched.min())
        coefficients.append(weight)
        permutations.append(indices[pos])
        matched -= weight
        data[pos] = matched
        freed = np.flatnonzero(matched <= _CUT).tolist()
        augment.free(freed)
        if not all(augment(r) for r in freed):
            break

    k, eps = len(coefficients), np.finfo(float).eps
    nu = max(_CUT, -check.min_entry)
    bound = (2 * n - 1) * check.residual + residual.nnz * (nu + eps) + n * k * eps
    dust = 1.0 - math.fsum(coefficients)
    if dust > bound:
        raise DecompositionError(
            f"unextracted mass {dust:.3e} after {k} terms exceeds the bound "
            f"{bound:.3e} from the input's imbalance {check.residual:.3e}")

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
    """Repairs a matching on the stored entries above the cut.

    ``data`` is the residual, which the caller updates in place; ``pos``
    maps each row to the data index of its matched entry, ``owner`` each
    column to its matched row (-1 when free).  Both change in place.
    """

    def __init__(self, data, indices: list, indptr: list, image, pos):
        self.data, self.indices, self.indptr, self.pos = data, indices, indptr, pos
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
        tol = _CUT
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
