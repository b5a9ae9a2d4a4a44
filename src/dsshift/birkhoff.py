"""Decompose a doubly stochastic matrix into a convex combination of
permutation matrices, and reconstruct it.

Greedy extraction on the stored entries: the residual is the operator's
nonzero entries in one sorted CSR, never a dense N x N array.  One routine
matches rows to entries above ``_CUT``: a breadth-first augmenting path per
free row (after Dufosse & Ucar 2016, "Notes on Birkhoff-von Neumann
decomposition of doubly stochastic matrices", LAA 497), from every row for
the first matching, and after each step, which subtracts the smallest
matched entry times that permutation, from the rows whose entry fell to the
cut or below; the searches walk per-row lists, built once, of the entries
above the cut.  Memory is O(nnz).  When a free row has no augmenting path,
no perfect matching is left above the cut (Berge), and the failed search
marks the Koenig block that measures the mass left (see ``birkhoff_decompose``).

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
from .graphs import _require_square, as_matrix

__all__ = [
    "BirkhoffDecomposition",
    "DecompositionError",
    "birkhoff_decompose",
    "max_terms",
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


def birkhoff_decompose(S) -> BirkhoffDecomposition:
    """Greedy Birkhoff extraction of a doubly stochastic matrix (see the
    module docstring), with the coefficients renormalized to sum to 1.

    Leftover check.  The failed search visits rows ``I``, whose entries
    above the cut all lie in the ``|I| - 1`` columns it reaches; ``J`` is
    the other columns and ``I'``, ``J'`` are the complements.  Every
    permutation has one more entry in ``I x J`` than in ``I' x J'``, so the
    residual ``E`` measures ``dust = 1 - sum(a_i) = E[I, J] - E[I', J'] -
    delta``, with ``delta = sum_J (colsum_j(S) - 1) - sum_I' (rowsum_i(S) -
    1)``, up to the rounding of the ``n k`` subtractions (``eps`` each, on
    entries below 2) and of the input's sums (``nnz eps``).  ``dust_bound``
    is ``E[I, J] + |delta|``, plus the negative mass of ``E[I', J']`` and
    the rounding the check measured.

    Raises ValueError when ``S`` is not doubly stochastic to 1e-8, and
    DecompositionError when the measure misses ``dust`` by more than
    ``(nnz + n k) eps`` or no term was found.
    """
    a, n = _require_square(as_matrix(S))
    check = verify_doubly_stochastic(a, tol=1e-8)
    if not check.passed:
        raise ValueError(
            f"input is not doubly stochastic to 1e-8 (row residual {check.max_row_residual:.3e}, "
            f"column residual {check.max_col_residual:.3e}, min entry {check.min_entry:.3e})")
    row_excess, col_excess = a.sum(axis=1) - 1.0, a.sum(axis=0) - 1.0

    residual = sp.csr_array(a, copy=True)  # canonical: each position once, in column order
    data, indices, indptr = residual.data, residual.indices, residual.indptr
    coefficients, permutations = [], []
    augment = _Augmenter(data, indices.tolist(), indptr)
    free = range(n)  # the first matching: every row starts free
    # Each step takes the smallest matched entry to exactly 0, which no
    # later matching uses, so the loop ends within nnz steps.
    while all(augment(r) for r in free):
        matched = data[augment.pos]
        weight = float(matched.min())
        coefficients.append(weight)
        permutations.append(indices[augment.pos])
        matched -= weight
        data[augment.pos] = matched
        free = np.flatnonzero(matched <= _CUT).tolist()
        augment.free(free)

    in_i, in_c = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    in_i[augment.rows] = in_c[augment.cols] = True
    entry_in_i, entry_in_c = np.repeat(in_i, np.diff(indptr)), in_c[indices]
    e_ij = float(data[entry_in_i & ~entry_in_c].sum())
    e_other = data[~entry_in_i & entry_in_c]  # E[I', J']
    delta = float(col_excess[~in_c].sum() - row_excess[~in_i].sum())
    k, eps = len(coefficients), np.finfo(float).eps
    dust = 1.0 - math.fsum(coefficients)
    miss = dust - (e_ij - float(e_other.sum()) - delta)
    if abs(miss) > (residual.nnz + n * k) * eps:
        raise DecompositionError(
            f"unextracted mass {dust:.3e} after {k} terms misses the Koenig "
            f"block's measure by {miss:.3e}")
    if not k:
        raise DecompositionError("no perfect matching on the entries above the cut")

    coeffs = np.asarray(coefficients, dtype=float)
    coeffs /= coeffs.sum()
    return BirkhoffDecomposition(
        coefficients=coeffs,
        permutations=np.asarray(permutations, dtype=np.int64),
        repairs=augment.repairs - n,  # the first matching's n paths are no repairs
        dust=dust,
        dust_bound=e_ij + abs(delta) - float(e_other[e_other < 0].sum()) + max(miss, 0.0),
    )


class _Augmenter:
    """Builds and repairs a matching on the stored entries above the cut.

    ``live`` lists each row's data indices above the cut in the residual
    ``data``, in column order: the caller lowers only matched entries and
    frees the rows whose entry fell to the cut.  ``pos`` maps each matched
    row to the data index of its entry, ``owner`` each column to its matched
    row (-1 when free); all three change in place.  After a failed search,
    ``rows`` and ``cols`` are the rows it visited and the columns it reached.
    """

    def __init__(self, data, indices: list, indptr):
        self.data, self.indices, self.indptr = data, indices, indptr
        live = np.flatnonzero(data > _CUT)
        ends, live = np.searchsorted(live, indptr).tolist(), live.tolist()
        self.live = [live[a:b] for a, b in zip(ends, ends[1:])]
        self.pos = np.zeros(len(indptr) - 1, dtype=np.int64)
        self.owner = [-1] * (len(indptr) - 1)
        self.repairs = 0  # augmenting paths found
        self.rows = self.cols = []

    def free(self, rows: list) -> None:
        """Unmatch ``rows`` and their columns."""
        for r in rows:
            self.live[r].remove(int(self.pos[r]))
            self.owner[self.indices[self.pos[r]]] = -1

    def __call__(self, root: int) -> bool:
        """Match the free row ``root`` along a shortest augmenting path
        (breadth-first); False, with nothing changed, when there is none."""
        indices, live, owner = self.indices, self.live, self.owner
        via = {}  # column -> (row, data index) of the entry that reached it
        queue = [root]
        for u in queue:
            for k in live[u]:
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
        self.rows, self.cols = queue, list(via)
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
