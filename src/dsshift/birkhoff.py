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
scratch (about a quarter more on the demo-kernel grids).  It also means a
term differs from the one before only in the rows its augmenting paths
moved, which is all a decomposition stores of it: O(n + k + changes), not
the k x n images.
"""

from __future__ import annotations

import math
from array import array
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
    """Convex combination ``sum_i a_i P_i`` of permutation matrices, stored as
    the rows each term changes.

    ``coefficients`` has shape (k,) and sums to 1.  The image array ``p_i`` of
    term i (``P_i[m, p_i[m]] = 1``) is ``p_{i-1}`` with the rows
    ``rows[indptr[i]:indptr[i + 1]]`` sent to the columns ``cols[...]`` at the
    same places, and ``p_{-1}`` is ``first``: ``indptr`` holds k + 1 offsets.
    A decomposition from :func:`birkhoff_decompose` changes nothing at term 0,
    so ``first`` is its first image, and lists a later term's rows ascending.
    :meth:`terms` rebuilds the images in order; ``permutations`` forms them all.

    ``birkhoff_decompose`` also reports its work, in fields that take no
    part in comparisons and are None on a decomposition built elsewhere
    (read from a file, say): ``repairs`` is the number of augmenting paths
    it found, ``dust`` the mass it left unextracted, ``1 - sum(a_i)`` before
    renormalizing, and ``dust_bound`` its bound (see ``birkhoff_decompose``).
    """

    coefficients: np.ndarray
    first: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    repairs: int | None = field(default=None, compare=False)
    dust: float | None = field(default=None, compare=False)
    dust_bound: float | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return int(self.first.shape[0])

    @property
    def n_terms(self) -> int:
        return int(self.coefficients.shape[0])

    def _images(self):
        """``(coefficient, image)`` in order, the image one int64 array changed in place."""
        image, ends = np.array(self.first, dtype=np.int64), np.asarray(self.indptr).tolist()
        for a, lo, hi in zip(self.coefficients, ends, ends[1:]):
            image[self.rows[lo:hi]] = self.cols[lo:hi]
            yield a, image

    def terms(self):
        """Iterate ``(coefficient, image_array)`` pairs in extraction order,
        each image a fresh int64 array."""
        return ((a, image.copy()) for a, image in self._images())

    @property
    def permutations(self) -> np.ndarray:
        """The (k, n) int64 array of the images, row i term i's, formed on
        each request: O(k n) memory, where the decomposition holds O(n + k +
        changes)."""
        out = np.empty((self.n_terms, self.n), dtype=np.int64)
        for i, (_, image) in enumerate(self._images()):
            out[i] = image
        return out


def birkhoff_decompose(S) -> BirkhoffDecomposition:
    """Greedy Birkhoff extraction of a doubly stochastic matrix (see the
    module docstring), with the coefficients renormalized to sum to 1.

    Leftover check.  The failed search visits rows ``I``, whose entries
    above the cut all lie in the ``|I| - 1`` columns it reaches; ``J`` is
    the other columns and ``I'``, ``J'`` are the complements.  Every
    permutation has one more entry in ``I x J`` than in ``I' x J'``, so the
    residual ``E`` measures ``dust = 1 - sum(a_i) = E[I, J] - E[I', J'] -
    delta``, with ``delta = sum_J (colsum_j(S) - 1) - sum_I' (rowsum_i(S) -
    1)``, up to the rounding of the subtractions (``a - w`` with ``0 <= w <=
    a`` rounds by at most ``eps a``, so ``M eps`` in all, ``M`` the sum over
    the terms of their matched entries before the subtraction) and of the
    input's sums (``nnz eps``).  ``dust_bound`` is ``E[I, J] + |delta|``,
    plus the negative mass of ``E[I', J']`` and the rounding the check
    measured.

    Raises ValueError when ``S`` is not doubly stochastic to 1e-8, and
    DecompositionError when the measure misses ``dust`` by more than
    ``(nnz + M) eps`` or no term was found.
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
    # 8 bytes an entry, not a Python object's 32: hundreds of thousands of terms at n = 5000
    coefficients, ends, rows, cols = array("d"), array("q", [0]), array("q"), array("q")
    mass = 0.0  # M: the matched entries, summed once per term
    augment = _Augmenter(data, indices.tolist(), indptr)
    free = range(n)  # the first matching: every row starts free
    # Each step takes the smallest matched entry to exactly 0, which no
    # later matching uses, so the loop ends within nnz steps.
    while all(augment(r) for r in free):
        moved, to = augment.moves()
        if coefficients:
            rows.extend(moved)
            cols.extend(to)
        else:  # every row moved from no entry: the whole first image
            first = np.array(to, dtype=np.int64)
        ends.append(len(rows))
        matched = data[augment.pos]
        weight = float(matched.min())
        coefficients.append(weight)
        mass += float(matched.sum())
        matched -= weight
        data[augment.pos] = matched
        free = (matched <= _CUT).nonzero()[0].tolist()
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
    if abs(miss) > (residual.nnz + mass) * eps:
        raise DecompositionError(
            f"unextracted mass {dust:.3e} after {k} terms misses the Koenig "
            f"block's measure by {miss:.3e}")
    if not k:
        raise DecompositionError("no perfect matching on the entries above the cut")

    coeffs = np.array(coefficients)
    coeffs /= coeffs.sum()
    return BirkhoffDecomposition(
        coefficients=coeffs,
        first=first,
        indptr=np.frombuffer(ends, dtype=np.int64),
        rows=np.frombuffer(rows, dtype=np.int64),
        cols=np.frombuffer(cols, dtype=np.int64),
        repairs=augment.repairs - n,  # the first matching's n paths are no repairs
        dust=dust,
        dust_bound=e_ij + abs(delta) - float(e_other[e_other < 0].sum()) + max(miss, 0.0),
    )


class _Augmenter:
    """Builds and repairs a matching on the stored entries above the cut.

    ``live`` lists each row's data indices above the cut in the residual
    ``data``, in column order: the caller lowers only matched entries and
    frees the rows whose entry fell to the cut.  ``pos`` maps each matched
    row to the data index of its entry (-1 before its first), ``owner`` each
    column to its matched row (-1 when free); all three change in place.
    ``held`` maps each row a path moved since the last :meth:`moves` to the
    entry it held then.  After a failed search, ``rows`` and ``cols`` are the
    rows it visited and the columns it reached.
    """

    def __init__(self, data, indices: list, indptr):
        self.data, self.indices, self.indptr = data, indices, indptr
        live = np.flatnonzero(data > _CUT)
        ends, live = np.searchsorted(live, indptr).tolist(), live.tolist()
        self.live = [live[a:b] for a, b in zip(ends, ends[1:])]
        self.pos = np.full(len(indptr) - 1, -1, dtype=np.int64)
        self.owner = [-1] * (len(indptr) - 1)
        self.held = {}
        self.repairs = 0  # augmenting paths found
        self.rows = self.cols = []

    def moves(self) -> tuple:
        """The rows whose entry changed since the last call (a path may move a
        row back), ascending, and their new columns; the next call counts from here."""
        at, indices = self.pos.item, self.indices
        moved = sorted((u, k) for u, held in self.held.items() if (k := at(u)) != held)
        self.held = {}
        return [u for u, _ in moved], [indices[k] for _, k in moved]

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
                    held = self.pos.item(u)
                    self.held.setdefault(u, held)
                    owner[c] = u
                    self.pos[u] = k
                    if u == root:
                        self.repairs += 1
                        return True
                    c = indices[held]
        self.rows, self.cols = queue, list(via)
        return False


def _check_terms(coefficients, first, indptr, rows, cols) -> None:
    """ValueError unless ``first`` is a permutation of range(n) and each term's
    changes (see :class:`BirkhoffDecomposition`) keep the image one: ``indptr``
    holds k + 1 offsets rising from 0 to the changes' count, every index lies
    in range(n), no term lists a row twice, and a term's new columns are those
    its rows vacate.  The message names the first bad term.  O(k + changes)
    sorted passes: a change's vacated column is that of its row's last change
    before it, else the row's in ``first``."""
    k, n = len(coefficients), len(first)
    if not np.array_equal(np.sort(first), np.arange(n)):
        raise ValueError(f"first image is not a permutation of 0..{n - 1}")
    if (len(indptr) != k + 1 or indptr[0] != 0 or indptr[-1] != len(rows)
            or len(cols) != len(rows)):
        raise ValueError(f"indptr must hold {k + 1} offsets, one per term and one more, "
                         f"from 0 to the {len(rows)} rows and {len(cols)} columns")
    if (fall := np.flatnonzero(np.diff(indptr) < 0)).size:
        t = fall[0]
        raise ValueError(f"term {t}: indptr falls from {indptr[t]} to {indptr[t + 1]}")
    term = np.repeat(np.arange(k), np.diff(indptr))
    for what, v in (("row", rows), ("column", cols)):
        if (bad := np.flatnonzero((v < 0) | (v >= n))).size:
            raise ValueError(f"term {term[bad[0]]}: {what} {v[bad[0]]} out of range 0..{n - 1}")
    order = np.lexsort((term, rows))  # by row, then term
    row, t = rows[order], term[order]
    same = row[1:] == row[:-1]
    if (twice := np.flatnonzero(same & (t[1:] == t[:-1]))).size:
        i = twice[np.argmin(t[twice])]
        raise ValueError(f"term {t[i]}: row {row[i]} listed twice")
    vacated = np.empty_like(cols)
    vacated[order] = first[row]
    vacated[order[1:][same]] = cols[order[:-1][same]]
    new, old = cols[np.lexsort((cols, term))], vacated[np.lexsort((vacated, term))]
    if (bad := np.flatnonzero(new != old)).size:
        raise ValueError(f"term {term[bad[0]]}: its new columns are not the ones its rows vacate")


def reconstruct(decomposition: BirkhoffDecomposition, n: int | None = None) -> np.ndarray:
    """Rebuild ``sum_i a_i P_i`` as a dense matrix, adding the terms in order.

    ``n`` defaults to the decomposition's own dimension; a mismatch, or
    changes that do not keep each image a permutation of range(n) (see
    :func:`_check_terms`), raises ValueError.
    """
    coeffs = np.asarray(decomposition.coefficients, dtype=float)
    first, indptr, rows, cols = (np.asarray(getattr(decomposition, k))
                                 for k in ("first", "indptr", "rows", "cols"))
    if n is None:
        n = len(first)
    if len(first) != n:
        raise ValueError(f"permutations act on {len(first)} elements, expected {n}")
    _check_terms(coeffs, first, indptr, rows, cols)
    out = np.zeros((n, n))
    flat, base = out.reshape(-1), np.arange(n) * n  # row m's entry is flat[base[m] + image[m]]
    for a, image in decomposition._images():
        flat[base + image] += a
    return out
