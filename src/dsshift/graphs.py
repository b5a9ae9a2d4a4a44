"""Weighted directed graphs, incoming neighbourhoods, and geometric weight matrices.

The weight matrix convention used throughout this package is that
``W[m, n] > 0`` encodes a directed edge ``n -> m``, so row ``m`` of ``W``
lists the incoming neighbours of vertex ``m``.  Absent edges are exactly
zero; stored weights are strictly positive.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "Neighborhood",
    "VertexGeometry",
    "WeightDiagnostics",
    "as_matrix",
    "build_weight_matrix",
    "incoming_neighborhood",
    "validate_weights",
]

# Mean Earth radius in meters, used when projecting geographic coordinates.
EARTH_RADIUS_M = 6_371_000.0

# Matrices up to this size are always stored dense (see _stored).
DENSE_LIMIT = 512

# Rows in every pass over a matrix by rows (_row_blocks), the kernel fill too: 2.5 MB at N = 5000.
_BLOCK = 64

# The fewest site pairs a block of the CSR kernel build queries (the query lists 24 B a pair).
_MIN_BLOCK_PAIRS = 1 << 16


def _cgroup_text(name: str):
    """The stripped text of ``/sys/fs/cgroup/<name>``, or None if unreadable."""
    try:
        with open(os.path.join("/sys/fs/cgroup", name), encoding="ascii") as fh:
            return fh.read().strip()
    except (OSError, ValueError):
        return None


def _quota_cpus():
    """The CPUs a cgroup CPU quota allows, ``ceil(quota / period)``, or None for
    no quota: cgroup v2 ``cpu.max`` ("max" is none), else v1 ``cpu.cfs_quota_us``
    over ``cpu.cfs_period_us`` (-1 is none), as mounted at ``/sys/fs/cgroup``."""
    if (text := _cgroup_text("cpu.max")) is not None:
        quota, _, period = text.partition(" ")
    else:
        quota, period = _cgroup_text("cpu/cpu.cfs_quota_us"), _cgroup_text("cpu/cpu.cfs_period_us")
    try:
        quota, period = int(quota), int(period)
    except (TypeError, ValueError):  # "max", or nothing to read
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _worker_count() -> int:
    """One thread per CPU this process may use (its affinity mask, and its cgroup's
    CPU quota if any), at most 16."""
    cpus = (os.process_cpu_count() if hasattr(os, "process_cpu_count")  # 3.13+
            else len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    return min(16, cpus, _quota_cpus() or cpus)


# Threads for block work (the dense kernel's tiles, the Monte Carlo's trials).
_WORKERS = _worker_count()


def _map_blocks(task, blocks) -> list:
    """``[task(b) for b in blocks]`` on up to ``_WORKERS`` threads, each set to
    the caller's ``np.geterr()``; ``task`` must write only what its block owns."""
    errors = np.geterr()  # a new thread starts from numpy's defaults
    with ThreadPoolExecutor(min(_WORKERS, len(blocks)),
                            initializer=lambda: np.seterr(**errors)) as pool:
        return list(pool.map(task, blocks))


def as_matrix(obj):
    """Coerce a Graph, balanced operator, ndarray, or scipy sparse matrix to
    its underlying float64 matrix: a dense ndarray or a ``csr_array``.

    Accepts anything exposing a ``weights`` attribute (graphs) or a
    ``matrix`` attribute (operators, formed on first access), plus raw
    array-likes.  Sparse input of any format, a legacy ``csr_matrix``
    included, becomes a canonical ``csr_array`` (sorted indices, each
    position stored once), so ``@`` and ``sum(axis=...)`` return 1-D
    ndarrays for either storage and a row is its stored slice.  A canonical
    input's storage is shared; any other is copied and the copy summed.
    """
    if hasattr(obj, "weights"):
        obj = obj.weights
    elif hasattr(obj, "matrix"):
        obj = obj.matrix
    if sp.issparse(obj):
        a = sp.csr_array(obj, dtype=float)
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        return a
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _require_square(obj, what: str = "matrix"):
    """``(a, n)`` for an ``n x n`` input, ``n >= 1``, else ValueError: ``a`` is
    ``as_matrix(obj)``, or an operator's storage, such as a :class:`_Scaled`."""
    a = obj._stored if hasattr(obj, "_stored") else as_matrix(obj)
    if not a.shape[0] == a.shape[1] > 0:
        raise ValueError(f"{what} must be square and nonempty, got shape {a.shape}")
    return a, a.shape[0]


def _row_blocks(a):
    """``(lo, a[lo:lo + _BLOCK])`` for each run of ``_BLOCK`` rows of a dense or CSR matrix."""
    return ((lo, a[lo:lo + _BLOCK]) for lo in range(0, a.shape[0], _BLOCK))


def _value_blocks(a):
    """The stored entries in pieces: a dense matrix ``_BLOCK`` rows (views) at a
    time, CSR ``data`` and a 1-D row whole (nnz-sized, cheaper read whole)."""
    v = a.data if sp.issparse(a) else a
    return (v,) if v.ndim == 1 else (rows for _, rows in _row_blocks(v))


def _min_positive(a) -> float:
    """The smallest positive stored entry of a dense or CSR matrix (inf if none):
    CSR ``data`` by a masked reduction, copying none; a dense row block through
    one block-sized ``np.where``, about twice as fast there."""
    return float(min(v.min(where=v > 0, initial=np.inf) if v.ndim == 1
                     else np.where(v > 0, v, np.inf).min(initial=np.inf)
                     for v in _value_blocks(a)))


def _dense(a) -> np.ndarray:
    """A dense copy of a dense or sparse matrix."""
    return a.toarray() if sp.issparse(a) else np.array(a)


def _require_finite_nonnegative(a, what: str) -> None:
    if not all(np.isfinite(v).all() for v in _value_blocks(a)):
        raise ValueError(f"{what} must be finite")
    if any(v.min(initial=0.0) < 0 for v in _value_blocks(a)):
        raise ValueError(f"{what} must be nonnegative")


def _product(w, x, symmetric: bool):
    """``w @ x``.  A dense ``symmetric`` ``w`` takes a 1-D ``x`` through BLAS
    ``dsymv`` on one triangle, half the memory traffic (``w.T`` is a Fortran-order
    view: nothing is copied); threaded, its last bits depend on the thread count."""
    if not symmetric or sp.issparse(w) or np.ndim(x) != 1 or not w.size:
        return w @ x
    from scipy.linalg.blas import dsymv  # not needed by ``import dsshift``

    return dsymv(1.0, w.T, x, lower=1)


def _mirror(w) -> None:
    """Copy the upper triangle of the square ndarray ``w`` over its lower one in
    place, a 64 x 64 tile at a time; the 64 x 64 diagonal tiles must be written whole."""
    for lo in range(_BLOCK, w.shape[0], _BLOCK):
        for c in range(0, lo, _BLOCK):
            w[lo:lo + _BLOCK, c:c + _BLOCK] = w[c:c + _BLOCK, lo:lo + _BLOCK].T


def _times(a, b, c):
    """``(a * b) * c``, broadcast, with one temporary."""
    out = a * b
    out *= c
    return out


def _scaled(w, r, c):
    """``diag(r) w diag(c)``, ``(r_i w_ij) c_j``, of a dense or CSR ``w`` (sharing its pattern)."""
    if sp.issparse(w):
        data = np.repeat(r, np.diff(w.indptr))  # in place: one temporary
        data *= w.data
        data *= c[w.indices]
        return sp.csr_array((data, w.indices, w.indptr), shape=w.shape)
    return _times(r[:, None], w, c)


class _Scaled:
    """``S = diag(r) W diag(c)`` over ``W``, the weights of ``graph``, kept
    unformed: a product is ``r * (W @ (c * x))`` and a row ``r[m] * W[m] * c``;
    scipy takes it as a ``LinearOperator``.  :meth:`formed` builds ``S`` and keeps it.
    Balancing multiplies by the operator it returns, ``x`` for ``r`` and ``c``.
    ``W`` and its symmetry are read through the Graph: a product by a vector or one column
    (``svds``'s), a row, the smallest entry and the symmetry of ``S`` read ``_weights``, the
    triangle alone while it is pending, any other reader ``weights``, which mirrors it."""

    def __init__(self, graph, r, c):
        self.graph, self.r, self.c, self._s = graph, r, c, None
        self.shape, self.dtype = graph._weights.shape, graph._weights.dtype

    def matvec(self, x, transpose: bool = False):
        """``S @ x``, or ``S.T @ x`` if ``transpose``; a symmetric ``W`` serves as
        ``W.T``, which ``dsymv`` would copy."""
        if np.ndim(x) == 2 and np.shape(x)[1] == 1:  # a vector's product, by dsymv
            return self.matvec(x[:, 0], transpose)[:, None]
        left, right = (self.c, self.r) if transpose else (self.r, self.c)
        col = (slice(None),) + (None,) * (np.ndim(x) - 1)  # scale the rows of a 2-D x
        g = self.graph
        w = g._weights if np.ndim(x) == 1 else g.weights  # only dsymv reads one triangle
        symmetric = g.is_symmetric()
        return left[col] * _product(w.T if transpose and not symmetric else w,
                                    right[col] * x, symmetric)

    __matmul__ = matvec

    def rmatvec(self, x):
        return self.matvec(x, True)

    def sum(self, axis: int) -> np.ndarray:
        """Row (``axis=1``) or column (``axis=0``) sums, ``r * (W @ c)`` or ``c * (W.T @ r)``."""
        return self.matvec(np.ones(self.shape[0]), transpose=axis == 0)

    def min(self) -> float:
        """The smallest entry (an implicit zero of CSR counts), formed a row block at a
        time; over a dense ``W`` known symmetric, from the rows of its triangle (see
        :meth:`_mirrored`), so a pending triangle is not mirrored."""
        g = self.graph
        if sp.issparse(g._weights) or not g._symmetric:
            return min(_scaled(w, self.r[lo:lo + w.shape[0]], self.c).min()
                       for lo, w in _row_blocks(g.weights))

        def least(s, t):  # not below the diagonal of the block's first hi - lo columns
            read = ~np.tri(*s.shape, k=-1, dtype=bool)
            return min(s.min(where=read, initial=np.inf), t.min(where=read, initial=np.inf))

        return min(self._mirrored(least))

    def is_symmetric(self) -> bool:
        """Whether ``S`` equals its transpose exactly.  Over a ``W`` known symmetric,
        ``(r_i w_ij) c_j`` is compared with ``(r_j w_ij) c_i`` at W's stored entries,
        a row block at a time (:meth:`_mirrored`): no transposed copy, and ``S`` is
        neither formed nor kept.  Over any other ``W``, ``S`` is formed, compared by
        :func:`_is_symmetric` and dropped."""
        g = self.graph
        if not g.is_symmetric():
            return _is_symmetric(_scaled(g.weights, self.r, self.c))
        return all(self._mirrored(np.array_equal))

    def _mirrored(self, reduce):
        """``reduce(s, t)`` for each row block of a symmetric ``W``, lazily, with the
        float operations of :func:`_scaled`: ``s`` holds ``S``'s entries at W's stored
        positions ``(i, j)`` in the block, ``(r_i w_ij) c_j``, and ``t`` those of
        ``S.T``, ``(r_j w_ij) c_i`` (``w_ji = w_ij``).  A dense block is rows
        ``[lo, hi)`` from column ``lo`` on, the rows of the upper triangle, which with
        ``t`` cover ``S``; below the diagonal of its first ``hi - lo`` columns a pending
        triangle holds zeros.  ``s`` and ``t`` are freed before the next block."""
        w, r, c = self.graph._weights, self.r, self.c
        for lo, rows in _row_blocks(w):
            hi = lo + rows.shape[0]
            if sp.issparse(rows):
                i, j, v = np.repeat(np.arange(lo, hi), np.diff(rows.indptr)), rows.indices, rows.data
                yield reduce(_times(r[i], v, c[j]), _times(r[j], v, c[i]))
            else:
                v = rows[:, lo:]
                yield reduce(_times(r[lo:hi, None], v, c[lo:]), _times(r[lo:], v, c[lo:hi, None]))

    def formed(self):
        """``S`` as a read-only ndarray or a ``csr_array``, built in O(nnz) on the first call."""
        if self._s is None:
            self._s = _read_only(_scaled(self.graph.weights, self.r, self.c))
        return self._s


def _read_only(a):
    """``a``, a dense or CSR matrix, with its storage made read-only (a CSR's
    ``data``, ``indices`` and ``indptr``), for the checked matrices the package keeps."""
    for part in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        part.setflags(write=False)
    return a


def _checked(obj, what: str):
    """A private read-only copy of the square matrix ``obj``, checked finite
    and nonnegative: an ndarray, or a canonical CSR with no explicit zeros.
    The caller's later writes never reach the copy."""
    a, _ = _require_square(as_matrix(obj), what)
    if sp.issparse(a):
        a = a.copy()
        a.eliminate_zeros()
    else:
        a = np.array(a)
    _require_finite_nonnegative(a, what)
    return _read_only(a)


def _trusted(cls, **fields):
    """A ``cls`` (Graph or DSOperator) holding ``fields`` unchecked and
    uncopied: only for matrices the package has just built from checked
    input, which would pass :func:`_checked` by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _index_dtype(*sizes):
    """scipy's CSR index dtype for these dimensions and entry counts: int32 while all fit."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _dense_storage(shape, nnz: int) -> bool:
    """The one storage rule for matrices the package builds or loads: dense
    when at most ``DENSE_LIMIT`` on a side or with ``nnz`` at least a quarter
    of the entries (where a CSR matvec costs as much as a dense one), CSR otherwise."""
    rows, cols = shape
    return max(rows, cols) <= DENSE_LIMIT or 4 * nnz >= rows * cols


def _stored(w):
    """``w`` stored by the storage rule, as an ndarray or a ``csr_array``
    without explicit zeros; the storage of a CSR ``w`` may be reused."""
    w = sp.csr_array(w)
    w.eliminate_zeros()
    return w.toarray() if _dense_storage(w.shape, w.nnz) else w


def _is_symmetric(a) -> bool:
    """Whether a square dense or CSR matrix equals its transpose exactly.  CSR,
    summed and without explicit zeros, is compared array by array with one
    transposed copy; dense row blocks from the diagonal on with those of
    ``a.T`` (views): no N x N temporary."""
    if sp.issparse(a):
        a = as_matrix(a)  # canonical: each position once, columns sorted
        if not a.data.all():  # an explicit zero equals an absent mirror
            a = a.copy()
            a.eliminate_zeros()
        t = a.T.tocsr()  # the transpose's rows, columns sorted
        return all(np.array_equal(getattr(a, k), getattr(t, k))
                   for k in ("indptr", "indices", "data"))
    return all(np.array_equal(rows[:, lo:], cols[:, lo:])
               for (lo, rows), (_, cols) in zip(_row_blocks(a), _row_blocks(a.T)))


def _positive_row(a, m: int):
    """Columns (``intp``) and values of the positive entries in row ``m`` of
    ``a``, a matrix from :func:`_require_square`; ValueError for ``m`` not an
    integer (Python or numpy; a bool is not) in range, or a row holding a NaN,
    an infinite or a negative entry.  A CSR row is its stored slice; that of a
    ``_Scaled`` over a Graph whose triangle is pending is read from the upper
    triangle, column ``m`` down to the diagonal and row ``m`` from it, equal bit
    for bit to the mirrored row, so no reader of one row mirrors the kernel."""
    if not (np.issubdtype(type(m), np.integer) and 0 <= (m := int(m)) < a.shape[0]):
        raise ValueError(f"vertex id {m!r} out of range [0, {a.shape[0]})")
    scaled = a if isinstance(a, _Scaled) else None  # W's positive entries, scaled
    a, triangle = (a, False) if scaled is None else (a.graph._weights, a.graph._upper is not None)
    if sp.issparse(a):
        lo, hi = a.indptr[m], a.indptr[m + 1]
        columns, row = a.indices[lo:hi].astype(np.intp), a.data[lo:hi]
    else:
        columns = np.arange(a.shape[1])
        row = np.concatenate((a[:m, m], a[m, m:])) if triangle else np.asarray(a[m])
    _require_finite_nonnegative(row, f"row {m}")
    members = np.flatnonzero(row)
    columns, row = columns[members], row[members]
    return (columns, row) if scaled is None else (columns, scaled.r[m] * row * scaled.c[columns])


class Graph:
    """Directed weighted graph stored as its incoming-edge weight matrix.

    Entry ``weights[m, n]`` is the strength of edge ``n -> m``; zero means
    no edge.  Immutable: the input is always copied (see :func:`_checked`),
    so whether it is symmetric is decided once, on first request, and kept.
    A dense built kernel keeps its writable buffer in ``_upper`` while only the
    upper triangle is written (see :func:`build_weight_matrix`), else None.
    """

    _symmetric = None  # set by is_symmetric(), build_weight_matrix or fileio._load_graph
    _upper = None  # a dense built kernel's writable buffer while its triangle is pending
    _lock = None  # that kernel's own lock, held while it is mirrored

    def __init__(self, weights):
        self._weights = _checked(weights, "weights")

    @property
    def weights(self):
        """Weight matrix (dense ndarray or ``csr_array``, never modified).  The first
        read mirrors a pending triangle, once; later reads take no lock."""
        if self._upper is not None:
            with self._lock:
                if self._upper is not None:  # no other thread mirrored it meanwhile
                    _mirror(self._upper)
                    self._upper = None
        return self._weights

    def __getstate__(self):  # a pickle or a copy holds both halves, and no pending triangle
        return {**self.__dict__, "_weights": self.weights, "_upper": None, "_lock": None}

    @property
    def n_vertices(self) -> int:
        return self._weights.shape[0]

    @property
    def n_edges(self) -> int:
        return int(sum(np.count_nonzero(v) for v in _value_blocks(self.weights)))

    def dense(self) -> np.ndarray:
        return _dense(self.weights)

    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            self._symmetric = _is_symmetric(self.weights)
        return self._symmetric

    def __repr__(self):
        kind = "sparse" if sp.issparse(self._weights) else "dense"
        return f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges}, storage={kind})"


@dataclass(frozen=True, eq=False)
class Neighborhood:
    """Incoming neighbourhood of a vertex: the sources of its incoming edges."""

    center: int
    members: np.ndarray
    size: int


@dataclass(frozen=True, eq=False)
class VertexGeometry:
    """Per-vertex geographic coordinates: latitude/longitude in degrees,
    altitude in meters."""

    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray

    def __post_init__(self):
        coords = {k: np.asarray(getattr(self, k), dtype=float) for k in ("lat", "lon", "alt")}
        lat, lon, alt = coords.values()
        if not (lat.shape == lon.shape == alt.shape) or lat.ndim != 1:
            raise ValueError("lat, lon, alt must be 1-D arrays of equal length")
        for name, a in coords.items():
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, a)

    @property
    def n_vertices(self) -> int:
        return self.lat.shape[0]

    def project(self) -> np.ndarray:
        """Project to a local 3-D Cartesian frame in meters, shape (N, 3).

        Equirectangular projection about the mean latitude: longitude is
        scaled by cos(mean latitude) so east-west distances are locally
        correct; altitude is appended as the third coordinate.
        """
        lat_r = np.radians(self.lat)
        lon_r = np.radians(self.lon)
        lat0 = lat_r.mean()
        x = EARTH_RADIUS_M * np.cos(lat0) * lon_r
        y = EARTH_RADIUS_M * lat_r
        return np.column_stack([x, y, self.alt])

    def pairwise_distances(self) -> np.ndarray:
        """Symmetric N x N matrix of Euclidean distances in the projected frame."""
        from scipy.spatial.distance import cdist  # not needed by ``import dsshift``

        p = self.project()
        return cdist(p, p)


@dataclass(frozen=True)
class WeightDiagnostics:
    """Sanity report on a weight matrix, produced by :func:`validate_weights`."""

    n_vertices: int
    n_edges: int
    zero_rows: tuple
    zero_cols: tuple
    negative_entries: int
    symmetric: bool
    min_positive: float
    max_weight: float
    density: float
    balanceable: bool
    issues: tuple = field(default=())


def _kernel(d, scale: float, threshold: float) -> None:
    """Distances ``d`` to weights ``exp(-(d / scale)**2)`` in place, with the
    weights below ``threshold`` set to exact zeros."""
    with np.errstate(over="ignore"):  # a distance past the float range weighs exp(-inf) = 0
        d /= scale
        np.exp(np.negative(np.square(d, out=d), out=d), out=d)
    # the threshold mask 16 KB at a time, on views: d is 1-D or whole rows of C-ordered storage
    for piece in np.split(d.reshape(-1), range(1 << 14, d.size, 1 << 14)):
        np.multiply(piece, piece >= threshold, out=piece)


def _pair_count(tree, points, cutoff: float):
    """The site pairs within ``cutoff``, self pairs included, or a lower bound
    on that count when the bound already puts the kernel on the storage rule's
    dense side.  Each site lies within ``delta`` of its nearest among every 16th
    site, so counts around those, weighted by the sites nearest each, bound it
    below at ``cutoff - delta`` (triangle inequality); the exact count, which
    the CSR build allocates by, runs only when that bound does not decide.
    Every 16th site from the 9th is queried first: their largest gap bounds
    ``delta`` below, so when it alone leaves no radius, the exact count runs
    without a query of every site."""
    from scipy.spatial import cKDTree  # not needed by ``import dsshift``

    n, sub = len(points), cKDTree(points[::16])
    for sample in (points[8::16], points):
        gap, nearest = sub.query(sample)
        low_r = cutoff * (1 - 1e-9) - gap.max(initial=0.0) * (1 + 1e-9)  # rounding margins
        if low_r < 0:  # cKDTree would square a negative radius
            return tree.count_neighbors(tree, cutoff)
    low = sub.count_neighbors(tree, low_r, weights=(np.bincount(nearest, minlength=sub.n), None))
    return low if _dense_storage((n, n), low) else tree.count_neighbors(tree, cutoff)


def _csr_kernel(tree, points, cutoff: float, count: int, scale: float, threshold: float,
                self_loops: bool):
    """The pruned kernel as a canonical CSR, written into arrays of ``count``
    entries (the pairs within ``cutoff``, a bound on the kept ones) and cut to
    the kept ones in place.  Blocks of sites, each of about count / 16 pairs
    (at least ``_MIN_BLOCK_PAIRS``), are queried against the tree in turn; a
    block's pairs are sorted row-major and weighed, its diagonal set, its zeros
    dropped and its rows written in order.  Entries and index dtype are those
    of one ``sparse_distance_matrix`` of the whole tree: a pair's distance is
    the same from either end, as ``(a - b)**2 == (b - a)**2`` exactly."""
    from scipy.spatial import cKDTree  # not needed by ``import dsshift``

    n = len(points)
    index = _index_dtype(n, count)
    step = max(n * max(count // 16, _MIN_BLOCK_PAIRS) // count, 1)  # sites
    data, indices, indptr, nnz = np.empty(count), np.empty(count, index), np.zeros(n + 1, index), 0
    for lo in range(0, n, step):  # rows [lo, lo + step)
        pairs = cKDTree(points[lo:lo + step]).sparse_distance_matrix(tree, cutoff,
                                                                      output_type="ndarray")
        order = (pairs["i"] * n + pairs["j"]).argsort()  # row-major; each pair is listed once
        d, i, j = (pairs[f][order] for f in "vij")
        del pairs, order
        _kernel(d, scale, threshold)
        d[i + lo == j] = 1.0 if self_loops else 0.0  # the diagonal's distance-0 pairs
        kept = d != 0
        size = np.count_nonzero(kept)
        data[nnz:nnz + size], indices[nnz:nnz + size] = d[kept], j[kept]
        counts = np.bincount(i[kept], minlength=min(step, n - lo))
        indptr[lo + 1:lo + 1 + counts.size], nnz = counts, nnz + size
    np.cumsum(indptr, out=indptr)
    for a in (data, indices):  # in place (realloc): no view of them is left
        a.resize(nnz, refcheck=False)
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def build_weight_matrix(
    geometry: VertexGeometry,
    scale: float,
    threshold: float = 0.0,
    self_loops: bool = False,
) -> Graph:
    """Build a Gaussian-kernel weight matrix from vertex geometry.

    Weights are ``W[m, n] = exp(-(r_mn / scale)**2)`` with ``r_mn`` the
    projected pairwise distance; entries strictly below ``threshold`` are
    pruned to exact zeros.  The diagonal is 1 when ``self_loops`` is set
    and 0 otherwise.  Storage follows the package's rule: dense when
    N <= 512 or at least a quarter of the entries are nonzero, CSR
    otherwise.  A pruned kernel whose pairs within the threshold's distance
    fill under a quarter (counted, unless a bound from every 16th site shows
    a quarter) is built from a k-d tree's neighbour pairs, a block of sites at
    a time, into CSR arrays of the counted size: it never forms an N x N
    array, and a block holds about 1/16 of the pairs.  Any other is evaluated
    as the upper triangle of its N x N buffer, a private anonymous memory map
    advised against huge pages, so the lower half takes no memory until a reader
    other than a vector product asks for the weights (then it is mirrored in
    place, once).  Rows
    ``[i, i + 64)`` evaluate columns ``[i, N)`` in tiles (distances, then
    weights, while the tile is in cache; the tiles in flight hold at most
    1/64 of the kernel) on up to 16 threads, one per usable CPU, under the
    caller's ``np.errstate``.  Each tile writes only its own entries, so the
    entries are the same for any thread count.  Both paths apply the same
    float operations to the same distances.  The graph is marked symmetric
    without a check.

    Raises ValueError for fewer than 2 vertices, a nonpositive or
    non-finite scale, or a negative or NaN threshold.  Distinct vertices at
    identical coordinates get weight 1 and trigger a warning instead of an
    error.
    """
    from scipy.spatial import cKDTree  # not needed by ``import dsshift``

    n = geometry.n_vertices
    if n < 2:
        raise ValueError("geometry must contain at least 2 vertices")
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")

    tree = cKDTree(points := geometry.project())
    n_dupes = (tree.count_neighbors(tree, 0.0) - n) // 2
    if n_dupes:
        warnings.warn(
            f"{n_dupes} vertex pair(s) share identical coordinates; "
            "their edge weight is 1",
            stacklevel=2,
        )

    sparse, upper = False, None
    if threshold > 0:
        # Farther pairs weigh less than threshold; the relative 1e-9 widening
        # leaves ties to the ``>= threshold`` test of _kernel.
        cutoff = scale * math.sqrt(max(0.0, -math.log(threshold))) * (1 + 1e-9)
        pairs = int(_pair_count(tree, points, cutoff))
        sparse = not _dense_storage((n, n), pairs)
    if sparse:
        w = _csr_kernel(tree, points, cutoff, pairs, scale, threshold, self_loops)
    else:
        from scipy.spatial.distance import cdist

        # private, where mmap takes flags: shared anonymous memory is shmem, slower to
        # fault in; untouched pages take no memory
        private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
        buf = mmap.mmap(-1, 8 * n * n, **private)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):  # advice for this mapping only, not the process
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        w = np.frombuffer(buf).reshape(n, n)
        # tiles of _BLOCK x width: those of all threads hold at most 1/64 of the kernel
        width = min(256, max(16, n * n // (64 * _BLOCK * _WORKERS)))

        def fill(i: int) -> int:  # columns [i, n) of rows [i, hi): the upper triangle's rows
            hi, count = min(i + _BLOCK, n), 0
            for j in range(i, n, width):
                tile = cdist(points[i:hi], points[j:j + width])
                _kernel(tile, scale, threshold)
                np.fill_diagonal(tile[j - i:], 1.0 if self_loops else 0.0)
                w[i:hi, j:j + width] = tile
                # an entry right of the diagonal block [i, hi)^2 stands for two
                count += 2 * np.count_nonzero(tile) - np.count_nonzero(tile[:, :max(hi - j, 0)])
            return count

        nnz = sum(_map_blocks(fill, range(0, n, _BLOCK)))
        if _dense_storage((n, n), nnz):  # counted above
            upper, w = w, w.view()  # the view is made read-only, the Graph's buffer is not
        else:
            _mirror(w)
            w = sp.csr_array(w)
    # exp of a nonpositive number: every weight is in [0, 1], nothing to check;
    # and symmetric, since (a - b)**2 == (b - a)**2 exactly in IEEE arithmetic
    return _trusted(Graph, _weights=_read_only(w), _symmetric=True, _upper=upper,
                    _lock=None if upper is None else threading.Lock())


def incoming_neighborhood(graph, m: int) -> Neighborhood:
    """Incoming neighbourhood of vertex ``m``: all ``n`` with an edge ``n -> m``.

    Accepts a Graph, an operator, or a raw matrix.
    """
    w, _ = _require_square(graph)
    members, _ = _positive_row(w, m)
    return Neighborhood(center=m, members=members, size=int(members.size))


_OFF_DIAGONAL = "unbalanceable: entry ({}, {}) is on no positive diagonal"


def _total_support_issue(w, symmetric: bool):
    """None when every positive entry of ``w`` lies on a positive diagonal (total
    support), else the issue naming the first, in row-major order, that does not.
    A symmetric ``w`` with a positive diagonal needs no search: entry (i, j) lies
    on the diagonal that swaps i and j and fixes every other vertex."""
    if symmetric and (w.diagonal() > 0).all():
        return None
    from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

    n = w.shape[0]
    if sp.issparse(w):
        support = w > 0
    else:  # a row block at a time, counted, then filled into the final arrays: no N x N
        # mask, no nonzero() pair of the support, and no parts stacked in a copy
        counts = np.concatenate([np.count_nonzero(rows > 0, axis=1) for _, rows in _row_blocks(w)])
        indptr = np.zeros(n + 1, _index_dtype(n, counts.sum()))
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(indptr[-1], indptr.dtype)
        for lo, rows in _row_blocks(w):
            indices[indptr[lo]:indptr[lo + len(rows)]] = np.nonzero(rows > 0)[1]
        support = sp.csr_array((np.ones(indices.size, bool), indices, indptr), shape=(n, n))
        del indices  # held by support, and freed with it below
    indptr, image = support.indptr, maximum_bipartite_matching(support, perm_type="column")
    if (image < 0).any():  # no positive diagonal at all: the first entry is off
        first_row = np.searchsorted(indptr, 1) - 1
        return _OFF_DIAGONAL.format(first_row, support.indices[0]) if support.nnz else None
    # With its columns permuted by the matching (entry (i, j) moves to column
    # k, image[k] == j), an entry lies on a positive diagonal exactly when its
    # row and column share a strong component.  The permuted graph replaces
    # the support, with the float64 data csgraph would copy it to otherwise.
    k = np.argsort(image).astype(support.indices.dtype)[support.indices]
    del support
    graph = sp.csr_array((np.ones(k.size), k, indptr), shape=(n, n))
    label = connected_components(graph, connection="strong")[1]
    for lo, rows in _row_blocks(graph):  # in the support's row-major order: the first off is named
        i, kb = np.repeat(np.arange(lo, lo + rows.shape[0]), np.diff(rows.indptr)), rows.indices
        if (off := np.flatnonzero(label[i] != label[kb])).size:
            return _OFF_DIAGONAL.format(i[off[0]], image[kb[off[0]]])
    return None


def validate_weights(graph) -> WeightDiagnostics:
    """Report structural problems that would break doubly stochastic balancing.

    Pure report, never raises: zero rows/columns, negative entries,
    asymmetry, support statistics, and the first positive entry on no
    positive diagonal (balancing needs every positive entry on one: total
    support).  Accepts a Graph, an operator or a raw matrix; CSR input is
    inspected in its stored form, never densified.  A balanced operator
    ``diag(r) W diag(c)``, ``r, c > 0``, has W's zero pattern: its report is
    that of W's Graph, and ``S`` is not formed.
    """
    w, n = _require_square(graph)
    if isinstance(w, _Scaled):
        return validate_weights(w.graph)
    symmetric = graph.is_symmetric() if isinstance(graph, Graph) else _is_symmetric(w)
    zero_rows = tuple(int(i) for i in np.flatnonzero(w.sum(axis=1) == 0))
    zero_cols = tuple(int(j) for j in np.flatnonzero(w.sum(axis=0) == 0))
    negative = int(sum(np.count_nonzero(v < 0) for v in _value_blocks(w)))
    min_positive = _min_positive(w)
    n_edges = int(sum(np.count_nonzero(v) for v in _value_blocks(w)))

    issues = [f"unbalanceable: empty row {i}" for i in zero_rows]
    issues += [f"unbalanceable: empty column {j}" for j in zero_cols]
    if negative:
        issues.append(f"{negative} negative entries")
    if not symmetric:
        issues.append("asymmetric weight matrix")
    if support_issue := _total_support_issue(w, symmetric):
        issues.append(support_issue)

    return WeightDiagnostics(
        n_vertices=n,
        n_edges=n_edges,
        zero_rows=zero_rows,
        zero_cols=zero_cols,
        negative_entries=negative,
        symmetric=symmetric,
        min_positive=min_positive if min_positive < np.inf else 0.0,
        max_weight=float(w.max()),
        density=n_edges / (n * n),
        balanceable=not zero_rows and not zero_cols and negative == 0 and not support_issue,
        issues=tuple(issues),
    )
