"""Weighted directed graphs, incoming neighbourhoods, and geometric weight matrices.

The weight matrix convention used throughout this package is that
``W[m, n] > 0`` encodes a directed edge ``n -> m``, so row ``m`` of ``W``
lists the incoming neighbours of vertex ``m``.  Absent edges are exactly
zero; stored weights are strictly positive.
"""

from __future__ import annotations

import math
import warnings
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


def as_matrix(obj):
    """Coerce a Graph, balanced operator, ndarray, or scipy sparse matrix to
    its underlying float64 matrix: a dense ndarray or a ``csr_array``.

    Accepts anything exposing a ``weights`` attribute (graphs) or a
    ``matrix`` attribute (operators), plus raw array-likes.  Sparse input
    of any format, a legacy ``csr_matrix`` included, becomes a ``csr_array``
    that shares its storage when it can, so ``@`` and ``sum(axis=...)``
    return 1-D ndarrays for either storage.
    """
    if hasattr(obj, "weights"):
        obj = obj.weights
    elif hasattr(obj, "matrix"):
        obj = obj.matrix
    if sp.issparse(obj):
        return sp.csr_array(obj, dtype=float)
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _require_square(obj, what: str = "matrix"):
    """``(as_matrix(obj), n)`` for an ``n x n`` input; ValueError otherwise."""
    a = as_matrix(obj)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    return a, a.shape[0]


def _values(a) -> np.ndarray:
    """The stored entries: all of a dense matrix, the explicit ones of CSR."""
    return a.data if sp.issparse(a) else a


def _dense(a) -> np.ndarray:
    """A dense copy of a dense or sparse matrix."""
    return a.toarray() if sp.issparse(a) else np.array(a)


def _require_finite_nonnegative(a, what: str) -> None:
    data = _values(a)
    if data.size and not np.isfinite(data).all():
        raise ValueError(f"{what} must be finite")
    if data.size and data.min() < 0:
        raise ValueError(f"{what} must be nonnegative")


def _dense_storage(shape, count_nonzero) -> bool:
    """The one storage rule for matrices the package builds or loads: dense
    when at most ``DENSE_LIMIT`` on a side or at least a quarter full (where
    a CSR matvec costs as much as a dense one), CSR otherwise.
    ``count_nonzero()`` is called only when the size does not decide."""
    rows, cols = shape
    return max(rows, cols) <= DENSE_LIMIT or 4 * count_nonzero() >= rows * cols


def _stored(w):
    """``w`` stored by the storage rule, as an ndarray or a ``csr_array``.
    Explicit zeros of a sparse input are dropped; the input's storage may be
    reused."""
    sparse = sp.issparse(w)
    if sparse:
        w = sp.csr_array(w)
        w.eliminate_zeros()
    if _dense_storage(w.shape, lambda: w.nnz if sparse else np.count_nonzero(w)):
        return w.toarray() if sparse else w
    return w if sparse else sp.csr_array(w)


def _is_symmetric(a) -> bool:
    """Whether a square dense or CSR matrix equals its transpose exactly; dense
    triangles are compared 256 rows at a time, with no N x N temporary."""
    if sp.issparse(a):
        return (a != a.T).nnz == 0
    return all(np.array_equal(a[i:i + 256, i:], a[i:, i:i + 256].T)
               for i in range(0, a.shape[0], 256))


def _row(a, m: int) -> np.ndarray:
    """Row ``m`` of a dense or CSR matrix as a dense 1-D array."""
    if not (0 <= m < a.shape[0]):
        raise ValueError(f"vertex id {m} out of range [0, {a.shape[0]})")
    if not sp.issparse(a):
        return np.asarray(a[m])
    lo, hi = a.indptr[m], a.indptr[m + 1]
    return np.bincount(a.indices[lo:hi], weights=a.data[lo:hi], minlength=a.shape[1])


class Graph:
    """Directed weighted graph stored as its incoming-edge weight matrix.

    Entry ``weights[m, n]`` is the strength of edge ``n -> m``; zero means
    no edge.  Immutable: the input is copied, unless it is a read-only
    float64 array that owns its data (as ``build_weight_matrix`` passes).
    """

    def __init__(self, weights):
        w, n = _require_square(weights)
        if sp.issparse(w):
            w = w.copy()
            w.eliminate_zeros()
        elif w.flags.writeable or not w.flags.owndata:
            w = np.array(w, dtype=float)
            w.setflags(write=False)
        _require_finite_nonnegative(w, "weights")
        self._weights = w
        self._n = n

    @property
    def weights(self):
        """Weight matrix (dense ndarray or ``csr_array``, never modified)."""
        return self._weights

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(_values(self._weights)))

    def weight(self, m: int, n: int) -> float:
        """Weight of edge ``n -> m`` (0.0 when absent)."""
        self._check_vertex(m)
        self._check_vertex(n)
        return float(self._weights[m, n])

    def dense(self) -> np.ndarray:
        return _dense(self._weights)

    def is_symmetric(self) -> bool:
        return _is_symmetric(self._weights)

    def _check_vertex(self, m: int) -> None:
        if not (0 <= m < self._n):
            raise ValueError(f"vertex id {m} out of range [0, {self._n})")

    def __repr__(self):
        kind = "sparse" if sp.issparse(self._weights) else "dense"
        return f"Graph(n_vertices={self._n}, n_edges={self.n_edges}, storage={kind})"


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
    otherwise.  A pruned kernel that a k-d tree's neighbour count predicts
    to be CSR is built from the tree's neighbour pairs and never forms an
    N x N array; any other is evaluated in place in the N x N distance
    buffer.  Both apply the same float operations to the same distances.

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

    tree = cKDTree(geometry.project())
    n_dupes = (tree.count_neighbors(tree, 0.0) - n) // 2
    if n_dupes:
        warnings.warn(
            f"{n_dupes} vertex pair(s) share identical coordinates; "
            "their edge weight is 1",
            stacklevel=2,
        )

    sparse = False
    if threshold > 0:
        # Farther pairs weigh less than threshold; the relative 1e-9 widening
        # leaves ties to the ``w < threshold`` mask below.
        cutoff = scale * math.sqrt(max(0.0, -math.log(threshold))) * (1 + 1e-9)
        sparse = not _dense_storage((n, n), lambda: tree.count_neighbors(tree, cutoff))
    if sparse:
        w = tree.sparse_distance_matrix(tree, cutoff, output_type="coo_matrix")
        values = w.data  # distance-0 pairs, the diagonal included, are stored
    else:
        w = values = geometry.pairwise_distances()
    values /= scale  # then exp(-values**2), in place
    np.exp(np.negative(np.square(values, out=values), out=values), out=values)
    values[values < threshold] = 0.0
    if sparse:
        values[w.row == w.col] = 1.0 if self_loops else 0.0
    else:
        np.fill_diagonal(w, 1.0 if self_loops else 0.0)
        w.setflags(write=False)  # Graph keeps this buffer instead of copying it
    return Graph(_stored(w))


def incoming_neighborhood(graph, m: int) -> Neighborhood:
    """Incoming neighbourhood of vertex ``m``: all ``n`` with an edge ``n -> m``.

    Accepts a Graph, an operator, or a raw matrix.
    """
    w, _ = _require_square(graph)
    members = np.flatnonzero(_row(w, m) > 0)
    return Neighborhood(center=m, members=members, size=int(members.size))


def validate_weights(graph) -> WeightDiagnostics:
    """Report structural problems that would break doubly stochastic balancing.

    Pure report, never raises: zero rows/columns, negative entries,
    asymmetry, and support statistics.  Accepts a Graph or a raw matrix;
    CSR input is inspected in its stored form, never densified.
    """
    w, n = _require_square(graph)

    zero_rows = tuple(int(i) for i in np.flatnonzero(w.sum(axis=1) == 0))
    zero_cols = tuple(int(j) for j in np.flatnonzero(w.sum(axis=0) == 0))
    values = _values(w)
    symmetric = _is_symmetric(w)
    negative = int(np.count_nonzero(values < 0))
    positive = values[values > 0]
    n_edges = int(np.count_nonzero(values))

    issues = []
    for i in zero_rows:
        issues.append(f"unbalanceable: empty row {i}")
    for j in zero_cols:
        issues.append(f"unbalanceable: empty column {j}")
    if negative:
        issues.append(f"{negative} negative entries")
    if not symmetric:
        issues.append("asymmetric weight matrix")

    return WeightDiagnostics(
        n_vertices=n,
        n_edges=n_edges,
        zero_rows=zero_rows,
        zero_cols=zero_cols,
        negative_entries=negative,
        symmetric=symmetric,
        min_positive=float(positive.min()) if positive.size else 0.0,
        max_weight=float(w.max()) if n else 0.0,
        density=n_edges / (n * n) if n else 0.0,
        balanceable=not zero_rows and not zero_cols and negative == 0,
        issues=tuple(issues),
    )
