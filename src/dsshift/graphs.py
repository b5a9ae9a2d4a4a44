"""Weighted directed graphs, incoming neighbourhoods, and geometric weight matrices.

The weight matrix convention used throughout this package is that
``W[m, n] > 0`` encodes a directed edge ``n -> m``, so row ``m`` of ``W``
lists the incoming neighbours of vertex ``m``.  Absent edges are exactly
zero; stored weights are strictly positive.
"""

from __future__ import annotations

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
    its underlying matrix (dense float64 ndarray or CSR).

    Accepts anything exposing a ``weights`` attribute (graphs) or a
    ``matrix`` attribute (operators), plus raw array-likes.
    """
    if hasattr(obj, "weights"):
        obj = obj.weights
    elif hasattr(obj, "matrix"):
        obj = obj.matrix
    if sp.issparse(obj):
        return obj.tocsr()
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _require_square(a, what: str = "matrix"):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    return a.shape[0]


def _require_finite_nonnegative(a, what: str) -> None:
    data = a.data if sp.issparse(a) else a
    if data.size and not np.isfinite(data).all():
        raise ValueError(f"{what} must be finite")
    if data.size and data.min() < 0:
        raise ValueError(f"{what} must be nonnegative")


def _stored(w):
    """The one storage rule for matrices the package builds or loads: dense
    when at most ``DENSE_LIMIT`` on a side or at least a quarter full (where
    a CSR matvec costs as much as a dense one), CSR otherwise.  Explicit
    zeros of a sparse input are dropped; the input's storage may be reused."""
    if sp.issparse(w):
        w = w.tocsr()
        w.eliminate_zeros()
        nnz = w.nnz
    else:
        nnz = np.count_nonzero(w)
    rows, cols = w.shape
    if max(rows, cols) <= DENSE_LIMIT or 4 * nnz >= rows * cols:
        return w.toarray() if sp.issparse(w) else w
    return w if sp.issparse(w) else sp.csr_matrix(w)


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
    no edge.  Immutable after construction.
    """

    def __init__(self, weights):
        w = as_matrix(weights)
        n = _require_square(w)
        if sp.issparse(w):
            w = w.copy()
            w.eliminate_zeros()
        else:
            w = np.array(w, dtype=float)
            w.setflags(write=False)
        _require_finite_nonnegative(w, "weights")
        self._weights = w
        self._n = n

    @property
    def weights(self):
        """Weight matrix (dense ndarray or CSR, never modified)."""
        return self._weights

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        if sp.issparse(self._weights):
            return int(self._weights.nnz)
        return int(np.count_nonzero(self._weights))

    def weight(self, m: int, n: int) -> float:
        """Weight of edge ``n -> m`` (0.0 when absent)."""
        self._check_vertex(m)
        self._check_vertex(n)
        return float(self._weights[m, n])

    def dense(self) -> np.ndarray:
        if sp.issparse(self._weights):
            return self._weights.toarray()
        return np.array(self._weights)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        if sp.issparse(self._weights):
            d = (self._weights - self._weights.T).tocoo()
            return bool(np.abs(d.data).max() <= tol) if d.nnz else True
        w = self._weights
        return bool(np.abs(w - w.T).max() <= tol)

    def edge_list(self):
        """Edges as parallel arrays ``(src, dst, weight)`` with ``src -> dst``.

        Row-major over the matrix, so ordering is deterministic.
        """
        if sp.issparse(self._weights):
            coo = self._weights.tocoo()
            order = np.lexsort((coo.col, coo.row))
            dst, src, w = coo.row[order], coo.col[order], coo.data[order]
        else:
            dst, src = np.nonzero(self._weights)
            w = self._weights[dst, src]
        return src, dst, w

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
    altitude in the same length unit as projected distances (meters when
    the default Earth radius is used)."""

    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray

    def __post_init__(self):
        lat = np.asarray(self.lat, dtype=float)
        lon = np.asarray(self.lon, dtype=float)
        alt = np.asarray(self.alt, dtype=float)
        if not (lat.shape == lon.shape == alt.shape) or lat.ndim != 1:
            raise ValueError("lat, lon, alt must be 1-D arrays of equal length")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "alt", alt)

    @property
    def n_vertices(self) -> int:
        return self.lat.shape[0]

    def project(self, radius: float = EARTH_RADIUS_M) -> np.ndarray:
        """Project to a local 3-D Cartesian frame, shape (N, 3).

        Equirectangular projection about the mean latitude: longitude is
        scaled by cos(mean latitude) so east-west distances are locally
        correct; altitude is appended as the third coordinate.
        """
        lat_r = np.radians(self.lat)
        lon_r = np.radians(self.lon)
        lat0 = lat_r.mean()
        x = radius * np.cos(lat0) * lon_r
        y = radius * lat_r
        return np.column_stack([x, y, self.alt])

    def pairwise_distances(self, radius: float = EARTH_RADIUS_M) -> np.ndarray:
        """Symmetric matrix of Euclidean distances in the projected frame,
        summed axis by axis in row blocks (no N x N x 3 temporary)."""
        p = self.project(radius)
        out = np.empty((p.shape[0], p.shape[0]))
        for lo in range(0, p.shape[0], 256):  # temporaries stay 256 x N
            q, block = p[lo : lo + 256], out[lo : lo + 256]
            np.square(q[:, 0, None] - p[:, 0], out=block)
            for axis in (1, 2):
                block += np.square(q[:, axis, None] - p[:, axis])
        return np.sqrt(out, out=out)


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
    radius: float = EARTH_RADIUS_M,
) -> Graph:
    """Build a Gaussian-kernel weight matrix from vertex geometry.

    Weights are ``W[m, n] = exp(-(r_mn / scale)**2)`` with ``r_mn`` the
    projected pairwise distance; entries strictly below ``threshold`` are
    pruned to exact zeros.  The diagonal is 1 when ``self_loops`` is set
    and 0 otherwise.  The kernel is evaluated in place in one N x N
    buffer, then stored dense when N <= 512 or at least a quarter of the
    entries are nonzero, and as CSR otherwise.

    Raises ValueError for fewer than 2 vertices or a nonpositive scale.
    Distinct vertices at identical coordinates get weight 1 and trigger a
    warning instead of an error.
    """
    if geometry.n_vertices < 2:
        raise ValueError("geometry must contain at least 2 vertices")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")

    w = geometry.pairwise_distances(radius)
    zeros = w.size - np.count_nonzero(w)
    n_dupes = (zeros - int(np.count_nonzero(np.diagonal(w) == 0))) // 2
    if n_dupes:
        warnings.warn(
            f"{n_dupes} vertex pair(s) share identical coordinates; "
            "their edge weight is 1",
            stacklevel=2,
        )

    w /= scale  # then exp(-w**2), in place in the distance buffer
    np.exp(np.negative(np.square(w, out=w), out=w), out=w)
    w[w < threshold] = 0.0
    np.fill_diagonal(w, 1.0 if self_loops else 0.0)
    return Graph(_stored(w))


def incoming_neighborhood(graph, m: int) -> Neighborhood:
    """Incoming neighbourhood of vertex ``m``: all ``n`` with an edge ``n -> m``.

    Accepts a Graph, an operator, or a raw matrix.
    """
    w = as_matrix(graph)
    _require_square(w)
    members = np.flatnonzero(_row(w, m) > 0)
    return Neighborhood(center=m, members=members, size=int(members.size))


def validate_weights(graph) -> WeightDiagnostics:
    """Report structural problems that would break doubly stochastic balancing.

    Pure report, never raises: zero rows/columns, negative entries,
    asymmetry, and support statistics.  Accepts a Graph or a raw matrix;
    CSR input is inspected in its stored form, never densified.
    """
    w = as_matrix(graph)
    n = _require_square(w)

    row_sums = np.asarray(w.sum(axis=1)).ravel()
    col_sums = np.asarray(w.sum(axis=0)).ravel()
    zero_rows = tuple(int(i) for i in np.flatnonzero(row_sums == 0))
    zero_cols = tuple(int(j) for j in np.flatnonzero(col_sums == 0))
    if sp.issparse(w):
        values, symmetric = w.data, (w != w.T).nnz == 0
    else:
        values, symmetric = w, bool(np.array_equal(w, w.T))
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
