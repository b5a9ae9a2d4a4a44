"""File formats: Matrix Market coordinate matrices, edge-list CSV,
single-column signal CSV, geometry CSV, and JSON reports.

All writers render floats at 17 significant digits, so save/load round
trips reproduce values bit for bit.  All parsers raise FileFormatError
with the offending line number, also for NaN and infinite values.
"""

from __future__ import annotations

import json
import math
from array import array

import numpy as np
import scipy.sparse as sp

from .birkhoff import BirkhoffDecomposition
from .graphs import Graph, VertexGeometry, _stored, as_matrix

__all__ = [
    "FileFormatError",
    "load_birkhoff_json",
    "load_edge_csv",
    "load_geometry_csv",
    "load_matrix_market",
    "load_signal_csv",
    "save_birkhoff_json",
    "save_edge_csv",
    "save_json",
    "save_matrix_market",
    "save_signal_csv",
]


class FileFormatError(ValueError):
    """Malformed input file; the message carries the file and line number."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fail(path, lineno: int, message: str):
    raise FileFormatError(f"{path}:{lineno}: {message}")


def _parse_float(token: str, path, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(path, lineno, f"non-numeric {what} {token!r}")
    if not math.isfinite(value):
        _fail(path, lineno, f"non-finite {what} {token!r}")
    return value


def _parse_int(token: str, path, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(path, lineno, f"non-integer {what} {token!r}")


def save_matrix_market(path, matrix) -> None:
    """Write a matrix in Matrix Market coordinate (real, general) format."""
    a = as_matrix(matrix)
    rows, cols = a.shape
    if sp.issparse(a):
        coo = a.tocoo()
        order = np.lexsort((coo.col, coo.row))
        entries = zip(coo.row[order], coo.col[order], coo.data[order])
        nnz = coo.nnz
    else:
        r, c = np.nonzero(a)
        entries = zip(r, c, a[r, c])
        nnz = r.size
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{rows} {cols} {nnz}\n")
        for i, j, v in entries:
            fh.write(f"{i + 1} {j + 1} {_fmt(v)}\n")


def load_matrix_market(path):
    """Read a Matrix Market coordinate (real) matrix.

    Supports the ``general`` and ``symmetric`` storage qualifiers;
    symmetric files are expanded to full storage.  Entries are gathered in
    coordinate form, never in a dense N x N, and returned dense when N <= 512
    or at least a quarter are nonzero, CSR otherwise.  Duplicates are rejected.
    """
    header = None
    size = None
    entries = array("d")  # row, col, value, line per entry (ints are exact in float64)
    count = 0
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if header is None:
                if not line.startswith("%%MatrixMarket"):
                    _fail(path, lineno, "missing %%MatrixMarket header")
                fields = line.split()
                if len(fields) != 5:
                    _fail(path, lineno, f"malformed header {line!r}")
                _, obj, fmt, field, symmetry = (f.lower() for f in fields)
                if (obj, fmt, field) != ("matrix", "coordinate", "real"):
                    _fail(path, lineno, f"unsupported type {obj}/{fmt}/{field}")
                if symmetry not in ("general", "symmetric"):
                    _fail(path, lineno, f"unsupported symmetry {symmetry!r}")
                header = symmetry
                continue
            if not line or line.startswith("%"):
                continue
            tokens = line.split()
            if size is None:
                if len(tokens) != 3:
                    _fail(path, lineno, "size line must be 'rows cols nnz'")
                rows = _parse_int(tokens[0], path, lineno, "row count")
                cols = _parse_int(tokens[1], path, lineno, "column count")
                nnz = _parse_int(tokens[2], path, lineno, "entry count")
                if rows < 1 or cols < 1 or nnz < 0:
                    _fail(path, lineno, f"invalid dimensions {rows} x {cols}, nnz {nnz}")
                size = (rows, cols, nnz)
                continue
            if len(tokens) != 3:
                _fail(path, lineno, f"entry must be 'row col value', got {line!r}")
            i = _parse_int(tokens[0], path, lineno, "row index")
            j = _parse_int(tokens[1], path, lineno, "column index")
            v = _parse_float(tokens[2], path, lineno, "value")
            rows, cols, nnz = size
            if not (1 <= i <= rows and 1 <= j <= cols):
                _fail(path, lineno, f"index ({i}, {j}) outside {rows} x {cols}")
            if header == "symmetric" and i < j:
                _fail(path, lineno, "symmetric entries must lie on or below the diagonal")
            count += 1
            if count > nnz:
                _fail(path, lineno, f"more than the declared {nnz} entries")
            entries.extend((i - 1, j - 1, v, lineno))
    if header is None:
        raise FileFormatError(f"{path}:1: empty file")
    if size is None:
        raise FileFormatError(f"{path}:1: missing size line")
    rows, cols, nnz = size
    if count < nnz:
        raise FileFormatError(f"{path}: expected {nnz} entries, found {count}")

    e = np.frombuffer(entries).reshape(-1, 4)
    i, j, v = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
    # A coordinate build would sum duplicates; report the first repeat instead.
    key = i * cols + j
    first = np.unique(key, return_index=True)[1]
    if first.size < key.size:
        k = np.setdiff1d(np.arange(key.size), first)[0]
        _fail(path, int(e[k, 3]), f"duplicate entry ({i[k] + 1}, {j[k] + 1})")
    if header == "symmetric":
        off = i != j
        i, j, v = np.r_[i, j[off]], np.r_[j, i[off]], np.r_[v, v[off]]
    return _stored(sp.coo_matrix((v, (i, j)), shape=(rows, cols)))


def save_edge_csv(path, graph: Graph) -> None:
    """Write a graph as ``src,dst,weight`` rows with 0-based vertex ids."""
    src, dst, w = graph.edge_list()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("src,dst,weight\n")
        for s, d, v in zip(src, dst, w):
            fh.write(f"{int(s)},{int(d)},{_fmt(v)}\n")


def load_edge_csv(path, n_vertices: int | None = None) -> Graph:
    """Read a ``src,dst,weight`` edge list into a Graph.

    Vertex ids are 0-based; ``n_vertices`` defaults to one more than the
    largest id seen.  Nonpositive weights and duplicate edges are
    rejected with the offending line number.  Storage follows the rule of
    :func:`load_matrix_market`.
    """
    edges = {}
    max_id = -1
    with open(path, encoding="ascii") as fh:
        lines = iter(enumerate(fh, start=1))
        try:
            lineno, raw = next(lines)
        except StopIteration:
            raise FileFormatError(f"{path}:1: empty file") from None
        if [t.strip() for t in raw.strip().split(",")] != ["src", "dst", "weight"]:
            _fail(path, lineno, "header must be 'src,dst,weight'")
        for lineno, raw in lines:
            line = raw.strip()
            if not line:
                continue
            tokens = [t.strip() for t in line.split(",")]
            if len(tokens) != 3:
                _fail(path, lineno, f"expected 3 fields, got {len(tokens)}")
            s = _parse_int(tokens[0], path, lineno, "src id")
            d = _parse_int(tokens[1], path, lineno, "dst id")
            v = _parse_float(tokens[2], path, lineno, "weight")
            if s < 0 or d < 0:
                _fail(path, lineno, f"vertex ids must be nonnegative, got ({s}, {d})")
            if v <= 0:
                _fail(path, lineno, f"weight must be positive, got {v}")
            if (s, d) in edges:
                _fail(path, lineno, f"duplicate edge ({s}, {d})")
            edges[(s, d)] = v
            max_id = max(max_id, s, d)
    n = (max_id + 1) if n_vertices is None else n_vertices
    if max_id >= n:
        raise FileFormatError(f"{path}: vertex id {max_id} exceeds n_vertices={n}")
    src, dst = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    w = np.fromiter(edges.values(), dtype=float, count=len(edges))
    return Graph(_stored(sp.coo_matrix((w, (dst, src)), shape=(n, n))))


def save_signal_csv(path, values) -> None:
    """Write a signal as one value per line."""
    v = np.asarray(values, dtype=float).ravel()
    with open(path, "w", encoding="ascii") as fh:
        for x in v:
            fh.write(_fmt(x) + "\n")


def load_signal_csv(path) -> np.ndarray:
    """Read a single-column CSV of signal values."""
    values = []
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            values.append(_parse_float(line, path, lineno, "signal value"))
    if not values:
        raise FileFormatError(f"{path}:1: empty signal file")
    return np.asarray(values)


def load_geometry_csv(path) -> VertexGeometry:
    """Read vertex geometry from ``id,lat,lon,alt`` rows.

    Ids must form the complete range 0..N-1 in any order.
    """
    seen = {}
    with open(path, encoding="ascii") as fh:
        lines = iter(enumerate(fh, start=1))
        try:
            lineno, raw = next(lines)
        except StopIteration:
            raise FileFormatError(f"{path}:1: empty file") from None
        if [t.strip() for t in raw.strip().split(",")] != ["id", "lat", "lon", "alt"]:
            _fail(path, lineno, "header must be 'id,lat,lon,alt'")
        for lineno, raw in lines:
            line = raw.strip()
            if not line:
                continue
            tokens = [t.strip() for t in line.split(",")]
            if len(tokens) != 4:
                _fail(path, lineno, f"expected 4 fields, got {len(tokens)}")
            vid = _parse_int(tokens[0], path, lineno, "vertex id")
            if vid in seen:
                _fail(path, lineno, f"duplicate vertex id {vid}")
            seen[vid] = (
                _parse_float(tokens[1], path, lineno, "latitude"),
                _parse_float(tokens[2], path, lineno, "longitude"),
                _parse_float(tokens[3], path, lineno, "altitude"),
            )
    n = len(seen)
    if sorted(seen) != list(range(n)):
        raise FileFormatError(f"{path}: vertex ids must cover 0..{n - 1} exactly")
    coords = np.array([seen[i] for i in range(n)])
    return VertexGeometry(lat=coords[:, 0], lon=coords[:, 1], alt=coords[:, 2])


def save_json(path, payload: dict) -> None:
    """Write a JSON report with sorted keys (deterministic bytes)."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_birkhoff_json(path, decomposition: BirkhoffDecomposition) -> None:
    """Write a decomposition as ``{"terms": [{"a": ..., "perm": [...]}]}``."""
    payload = {
        "terms": [
            {"a": float(a), "perm": [int(p) for p in perm]}
            for a, perm in decomposition.terms()
        ]
    }
    save_json(path, payload)


def load_birkhoff_json(path) -> BirkhoffDecomposition:
    """Read a decomposition written by :func:`save_birkhoff_json`."""
    with open(path, encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
    try:
        terms = payload["terms"]
        coeffs = np.asarray([t["a"] for t in terms], dtype=float)
        perms = np.asarray([t["perm"] for t in terms], dtype=np.int64)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: malformed decomposition ({exc})") from None
    return BirkhoffDecomposition(coefficients=coeffs, permutations=perms)
