"""File formats, one per kind of data: Matrix Market coordinate matrices,
single-column signal CSV, ``id,lat,lon,alt`` geometry CSV, and JSON for
Birkhoff decompositions and reports.

Matrix Market values are written in their shortest round-trip form and
signal values at 17 significant digits, so every save/load round-trips bit
for bit; the writers refuse NaN and infinite values, which the readers
would reject.  All parsers raise FileFormatError with the offending line
number, also for NaN and infinite values.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .birkhoff import BirkhoffDecomposition
from .graphs import DENSE_LIMIT, VertexGeometry, _stored, _values, as_matrix

__all__ = [
    "FileFormatError",
    "load_birkhoff_json",
    "load_geometry_csv",
    "load_matrix_market",
    "load_signal_csv",
    "save_birkhoff_json",
    "save_json",
    "save_matrix_market",
    "save_signal_csv",
]


class FileFormatError(ValueError):
    """Malformed input file; the message carries the file and line number."""


def _fail(path, lineno: int, message: str):
    raise FileFormatError(f"{path}:{lineno}: {message}")


# float() and int() also read Python's digit separators ("1_0" is 10), which
# the file formats do not have and numpy's parser rejects.
def _parse_float(token: str, path, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = None
    if value is None or "_" in token:
        _fail(path, lineno, f"non-numeric {what} {token!r}")
    if not math.isfinite(value):
        _fail(path, lineno, f"non-finite {what} {token!r}")
    return value


def _parse_int(token: str, path, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or "_" in token:
        _fail(path, lineno, f"non-integer {what} {token!r}")
    return value


def save_matrix_market(path, matrix) -> None:
    """Write a matrix in Matrix Market coordinate (real, general) format: two
    header lines, then one ``row col value`` line per entry in row-major order.
    Raises ValueError for a NaN or infinite entry, before the file is opened."""
    # Imported here: scipy.io is not needed by ``import dsshift``.
    from scipy.io import mmwrite

    a = as_matrix(matrix)
    if not np.isfinite(_values(a)).all():
        raise ValueError("matrix entries must be finite")
    coo = a.sorted_indices().tocoo() if sp.issparse(a) else sp.coo_array(a)
    buf = io.BytesIO()
    mmwrite(buf, coo, field="real", symmetry="general")
    banner, _comment, body = buf.getvalue().split(b"\n", 2)  # drop mmwrite's '%' line
    with open(path, "wb") as fh:
        fh.writelines((banner, b"\n", body))


def _entry_lines(path, after: int):
    """``(line number, text)`` of each entry line below line ``after``."""
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno > after and line and not line.startswith("%"):
                yield lineno, line


def _entry_error(path, after: int, size, symmetric: bool, reason: str):
    """Raise the error of the first bad entry below line ``after``, with its line
    number; Python per line, so called only once numpy's parse found a fault."""
    rows, cols, nnz = size
    for count, (lineno, line) in enumerate(_entry_lines(path, after), start=1):
        tokens = line.split()
        if len(tokens) != 3:
            _fail(path, lineno, f"entry must be 'row col value', got {line!r}")
        i = _parse_int(tokens[0], path, lineno, "row index")
        j = _parse_int(tokens[1], path, lineno, "column index")
        _parse_float(tokens[2], path, lineno, "value")
        if not (1 <= i <= rows and 1 <= j <= cols):
            _fail(path, lineno, f"index ({i}, {j}) outside {rows} x {cols}")
        if symmetric and i < j:
            _fail(path, lineno, "symmetric entries must lie on or below the diagonal")
        if count > nnz:
            _fail(path, lineno, f"more than the declared {nnz} entries")
    raise FileFormatError(f"{path}: {reason}")


def load_matrix_market(path):
    """Read a Matrix Market coordinate (real) matrix.

    Supports the ``general`` and ``symmetric`` storage qualifiers;
    symmetric files are expanded to full storage.  numpy parses the entries
    into coordinate arrays (never a dense N x N), returned dense when N <= 512
    or at least a quarter are nonzero, ``csr_array`` otherwise.  Duplicates
    are rejected, and so is a size line with a dimension above
    ``max(DENSE_LIMIT, 2 * nnz)``, which the entries could not fill.
    """
    with open(path, encoding="ascii") as fh:
        banner = fh.readline()
    if not banner:
        raise FileFormatError(f"{path}:1: empty file")
    fields = banner.split()
    if not banner.lstrip().startswith("%%MatrixMarket"):
        _fail(path, 1, "missing %%MatrixMarket header")
    if len(fields) != 5:
        _fail(path, 1, f"malformed header {banner.strip()!r}")
    _, obj, fmt, field, symmetry = (f.lower() for f in fields)
    if (obj, fmt, field) != ("matrix", "coordinate", "real"):
        _fail(path, 1, f"unsupported type {obj}/{fmt}/{field}")
    if symmetry not in ("general", "symmetric"):
        _fail(path, 1, f"unsupported symmetry {symmetry!r}")
    symmetric = symmetry == "symmetric"

    lineno, line = next(_entry_lines(path, 1), (1, ""))  # the size line
    if not line:
        raise FileFormatError(f"{path}:1: missing size line")
    tokens = line.split()
    if len(tokens) != 3:
        _fail(path, lineno, "size line must be 'rows cols nnz'")
    rows = _parse_int(tokens[0], path, lineno, "row count")
    cols = _parse_int(tokens[1], path, lineno, "column count")
    nnz = _parse_int(tokens[2], path, lineno, "entry count")
    if rows < 1 or cols < 1 or nnz < 0:
        _fail(path, lineno, f"invalid dimensions {rows} x {cols}, nnz {nnz}")
    if max(rows, cols) > max(DENSE_LIMIT, 2 * nnz):  # before any allocation of that size
        _fail(path, lineno, f"dimensions {rows} x {cols} too large for {nnz} entries")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            # Integer columns reject "1.5" and "1e0" as indices, as int() does.
            body = np.loadtxt(path, dtype="i8,i8,f8", comments="%", skiprows=lineno,
                              ndmin=1, encoding="ascii")
    except ValueError as exc:  # a token or a line numpy cannot parse
        _entry_error(path, lineno, (rows, cols, nnz), symmetric, str(exc))

    i, j, v = body["f0"], body["f1"], body["f2"]
    bad = (i < 1) | (i > rows) | (j < 1) | (j > cols) | ~np.isfinite(v)
    if symmetric:
        bad |= i < j
    bad[nnz:] = True  # more entries than declared
    if bad.any():
        _entry_error(path, lineno, (rows, cols, nnz), symmetric, "malformed entry")
    if i.size < nnz:
        raise FileFormatError(f"{path}: expected {nnz} entries, found {i.size}")

    # A coordinate build would sum duplicates; report the first repeat instead.
    key = i * cols + j
    first = np.unique(key, return_index=True)[1]
    if first.size < key.size:
        k = np.setdiff1d(np.arange(key.size), first)[0]
        repeat = next(islice(_entry_lines(path, lineno), k, None))[0]
        _fail(path, repeat, f"duplicate entry ({i[k]}, {j[k]})")
    if symmetric:
        off = i != j
        i, j, v = np.r_[i, j[off]], np.r_[j, i[off]], np.r_[v, v[off]]
    return _stored(sp.coo_array((v, (i - 1, j - 1)), shape=(rows, cols)))


def _csv_rows(path, header: list):
    """``(line number, fields)`` of each nonblank row below the ``header`` row."""
    with open(path, encoding="ascii") as fh:
        first = fh.readline()
        if not first:
            raise FileFormatError(f"{path}:1: empty file")
        if [t.strip() for t in first.strip().split(",")] != header:
            _fail(path, 1, f"header must be {','.join(header)!r}")
        for lineno, raw in enumerate(fh, start=2):
            if line := raw.strip():
                tokens = [t.strip() for t in line.split(",")]
                if len(tokens) != len(header):
                    _fail(path, lineno, f"expected {len(header)} fields, got {len(tokens)}")
                yield lineno, tokens


def save_signal_csv(path, values) -> None:
    """Write a signal as one value per line.  Raises ValueError for a NaN or
    infinite value, before the file is opened."""
    values = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(values).all():
        raise ValueError("signal values must be finite")
    np.savetxt(path, values, fmt="%.17g")


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

    Ids must form the complete range 0..N-1 in any order.  A negative id
    fails on its line; with N rows known, so does the first id N or above,
    which is where any gap in the range shows.
    """
    seen = {}
    for lineno, tokens in _csv_rows(path, ["id", "lat", "lon", "alt"]):
        vid = _parse_int(tokens[0], path, lineno, "vertex id")
        if vid < 0:
            _fail(path, lineno, f"negative vertex id {vid}")
        if vid in seen:
            _fail(path, lineno, f"duplicate vertex id {vid}")
        seen[vid] = lineno, (
            _parse_float(tokens[1], path, lineno, "latitude"),
            _parse_float(tokens[2], path, lineno, "longitude"),
            _parse_float(tokens[3], path, lineno, "altitude"),
        )
    n = len(seen)
    if not n:
        _fail(path, 1, "no geometry rows below the header")
    # N distinct nonnegative ids miss a value of 0..N-1 only if one is N or more.
    beyond = [(lineno, vid) for vid, (lineno, _) in seen.items() if vid >= n]
    if beyond:
        lineno, vid = min(beyond)
        _fail(path, lineno, f"vertex id {vid} outside 0..{n - 1}; "
                            f"vertex ids must cover 0..{n - 1} exactly")
    coords = np.array([seen[i][1] for i in range(n)])
    return VertexGeometry(lat=coords[:, 0], lon=coords[:, 1], alt=coords[:, 2])


def save_json(path, payload: dict) -> None:
    """Write a JSON report with sorted keys (deterministic bytes)."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_birkhoff_json(path, decomposition: BirkhoffDecomposition) -> None:
    """Write a decomposition as ``{"terms": [{"a": ..., "perm": [...]}]}``."""
    coeffs = np.asarray(decomposition.coefficients, dtype=float).tolist()
    perms = np.asarray(decomposition.permutations, dtype=np.int64).tolist()
    save_json(path, {"terms": [{"a": a, "perm": p} for a, p in zip(coeffs, perms)]})


def load_birkhoff_json(path) -> BirkhoffDecomposition:
    """Read a decomposition written by :func:`save_birkhoff_json`.  Raises
    FileFormatError naming the path for invalid JSON, no terms, a ``perm``
    that is not a permutation of 0..N-1 (ragged, non-integer, out of range
    or repeated entries), and a NaN, infinite or negative coefficient."""
    with open(path, encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
    try:
        terms = payload["terms"]
        coeffs = np.array([t["a"] for t in terms], dtype=float)
        perms = np.array([t["perm"] for t in terms])  # ragged lists raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed decomposition ({exc})") from None
    if not coeffs.size:
        raise FileFormatError(f"{path}: decomposition has no terms")
    if perms.ndim != 2 or perms.dtype.kind not in "iu":
        raise FileFormatError(f"{path}: every perm must be a list of integers of one length")
    n = perms.shape[1]
    for bad, what in (
        (~np.isfinite(coeffs) | (coeffs < 0), "coefficient must be finite and nonnegative"),
        ((np.sort(perms, axis=1) != np.arange(n)).any(axis=1),
         f"perm is not a permutation of 0..{n - 1}"),
    ):
        if bad.any():
            raise FileFormatError(f"{path}: term {np.flatnonzero(bad)[0]}: {what}")
    return BirkhoffDecomposition(coefficients=coeffs, permutations=perms.astype(np.int64))
