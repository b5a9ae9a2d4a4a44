"""File formats, one per kind of data: Matrix Market coordinate matrices
(``symmetric``, one triangle, for a square matrix equal to its transpose;
``general`` otherwise), single-column signal CSV, ``id,lat,lon,alt``
geometry CSV, and JSON for Birkhoff decompositions and reports.

Matrix Market values are written in their shortest round-trip form and
signal values at 17 significant digits, so every save/load round-trips bit
for bit; the writers refuse NaN and infinite values, which the readers
would reject.  numpy parses the matrices and CSV files, json a decomposition
(in the writer's layout, a slice of each array's line at a time).  Only to name
the first bad line, one line walker (``_lines``, which skips Matrix Market's
``%`` comments) feeds the tokens of every format to one parser (``_parse``), so
each reader raises FileFormatError with the line number, also for NaN, infinity
and (``_ascii``) a byte outside ASCII.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import warnings
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

from .birkhoff import BirkhoffDecomposition, _check_terms
from .graphs import (DENSE_LIMIT, Graph, VertexGeometry, _index_dtype, _is_symmetric, _scaled,
                     _Scaled, _stored, as_matrix)

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
def _parse(token: str, kind, path, lineno: int, what: str):
    """``token`` read by ``kind`` (float or int); one it rejects, or a non-finite
    float, fails with the line number."""
    try:
        value = kind(token)
    except ValueError:
        value = None
    if value is None or "_" in token:
        _fail(path, lineno, f"non-{'numeric' if kind is float else 'integer'} {what} {token!r}")
    if kind is float and not math.isfinite(value):
        _fail(path, lineno, f"non-finite {what} {token!r}")
    return value


def _ascii(reader):
    """``reader(path)``, whose UnicodeDecodeError, a byte outside ASCII, is raised as
    FileFormatError at the line of the file's first such byte, found only then."""
    @functools.wraps(reader)
    def read(path):
        try:
            return reader(path)
        except UnicodeDecodeError:
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.isascii():
                        byte = next(b for b in line if b >= 0x80)
                        _fail(path, lineno, f"non-ASCII byte 0x{byte:02x}")
            raise

    return read


def _lines(path, comment=None, start: int = 1):
    """``(line number, stripped text)`` of each nonblank line from line ``start`` on,
    skipping those that begin with ``comment`` (Matrix Market's ``%``; the CSVs have none)."""
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno >= start and line and not (comment and line.startswith(comment)):
                yield lineno, line


# Entries handed to mmwrite in one call: a block of whole rows holding at most this many
# (a CSR's stored ones), or one row that holds more.
_BLOCK_ENTRIES = 1 << 20


def _spans(a):
    """``(lo, hi)`` for each block of rows ``[lo, hi)`` of a dense or CSR ``a`` (see ``_BLOCK_ENTRIES``)."""
    n, lo = a.shape[0], 0
    while lo < n:
        if sp.issparse(a):
            hi = np.searchsorted(a.indptr, a.indptr[lo] + _BLOCK_ENTRIES, "right") - 1
        else:
            hi = lo + _BLOCK_ENTRIES // a.shape[1]
        hi = min(max(int(hi), lo + 1), n)
        yield lo, hi
        lo = hi


def _rows(a, lo: int, hi: int):
    """Rows ``[lo, hi)`` of a dense or CSR ``a``, sharing its values (and a CSR's indices)."""
    if not sp.issparse(a):
        return a[lo:hi]
    p = a.indptr
    return sp.csr_array((a.data[p[lo]:p[hi]], a.indices[p[lo]:p[hi]], p[lo:hi + 1] - p[lo]),
                        shape=(hi - lo, a.shape[1]))


def _lower_count(a, lo: int, hi: int) -> int:
    """The stored entries of a CSR ``a``'s rows ``[lo, hi)`` on and below the diagonal."""
    p = a.indptr
    return int(np.count_nonzero(a.indices[p[lo]:p[hi]] <= np.repeat(np.arange(lo, hi),
                                                                      np.diff(p[lo:hi + 1]))))


def _kept(rows, lo: int, lower: bool):
    """The entries written of a dense block of rows from row ``lo``: its nonzeros,
    and only those on and below the diagonal if ``lower``."""
    keep = rows != 0
    if lower:
        keep &= np.tri(*rows.shape, lo, dtype=bool)
    return keep


def _entries(rows, lo: int, shape, lower: bool):
    """A block of rows from row ``lo`` of a ``shape`` matrix, dense or CSR, as the COO
    of the entries written, in row-major order: a dense block's nonzeros or a CSR's
    stored entries, and only those on and below the diagonal if ``lower``.
    ValueError for a NaN or an infinite one."""
    if sp.issparse(rows):
        i = np.repeat(np.arange(lo, lo + rows.shape[0], dtype=rows.indices.dtype),
                      np.diff(rows.indptr))
        j, v = rows.indices, rows.data
        if lower:
            keep = j <= i
            i, j, v = i[keep], j[keep], v[keep]
    else:
        i, j = np.nonzero(_kept(rows, lo, lower))
        v = rows[i, j]
        i += lo
    if not np.isfinite(v).all():
        raise ValueError("matrix entries must be finite")
    return sp.coo_array((v, (i, j)), shape=shape)


class _Body:
    """The entry lines of a Matrix Market file open for binary writing.  :meth:`add`
    hands a COO block to mmwrite, whose ``write`` calls come here; the three header
    lines of each call (banner, ``%`` comment, size line) are dropped."""

    def __init__(self, fh):
        self._fh, self._header = fh, 0

    def add(self, block) -> None:
        from scipy.io import mmwrite  # not needed by ``import dsshift``

        self._header = 3
        mmwrite(self, block, field="real", symmetry="general")

    def write(self, chunk) -> int:
        if not self._header:  # every call but a few: about 512 bytes of entries each
            return self._fh.write(chunk)
        size = len(chunk)
        while self._header and chunk:
            _, newline, chunk = bytes(chunk).partition(b"\n")
            self._header -= len(newline)
        self._fh.write(chunk)
        return size


def save_matrix_market(path, matrix) -> None:
    """Write a matrix in Matrix Market coordinate real format: two header lines,
    then one ``row col value`` line per entry in row-major order (a dense
    matrix's nonzeros, a sparse one's stored entries, a position stored twice
    summed).  A square matrix equal to its transpose is ``symmetric``, its
    entries on and below the diagonal written; any other is ``general``.  The
    verdict of a Graph is its cached one; that of a balanced operator
    ``diag(r) W diag(c)`` over a ``W`` known symmetric compares its entries with
    their mirrors on W's pattern (``_Scaled.is_symmetric``); any other matrix is
    compared with its transpose.  The header is written here, then mmwrite
    writes the entries a block of whole rows at a time (at most about 2^20
    entries; a balanced operator's formed from ``W``'s rows, with the float
    operations of ``op.matrix``, which is neither formed nor kept), so neither
    the text nor a coordinate list of the whole matrix is held.  The file
    replaces an existing one only once written whole.  Raises ValueError for a
    matrix with a zero dimension, which the loader rejects, before any file is
    opened, and for a NaN or infinite entry, leaving ``path`` as it was."""
    stored = getattr(matrix, "_stored", None)
    if isinstance(stored, _Scaled):  # a balanced operator, written as stored
        w, r, c = stored.graph.weights, stored.r, stored.c
        rows = lambda lo, hi: _scaled(_rows(w, lo, hi), r[lo:hi], c)
        symmetric = stored.is_symmetric()
    else:
        w = as_matrix(matrix)
        rows = lambda lo, hi: _rows(w, lo, hi)
        if not min(w.shape):
            raise ValueError(f"matrix must be nonempty, got shape {w.shape}")
        symmetric = w.shape[0] == w.shape[1] and (
            matrix.is_symmetric() if isinstance(matrix, Graph) else _is_symmetric(w))
    # The count line from W's pattern (a CSR's stored entries are all written) or,
    # for a dense matrix, from the nonzeros of its formed row blocks.
    if sp.issparse(w):
        count = sum(_lower_count(w, lo, hi) for lo, hi in _spans(w)) if symmetric else w.nnz
    else:
        count = sum(np.count_nonzero(_kept(rows(lo, hi), lo, symmetric)) for lo, hi in _spans(w))
    blocks = (_entries(rows(lo, hi), lo, w.shape, symmetric) for lo, hi in _spans(w))
    # The first block is formed before the file and its 1 MiB buffer (mmwrite writes
    # 1 KiB at a time: one system call for each 8 of them).  The text goes to a
    # sibling file that replaces ``path`` only once whole: a failed write leaves the old file.
    blocks = chain([next(blocks)], blocks)
    part = os.fspath(path) + ".part"
    try:
        with open(part, "wb", buffering=1 << 20) as fh:
            fh.write(f"%%MatrixMarket matrix coordinate real "
                     f"{'symmetric' if symmetric else 'general'}\n"
                     f"{w.shape[0]} {w.shape[1]} {count}\n".encode("ascii"))
            body = _Body(fh)
            for block in blocks:
                body.add(block)
                del block  # freed before the next block is formed
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def _entry_error(path, after: int, size, symmetric: bool, reason: str):
    """Raise the error of the first bad entry below line ``after``, with its line
    number; Python per line, so called only once numpy's parse found a fault."""
    rows, cols, nnz = size
    for count, (lineno, line) in enumerate(_lines(path, "%", after + 1), start=1):
        tokens = line.split()
        if len(tokens) != 3:
            _fail(path, lineno, f"entry must be 'row col value', got {line!r}")
        i, j, _ = (_parse(t, kind, path, lineno, what) for t, kind, what in
                   zip(tokens, (int, int, float), ("row index", "column index", "value")))
        if not (1 <= i <= rows and 1 <= j <= cols):
            _fail(path, lineno, f"index ({i}, {j}) outside {rows} x {cols}")
        if symmetric and i < j:
            _fail(path, lineno, "symmetric entries must lie on or below the diagonal")
        if count > nnz:
            _fail(path, lineno, f"more than the declared {nnz} entries")
    raise FileFormatError(f"{path}: {reason}")


def _symmetric_file(path) -> bool:
    """Whether the Matrix Market banner on line 1 of ``path`` declares the
    ``symmetric`` qualifier; FileFormatError for a banner the loader rejects."""
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
    return symmetry == "symmetric"


@_ascii
def load_matrix_market(path):
    """Read a Matrix Market coordinate (real) matrix.

    Supports the ``general`` and (square only) ``symmetric`` storage
    qualifiers; scipy adds a symmetric file's mirror.  numpy parses the
    entries; in row-major order they fill CSR arrays directly (never a dense
    N x N), out of it scipy's COO -> CSR sorts them.  The result is dense when
    N <= 512 or at least a quarter are nonzero, ``csr_array`` otherwise.
    Duplicates are rejected, and so is a size line with a dimension above
    ``max(DENSE_LIMIT, 2 * nnz)``, which the entries could not fill.
    """
    symmetric = _symmetric_file(path)
    lineno, line = next(_lines(path, "%", 2), (1, ""))  # the size line
    if not line:
        raise FileFormatError(f"{path}:1: missing size line")
    tokens = line.split()
    if len(tokens) != 3:
        _fail(path, lineno, "size line must be 'rows cols nnz'")
    rows, cols, nnz = (_parse(t, int, path, lineno, what) for t, what in
                       zip(tokens, ("row count", "column count", "entry count")))
    if rows < 1 or cols < 1 or nnz < 0:
        _fail(path, lineno, f"invalid dimensions {rows} x {cols}, nnz {nnz}")
    if symmetric and rows != cols:
        _fail(path, lineno, f"symmetric matrix must be square, got {rows} x {cols}")
    if max(rows, cols) > max(DENSE_LIMIT, 2 * nnz):  # before any allocation of that size
        _fail(path, lineno, f"dimensions {rows} x {cols} too large for {nnz} entries")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            # Integer columns reject "1.5" and "1e0" as indices, as int() does; int32
            # when the dimensions fit, which a larger index fails as out of range.
            index = _index_dtype(rows, cols)
            body = np.loadtxt(path, dtype=[("i", index), ("j", index), ("v", "f8")],
                              comments="%", skiprows=lineno, ndmin=1, encoding="ascii")
    except ValueError as exc:  # a token or a line numpy cannot parse
        _entry_error(path, lineno, (rows, cols, nnz), symmetric, str(exc))

    i, j, v = body["i"], body["j"], body["v"]
    bad = (i < 1) | (i > rows) | (j < 1) | (j > cols) | ~np.isfinite(v)
    if symmetric:
        bad |= i < j
    bad[nnz:] = True  # more entries than declared
    if bad.any():
        _entry_error(path, lineno, (rows, cols, nnz), symmetric, "malformed entry")
    if i.size < nnz:
        raise FileFormatError(f"{path}: expected {nnz} entries, found {i.size}")

    # Keys strictly increasing, as dsshift writes them, are CSR order, each position
    # once: the CSR arrays are filled directly.  scipy sorts any other body and sums a
    # repeated position into one entry; only then is the repeat named at its line.
    key = np.multiply(i, cols, dtype=np.int64)
    key += j
    increasing = (key[1:] > key[:-1]).all()
    del key, bad  # 8 B and 1 B an entry, freed before the CSR arrays are made
    if increasing:
        indptr = np.zeros(rows + 1, _index_dtype(rows, cols, nnz))
        np.cumsum(np.bincount(i, minlength=rows + 1)[1:], out=indptr[1:])
        a = sp.csr_array((np.ascontiguousarray(v), np.subtract(j, 1, dtype=indptr.dtype), indptr),
                         shape=(rows, cols))
    else:
        a = sp.coo_array((v, (i - 1, j - 1)), shape=(rows, cols)).tocsr()
        if a.nnz < nnz:
            order = np.lexsort((j, i))  # stable: a position's entries in file order
            k = order[1:][(np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)].min()
            repeat = next(islice(_lines(path, "%", lineno + 1), k, None))[0]
            _fail(path, repeat, f"duplicate entry ({i[k]}, {j[k]})")
    del body, i, j, v
    return _stored(a + sp.triu(a.T, 1, format="csr") if symmetric else a)  # + the mirror


def _load_graph(path) -> Graph:
    """The Graph of a Matrix Market file.  A ``symmetric`` file is mirrored on
    load, so its weights equal their transpose exactly: the Graph's verdict is
    set from the banner, not by comparing the weights with a transposed copy."""
    graph = Graph(load_matrix_market(path))  # one copy
    graph._symmetric = _symmetric_file(path) or None  # a general file is checked on request
    return graph


def _csv_array(path, dtype, header=()):
    """numpy's parse of the comma-separated rows below the ``header`` line (if
    given) as ``dtype`` records, None if numpy rejects the text.  An empty file
    or another header fails on line 1."""
    with open(path, encoding="ascii") as fh:
        first, text = fh.readline() if header else "", fh.read()
    if header and not first:
        _fail(path, 1, "empty file")
    if header and [t.strip() for t in first.split(",")] != header:
        _fail(path, 1, f"header must be {','.join(header)!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            return np.loadtxt(io.StringIO(re.sub(r"(?m)^[^\S\n]+$", "", text)), dtype=dtype,
                              delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _signal_text(values) -> str:
    """A signal's text, a value a line at 17 significant digits.  ValueError for
    anything but a nonempty 1-D array (the loader reads one back) or for a NaN
    or infinite value."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not values.size:
        raise ValueError(f"signal must be a nonempty 1-D array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("signal values must be finite")
    return ("%.17g\n" * values.size) % tuple(values.tolist())


def save_signal_csv(path, values) -> None:
    """Write a signal as :func:`_signal_text`; ValueError before the file opens."""
    text = _signal_text(values)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


@_ascii
def load_signal_csv(path) -> np.ndarray:
    """Read a single-column CSV of signal values."""
    rows = _csv_array(path, [("v", "f8")])
    if rows is not None and rows.size and np.isfinite(rows["v"]).all():
        return rows["v"]
    for lineno, line in _lines(path):  # name the first bad line
        _parse(line, float, path, lineno, "signal value")
    raise FileFormatError(f"{path}:1: empty signal file")  # numpy reads every line float() does


@_ascii
def load_geometry_csv(path) -> VertexGeometry:
    """Read vertex geometry from ``id,lat,lon,alt`` rows.

    Ids must form the complete range 0..N-1 in any order.  A negative id
    fails on its line; with N rows known, so does the first id N or above,
    which is where any gap in the range shows.
    """
    header = ["id", "lat", "lon", "alt"]
    rows = _csv_array(path, [("id", "i8"), ("xyz", "f8", 3)], header)
    if rows is not None and rows.size:
        rows = rows[np.argsort(rows["id"])]
        if np.array_equal(rows["id"], np.arange(rows.size)) and np.isfinite(rows["xyz"]).all():
            return VertexGeometry(*rows["xyz"].T)
    seen = {}  # vertex id -> line, read per line to name the first bad one
    for lineno, line in _lines(path, start=2):
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) != len(header):
            _fail(path, lineno, f"expected {len(header)} fields, got {len(tokens)}")
        vid = _parse(tokens[0], int, path, lineno, "vertex id")
        if vid < 0:
            _fail(path, lineno, f"negative vertex id {vid}")
        if vid in seen:
            _fail(path, lineno, f"duplicate vertex id {vid}")
        seen[vid] = lineno
        for token, what in zip(tokens[1:], ("latitude", "longitude", "altitude")):
            _parse(token, float, path, lineno, what)
    n = len(seen)
    if not n:
        _fail(path, 1, "no geometry rows below the header")
    # N distinct nonnegative ids miss a value of 0..N-1 only if one is N or more.
    lineno, vid = min((lineno, vid) for vid, lineno in seen.items() if vid >= n)
    _fail(path, lineno, f"vertex id {vid} outside 0..{n - 1}; "
                        f"vertex ids must cover 0..{n - 1} exactly")


def save_json(path, payload: dict) -> None:
    """Write a JSON report with sorted keys (deterministic bytes); a NaN or an
    infinity, which strict JSON lacks, is a ValueError before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


# The integer arrays of a decomposition's JSON layout, besides "n" and the coefficients "a".
_BIRKHOFF_ARRAYS = ("first", "indptr", "rows", "cols")


def save_birkhoff_json(path, decomposition: BirkhoffDecomposition) -> None:
    """Write a decomposition in its columnar layout, ``{"n", "a", "first",
    "indptr", "rows", "cols"}``: ``a`` the coefficients and the rest the
    arrays of :class:`BirkhoffDecomposition`, keys sorted, one line each.  The
    lists are written 2^16 values at a time, so the text is never held whole;
    a NaN or infinite coefficient, which strict JSON lacks, is a ValueError
    before the file opens."""
    d = decomposition
    fields = {"n": d.n, "a": np.asarray(d.coefficients, dtype=float),
              **{k: np.asarray(getattr(d, k), dtype=np.int64) for k in _BIRKHOFF_ARRAYS}}
    if not np.isfinite(fields["a"]).all():
        raise ValueError("a NaN or infinite coefficient has no JSON form")
    with open(path, "w", encoding="ascii") as fh:
        for i, key in enumerate(sorted(fields)):
            fh.write(f'{"," if i else "{"}\n  "{key}": ')
            v = fields[key]
            if isinstance(v, int):
                fh.write(str(v))
                continue
            fh.write("[")
            for lo in range(0, v.size, 1 << 16):  # repr: JSON's form of a finite float or an int
                fh.write((", " if lo else "") + ", ".join(map(repr, v[lo:lo + (1 << 16)].tolist())))
            fh.write("]")
        fh.write("\n}\n")


_SLICE_BYTES = 1 << 19


def _numbers(inside: bytes, kind):
    """The numbers inside a JSON array as one int64 (``kind`` int) or float64 array, read by
    json a slice at a time, each ending at the first comma (no number has one) ``_SLICE_BYTES``
    on.  None, which leaves the text to the whole-file parse, if json rejects a slice, numpy
    makes of one no 1-D array of ``kind``, or a nonempty array has an empty one (``[1,]``)."""
    out = np.empty(inside.count(b",") + bool(inside), np.int64 if kind is int else np.float64)
    at = lo = 0
    while lo <= len(inside):
        hi = inside.find(b",", lo + _SLICE_BYTES)
        hi = len(inside) if hi < 0 else hi
        try:
            v = np.asarray(json.loads(b"[%b]" % inside[lo:hi]))
        except ValueError:  # json's, or numpy's for a ragged list
            return None
        if v.ndim != 1 or v.size and v.dtype.kind not in ("i" if kind is int else "if"):
            return None
        out[at:at + v.size] = v
        at += v.size
        lo = hi + 1
    return out if at == out.size else None  # short by each empty slice


def _columnar(path):
    """A decomposition file in exactly the layout :func:`save_birkhoff_json`
    writes, as ``{key: value}`` with each array's line parsed a slice at a time
    into one numpy array (:func:`_numbers`), not into one Python list; None for
    any other text."""
    keys = sorted(("n", "a", *_BIRKHOFF_ARRAYS))
    payload = {}
    with open(path, "rb") as fh:
        if fh.readline() != b"{\n":
            return None
        for key in keys:
            line, head = fh.readline(), f'  "{key}": '.encode("ascii")
            tail = b"\n" if key == keys[-1] else b",\n"
            if not (line.startswith(head) and line.endswith(tail)):
                return None
            if key == "n":
                try:
                    payload[key] = json.loads(line[len(head):-len(tail)])
                except ValueError:
                    return None
            elif line[len(head):len(head) + 1] == b"[" and line[-len(tail) - 1:-len(tail)] == b"]":
                inside = line[len(head) + 1:-len(tail) - 1]
                del line  # one copy of the text at a time
                payload[key] = _numbers(inside, float if key == "a" else int)
                if payload[key] is None:
                    return None
            else:
                return None
        return payload if fh.read() == b"}\n" else None


@_ascii
def load_birkhoff_json(path) -> BirkhoffDecomposition:
    """Read a decomposition written by :func:`save_birkhoff_json`: the writer's
    layout a line at a time into numpy arrays (:func:`_columnar`), ``json.load`` any
    other JSON, with the same errors.  Raises FileFormatError naming the path
    for invalid JSON, the per-term ``"terms"`` layout of earlier versions
    (README shows how to convert it), a missing key, an ``n`` that is not a
    positive integer or not the length of ``first``, an array that is not a
    list of integers, no terms, a NaN, infinite or negative coefficient, and
    changes that do not keep each image a permutation of 0..n-1 (see
    ``birkhoff.reconstruct``), naming the first bad term where there is one."""
    payload = _columnar(path)
    if payload is None:  # any other JSON, or none: parsed whole into Python objects
        with open(path, encoding="ascii") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if isinstance(payload, dict) and "terms" in payload:
        raise FileFormatError(f'{path}: the per-term "terms"/"perm" layout of earlier versions '
                              'is not read; convert it to the columnar layout (see README)')
    try:
        n, coeffs = payload["n"], np.asarray(payload["a"], dtype=float)
        arrays = [np.asarray(payload[k]) for k in _BIRKHOFF_ARRAYS]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed decomposition ({exc})") from None
    for k, v in zip(_BIRKHOFF_ARRAYS, arrays):
        if v.ndim != 1 or (v.size and v.dtype.kind not in "iu"):
            raise FileFormatError(f"{path}: {k} must be a list of integers")
    first, indptr, rows, cols = (v.astype(np.int64, copy=False) for v in arrays)
    if type(n) is not int or n < 1 or n != first.size:
        raise FileFormatError(f"{path}: n must be a positive integer, the length of first "
                              f"({first.size}), got {n!r}")
    if coeffs.ndim != 1:
        raise FileFormatError(f"{path}: a must be a list of coefficients")
    if not coeffs.size:
        raise FileFormatError(f"{path}: decomposition has no terms")
    if (bad := np.flatnonzero(~np.isfinite(coeffs) | (coeffs < 0))).size:
        raise FileFormatError(f"{path}: term {bad[0]}: coefficient must be finite and nonnegative")
    try:
        _check_terms(coeffs, first, indptr, rows, cols)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return BirkhoffDecomposition(coefficients=coeffs, first=first, indptr=indptr, rows=rows,
                                 cols=cols)
