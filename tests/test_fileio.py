import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dsshift import VertexGeometry, birkhoff_decompose
from dsshift.fileio import (
    FileFormatError,
    load_birkhoff_json,
    load_geometry_csv,
    load_matrix_market,
    load_signal_csv,
    save_birkhoff_json,
    save_json,
    save_matrix_market,
    save_signal_csv,
)

from conftest import random_geometry


class TestMatrixMarket:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        b = load_matrix_market(path)
        assert np.array_equal(a, b)

    def test_round_trip_preserves_zeros(self, tmp_path):
        a = np.array([[0.0, 1.5], [2.5, 0.0]])
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        assert np.array_equal(load_matrix_market(path), a)

    def test_sparse_input(self, tmp_path):
        a = sp.csr_matrix(np.array([[0.0, 3.0], [4.0, 0.0]]))
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        assert np.array_equal(load_matrix_market(path), a.toarray())

    def test_symmetric_file_expanded(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 5.0\n"
            "3 3 1.0\n"
        )
        a = load_matrix_market(path)
        assert a[1, 0] == 5.0 and a[0, 1] == 5.0
        assert a[2, 2] == 1.0

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("3 3 1\n1 1 1.0\n")
        with pytest.raises(FileFormatError, match=r"bad\.mtx:1: missing"):
            load_matrix_market(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:3: non-numeric"):
            load_matrix_market(path)

    def test_digit_separator_is_not_a_number(self, tmp_path):
        path = tmp_path / "u.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1_0\n")
        with pytest.raises(FileFormatError, match=r"u\.mtx:4: non-numeric value '1_0'"):
            load_matrix_market(path)

    def test_out_of_range_index_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:3: index"):
            load_matrix_market(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(FileFormatError, match="expected 2 entries"):
            load_matrix_market(path)

    def test_size_line_beyond_the_entries_names_line_2(self, tmp_path):
        import tracemalloc

        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "10000000000 10000000000 2\n1 1 1.0\n2 2 1.0\n"
        )
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match=r"bad\.mtx:2: dimensions"):
                load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("nnz, ok", [(299, False), (300, True)])
    def test_size_bound_is_twice_the_entries(self, tmp_path, nnz, ok):
        path = tmp_path / "w.mtx"
        body = "".join(f"{k + 1} {k + 1} 1.0\n" for k in range(nnz))
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n600 600 {nnz}\n{body}"
        )
        if ok:
            assert load_matrix_market(path).shape == (600, 600)
        else:
            with pytest.raises(FileFormatError, match=r"w\.mtx:2: dimensions 600 x 600"):
                load_matrix_market(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "\n"
            "2 2 1\n"
            "1 2 0.25\n"
        )
        a = load_matrix_market(path)
        assert a[0, 1] == 0.25


    def test_duplicate_entry_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 2 0.5\n2 1 1.0\n1 2 0.75\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:5: duplicate entry \(1, 2\)"):
            load_matrix_market(path)

    def test_symmetric_duplicate_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n2 1 5.0\n3 3 1.0\n2 1 5.0\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:5: duplicate entry \(2, 1\)"):
            load_matrix_market(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1 1 0.5\n1.5 2 1.0\n", "non-integer row index '1.5'"),
            ("1 1 0.5\n2 1 1.0 7\n", "entry must be 'row col value', got '2 1 1.0 7'"),
            ("% note\n1 1 0.5\n2 2 1.0\n2 1 0.5\n", "more than the declared 2 entries"),
        ],
        ids=["non-integer-index", "four-tokens", "extra-entry"],
    )
    def test_malformed_entry_names_line(self, tmp_path, body, message):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n" + body)
        lineno = body.count("\n") + 2
        with pytest.raises(FileFormatError, match=rf"bad\.mtx:{lineno}: {re.escape(message)}$"):
            load_matrix_market(path)

    def test_written_file_has_two_header_lines_and_row_major_entries(self, tmp_path):
        # Row 0 stores column 1 before column 0.
        a = sp.csr_matrix(([1.0, 3.0, 2.0], [1, 0, 0], [0, 2, 3]), shape=(2, 3))
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        assert path.read_text().splitlines() == [
            "%%MatrixMarket matrix coordinate real general",
            "2 3 3",
            "1 1 3",
            "1 2 1",
            "2 1 2",
        ]

    def test_symmetric_mirror_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n2 1 5.0\n1 2 5.0\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:4: symmetric entries"):
            load_matrix_market(path)

    def test_large_diagonal_loads_without_dense_buffer(self, tmp_path):
        import tracemalloc

        n = 5000
        path = tmp_path / "diag.mtx"
        save_matrix_market(path, sp.identity(n, format="csr"))
        tracemalloc.start()
        try:
            a = load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.issparse(a) and a.nnz == n
        assert peak < 20e6  # a dense N x N would need 200 MB

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_writer_refuses_non_finite_entries(self, tmp_path, bad, sparse):
        a = np.array([[1.0, 0.0], [bad, 2.0]])
        path = tmp_path / "a.mtx"
        with pytest.raises(ValueError, match="must be finite"):
            save_matrix_market(path, sp.csr_array(a) if sparse else a)
        assert not path.exists()

    @pytest.mark.parametrize("scale, dense", [(3000.0, True), (800.0, False)])
    def test_loaders_follow_the_storage_rule(self, tmp_path, scale, dense):
        from dsshift import build_weight_matrix

        g = build_weight_matrix(random_geometry(600, 0), scale=scale, threshold=1e-3)
        assert sp.issparse(g.weights) != dense
        save_matrix_market(tmp_path / "w.mtx", g)
        w = load_matrix_market(tmp_path / "w.mtx")
        assert isinstance(w, np.ndarray if dense else sp.csr_array)
        assert np.array_equal(w if dense else w.toarray(), g.dense())


# Extremes of float64 and values whose shortest round-trip form has 17 digits.
_awkward = st.sampled_from(
    [5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 0.1 + 0.2, 1 / 3, 0.0]
)
_finite = st.floats(allow_nan=False, allow_infinity=False) | _awkward


@given(
    a=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9), elements=_finite),
    sparse=st.booleans(),
)
@settings(max_examples=60)
def test_matrix_market_round_trip_is_bit_exact(tmp_path_factory, a, sparse):
    path = tmp_path_factory.mktemp("mtx") / "a.mtx"
    save_matrix_market(path, sp.csr_matrix(a) if sparse else a)
    b = load_matrix_market(path)
    assert np.array_equal(b.toarray() if sp.issparse(b) else b, a)


class TestSignalCSV:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(17)
        path = tmp_path / "x.csv"
        save_signal_csv(path, x)
        assert np.array_equal(load_signal_csv(path), x)

    def test_non_numeric_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\nfoo\n")
        with pytest.raises(FileFormatError, match=r"x\.csv:2: non-numeric"):
            load_signal_csv(path)

    def test_digit_separator_is_not_a_number(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n1_0\n")
        with pytest.raises(FileFormatError, match=r"x\.csv:2: non-numeric signal value '1_0'"):
            load_signal_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        path.write_text(f"1.0\n2.0\n{bad}\n")
        with pytest.raises(FileFormatError, match=r"x\.csv:3: non-finite"):
            load_signal_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty signal"):
            load_signal_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writer_refuses_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="must be finite"):
            save_signal_csv(path, [1.0, bad, 2.0])
        assert not path.exists()


class TestGeometryCSV:
    def test_load_and_order_normalization(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text(
            "id,lat,lon,alt\n1,45.1,7.1,10.0\n0,45.0,7.0,0.0\n2,45.2,7.2,20.0\n"
        )
        geo = load_geometry_csv(path)
        assert isinstance(geo, VertexGeometry)
        assert geo.lat.tolist() == [45.0, 45.1, 45.2]
        assert geo.alt.tolist() == [0.0, 10.0, 20.0]

    def test_incomplete_id_range(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("id,lat,lon,alt\n0,45.0,7.0,0.0\n2,45.2,7.2,20.0\n")
        with pytest.raises(FileFormatError, match="must cover 0..1"):
            load_geometry_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,45.0,7.0,0.0\n1_0,45.2,7.2,20.0\n", r"geo\.csv:3: non-integer vertex id '1_0'"),
            ("0,45.0,7.0,0.0\n1,45.1,7_0,10.0\n", r"geo\.csv:3: non-numeric longitude '7_0'"),
        ],
        ids=["id", "longitude"],
    )
    def test_digit_separator_is_not_a_number(self, tmp_path, rows, message):
        path = tmp_path / "geo.csv"
        path.write_text("id,lat,lon,alt\n" + rows)
        with pytest.raises(FileFormatError, match=message):
            load_geometry_csv(path)

    def test_negative_id_names_line(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("id,lat,lon,alt\n0,45.0,7.0,0.0\n-1,45.2,7.2,20.0\n1,45.1,7.1,1.0\n")
        with pytest.raises(FileFormatError, match=r"geo\.csv:3: negative vertex id -1"):
            load_geometry_csv(path)

    def test_id_beyond_range_names_its_line(self, tmp_path):
        # three rows: 5 and 3 are both outside 0..2; the first in the file is named
        path = tmp_path / "geo.csv"
        path.write_text("id,lat,lon,alt\n0,45.0,7.0,0.0\n5,45.1,7.1,1.0\n3,45.2,7.2,2.0\n")
        with pytest.raises(FileFormatError, match=r"geo\.csv:3: vertex id 5 outside 0\.\.2"):
            load_geometry_csv(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("id,lat,lon,alt\n0,45.0,7.0,0.0\n0,45.2,7.2,20.0\n")
        with pytest.raises(FileFormatError, match=r"geo\.csv:3: duplicate"):
            load_geometry_csv(path)

    @pytest.mark.parametrize("text", ["id,lat,lon,alt", "id,lat,lon,alt\n", "id,lat,lon,alt\n\n"])
    def test_header_only_names_line_1(self, tmp_path, text):
        path = tmp_path / "geo.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=r"geo\.csv:1: no geometry rows"):
            load_geometry_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize(
    "name, text, lineno, load",
    [
        (
            "w.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {}\n",
            4,
            load_matrix_market,
        ),
        ("geo.csv", "id,lat,lon,alt\n0,45.0,7.0,0.0\n1,45.1,{},10.0\n", 3, load_geometry_csv),
    ],
    ids=["mtx", "geometry-csv"],
)
def test_non_finite_value_names_line(tmp_path, name, text, lineno, load, bad):
    path = tmp_path / name
    path.write_text(text.format(bad))
    with pytest.raises(FileFormatError, match=rf"{re.escape(name)}:{lineno}: non-finite"):
        load(path)


def _rejected_by(parse):
    def rejected(token):
        try:
            parse(token)
        except ValueError:
            return True
        return "_" in token

    return rejected


# Non-numeric and non-integer tokens are the ones float() and int() reject,
# plus those with a digit separator, as in the loaders' own _parse_float and
# _parse_int.
_tokens = st.text(alphabet="0123456789.eE+-_xnaifINF", min_size=1, max_size=6)
_non_numeric = _tokens.filter(_rejected_by(float))
_non_integer = _tokens.filter(_rejected_by(int))
_non_finite = st.sampled_from(["nan", "-NaN", "inf", "+inf", "-Infinity", "1e400", "-1e999"])
_blank = st.lists(st.sampled_from(["", "   "]), max_size=1)  # lines loaders skip


def _corrupted(data, entries, sep, bad_token):
    """Lines of ``entries`` (token lists joined by ``sep``) with drawn blank
    lines in between, as written (good) and with one drawn token replaced by
    a draw from ``bad_token(field)`` (bad), plus that line's 0-based index."""
    k = data.draw(st.integers(0, len(entries) - 1), label="entry")
    tokens = list(entries[k])
    field = data.draw(st.integers(0, len(tokens) - 1), label="field")
    tokens[field] = data.draw(bad_token(field), label="token")
    good = []
    for i, entry in enumerate(entries):
        good += data.draw(_blank)
        if i == k:
            at = len(good)
        good.append(sep.join(entry))
    return good, good[:at] + [sep.join(tokens)] + good[at + 1:], at


def _assert_rejection_names_line(path, load, head, good, bad, at):
    path.write_text("\n".join(head + good) + "\n")
    load(path)
    path.write_text("\n".join(head + bad) + "\n")
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:{len(head) + at + 1}: "):
        load(path)


@given(data=st.data())
@settings(max_examples=80)
def test_matrix_market_rejection_names_the_line(tmp_path_factory, data):
    n = data.draw(st.integers(2, 6), label="n")
    cells = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                               min_size=1, max_size=12, unique=True), label="cells")
    values = data.draw(st.lists(_finite, min_size=len(cells), max_size=len(cells)))
    out_of_range = (st.integers(-3, 0) | st.integers(n + 1, n + 4)).map(str)
    lines = _corrupted(data, [[str(i), str(j), repr(v)] for (i, j), v in zip(cells, values)],
                       " ", lambda field: (_non_numeric | _non_finite if field == 2
                                           else _non_integer | out_of_range))
    head = ["%%MatrixMarket matrix coordinate real general", f"{n} {n} {len(cells)}"]
    _assert_rejection_names_line(tmp_path_factory.mktemp("mtx") / "w.mtx",
                                 load_matrix_market, head, *lines)


@given(values=st.lists(_finite, min_size=1, max_size=10), data=st.data())
@settings(max_examples=60)
def test_signal_csv_rejection_names_the_line(tmp_path_factory, values, data):
    lines = _corrupted(data, [[repr(v)] for v in values], ",",
                       lambda field: _non_numeric | _non_finite)
    _assert_rejection_names_line(tmp_path_factory.mktemp("signal") / "x.csv",
                                 load_signal_csv, [], *lines)


@given(ids=st.permutations(range(6)), data=st.data())
@settings(max_examples=60)
def test_geometry_csv_rejection_names_the_line(tmp_path_factory, ids, data):
    coords = st.floats(-1e6, 1e6, allow_nan=False)
    rows = [[str(i)] + [repr(data.draw(coords)) for _ in "xyz"] for i in ids]
    out_of_range = (st.integers(-3, -1) | st.integers(6, 9)).map(str)
    lines = _corrupted(data, rows, ",", lambda field: (
        _non_integer | out_of_range if field == 0 else _non_numeric | _non_finite))
    _assert_rejection_names_line(tmp_path_factory.mktemp("geometry") / "geo.csv",
                                 load_geometry_csv, ["id,lat,lon,alt"], *lines)


class TestBirkhoffJSON:
    def test_round_trip(self, tmp_path):
        d = birkhoff_decompose(np.full((2, 2), 0.5))
        path = tmp_path / "d.json"
        save_birkhoff_json(path, d)
        d2 = load_birkhoff_json(path)
        assert np.array_equal(d.coefficients, d2.coefficients)
        assert np.array_equal(d.permutations, d2.permutations)

    def test_schema_shape(self, tmp_path):
        import json

        d = birkhoff_decompose(np.eye(2))
        path = tmp_path / "d.json"
        save_birkhoff_json(path, d)
        payload = json.loads(path.read_text())
        assert payload == {"terms": [{"a": 1.0, "perm": [0, 1]}]}

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"terms": [')
        with pytest.raises(FileFormatError, match=r"d\.json:1"):
            load_birkhoff_json(path)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ("", "no terms"),
            ('{"a": 0.5, "perm": [0, 1]}, {"a": 0.5, "perm": [1]}', "malformed decomposition"),
            ('{"a": 1.0, "perm": [0.5, 1]}', "list of integers"),
            ('{"a": 1.0, "perm": ["0", "1"]}', "list of integers"),
            ('{"a": 1.0, "perm": [0, 2]}', "term 0: perm is not a permutation of 0..1"),
            ('{"a": 1.0, "perm": [-1, 0]}', "term 0: perm is not a permutation of 0..1"),
            ('{"a": 0.5, "perm": [0, 1]}, {"a": 0.5, "perm": [0, 0]}',
             "term 1: perm is not a permutation of 0..1"),
            ('{"a": NaN, "perm": [0, 1]}', "term 0: coefficient must be finite and nonnegative"),
            ('{"a": Infinity, "perm": [0, 1]}', "term 0: coefficient must be finite"),
            ('{"a": 1.5, "perm": [0, 1]}, {"a": -0.5, "perm": [1, 0]}',
             "term 1: coefficient must be finite and nonnegative"),
        ],
        ids=["empty", "ragged", "fractional", "strings", "beyond-n", "negative-entry",
             "repeat", "nan-a", "inf-a", "negative-a"],
    )
    def test_malformed_decomposition_names_path(self, tmp_path, terms, message):
        path = tmp_path / "d.json"
        path.write_text(f'{{"terms": [{terms}]}}')
        pattern = rf"^{re.escape(str(path))}: .*{re.escape(message)}"
        with pytest.raises(FileFormatError, match=pattern):
            load_birkhoff_json(path)


def test_save_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_json(p1, {"b": 1.5, "a": [1, 2]})
    save_json(p2, {"a": [1, 2], "b": 1.5})
    assert p1.read_bytes() == p2.read_bytes()
