import re

import numpy as np
import pytest
import scipy.sparse as sp

from dsshift import Graph, VertexGeometry, birkhoff_decompose
from dsshift.fileio import (
    FileFormatError,
    load_birkhoff_json,
    load_edge_csv,
    load_geometry_csv,
    load_matrix_market,
    load_signal_csv,
    save_birkhoff_json,
    save_edge_csv,
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

    @pytest.mark.parametrize("scale, dense", [(3000.0, True), (800.0, False)])
    def test_loaders_follow_the_storage_rule(self, tmp_path, scale, dense):
        from dsshift import build_weight_matrix

        g = build_weight_matrix(random_geometry(600, 0), scale=scale, threshold=1e-3)
        assert sp.issparse(g.weights) != dense
        save_matrix_market(tmp_path / "w.mtx", g)
        save_edge_csv(tmp_path / "w.csv", g)
        loaded = load_matrix_market(tmp_path / "w.mtx"), load_edge_csv(tmp_path / "w.csv")
        for w in (loaded[0], loaded[1].weights):
            assert sp.issparse(w) != dense
            assert np.array_equal(w if dense else w.toarray(), g.dense())


class TestEdgeCSV:
    def test_round_trip(self, tmp_path):
        w = np.array([[0.0, 0.5, 0.0], [0.25, 0.0, 0.0], [0.0, 1.0, 0.0]])
        g = Graph(w)
        path = tmp_path / "g.csv"
        save_edge_csv(path, g)
        g2 = load_edge_csv(path, n_vertices=3)
        assert np.array_equal(g2.dense(), w)

    def test_header_and_orientation(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\n0,1,0.75\n")
        g = load_edge_csv(path)
        # edge 0 -> 1 lands in row 1 (incoming edges of vertex 1)
        assert g.weight(1, 0) == 0.75
        assert g.weight(0, 1) == 0.0

    def test_negative_weight_names_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\n0,1,0.5\n1,0,-2.0\n")
        with pytest.raises(FileFormatError, match=r"g\.csv:3: weight must be positive"):
            load_edge_csv(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("src,dst,weight\n0,1,0.5\n0,1,0.6\n")
        with pytest.raises(FileFormatError, match=r"g\.csv:3: duplicate edge"):
            load_edge_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b,c\n0,1,0.5\n")
        with pytest.raises(FileFormatError, match="header must be"):
            load_edge_csv(path)


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

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("id,lat,lon,alt\n0,45.0,7.0,0.0\n0,45.2,7.2,20.0\n")
        with pytest.raises(FileFormatError, match=r"geo\.csv:3: duplicate"):
            load_geometry_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "name, text, lineno, load",
    [
        (
            "w.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 {}\n",
            4,
            load_matrix_market,
        ),
        ("g.csv", "src,dst,weight\n0,1,0.5\n1,0,{}\n", 3, load_edge_csv),
        ("geo.csv", "id,lat,lon,alt\n0,45.0,7.0,0.0\n1,45.1,{},10.0\n", 3, load_geometry_csv),
    ],
    ids=["mtx", "edge-csv", "geometry-csv"],
)
def test_non_finite_value_names_line(tmp_path, name, text, lineno, load, bad):
    path = tmp_path / name
    path.write_text(text.format(bad))
    with pytest.raises(FileFormatError, match=rf"{re.escape(name)}:{lineno}: non-finite"):
        load(path)


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


def test_save_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_json(p1, {"b": 1.5, "a": [1, 2]})
    save_json(p2, {"a": [1, 2], "b": 1.5})
    assert p1.read_bytes() == p2.read_bytes()
