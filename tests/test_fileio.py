import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dsshift import (Graph, VertexGeometry, as_matrix, birkhoff_decompose,
                     build_weight_matrix, fileio, sinkhorn_knopp)
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

    def test_duplicate_csr_entries_written_once(self, tmp_path):
        # position (0, 0) stored twice; the file holds their sum on one line
        a = sp.csr_matrix((np.array([1.0, 2.0, 4.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
                          shape=(2, 2))
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        assert np.array_equal(load_matrix_market(path), a.toarray())
        assert a.nnz == 3  # the caller's matrix keeps its storage

    def test_writer_holds_one_copy_of_the_text(self, tmp_path):
        # mmwrite's text goes through the file's buffer: copying the whole
        # text (and splitting off its comment line) would more than double the peak
        import tracemalloc

        rng = np.random.default_rng(0)
        a = sp.diags_array([rng.random(20000 - abs(k)) for k in range(-2, 3)],
                           offsets=range(-2, 3), format="csr")
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)  # imports scipy.io before tracing starts
        text = path.read_bytes()
        tracemalloc.start()
        try:
            save_matrix_market(path, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == text
        assert text.startswith(b"%%MatrixMarket matrix coordinate real general\n20000 20000 ")
        assert peak < 1.6 * len(text)

    def test_writer_holds_no_copy_of_the_text(self, tmp_path):
        # the text goes to the file as mmwrite makes it, 1 KiB at a time
        import tracemalloc

        rng = np.random.default_rng(0)
        a = sp.diags_array([rng.random(20000 - abs(k)) for k in range(-2, 3)],
                           offsets=range(-2, 3), format="csr")
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)  # imports scipy.io before tracing starts
        text = path.read_bytes()
        tracemalloc.start()
        try:
            save_matrix_market(path, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == text
        assert peak < 0.5 * len(text)  # 1.2 with the whole text in memory

    @pytest.mark.parametrize("name", ["a.txt", "a", "a.mtx.gz"])
    def test_writer_writes_the_path_it_is_given(self, tmp_path, name):
        save_matrix_market(tmp_path / name, np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        assert (tmp_path / name).read_text().splitlines() == [
            "%%MatrixMarket matrix coordinate real general", "2 2 2", "1 2 2", "2 1 1"]

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        # the text goes to a sibling file, which replaces the old one only once whole
        import scipy.io

        old, new = tmp_path / "old.mtx", tmp_path / "new.mtx"
        save_matrix_market(old, np.array([[0.0, 2.0], [1.0, 0.0]]))
        text = old.read_bytes()

        def fail_partway(target, a, **kwargs):
            target.write(b"%%MatrixMarket matrix coordinate real general\n%\n2 2 2\n1 2 ")
            raise MemoryError

        monkeypatch.setattr(scipy.io, "mmwrite", fail_partway)
        for path in (old, new):
            with pytest.raises(MemoryError):
                save_matrix_market(path, np.array([[0.0, 3.0], [1.0, 0.0]]))
        assert old.read_bytes() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.mtx"]

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

    @pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
    def test_symmetric_file_loads_as_its_hand_mirrored_matrix(self, tmp_path, shuffled):
        # n = 600 at under a quarter full loads as CSR: the explicit zero is not
        # stored, and the diagonal entry the file leaves out stays absent
        n = 600
        rng = np.random.default_rng(4)
        low = np.tril(rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.02), -1)
        low[np.arange(0, n, 2), np.arange(0, n, 2)] = 0.5  # every second diagonal entry
        low[7, 3] = 0.0
        i, j = np.nonzero(low)
        i, j = np.append(i, 7), np.append(j, 3)  # (8, 4) is written as 0.0
        order = rng.permutation(i.size) if shuffled else np.lexsort((j, i))
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        f"{n} {n} {i.size}\n"
                        + "".join(f"{a + 1} {b + 1} {float(low[a, b])!r}\n"
                                  for a, b in zip(i[order], j[order])))
        want = sp.csr_array(low + np.tril(low, -1).T)
        got = load_matrix_market(path)
        assert isinstance(got, sp.csr_array) and got.data.all()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_saving_a_symmetric_csr_graph_keeps_near_its_size(self, tmp_path):
        # mmwrite masks the lower triangle of the CSR as it is: no tril copy
        # of it first, which peaked at 1.5x the CSR (1.2x without)
        import tracemalloc

        from dsshift import build_weight_matrix

        g = build_weight_matrix(random_geometry(3000, 9), scale=600.0, threshold=1e-3,
                                self_loops=True)
        w, path = g.weights, tmp_path / "w.mtx"
        save_matrix_market(path, g)  # imports scipy.io before tracing starts
        tracemalloc.start()
        try:
            save_matrix_market(path, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric\n")
        assert peak < 1.4 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)

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

    @pytest.mark.parametrize("last, message", [
        ("2 2 3.0", None),
        ("3 2 3.0", r"w\.mtx:6: index \(3, 2\) outside 2 x 2$"),
        ("1 1 3.0", r"w\.mtx:6: duplicate entry \(1, 1\)$"),
    ], ids=["valid", "bad-entry", "duplicate"])
    def test_comment_inside_the_body_is_skipped(self, tmp_path, last, message):
        path = tmp_path / "w.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"2 2 2\n1 1 1.0\n% between entries\n\n{last}\n")
        if message is None:
            assert np.array_equal(load_matrix_market(path), [[1.0, 0.0], [0.0, 3.0]])
        else:
            with pytest.raises(FileFormatError, match=message):
                load_matrix_market(path)

    def test_duplicate_entry_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 2 0.5\n2 1 1.0\n1 2 0.75\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:5: duplicate entry \(1, 2\)"):
            load_matrix_market(path)

    def test_adjacent_duplicate_in_row_major_order_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 0.5\n1 2 1.0\n1 2 0.75\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:5: duplicate entry \(1, 2\)$"):
            load_matrix_market(path)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_written_file_is_not_scanned_for_duplicates(self, tmp_path, monkeypatch, storage):
        # dsshift writes entries in row-major order, CSR order: the loader fills the
        # CSR arrays directly, never through scipy's COO sort
        from dsshift import build_weight_matrix

        g = build_weight_matrix(random_geometry(600, 0), scale=800.0 if storage == "csr" else 4000.0,
                                threshold=1e-3)
        assert sp.issparse(g.weights) == (storage == "csr")
        paths = [tmp_path / "sym.mtx", tmp_path / "general.mtx"]
        save_matrix_market(paths[0], g)
        save_matrix_market(paths[1], sp.csr_array(np.triu(g.dense())))
        monkeypatch.setattr(sp, "coo_array", lambda *a, **k: pytest.fail("the body was sorted"))
        loaded = [sp.csr_array(load_matrix_market(p)).toarray() for p in paths]
        assert np.array_equal(loaded[0], g.dense())
        assert np.array_equal(loaded[1], np.triu(g.dense()))

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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_writer_refuses_a_zero_dimension(self, tmp_path, shape, sparse):
        # the loader rejects "invalid dimensions 0 x 0"; the writer names the shape first
        a = np.zeros(shape)
        path = tmp_path / "a.mtx"
        with pytest.raises(ValueError, match=re.escape(f"nonempty, got shape {shape}")):
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

    @pytest.mark.parametrize("symmetric, shuffled", [(True, False), (False, False), (True, True)],
                             ids=["symmetric", "general", "shuffled-symmetric"])
    def test_loader_peaks_below_three_times_its_result(self, tmp_path, symmetric, shuffled):
        # numpy's parse fills the CSR arrays directly: the coordinate arrays,
        # the mirror stacked onto them and a COO sort peaked at 5x the result;
        # a body out of order goes through scipy's COO -> CSR
        import tracemalloc

        from dsshift import build_weight_matrix, sinkhorn_knopp

        g = build_weight_matrix(random_geometry(3000, 9), scale=300.0, threshold=1e-3,
                                self_loops=True)
        path = tmp_path / "w.mtx"
        # the formed S of a symmetric kernel misses its mirror by an ulp: general
        save_matrix_market(path, g if symmetric else sinkhorn_knopp(g).operator.matrix)
        kind = "symmetric" if symmetric else "general"
        assert path.read_text().startswith(f"%%MatrixMarket matrix coordinate real {kind}\n")
        if shuffled:
            header, size, *entries = path.read_text().splitlines()
            entries = np.random.default_rng(1).permutation(entries).tolist()
            path.write_text("\n".join([header, size, *entries]) + "\n")
        load_matrix_market(path)  # imports and warms everything first
        tracemalloc.start()
        try:
            w = load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(w, sp.csr_array) and w.nnz == g.weights.nnz
        assert peak < 3 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
    def test_unsorted_file_loads_as_its_sorted_twin(self, tmp_path, symmetric):
        # entries out of row-major order are sorted first, then take the one route
        from dsshift import build_weight_matrix

        g = build_weight_matrix(random_geometry(600, 0), scale=800.0, threshold=1e-3)
        path, shuffled = tmp_path / "w.mtx", tmp_path / "shuffled.mtx"
        save_matrix_market(path, g if symmetric else sp.csr_array(np.triu(g.dense())))
        header, size, *entries = path.read_text().splitlines()
        entries = np.random.default_rng(1).permutation(entries).tolist()
        shuffled.write_text("\n".join([header, size, *entries]) + "\n")
        want, got = load_matrix_market(path), load_matrix_market(shuffled)
        assert isinstance(got, sp.csr_array) and got.has_canonical_format
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_reloaded_csr_kernel_keeps_its_index_dtype(self, tmp_path):
        from dsshift import build_weight_matrix

        g = build_weight_matrix(random_geometry(600, 0), scale=800.0, threshold=1e-3)
        save_matrix_market(tmp_path / "w.mtx", g)
        w = load_matrix_market(tmp_path / "w.mtx")
        for name in ("data", "indices", "indptr"):
            stored, loaded = getattr(g.weights, name), getattr(w, name)
            assert loaded.dtype == stored.dtype
            assert np.array_equal(loaded, stored)

    @pytest.mark.parametrize("size, entry", [("3 2 2", "3 1 2.0"), ("2 3 1", None)],
                             ids=["entry-beyond-the-columns", "wide"])
    def test_symmetric_file_must_be_square(self, tmp_path, size, entry):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        f"{size}\n1 1 1.0\n" + (f"{entry}\n" if entry else ""))
        rows, cols = size.split()[:2]
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:2: symmetric "
                                                  rf"matrix must be square, got {rows} x {cols}$"):
            load_matrix_market(path)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_symmetric_input_written_as_its_lower_triangle(self, tmp_path, sparse):
        # n = 600 at 2 % fill reloads as CSR; the dense input is a 3 x 3
        if sparse:
            a = sp.random_array((600, 600), density=0.01, random_state=np.random.default_rng(0),
                                format="csr")
            a = (a + a.T).tocsr()
        else:
            a = np.array([[1.0, 0.0, 2.5], [0.0, 0.0, 3.0], [2.5, 3.0, 0.1 + 0.2]])
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        header, size, *entries = path.read_text().splitlines()
        assert header == "%%MatrixMarket matrix coordinate real symmetric"
        i, j = np.array([line.split()[:2] for line in entries], dtype=int).T
        assert (i >= j).all()
        assert np.array_equal(np.lexsort((j, i)), np.arange(i.size))  # row-major
        full = a.toarray() if sparse else a
        assert size == f"{len(full)} {len(full)} {np.count_nonzero(np.tril(full))}"
        b = load_matrix_market(path)
        if sparse:
            c = as_matrix(a)
            assert isinstance(b, sp.csr_array)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(b, name), getattr(c, name))
        else:
            assert np.array_equal(b, a)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_one_ulp_off_its_mirror_is_written_general(self, tmp_path, sparse):
        a = np.array([[1.0, 0.1, 0.0], [0.1, 2.0, 1 / 3], [0.0, 1 / 3, 0.5]])
        a[2, 1] = np.nextafter(a[2, 1], 1.0)
        path = tmp_path / "a.mtx"
        save_matrix_market(path, sp.csr_array(a) if sparse else a)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["%%MatrixMarket matrix coordinate real general", "3 3 7"]
        assert np.array_equal(load_matrix_market(path), a)

    def test_one_by_one_is_symmetric(self, tmp_path):
        # a non-square matrix is written general: see the row-major test above
        path = tmp_path / "a.mtx"
        save_matrix_market(path, np.array([[0.25]]))
        assert path.read_text().splitlines()[:2] == [
            "%%MatrixMarket matrix coordinate real symmetric", "1 1 1"]
        assert np.array_equal(load_matrix_market(path), [[0.25]])

    @pytest.mark.parametrize("scale", [3000.0, 800.0], ids=["dense", "csr"])
    def test_built_kernel_is_written_symmetric_without_a_check(self, tmp_path, monkeypatch,
                                                              scale):
        from dsshift import build_weight_matrix, graphs

        def no_check(a):
            raise AssertionError("symmetry of a built kernel was checked again")

        g = build_weight_matrix(random_geometry(600, 0), scale=scale, threshold=1e-3)
        monkeypatch.setattr(graphs, "_is_symmetric", no_check)
        monkeypatch.setattr(fileio, "_is_symmetric", no_check)
        path = tmp_path / "w.mtx"
        save_matrix_market(path, g)
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric\n")
        w = load_matrix_market(path)
        assert np.array_equal(w.toarray() if sp.issparse(w) else w, g.dense())

    def test_symmetric_dense_writer_makes_no_full_coordinate_list(self, tmp_path):
        # the lower triangle is taken a row block at a time into CSR: beyond the
        # text, the writer holds about half of a full coo_array of the input
        import tracemalloc

        a = np.random.default_rng(0).random((1000, 1000))
        a = a + a.T
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)  # imports scipy.io before tracing starts
        tracemalloc.start()
        try:
            save_matrix_market(path, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full = a.size * (8 + 4 + 4)  # float64 values, int32 rows and columns
        assert peak - path.stat().st_size < 0.75 * full



def _circulant(n, storage):
    """A symmetric matrix with every row sum 4, so balancing returns r = c = 1/2
    and an exactly symmetric S; dense or CSR."""
    w = sum(np.roll(np.eye(n), k, axis=1) * v for k, v in ((0, 2.0), (1, 0.75), (-1, 0.75),
                                                             (3, 0.25), (-3, 0.25)))
    return sp.csr_array(w) if storage == "csr" else w


def _asymmetric(n, storage, seed):
    """Asymmetric weights on a symmetric pattern with a positive diagonal: total support."""
    rng = np.random.default_rng(seed)
    pattern = rng.random((n, n)) < 0.3
    w = (pattern | pattern.T) * rng.uniform(0.5, 1.5, (n, n)) + np.eye(n)
    return sp.csr_array(w) if storage == "csr" else w


def _symmetric(n, storage, seed):
    rng = np.random.default_rng(seed)
    w = np.triu((rng.random((n, n)) < 0.3) * rng.uniform(0.5, 1.5, (n, n)))
    w += np.triu(w, 1).T + np.eye(n)
    return sp.csr_array(w) if storage == "csr" else w


# Every kind of input the writer takes, each made afresh by its function.
_WRITER_INPUTS = {
    "dense-general": lambda: _asymmetric(12, "dense", 1),
    "csr-general": lambda: _asymmetric(40, "csr", 2),
    "rectangular": lambda: sp.csr_array(sp.random_array((7, 11), density=0.4,
                                                        random_state=np.random.default_rng(3))),
    "csr-repeat": lambda: sp.csr_matrix((np.array([1.0, 2.0, 4.0, 0.5]), np.array([0, 0, 1, 2]),
                                         np.array([0, 2, 3, 4])), shape=(3, 3)),
    "dense-graph": lambda: Graph(_symmetric(12, "dense", 4)),
    "csr-graph": lambda: Graph(_symmetric(40, "csr", 5)),
    "pending-kernel": lambda: build_weight_matrix(random_geometry(40, 6), scale=3000.0,
                                                  threshold=1e-3, self_loops=True),
    "dense-symmetric-op": lambda: sinkhorn_knopp(_symmetric(12, "dense", 7)).operator,
    "csr-symmetric-op": lambda: sinkhorn_knopp(_symmetric(40, "csr", 8)).operator,
    "dense-asymmetric-op": lambda: sinkhorn_knopp(_asymmetric(12, "dense", 9)).operator,
    "csr-asymmetric-op": lambda: sinkhorn_knopp(_asymmetric(40, "csr", 10)).operator,
    "dense-exact-op": lambda: sinkhorn_knopp(_circulant(12, "dense")).operator,
    "csr-exact-op": lambda: sinkhorn_knopp(_circulant(40, "csr")).operator,
}


class TestBlockedWriter:
    @pytest.mark.parametrize("name", _WRITER_INPUTS)
    def test_blocks_of_any_size_write_the_same_bytes(self, tmp_path, monkeypatch, name):
        # mmwrite is called once per block of rows; its header lines are dropped
        path = tmp_path / "a.mtx"
        save_matrix_market(path, _WRITER_INPUTS[name]())
        text = path.read_bytes()
        for entries in (1, 3, 7):
            monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", entries)
            save_matrix_market(path, _WRITER_INPUTS[name]())
            assert path.read_bytes() == text, entries
        header, size, *lines = text.decode().splitlines()
        assert int(size.split()[2]) == len(lines)

    @pytest.mark.parametrize("name", [name for name in _WRITER_INPUTS if "op" in name])
    def test_an_operator_is_written_as_its_formed_matrix(self, tmp_path, name):
        formed, stored = tmp_path / "formed.mtx", tmp_path / "stored.mtx"
        op = _WRITER_INPUTS[name]()
        save_matrix_market(stored, op)
        assert op._stored._s is None  # written as stored: S is not kept
        save_matrix_market(formed, op.matrix)
        assert stored.read_bytes() == formed.read_bytes()
        kind = "symmetric" if "exact" in name else "general"
        assert stored.read_text().startswith(f"%%MatrixMarket matrix coordinate real {kind}\n")

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_operator_over_a_symmetric_graph_is_judged_without_a_transpose(
            self, tmp_path, monkeypatch, storage):
        from dsshift import graphs

        checks = []
        compare = graphs._is_symmetric
        for module in (graphs, fileio):
            monkeypatch.setattr(module, "_is_symmetric", lambda a: checks.append(a) or compare(a))
        for w in (_symmetric(40, storage, 11), _circulant(40, storage)):
            op = sinkhorn_knopp(Graph(w)).operator
            checks.clear()  # balancing judged W once
            save_matrix_market(tmp_path / "s.mtx", op)
            assert not checks and op._stored._s is None

    def test_writer_holds_a_block_of_a_balanced_operator(self, tmp_path, monkeypatch):
        # a CSR operator written in blocks of 2^14 entries holds the file's 1 MiB
        # buffer and about two blocks (0.22 of W's CSR), where forming S took 0.67
        # of W's CSR and its transposed copy as much again
        import tracemalloc

        g = build_weight_matrix(random_geometry(3000, 9), scale=600.0, threshold=1e-3,
                                self_loops=True)
        op = sinkhorn_knopp(g).operator
        w, path = g.weights, tmp_path / "s.mtx"
        monkeypatch.setattr(fileio, "_BLOCK_ENTRIES", 1 << 14)
        save_matrix_market(path, op)  # imports scipy.io before tracing starts
        tracemalloc.start()
        try:
            save_matrix_market(path, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op._stored._s is None
        assert peak < 0.25 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)


@given(
    w=hnp.arrays(float, st.integers(1, 6).map(lambda n: (n, n)),
                 elements=st.sampled_from([0.0, 0.5, 1.0, 3.0, 0.1, 1 / 3, 5e-324])),
    scale=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.1, 3.0]), min_size=12, max_size=12),
    same=st.booleans(),
    mirrored=st.booleans(),
    sparse=st.booleans(),
)
@settings(max_examples=80)
def test_writer_judges_an_operator_as_its_formed_matrix(tmp_path_factory, w, scale, same,
                                                        mirrored, sparse):
    # powers of two scale exactly, so r = c of those and a symmetric W give a symmetric S
    from dsshift.balance import DSOperator
    from dsshift.graphs import _is_symmetric, _Scaled, _trusted

    n = len(w)
    if mirrored:
        w = np.tril(w) + np.tril(w, -1).T
    r, c = np.array(scale[:n]), np.array(scale[:n] if same else scale[-n:])
    op = _trusted(DSOperator, _stored=_Scaled(Graph(sp.csr_array(w) if sparse else w), r, c))
    path = tmp_path_factory.mktemp("mtx") / "s.mtx"
    save_matrix_market(path, op)
    kind = "symmetric" if _is_symmetric(op.matrix) else "general"
    assert path.read_text().startswith(f"%%MatrixMarket matrix coordinate real {kind}\n")
    b = load_matrix_market(path)
    assert np.array_equal(b.toarray() if sp.issparse(b) else b, as_matrix(op.matrix).toarray()
                          if sparse else op.matrix)

# Extremes of float64 and values whose shortest round-trip form has 17 digits.
_awkward = st.sampled_from(
    [5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 0.1 + 0.2, 1 / 3, 0.0]
)
_finite = st.floats(allow_nan=False, allow_infinity=False) | _awkward


@given(
    a=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9), elements=_finite),
    sparse=st.booleans(),
    symmetric=st.booleans(),
)
@settings(max_examples=60)
def test_matrix_market_round_trip_is_bit_exact(tmp_path_factory, a, sparse, symmetric):
    if symmetric:  # mirrored, as a + a.T would overflow at the extremes drawn
        a = a[:min(a.shape), :min(a.shape)]
        a = np.tril(a) + np.tril(a, -1).T
    path = tmp_path_factory.mktemp("mtx") / "a.mtx"
    save_matrix_market(path, sp.csr_matrix(a) if sparse else a)
    if symmetric:
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric\n")
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

    def test_percent_line_is_a_bad_line(self, tmp_path):
        path = tmp_path / "x.csv"  # CSV has no comment lines
        path.write_text("1.0\n% x\n2.0\n")
        with pytest.raises(FileFormatError, match=r"x\.csv:2: non-numeric signal value '% x'$"):
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

    def test_writer_matches_savetxt(self, tmp_path):
        x = np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308, -1 / 3, 1e22, 123456789.0])
        save_signal_csv(tmp_path / "x.csv", x)
        np.savetxt(tmp_path / "ref.csv", x, fmt="%.17g")
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("values", [[], np.zeros((3, 2)), np.zeros((1, 4)), 2.0],
                             ids=["empty", "3x2", "1x4", "scalar"])
    def test_writer_refuses_what_the_reader_cannot_return(self, tmp_path, values):
        # an empty file is rejected on reading, and a 2-D signal would read back flat
        path = tmp_path / "x.csv"
        shape = re.escape(str(np.shape(values)))
        with pytest.raises(ValueError, match=f"nonempty 1-D array, got shape {shape}"):
            save_signal_csv(path, values)
        assert not path.exists()

    def test_valid_file_is_not_parsed_per_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_parse", None)  # the per-line parse would fail
        path = tmp_path / "x.csv"
        path.write_text("1.5\n\n   \n -2e-3 \r\n0.1\n")
        assert np.array_equal(load_signal_csv(path), [1.5, -2e-3, 0.1])


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

    @pytest.mark.parametrize("header", ["id,lon,lat,alt", "ID,lat,lon,alt", "id,lat,lon"])
    def test_wrong_header_names_line_1(self, tmp_path, header):
        path = tmp_path / "geo.csv"
        path.write_text(f"{header}\n0,45.0,7.0,0.0\n1,45.1,7.1,1.0\n")
        with pytest.raises(FileFormatError, match=r"geo\.csv:1: header must be 'id,lat,lon,alt'"):
            load_geometry_csv(path)

    def test_valid_file_is_not_parsed_per_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_parse", None)  # the per-line parse would fail
        path = tmp_path / "geo.csv"
        path.write_text(" id , lat,lon,alt\n2,45.2,7.2,20.0\n\n  \n0, 45.0 ,7.0,0\r\n"
                        "1,45.1,7.1,1e1\n")
        geo = load_geometry_csv(path)
        assert geo.lat.tolist() == [45.0, 45.1, 45.2]
        assert geo.alt.tolist() == [0.0, 10.0, 20.0]

    def test_percent_line_is_a_bad_line(self, tmp_path):
        path = tmp_path / "geo.csv"  # CSV has no comment lines
        path.write_text("id,lat,lon,alt\n0,45.0,7.0,0.0\n% x\n1,45.1,7.1,1.0\n")
        with pytest.raises(FileFormatError, match=r"geo\.csv:3: expected 4 fields, got 1$"):
            load_geometry_csv(path)

    def test_empty_file_names_line_1(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match=r"geo\.csv:1: empty file$"):
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
# plus those with a digit separator, as in the loaders' own _parse.
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
        path = tmp_path / "d.json"
        save_birkhoff_json(path, birkhoff_decompose(np.eye(2)))
        assert json.loads(path.read_text()) == {"n": 2, "a": [1.0], "first": [0, 1],
                                                "indptr": [0, 0], "rows": [], "cols": []}
        save_birkhoff_json(path, birkhoff_decompose(np.full((2, 2), 0.5)))
        assert json.loads(path.read_text()) == {"n": 2, "a": [0.5, 0.5], "first": [0, 1],
                                                "indptr": [0, 0, 2], "rows": [0, 1],
                                                "cols": [1, 0]}

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"n": 2, "a": [')
        with pytest.raises(FileFormatError, match=r"d\.json:1"):
            load_birkhoff_json(path)

    def test_per_term_layout_is_named(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"terms": [{"a": 1.0, "perm": [0, 1]}]}')
        with pytest.raises(FileFormatError, match=r'd\.json: the per-term "terms"/"perm" layout'):
            load_birkhoff_json(path)

    _GOOD = {"n": 2, "a": [0.5, 0.5], "first": [0, 1], "indptr": [0, 0, 2], "rows": [0, 1],
             "cols": [1, 0]}

    # Decompositions that the loader rejects, each a change of _GOOD, and its message.
    _MALFORMED = [
        ({"a": []}, "decomposition has no terms"),
        ({"a": 0.5}, "a must be a list of coefficients"),
        ({"a": [[0.5], [0.5, 0.0]]}, "malformed decomposition"),
        ({"cols": None}, "cols must be a list of integers"),
        ({"first": [0.5, 1]}, "first must be a list of integers"),
        ({"rows": ["0", "1"]}, "rows must be a list of integers"),
        ({"indptr": [[0, 0, 2]]}, "indptr must be a list of integers"),
        ({"n": 3}, "n must be a positive integer, the length of first (2), got 3"),
        ({"n": 2.0}, "n must be a positive integer"),
        ({"first": [0, 2]}, "first image is not a permutation of 0..1"),
        ({"first": [-1, 0]}, "first image is not a permutation of 0..1"),
        ({"rows": [0, 0]}, "term 1: row 0 listed twice"),
        ({"cols": [1, 1]}, "term 1: its new columns are not the ones its rows vacate"),
        ({"rows": [0, 2]}, "term 1: row 2 out of range 0..1"),
        ({"cols": [1, -1]}, "term 1: column -1 out of range 0..1"),
        ({"indptr": [0, 3, 2]}, "term 1: indptr falls from 3 to 2"),
        ({"indptr": [0, 2]}, "indptr must hold 3 offsets"),
        ({"a": [float("nan"), 0.5]}, "term 0: coefficient must be finite and nonnegative"),
        ({"a": [0.5, float("inf")]}, "term 1: coefficient must be finite"),
        ({"a": [1.5, -0.5]}, "term 1: coefficient must be finite and nonnegative"),
    ]
    _MALFORMED_IDS = ["empty", "scalar-a", "ragged-a", "null-cols", "fractional", "strings",
                      "nested", "n-mismatch", "float-n", "beyond-n", "negative-entry",
                      "repeated-row", "not-vacated", "row-beyond-n", "negative-column",
                      "indptr-falls", "indptr-short", "nan-a", "inf-a", "negative-a"]

    @pytest.mark.parametrize("fields, message", _MALFORMED, ids=_MALFORMED_IDS)
    def test_malformed_decomposition_names_path(self, tmp_path, fields, message):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**self._GOOD, **fields}))  # NaN as Python writes it
        pattern = rf"^{re.escape(str(path))}: .*{re.escape(message)}"
        with pytest.raises(FileFormatError, match=pattern):
            load_birkhoff_json(path)

    @staticmethod
    def _writer_layout(payload) -> str:
        """``payload`` in the layout save_birkhoff_json writes: keys sorted, one a line."""
        return "{\n" + ",\n".join(f'  "{k}": {json.dumps(payload[k])}'
                                  for k in sorted(payload)) + "\n}\n"

    @pytest.mark.parametrize("fields, message", _MALFORMED, ids=_MALFORMED_IDS)
    def test_malformed_decomposition_in_the_writer_layout(self, tmp_path, fields, message):
        # the arrays numpy parses fail with the texts of the json parse
        path = tmp_path / "d.json"
        path.write_text(self._writer_layout({**self._GOOD, **fields}))
        pattern = rf"^{re.escape(str(path))}: .*{re.escape(message)}"
        with pytest.raises(FileFormatError, match=pattern):
            load_birkhoff_json(path)

    def test_writer_layout_is_read_without_python_lists(self, tmp_path, monkeypatch):
        d = birkhoff_decompose(np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]))
        path = tmp_path / "d.json"
        save_birkhoff_json(path, d)
        want = json.loads(path.read_text())

        def no_json(*args, **kwargs):
            raise AssertionError("the writer's layout went through json")

        monkeypatch.setattr(fileio.json, "load", no_json)
        got = load_birkhoff_json(path)
        for key, name in (("a", "coefficients"), ("first", "first"), ("indptr", "indptr"),
                          ("rows", "rows"), ("cols", "cols")):
            assert np.array_equal(getattr(got, name), want[key])
            assert getattr(got, name).dtype == (float if key == "a" else np.int64)

    @pytest.mark.parametrize("dump", [
        lambda p: json.dumps(p), lambda p: json.dumps(p, indent=4),
        lambda p: json.dumps(p, separators=(",", ":")),
        lambda p: "{\n" + ",\n".join(f'  "{k}": {json.dumps(p[k])}' for k in p) + "\n}\n",
        lambda p: TestBirkhoffJSON._writer_layout(p).replace("0.25", "2.5E-1"),
        lambda p: TestBirkhoffJSON._writer_layout(p).replace('"n": 3', '"n": 3 '),
    ], ids=["one-line", "indented", "compact", "unsorted", "capital-exponent", "spaced-n"])
    def test_any_other_json_layout_loads_the_same(self, tmp_path, dump):
        payload = {"n": 3, "a": [0.5, 0.25, 0.25], "first": [0, 1, 2], "indptr": [0, 0, 2, 4],
                   "rows": [0, 1, 1, 2], "cols": [1, 0, 2, 0]}
        want, other = tmp_path / "want.json", tmp_path / "other.json"
        want.write_text(self._writer_layout(payload))
        other.write_text(dump(payload))
        a, b = load_birkhoff_json(want), load_birkhoff_json(other)
        for name in ("coefficients", "first", "indptr", "rows", "cols"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_loader_peaks_below_three_times_the_arrays(self, tmp_path):
        # json's Python lists took about 9 times the arrays
        import tracemalloc

        from dsshift import BirkhoffDecomposition

        n, k = 1000, 50_000
        rng = np.random.default_rng(2)
        a = rng.integers(0, n, k - 1)
        rows = np.sort([a, (a + rng.integers(1, n, k - 1)) % n], axis=0).T  # two rows a term
        image, cols = np.arange(n), np.empty_like(rows)
        for t, pair in enumerate(rows):  # each later term swaps the columns of its two rows
            cols[t] = image[pair[::-1]]
            image[pair] = cols[t]
        rows, cols = rows.ravel(), cols.ravel()
        d = BirkhoffDecomposition(coefficients=np.full(k, 1 / k), first=np.arange(n),
                                  indptr=np.r_[0, 0, np.cumsum(np.full(k - 1, 2))],
                                  rows=rows, cols=cols)
        path = tmp_path / "d.json"
        save_birkhoff_json(path, d)
        load_birkhoff_json(path)  # imports and warms everything first
        tracemalloc.start()
        try:
            got = load_birkhoff_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(getattr(got, name).nbytes
                     for name in ("coefficients", "first", "indptr", "rows", "cols"))
        assert np.array_equal(got.cols, d.cols)
        assert peak < 3 * arrays

    def test_missing_key_names_it(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({k: v for k, v in self._GOOD.items() if k != "indptr"}))
        with pytest.raises(FileFormatError, match="malformed decomposition \\('indptr'\\)"):
            load_birkhoff_json(path)



@given(text=st.text("0123456789-, .e+E", max_size=12) | st.lists(_finite, max_size=4).map(
    lambda v: ", ".join(map(repr, v))), kind=st.sampled_from([int, float]))
@settings(max_examples=300)
def test_numbers_numpy_reads_are_those_json_reads(text, kind):
    # numpy parses only what json reads as the same numbers; the rest is left to json
    from dsshift.fileio import _numbers

    got = _numbers(text.encode("ascii"), kind)
    if got is None:
        return
    want = json.loads(f"[{text}]")
    assert got.dtype == (np.int64 if kind is int else np.float64)
    if kind is int:
        assert all(type(v) is int for v in want)
    assert np.array_equal(got, np.array(want, dtype=got.dtype))
    assert np.array_equal(np.signbit(got), np.signbit(np.array(want, dtype=float)))

def test_save_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_json(p1, {"b": 1.5, "a": [1, 2]})
    save_json(p2, {"a": [1, 2], "b": 1.5})
    assert p1.read_bytes() == p2.read_bytes()
