import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dsshift import (
    Graph,
    VertexGeometry,
    build_weight_matrix,
    incoming_neighborhood,
    validate_weights,
)

from conftest import random_geometry


def geometry_at_altitudes(alts):
    """Vertices stacked at one location so distances equal altitude gaps."""
    n = len(alts)
    return VertexGeometry(lat=np.full(n, 45.0), lon=np.full(n, 7.0), alt=np.array(alts, float))


class TestGraph:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Graph(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Graph(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_edge_convention(self):
        # edge 0 -> 1 is stored at weights[1, 0]
        w = np.zeros((3, 3))
        w[1, 0] = 0.7
        g = Graph(w)
        assert g.weight(1, 0) == 0.7
        assert g.n_edges == 1
        src, dst, vals = g.edge_list()
        assert src.tolist() == [0] and dst.tolist() == [1]
        assert vals.tolist() == [0.7]

    def test_weights_immutable(self):
        g = Graph(np.ones((2, 2)))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 2.0

    def test_sparse_storage_round_trip(self):
        w = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        g = Graph(w)
        assert g.n_edges == 2
        assert g.dense()[0, 1] == 2.0


class TestBuildWeightMatrix:
    def test_zero_distance_gives_unit_weight(self):
        with pytest.warns(UserWarning, match="identical coordinates"):
            g = build_weight_matrix(geometry_at_altitudes([5.0, 5.0]), scale=1.0)
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 0) == 1.0

    def test_unit_distance_kernel_value(self):
        g = build_weight_matrix(geometry_at_altitudes([0.0, 1.0]), scale=1.0)
        assert g.weight(0, 1) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_threshold_prunes_far_edge(self):
        # distances 1, 2, 3; the weight exp(-4) at distance 2 falls below exp(-2)
        g = build_weight_matrix(
            geometry_at_altitudes([0.0, 1.0, 3.0]), scale=1.0, threshold=np.exp(-2)
        )
        assert g.weight(1, 0) == pytest.approx(np.exp(-1.0))
        assert g.weight(2, 1) == 0.0
        assert g.weight(2, 0) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        geo = VertexGeometry(
            lat=45 + 0.01 * rng.random(12),
            lon=7 + 0.01 * rng.random(12),
            alt=100 * rng.random(12),
        )
        w = build_weight_matrix(geo, scale=500.0).dense()
        assert np.array_equal(w, w.T)
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_self_loop_flag(self):
        geo = geometry_at_altitudes([0.0, 1.0])
        assert build_weight_matrix(geo, 1.0, self_loops=True).weight(0, 0) == 1.0
        assert build_weight_matrix(geo, 1.0, self_loops=False).weight(0, 0) == 0.0

    def test_invalid_parameters(self):
        geo = geometry_at_altitudes([0.0, 1.0])
        with pytest.raises(ValueError, match="scale"):
            build_weight_matrix(geo, scale=0.0)
        with pytest.raises(ValueError, match="at least 2"):
            build_weight_matrix(geometry_at_altitudes([0.0]), scale=1.0)


class TestStorageRule:
    def test_quarter_full_kernel_above_limit_is_dense(self):
        g = build_weight_matrix(random_geometry(600, 0), scale=3000.0, threshold=1e-3)
        assert g.n_edges >= 600 * 600 / 4
        assert isinstance(g.weights, np.ndarray)

    def test_small_sparse_kernel_is_dense(self):
        g = build_weight_matrix(random_geometry(300, 0), scale=100.0, threshold=1e-3)
        assert g.n_edges < 300 * 300 / 4
        assert isinstance(g.weights, np.ndarray)

    @pytest.mark.parametrize("extra, dense", [(0, True), (-1, False)])
    def test_threshold_is_a_quarter_of_the_entries(self, extra, dense):
        from dsshift.graphs import _stored

        n = 600
        w = np.zeros((n, n))
        w.flat[: n * n // 4 + extra] = 1.0
        for stored in (_stored(w.copy()), _stored(sp.coo_matrix(w))):
            assert isinstance(stored, np.ndarray) == dense
            assert np.array_equal(stored if dense else stored.toarray(), w)


class TestIncomingNeighborhood:
    def test_single_edge(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0  # edge 0 -> 1
        nb = incoming_neighborhood(Graph(w), 1)
        assert nb.members.tolist() == [0]
        assert nb.size == 1

    def test_complete_with_self_loops(self):
        g = Graph(np.ones((4, 4)))
        for m in range(4):
            assert incoming_neighborhood(g, m).size == 4

    def test_chain_head_has_no_incoming(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        w[2, 1] = 1.0
        nb = incoming_neighborhood(Graph(w), 0)
        assert nb.size == 0
        assert nb.members.size == 0

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            incoming_neighborhood(Graph(np.ones((2, 2))), 2)

    def test_sizes_sum_to_edge_count(self):
        rng = np.random.default_rng(11)
        w = rng.random((8, 8)) * (rng.random((8, 8)) < 0.4)
        g = Graph(w)
        total = sum(incoming_neighborhood(g, m).size for m in range(8))
        assert total == g.n_edges

    def test_support_matches_edges_exhaustively(self):
        rng = np.random.default_rng(12)
        w = rng.random((6, 6)) * (rng.random((6, 6)) < 0.5)
        g = Graph(w)
        for m in range(6):
            members = set(incoming_neighborhood(g, m).members.tolist())
            for n in range(6):
                assert (n in members) == (w[m, n] > 0)


class TestValidateWeights:
    def test_all_ones_clean(self):
        d = validate_weights(Graph(np.ones((3, 3))))
        assert d.zero_rows == () and d.zero_cols == ()
        assert d.symmetric
        assert d.balanceable
        assert d.issues == ()

    def test_zero_column_flagged(self):
        w = np.ones((3, 3))
        w[:, 1] = 0.0
        d = validate_weights(w)
        assert d.zero_cols == (1,)
        assert not d.balanceable
        assert any("unbalanceable: empty column" in msg for msg in d.issues)

    def test_upper_triangular_flagged_asymmetric(self):
        d = validate_weights(np.triu(np.ones((4, 4))))
        assert not d.symmetric
        assert any("asymmetric" in msg for msg in d.issues)

    def test_negative_entries_counted(self):
        d = validate_weights(np.array([[1.0, -2.0], [3.0, 1.0]]))
        assert d.negative_entries == 1
        assert not d.balanceable

    def test_csr_and_dense_report_alike(self):
        w = np.triu(np.arange(1.0, 26.0).reshape(5, 5))
        w[1, 3] = -2.0
        w[:, 2] = 0.0
        for m in (w, np.abs(w), w + w.T, np.zeros((3, 3))):
            assert validate_weights(sp.csr_matrix(m)) == validate_weights(m)

    def test_csr_input_is_not_densified(self):
        n = 5000
        w = sp.diags([np.ones(n - 1), np.full(n, 2.0), np.ones(n - 1)], [-1, 0, 1], format="csr")
        tracemalloc.start()
        try:
            d = validate_weights(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # a dense copy alone takes 200 MB
        assert d.symmetric and d.balanceable and d.n_edges == 3 * n - 2
        assert (d.min_positive, d.max_weight) == (1.0, 2.0)


class TestVertexGeometry:
    def test_distance_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(4)
        geo = VertexGeometry(
            lat=45 + 0.1 * rng.random(6),
            lon=7 + 0.1 * rng.random(6),
            alt=rng.random(6),
        )
        r = geo.pairwise_distances()
        assert np.allclose(r, r.T)
        assert np.all(np.diag(r) == 0)
        off = r[~np.eye(6, dtype=bool)]
        assert np.all(off > 0)

    def test_distances_match_full_difference_array(self):
        # Reference: the N x N x 3 difference array the blocked sum replaces.
        geo = random_geometry(700, 5)
        p = geo.project()
        ref = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))
        assert np.array_equal(geo.pairwise_distances(), ref)

    def test_kernel_matches_out_of_place_formula(self):
        geo = random_geometry(300, 6)
        r = geo.pairwise_distances()
        ref = np.exp(-((r / 800.0) ** 2))
        ref[ref < 1e-3] = 0.0
        np.fill_diagonal(ref, 1.0)
        g = build_weight_matrix(geo, scale=800.0, threshold=1e-3, self_loops=True)
        assert np.array_equal(g.dense(), ref)

    def test_projection_units(self):
        # one degree of latitude spans R * pi / 180 meters in the projection
        geo = VertexGeometry(lat=np.array([45.0, 46.0]), lon=np.array([7.0, 7.0]), alt=np.zeros(2))
        r = geo.pairwise_distances()
        assert r[0, 1] == pytest.approx(6_371_000 * np.pi / 180, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            VertexGeometry(lat=np.zeros(3), lon=np.zeros(2), alt=np.zeros(3))
