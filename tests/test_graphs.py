import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dsshift import (
    Graph,
    VertexGeometry,
    apply_filter,
    build_weight_matrix,
    diffuse,
    incoming_neighborhood,
    matrix_norm,
    sinkhorn_knopp,
    validate_weights,
    verify_doubly_stochastic,
    wss_check,
)

from conftest import random_geometry


def geometry_at_altitudes(alts):
    """Vertices stacked at one location so distances equal altitude gaps."""
    n = len(alts)
    return VertexGeometry(lat=np.full(n, 45.0), lon=np.full(n, 7.0), alt=np.array(alts, float))


def geometry_with_coincident_sites(n, seed):
    """Random sites where 0, 3 and 6 coincide, as do 1 and 4, and 2 and 5:
    five coincident pairs."""
    geo = random_geometry(n, seed)
    lat, lon, alt = geo.lat.copy(), geo.lon.copy(), geo.alt.copy()
    for a in (lat, lon, alt):
        a[3:6] = a[0:3]
        a[6] = a[0]
    return VertexGeometry(lat=lat, lon=lon, alt=alt)


def reference_kernel(geo, scale, threshold, self_loops):
    """The kernel by its out-of-place formula on ``pairwise_distances``."""
    ref = np.exp(-((geo.pairwise_distances() / scale) ** 2))
    ref[ref < threshold] = 0.0
    np.fill_diagonal(ref, 1.0 if self_loops else 0.0)
    return ref


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

    def test_weights_immutable(self):
        g = Graph(np.ones((2, 2)))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 2.0

    def test_callers_array_is_copied(self):
        w = np.ones((2, 2))
        frozen_view = w[:]
        frozen_view.setflags(write=False)
        for weights in (w, frozen_view):
            g = Graph(weights)
            assert not np.shares_memory(g.weights, w)
        w[0, 0] = 5.0
        assert g.weight(0, 0) == 1.0

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

    def test_dense_kernel_keeps_its_buffer(self):
        n = 1500
        geo = random_geometry(n, 0)
        tracemalloc.start()
        try:
            g = build_weight_matrix(geo, scale=1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not sp.issparse(g.weights)
        assert peak < 1.6 * 8 * n * n  # a copy of the N x N buffer would make it 2x

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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(scale=np.nan), "scale"),
            (dict(scale=np.inf), "scale"),
            (dict(scale=-np.inf), "scale"),
            (dict(scale=1.0, threshold=np.nan), "threshold"),
            (dict(scale=1.0, threshold=-1e-3), "threshold"),
        ],
    )
    def test_rejects_bad_scale_or_threshold_before_distances(self, kwargs, match, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("distance work started")

        monkeypatch.setattr(VertexGeometry, "project", fail)
        with pytest.raises(ValueError, match=match):
            build_weight_matrix(geometry_at_altitudes([0.0, 1.0]), **kwargs)

    def test_tie_with_threshold_is_kept_on_the_tree_side(self):
        # distances 1, 2, 3, ... on a line; the weight at distance 3 equals
        # threshold exactly, and scale * sqrt(-ln threshold) rounds below 3
        geo = geometry_at_altitudes(np.arange(600.0))
        threshold = np.exp(-np.square(3 / 1.4))
        g = build_weight_matrix(geo, scale=1.4, threshold=threshold)
        assert isinstance(g.weights, sp.csr_array)
        assert g.weight(0, 3) == threshold and g.weight(0, 4) == 0.0
        assert np.array_equal(g.dense(), reference_kernel(geo, 1.4, threshold, False))

    @pytest.mark.parametrize("n, csr", [(300, False), (700, True)])
    def test_coincident_sites_warn_on_both_sides(self, n, csr):
        geo = geometry_with_coincident_sites(n, 7)
        with pytest.warns(UserWarning, match="^5 vertex pair"):
            g = build_weight_matrix(geo, scale=300.0, threshold=1e-3)
        assert sp.issparse(g.weights) == csr
        assert g.weight(0, 6) == g.weight(4, 1) == 1.0
        assert np.array_equal(g.dense(), reference_kernel(geo, 300.0, 1e-3, False))

    @pytest.mark.parametrize("n", [300, 700])
    @pytest.mark.parametrize("threshold", [1.0, 1.5, np.inf])
    @pytest.mark.parametrize("self_loops", [False, True])
    def test_threshold_at_least_one_keeps_only_coincident_pairs(self, n, threshold, self_loops):
        geo = geometry_with_coincident_sites(n, 8)
        with pytest.warns(UserWarning, match="identical coordinates"):
            g = build_weight_matrix(geo, scale=300.0, threshold=threshold, self_loops=self_loops)
        ref = reference_kernel(geo, 300.0, threshold, self_loops)
        assert np.array_equal(g.dense(), ref)
        assert g.n_edges == self_loops * n + (10 if threshold == 1.0 else 0)

    def test_pruned_kernel_forms_no_dense_buffer(self):
        n = 3000
        geo = random_geometry(n, 9)
        # imports scipy.spatial before tracing starts
        build_weight_matrix(random_geometry(600, 9), scale=300.0, threshold=1e-3)
        tracemalloc.start()
        try:
            g = build_weight_matrix(geo, scale=300.0, threshold=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(g.weights, sp.csr_array)
        assert g.n_edges < 0.03 * n * n
        assert peak < 4 * n * n  # half of one dense float64 buffer


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
            for sparse in (sp.csr_array, sp.csr_matrix):
                assert validate_weights(sparse(m)) == validate_weights(m)

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


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_array], ids=["dense", "csr"])
def test_symmetry_is_decided_alike_by_every_caller(storage):
    """Graph.is_symmetric, validate_weights and the balancer's choice between
    W and its embedding agree, also for one asymmetric entry in the last
    (partial) 256-row block of the dense comparison."""
    rng = np.random.default_rng(5)
    n = 600
    mask = rng.random((n, n)) < 0.02
    mask[597, 530] = True
    w = rng.uniform(0.5, 1.5, (n, n)) * (mask | mask.T)
    w = w + w.T + np.eye(n)  # symmetric with a positive diagonal: total support
    nudged = w.copy()
    nudged[597, 530] *= 2.0
    for m, symmetric in ((w, True), (nudged, False)):
        stored = storage(m)
        assert Graph(stored).is_symmetric() is symmetric
        assert validate_weights(stored).symmetric is symmetric
        # A symmetric W is balanced through one scaling vector, so r and c alias.
        result = sinkhorn_knopp(stored)
        assert np.shares_memory(result.row_scaling, result.col_scaling) is symmetric


STORAGES = {"dense": np.asarray, "csr_array": sp.csr_array, "csr_matrix": sp.csr_matrix}


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_storage_gives_the_same_results(storage):
    """Dense, csr_array and legacy csr_matrix input agree to 1e-14 in every
    numeric routine; sparse results are csr_array."""
    rng = np.random.default_rng(31)
    n = 40
    w = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.2)
    w = w + w.T + np.eye(n)  # symmetric with a positive diagonal: total support
    stored = STORAGES[storage]
    assert validate_weights(stored(w)) == validate_weights(w)

    ref = sinkhorn_knopp(w, tol=1e-12).operator
    op = sinkhorn_knopp(stored(w), tol=1e-12).operator
    assert op.iterations_used == ref.iterations_used
    assert isinstance(op.matrix, np.ndarray if storage == "dense" else sp.csr_array)
    x = rng.standard_normal(n)
    h = rng.uniform(0.0, 1.0, 6)
    a = rng.standard_normal((n, n))
    cov = a @ a.T / n

    def results(s):
        wss, ds = wss_check(s, x, cov, 1.0), verify_doubly_stochastic(s)
        return [
            apply_filter(s, h, x),
            diffuse(s, x, 7),
            [wss.mean_residual, wss.covariance_residual, ds.residual, ds.min_entry],
            [matrix_norm(s, p) for p in (1, 2, np.inf)],
        ]

    np.testing.assert_allclose(op.dense(), ref.dense(), rtol=0, atol=1e-14)
    for got, want in zip(results(stored(ref.dense())), results(ref.dense())):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


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
        # Reference: the N x N x 3 difference array.
        geo = random_geometry(700, 5)
        p = geo.project()
        ref = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))
        assert np.array_equal(geo.pairwise_distances(), ref)

    def test_kernel_matches_out_of_place_formula(self):
        # above 512 sites at about 2 % fill the kernel comes from the k-d tree
        for n, scale, self_loops in ((300, 800.0, True), (700, 300.0, True), (700, 300.0, False)):
            geo = random_geometry(n, 6)
            g = build_weight_matrix(geo, scale=scale, threshold=1e-3, self_loops=self_loops)
            assert sp.issparse(g.weights) == (n > 512)
            assert np.array_equal(g.dense(), reference_kernel(geo, scale, 1e-3, self_loops))

    def test_projection_units(self):
        # one degree of latitude spans R * pi / 180 meters in the projection
        geo = VertexGeometry(lat=np.array([45.0, 46.0]), lon=np.array([7.0, 7.0]), alt=np.zeros(2))
        r = geo.pairwise_distances()
        assert r[0, 1] == pytest.approx(6_371_000 * np.pi / 180, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            VertexGeometry(lat=np.zeros(3), lon=np.zeros(2), alt=np.zeros(3))

    @pytest.mark.parametrize("name", ["lat", "lon", "alt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, name, bad):
        coords = dict(lat=np.full(3, 45.0), lon=np.full(3, 7.0), alt=np.zeros(3))
        coords[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            VertexGeometry(**coords)
