import itertools
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from copy import deepcopy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dsshift import (
    DSOperator,
    Graph,
    RandomSignalModel,
    UnbalanceableError,
    VertexGeometry,
    apply_filter,
    apply_shift,
    as_matrix,
    birkhoff_decompose,
    build_weight_matrix,
    diffuse,
    diffusion_convergence,
    exact_shift_variance,
    incoming_neighborhood,
    kantorovich_bound,
    local_bounds,
    matrix_norm,
    monte_carlo_shift_stats,
    sinkhorn_knopp,
    validate_weights,
    variance_upper_bound,
    verify_doubly_stochastic,
    wss_check,
)

from dsshift import graphs
from dsshift.demo import _sensor_geometry
from dsshift.fileio import load_matrix_market, save_matrix_market
from dsshift.graphs import DENSE_LIMIT, _is_symmetric, _product

from conftest import random_geometry

EPS = np.finfo(float).eps


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
        assert g.dense()[1, 0] == 0.7
        assert g.n_edges == 1

    def test_weights_immutable(self):
        g = Graph(np.ones((2, 2)))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 2.0

    def test_kept_csr_storage_is_read_only(self, tmp_path):
        kernel = build_weight_matrix(random_geometry(600, 0), scale=800.0, threshold=1e-3)
        kept = {"Graph": Graph(sp.csr_array(kernel.weights)).weights, "kernel": kernel.weights,
                "operator": sinkhorn_knopp(kernel).operator.matrix}
        for where, a in kept.items():
            assert isinstance(a, sp.csr_array), where
            for part in (a.data, a.indices, a.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = part[0]
        save_matrix_market(tmp_path / "w.mtx", kernel)
        loaded = load_matrix_market(tmp_path / "w.mtx")  # the caller's to change
        loaded.data[0] = 2.0
        assert loaded[0, loaded.indices[0]] == 2.0

    def test_formed_operator_shares_its_kernels_pattern(self):
        # diag(r) W diag(c) has W's zero pattern: S takes W's read-only index arrays
        kernel = build_weight_matrix(random_geometry(600, 0), scale=800.0, threshold=1e-3)
        s = sinkhorn_knopp(kernel).operator.matrix
        for name in ("indices", "indptr"):
            assert np.shares_memory(getattr(s, name), getattr(kernel.weights, name))
        assert not any(part.flags.writeable for part in (s.data, s.indices, s.indptr))

    def test_callers_array_is_copied(self):
        w = np.ones((2, 2))
        frozen_view = w[:]
        frozen_view.setflags(write=False)
        for weights in (w, frozen_view):
            g = Graph(weights)
            assert not np.shares_memory(g.weights, w)
        w[0, 0] = 5.0
        assert g.dense()[0, 0] == 1.0

    def test_read_only_owning_array_is_copied(self):
        w = np.ones((2, 2))
        w.setflags(write=False)
        g = Graph(w)
        w.setflags(write=True)  # an array that owns its data can be made writable again
        w[0, 0] = 5.0
        assert g.dense()[0, 0] == 1.0

    def test_sparse_storage_round_trip(self):
        w = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        g = Graph(w)
        assert g.n_edges == 2
        assert g.dense()[0, 1] == 2.0

    def test_duplicate_csr_entries_are_summed(self):
        # position (0, 0) stored twice: one edge of weight 3
        w = sp.csr_matrix((np.array([1.0, 2.0, 4.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
                          shape=(2, 2))
        g = Graph(w)
        assert g.n_edges == 2
        assert g.weights.nnz == 2
        assert np.array_equal(g.dense(), w.toarray())


def _non_canonical_circulant(kind):
    """The doubly stochastic [[.5, .5, 0], [0, .5, .5], [.5, 0, .5]], stored
    with (0, 0) three times and row 1's columns out of order."""
    data = np.array([0.25, 0.5, 0.125, 0.125, 0.5, 0.5, 0.5, 0.5])
    indices = np.array([0, 1, 0, 0, 2, 1, 0, 2])
    return kind((data, indices, np.array([0, 4, 6, 8])), shape=(3, 3))


@pytest.mark.parametrize("kind", [sp.csr_matrix, sp.csr_array])
def test_public_calls_leave_non_canonical_input_alone(tmp_path, kind):
    # scipy canonicalises a CSR in place on many operations; every public
    # call that takes a matrix must leave the caller's arrays as they were
    import dsshift
    from dsshift import fileio, graphs

    model = dsshift.RandomSignalModel(mu=0.0, sigma=1.0, rho=0.5)
    calls = [
        graphs.as_matrix, Graph, dsshift.DSOperator, validate_weights,
        verify_doubly_stochastic, sinkhorn_knopp, dsshift.birkhoff_decompose,
        lambda a: incoming_neighborhood(a, 0),
        lambda a: dsshift.apply_shift(a, np.ones(3)),
        lambda a: apply_filter(a, [0.5, 0.5], np.ones(3)),
        lambda a: diffuse(a, np.arange(3.0), 2),
        lambda a: dsshift.diffusion_convergence(a, np.arange(3.0)),
        lambda a: wss_check(a, np.ones(3), np.eye(3), 1e-9),
        lambda a: dsshift.local_bounds(a, 0),
        lambda a: dsshift.kantorovich_bound(a, 0),
        lambda a: dsshift.variance_upper_bound(a, 0, 1.0, 0.5),
        lambda a: dsshift.exact_shift_variance(a, 0, 1.0, 0.5),
        lambda a: dsshift.monte_carlo_shift_stats(a, 0, model, trials=10),
        lambda a: fileio.save_matrix_market(tmp_path / "a.mtx", a),
    ] + [lambda a, p=p: matrix_norm(a, p) for p in (1, 2, np.inf)]
    for call in calls:
        a = _non_canonical_circulant(kind)
        before = [x.copy() for x in (a.data, a.indices, a.indptr)]
        call(a)
        for got, want in zip((a.data, a.indices, a.indptr), before):
            assert np.array_equal(got, want), call
        assert np.array_equal(a.toarray(), [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])


def _stored_twice():
    """[[3, 1, 0], [0, 2, 5], [4, 0, 1]] as a csr_matrix storing (0, 0) twice,
    every row's columns out of order, and its dense twin."""
    data = np.array([1.0, 2.0, 1.0, 5.0, 2.0, 1.0, 4.0])
    indices = np.array([1, 0, 0, 2, 1, 2, 0])
    a = sp.csr_matrix((data, indices, np.array([0, 3, 5, 7])), shape=(3, 3))
    return a, np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 5.0], [4.0, 0.0, 1.0]])


class TestCanonicalCsr:
    def test_as_matrix_sums_a_copy(self):
        a, dense = _stored_twice()
        before = [x.copy() for x in (a.data, a.indices, a.indptr)]
        m = as_matrix(a)
        assert m.has_canonical_format and m.nnz == 6
        assert np.array_equal(m.toarray(), dense)
        for got, want in zip((a.data, a.indices, a.indptr), before):
            assert np.array_equal(got, want)

    def test_as_matrix_shares_a_canonical_input(self):
        a = sp.csr_array(_stored_twice()[1])
        assert np.shares_memory(as_matrix(a).data, a.data)

    @pytest.mark.parametrize("pair", [
        lambda a, dense: (a, dense),
        lambda a, dense: (DSOperator(a), DSOperator(dense)),
        # the operator balanced from the CSR, kept unformed, against its formed dense copy
        lambda a, dense: (op := sinkhorn_knopp(a).operator, DSOperator(op.dense())),
    ], ids=["raw", "DSOperator", "balanced"])
    def test_rows_equal_the_dense_twin(self, pair):
        sparse, twin = pair(*_stored_twice())
        model = RandomSignalModel(mu=0.5, sigma=1.0, rho=0.3)
        for m in range(3):
            assert local_bounds(sparse, m) == local_bounds(twin, m)
            got, want = incoming_neighborhood(sparse, m), incoming_neighborhood(twin, m)
            assert got.members.dtype == want.members.dtype == np.intp
            assert np.array_equal(got.members, want.members) and got.size == want.size == 2
            assert (monte_carlo_shift_stats(sparse, m, model, trials=50, seed=m)
                    == monte_carlo_shift_stats(twin, m, model, trials=50, seed=m))
            if hasattr(sparse, "row"):
                assert np.array_equal(sparse.row(m), twin.row(m))
        if hasattr(sparse, "row"):
            assert np.array_equal([sparse.row(m) for m in range(3)], twin.dense())

    @pytest.mark.parametrize("make", [
        lambda a: a, DSOperator, lambda a: sinkhorn_knopp(a).operator,
    ], ids=["raw", "DSOperator", "balanced"])
    @pytest.mark.parametrize("m", [-1, 3, 1.5, 1.0, np.float64(1.0), True, "1", None], ids=repr)
    def test_out_of_range_vertex(self, make, m):
        # a vertex id is a Python or numpy integer in range: a float, even an
        # integral one, or a bool is a ValueError naming it, not numpy's IndexError
        model = RandomSignalModel(mu=0.5, sigma=1.0, rho=0.3)
        for s in map(make, _stored_twice()):
            assert local_bounds(s, np.int64(1)) == local_bounds(s, 1)
            calls = [lambda: local_bounds(s, m), lambda: kantorovich_bound(s, m),
                     lambda: variance_upper_bound(s, m, 1.0, 0.3),
                     lambda: exact_shift_variance(s, m, 1.0, 0.3),
                     lambda: incoming_neighborhood(s, m),
                     lambda: monte_carlo_shift_stats(s, m, model, trials=10)]
            calls += [lambda: s.row(m)] if hasattr(s, "row") else []
            for call in calls:
                with pytest.raises(ValueError,
                                   match=rf"^vertex id {re.escape(repr(m))} out of range \[0, 3\)$"):
                    call()


class TestBuildWeightMatrix:
    def test_zero_distance_gives_unit_weight(self):
        with pytest.warns(UserWarning, match="identical coordinates"):
            g = build_weight_matrix(geometry_at_altitudes([5.0, 5.0]), scale=1.0)
        assert g.dense()[0, 1] == 1.0
        assert g.dense()[1, 0] == 1.0

    def test_unit_distance_kernel_value(self):
        g = build_weight_matrix(geometry_at_altitudes([0.0, 1.0]), scale=1.0)
        assert g.dense()[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_tiny_scale_overflows_to_zero_weight(self):
        # distance / scale passes the float range; exp(-inf) = 0 is the kernel's limit
        g = build_weight_matrix(geometry_at_altitudes([0.0, 1.0]), scale=1e-306)
        assert g.dense().tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_threshold_prunes_far_edge(self):
        # distances 1, 2, 3; the weight exp(-4) at distance 2 falls below exp(-2)
        g = build_weight_matrix(
            geometry_at_altitudes([0.0, 1.0, 3.0]), scale=1.0, threshold=np.exp(-2)
        )
        assert g.dense()[1, 0] == pytest.approx(np.exp(-1.0))
        assert g.dense()[2, 1] == 0.0
        assert g.dense()[2, 0] == 0.0

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
        # the buffer is a memory map, which tracemalloc does not see: a copy would make it 1x
        assert peak < 0.6 * 8 * n * n

    def test_self_loop_flag(self):
        geo = geometry_at_altitudes([0.0, 1.0])
        assert build_weight_matrix(geo, 1.0, self_loops=True).dense()[0, 0] == 1.0
        assert build_weight_matrix(geo, 1.0, self_loops=False).dense()[0, 0] == 0.0

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
        assert g.dense()[0, 3] == threshold and g.dense()[0, 4] == 0.0
        assert np.array_equal(g.dense(), reference_kernel(geo, 1.4, threshold, False))

    @pytest.mark.parametrize("n, csr", [(300, False), (700, True)])
    def test_coincident_sites_warn_on_both_sides(self, n, csr):
        geo = geometry_with_coincident_sites(n, 7)
        with pytest.warns(UserWarning, match="^5 vertex pair"):
            g = build_weight_matrix(geo, scale=300.0, threshold=1e-3)
        assert sp.issparse(g.weights) == csr
        assert g.dense()[0, 6] == g.dense()[4, 1] == 1.0
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

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_csr_kernel_is_the_same_in_blocks(self, monkeypatch, self_loops):
        # blocks of about 1/16 of the pairs: 43 sites, of which 700 is no
        # multiple; sites 350 and 699 coincide with 0 and 1, in other blocks
        geo = random_geometry(700, 7)
        for a in (geo.lat, geo.lon, geo.alt):
            a[[350, 699]] = a[[0, 1]]
        blocks = []  # the pairs each block weighs
        kernel = graphs._kernel
        monkeypatch.setattr(graphs, "_kernel", lambda d, *a: blocks.append(d.size) or kernel(d, *a))
        with pytest.warns(UserWarning, match="^2 vertex pair"):
            whole = build_weight_matrix(geo, scale=300.0, threshold=1e-3, self_loops=self_loops)
        assert len(blocks) == 1
        monkeypatch.setattr(graphs, "_MIN_BLOCK_PAIRS", 1)
        with pytest.warns(UserWarning, match="^2 vertex pair"):
            g = build_weight_matrix(geo, scale=300.0, threshold=1e-3, self_loops=self_loops)
        assert len(blocks) == 1 + 17 and sum(blocks[1:]) == blocks[0]  # 16 of 43 sites, one of 12
        assert isinstance(g.weights, sp.csr_array) and g.weights.has_canonical_format
        assert np.array_equal(g.dense(), reference_kernel(geo, 300.0, 1e-3, self_loops))
        for name in ("data", "indices", "indptr"):
            got, want = getattr(g.weights, name), getattr(whole.weights, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_csr_kernel_peaks_near_its_own_bytes(self):
        # blocks of sites are written into arrays of the counted pairs: one
        # k-d tree query of every pair (24 B each) peaked at 4.2x the CSR's bytes
        code = ("import numpy as np\n"
                "from dsshift import build_weight_matrix\n"
                "from dsshift.demo import _sensor_geometry\n"
                "def peak_kib():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return int(fh.read().split('VmHWM:')[1].split()[0])\n"
                "def kernel(n, scale):\n"
                "    geo = _sensor_geometry(n, np.random.default_rng(1))\n"
                "    return build_weight_matrix(geo, scale, 1e-4, self_loops=True)\n"
                "kernel(1000, 800.0)\n"  # imports and warms everything first
                "before = peak_kib()\n"
                "w = kernel(10000, 200.0)._weights\n"
                "print(type(w).__name__, (peak_kib() - before) * 1024\n"
                "      / (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphs.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300).stdout.split()
        assert out[0] == "csr_array"
        assert float(out[1]) < 2.5  # 1.3 in blocks

    def test_dense_kernel_is_pruned_without_a_mask_of_its_size(self):
        # the threshold mask is taken 16 KB of a tile at a time: an N x N bool
        # mask would add an eighth of the kernel's bytes to the peak; the
        # kernel's own buffer is a memory map, which tracemalloc does not see
        geo = random_geometry(1500, 3)
        build_weight_matrix(random_geometry(600, 3), scale=2000.0, threshold=1e-4)
        tracemalloc.start()
        try:
            g = build_weight_matrix(geo, scale=2000.0, threshold=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(g.weights, np.ndarray)
        assert peak < 0.0625 * g.weights.nbytes
        assert np.array_equal(g.weights, reference_kernel(geo, 2000.0, 1e-4, False))

    def test_dense_kernel_on_16_workers_is_pruned_without_a_mask_of_its_size(self, monkeypatch):
        monkeypatch.setattr(graphs, "_WORKERS", 16)  # up to 16 blocks in flight
        self.test_dense_kernel_is_pruned_without_a_mask_of_its_size()

    @pytest.mark.parametrize("workers", [1, 2, 3, 16])
    @pytest.mark.parametrize("self_loops", [False, True])
    def test_dense_kernel_is_the_same_for_any_worker_count(self, monkeypatch, workers, self_loops):
        monkeypatch.setattr(graphs, "_WORKERS", workers)
        geo = random_geometry(650, 4)  # ten full 64-row blocks and a partial one
        g = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=self_loops)
        assert isinstance(g.weights, np.ndarray)
        assert np.array_equal(g.weights, reference_kernel(geo, 2000.0, 1e-4, self_loops))

    def test_dense_kernel_leaves_no_thread_running(self):
        before = threading.active_count()
        build_weight_matrix(random_geometry(650, 4), scale=2000.0)
        assert threading.active_count() == before

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_dense_kernel_takes_half_its_bytes_until_read(self):
        # the lower half of the map is never touched while the upper triangle is
        # built.  The peak RSS is VmHWM: a child's ru_maxrss starts at its parent's
        code = ("import numpy as np\n"
                "from dsshift import build_weight_matrix\n"
                "from dsshift.demo import _sensor_geometry\n"
                "def peak_kib():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return int(fh.read().split('VmHWM:')[1].split()[0])\n"
                "def kernel(n):\n"
                "    geo = _sensor_geometry(n, np.random.default_rng(1))\n"
                "    return build_weight_matrix(geo, 1800.0, 1e-4, self_loops=True)\n"
                "kernel(600)\n"  # imports and warms everything first
                "before = peak_kib()\n"
                "g = kernel(3000)\n"
                "print(type(g._weights).__name__, (peak_kib() - before) * 1024 / g._weights.nbytes)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphs.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300).stdout.split()
        assert out[0] == "ndarray"
        assert float(out[1]) < 0.75  # 0.96 with the whole N x N buffer written

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_products_read_the_triangle_and_other_reads_mirror_it(self, monkeypatch,
                                                                  self_loops):
        fills = []
        fill = graphs._mirror
        monkeypatch.setattr(graphs, "_mirror", lambda w: fills.append(w) or fill(w))
        geo = random_geometry(650, 4)
        g = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=self_loops)
        x = np.random.default_rng(5).uniform(0.5, 1.5, 650)
        result = sinkhorn_knopp(g, tol=1e-10)
        shifted = apply_shift(result.operator, x)
        norm = matrix_norm(result.operator, 2)  # svds passes one-column operands
        assert not fills and g._upper is not None
        ref = reference_kernel(geo, 2000.0, 1e-4, self_loops)
        block = np.arange(650) // 64
        below = block[:, None] > block  # below the 64 x 64 diagonal blocks: not yet filled
        assert not g._weights[below].any() and ref[below].any()
        full = sinkhorn_knopp(Graph(ref), tol=1e-10)  # a full copy: the same triangle read
        assert np.array_equal(result.row_scaling, full.row_scaling)
        assert np.array_equal(shifted, apply_shift(full.operator, x))
        assert norm == matrix_norm(full.operator, 2)
        assert np.array_equal(result.operator.row(3), full.operator.row(3))  # from the triangle
        assert not fills
        assert np.array_equal(g.weights, ref) and g.n_edges == np.count_nonzero(ref)
        assert len(fills) == 1  # once per kernel, shared by the Graph and its operators

    @pytest.mark.parametrize("read", ["weights", "n_edges", "dense", "operator matrix",
                                      "2-D product", "validate", "validate graph"])
    def test_each_reader_of_both_halves_mirrors(self, read):
        geo = random_geometry(650, 4)
        g = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=True)
        op = sinkhorn_knopp(g, tol=1e-10).operator
        ref = reference_kernel(geo, 2000.0, 1e-4, True)
        scaled = ref * op._stored.r[:, None] * op._stored.c
        got, want = {"weights": (lambda: g.weights, ref),
                     "n_edges": (lambda: g.n_edges, np.count_nonzero(ref)),
                     "dense": (lambda: g.dense(), ref),
                     "operator matrix": (lambda: op.matrix, scaled),
                     "2-D product": (lambda: op._stored @ np.eye(650), scaled),
                     "validate": (lambda: validate_weights(op).n_edges, np.count_nonzero(ref)),
                     "validate graph": (lambda: validate_weights(g).n_edges,
                                        np.count_nonzero(ref)),
                     }[read]
        assert g._upper is not None  # balancing read the triangle alone
        np.testing.assert_allclose(got(), want, rtol=1e-15, atol=0)
        assert g._upper is None  # mirrored

    def test_row_readers_read_the_triangle(self, monkeypatch):
        # every row of an operator, its bounds, its Monte Carlo and its
        # neighbourhoods, bit for bit those of the mirrored kernel, with no mirror
        fills = []
        fill = graphs._mirror
        monkeypatch.setattr(graphs, "_mirror", lambda w: fills.append(w) or fill(w))
        g = build_weight_matrix(random_geometry(650, 4), scale=2000.0, threshold=1e-4,
                                self_loops=True)
        op = sinkhorn_knopp(g, tol=1e-10).operator
        model = RandomSignalModel(mu=1.0, sigma=1.0, rho=0.3)

        def reads():
            return ([op.row(m) for m in range(650)],
                    [local_bounds(op, m) for m in range(0, 650, 7)],
                    [monte_carlo_shift_stats(op, m, model, trials=64, seed=m)
                     for m in (0, 64, 649)],
                    [incoming_neighborhood(op, m).members for m in range(0, 650, 7)])

        got = reads()
        assert not fills and g._upper is not None
        g.weights  # mirror
        assert len(fills) == 1
        want = reads()
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert got[1:3] == want[1:3]
        assert all(np.array_equal(a, b) for a, b in zip(got[3], want[3]))
        scaled = g.weights * op._stored.r[:, None] * op._stored.c
        np.testing.assert_allclose(got[0], scaled, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("threshold", [0.0, 1e-4], ids=["positive", "with-zeros"])
    def test_smallest_entry_reads_the_triangle(self, monkeypatch, threshold):
        # verify_doubly_stochastic's min_entry takes S's smallest entry from the
        # triangle's rows, (r_i w_ij) c_j and (r_j w_ij) c_i: bit for bit the
        # smallest entry of the formed S, and no mirror
        fills = []
        fill = graphs._mirror
        monkeypatch.setattr(graphs, "_mirror", lambda w: fills.append(w) or fill(w))
        g = build_weight_matrix(random_geometry(650, 4), scale=2000.0, threshold=threshold,
                                self_loops=True)
        op = sinkhorn_knopp(g, tol=1e-10).operator
        r, c = np.random.default_rng(5).uniform(0.5, 2.0, (2, 650))
        skewed = graphs._Scaled(g, r, c)  # r != c: S is not symmetric
        got, got_skewed = verify_doubly_stochastic(op, 1e-9), skewed.min()
        assert not fills and g._upper is not None
        want = op.matrix.min()  # the mirrored kernel's operator, formed
        assert len(fills) == 1
        assert got.min_entry == want and (want > 0) == (threshold == 0.0)
        assert got_skewed == skewed.formed().min()
        assert verify_doubly_stochastic(op, 1e-9) == got  # read from the mirrored kernel

    def test_graph_products_do_not_depend_on_earlier_reads(self):
        # a Graph's products are those of the mirrored kernel, whether or not
        # anything read it before
        geo = random_geometry(650, 4)
        x = np.random.default_rng(5).uniform(0.5, 1.5, 650)
        fresh = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=True)
        read = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=True)
        assert fresh._upper is not None and read._upper is not None
        repr(read)
        for f in (lambda g: diffuse(g, x, 20), lambda g: apply_filter(g, [0.5, 0.3, 0.2], x),
                  lambda g: matrix_norm(g, 2)):
            assert np.array_equal(f(fresh), f(read))

    def test_pickles_and_copies_hold_the_whole_kernel(self):
        geo = random_geometry(650, 4)
        ref = reference_kernel(geo, 2000.0, 1e-4, True)
        for copy in (lambda a: pickle.loads(pickle.dumps(a)), deepcopy):
            g = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=True)
            op = sinkhorn_knopp(g, tol=1e-10).operator
            op2, g2 = copy(op), copy(g)  # the operator's copy mirrors the shared kernel
            assert g2._upper is None and op2._stored.graph._upper is None
            assert np.array_equal(g2.weights, ref)
            np.testing.assert_allclose(op2.dense(), op.dense(), rtol=0, atol=0)

    def test_threads_that_read_first_at_once_get_the_whole_kernel(self, monkeypatch):
        fills = []
        fill = graphs._mirror
        monkeypatch.setattr(graphs, "_mirror", lambda w: fills.append(w) or fill(w))
        geo = random_geometry(1300, 4)
        ref = reference_kernel(geo, 2000.0, 1e-4, True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, inside the copy too
        try:
            for _ in range(3):
                g = build_weight_matrix(geo, scale=2000.0, threshold=1e-4, self_loops=True)
                op = sinkhorn_knopp(g, tol=1e-10).operator
                start, got = threading.Barrier(8, timeout=60), [None] * 8

                def read(k):
                    start.wait()
                    got[k] = g.weights.copy() if k % 2 else op.row(k)

                threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for k in range(1, 8, 2):
                    assert np.array_equal(got[k], ref)
                for k in range(0, 8, 2):
                    np.testing.assert_allclose(got[k], op.matrix[k], rtol=1e-15)
        finally:
            sys.setswitchinterval(interval)
        assert len(fills) == 3  # one copy per kernel

    def test_each_kernel_mirrors_under_its_own_lock(self):
        # a kernel being mirrored does not hold up the first read of another
        geo = random_geometry(650, 4)
        busy, other = (build_weight_matrix(geo, scale=2000.0, threshold=1e-4) for _ in range(2))
        assert busy._upper is not None and other._upper is not None
        t = threading.Thread(target=lambda: other.weights)
        with busy._lock:  # as while busy is mirrored
            t.start()
            t.join(timeout=30)
            assert not t.is_alive() and other._upper is None
        assert busy._upper is not None


class TestWorkerCount:
    @pytest.mark.parametrize("files, cpus", [
        ({"cpu.max": "200000 100000"}, 2),
        ({"cpu.max": "150000 100000"}, 2),  # rounded up
        ({"cpu.max": "50000 100000"}, 1),
        ({"cpu.max": "max 100000"}, None),
        ({"cpu/cpu.cfs_quota_us": "300000", "cpu/cpu.cfs_period_us": "100000"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, None),
        ({"cpu/cpu.cfs_quota_us": "250000"}, None),  # no period to divide by
        ({}, None),
    ], ids=["v2", "v2-fraction", "v2-under-one", "v2-max", "v1", "v1-none", "v1-partial",
            "none"])
    def test_quota_is_read_from_cgroup_files(self, monkeypatch, files, cpus):
        monkeypatch.setattr(graphs, "_cgroup_text", files.get)
        assert graphs._quota_cpus() == cpus

    def test_reader_gives_none_for_a_missing_file(self):
        assert graphs._cgroup_text("no-such-controller/cpu.max") is None

    @pytest.mark.parametrize("quota", [None, 1, 2, 64])
    def test_worker_count_takes_the_smallest_limit(self, monkeypatch, quota):
        monkeypatch.setattr(graphs, "_quota_cpus", lambda: quota)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        assert graphs._worker_count() == min(4, quota or 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert graphs._worker_count() == min(16, quota or 16)


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

    @settings(max_examples=30)
    @given(n=st.integers(513, 2000), seed=st.integers(0, 3),
           scale=st.one_of(st.floats(1050.0, 1300.0), st.floats(250.0, 3000.0)))
    def test_route_bounds_pick_what_the_exact_count_picks(self, n, seed, scale):
        # scales 1050-1300 put a quarter of random_geometry's pairs within the cutoff
        from scipy.spatial import cKDTree

        geo = random_geometry(n, seed)
        tree = cKDTree(points := geo.project())
        cutoff = scale * np.sqrt(-np.log(1e-3)) * (1 + 1e-9)  # build_weight_matrix's
        exact = tree.count_neighbors(tree, cutoff)
        route = graphs._dense_storage((n, n), graphs._pair_count(tree, points, cutoff))
        assert route == (4 * exact >= n * n)

        g = build_weight_matrix(geo, scale=scale, threshold=1e-3)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(graphs, "_pair_count", lambda tree, points, cutoff:
                      tree.count_neighbors(tree, cutoff))
            ref = build_weight_matrix(geo, scale=scale, threshold=1e-3)
        assert type(g.weights) is type(ref.weights)
        if sp.issparse(ref.weights):
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(g.weights, name), getattr(ref.weights, name))
        else:
            assert np.array_equal(g.weights, ref.weights)

    @pytest.mark.parametrize("scale, queried", [
        (200.0, [250]),  # the sample decides: no bound
        (1200.0, [250, 4000]),  # the bound is counted and does not decide
        (2000.0, [250, 4000]),  # the bound decides: dense
    ])
    def test_a_sample_gap_past_the_cutoff_skips_the_full_query(self, monkeypatch, scale,
                                                               queried):
        # every 16th site from the 9th lies up to 955 m from the every-16th tree
        import scipy.spatial

        sizes = []

        class Spy(scipy.spatial.cKDTree):
            def query(self, x, *args, **kwargs):
                sizes.append(len(x))
                return super().query(x, *args, **kwargs)

        tree = scipy.spatial.cKDTree(points := random_geometry(4000, 0).project())
        cutoff = scale * np.sqrt(-np.log(1e-3)) * (1 + 1e-9)  # build_weight_matrix's
        exact = tree.count_neighbors(tree, cutoff)
        monkeypatch.setattr(scipy.spatial, "cKDTree", Spy)
        count = graphs._pair_count(tree, points, cutoff)
        assert sizes == queried
        if scale < 2000:
            assert count == exact
        else:  # a lower bound, returned only when it puts the kernel dense
            assert count < exact and 4 * count >= 4000**2

    def test_demo_kernel_is_routed_without_the_exact_pair_count(self, monkeypatch):
        import scipy.spatial
        from dsshift.demo import SensorFieldConfig, _sensor_geometry

        calls = []

        class Spy(scipy.spatial.cKDTree):
            def count_neighbors(self, other, r, *args, **kwargs):
                calls.append((r, kwargs.get("weights")))
                return super().count_neighbors(other, r, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Spy)
        cfg = SensorFieldConfig()
        g = build_weight_matrix(_sensor_geometry(5000, np.random.default_rng(1)),
                                scale=cfg.kernel_scale, threshold=cfg.threshold, self_loops=True)
        assert isinstance(g.weights, np.ndarray)
        # unweighted, only the coincident-site count; the bounds are weighted
        assert [r for r, weights in calls if weights is None] == [0.0]
        assert len(calls) == 2


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


def _csr_with_stored_zeros(w):
    """``w`` as CSR that also stores a zero in place of each entry below -0.9."""
    a = sp.csr_array(w)
    a.data[a.data < -0.9] = 0.0
    return a


def _strided_view(w):
    """``w`` as a non-contiguous view into a larger array."""
    big = np.full((2 * w.shape[0], 2 * w.shape[1]), 7.0)
    big[::2, 1::2] = w
    return big[::2, 1::2]


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

    def test_support_without_total_support(self):
        # [[1, 1], [1, 0]] has a positive diagonal, but none through (0, 0),
        # so no balancing exists and Knight-Ruiz rejects it with the same issue
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        d = validate_weights(w)
        assert not d.balanceable
        assert d.issues == ("unbalanceable: entry (0, 0) is on no positive diagonal",)
        with pytest.raises(UnbalanceableError) as exc_info:
            sinkhorn_knopp(w)
        assert str(exc_info.value) == d.issues[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_total_support_on_every_small_support(self, n):
        for bits in range(2 ** (n * n)):
            support = (bits >> np.arange(n * n) & 1).reshape(n, n).astype(bool)
            _assert_total_support_verdict(support)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_array], ids=["dense", "csr"])
    def test_first_off_entry_in_a_later_row_block(self, storage):
        # Diagonal blocks on rows 0-299, 300-449 and 450-599, each with total
        # support, and entries above the last one: rows 450-599 take every
        # column from 450 on, so those entries lie on no positive diagonal.
        # The first, (397, 460), sits past the search's first row block.
        rng = np.random.default_rng(12)
        w = np.zeros((600, 600))
        for lo, hi in ((0, 300), (300, 450), (450, 600)):
            block = rng.uniform(0.5, 1.5, (hi - lo, hi - lo)) * (rng.random((hi - lo,) * 2) < 0.05)
            w[lo:hi, lo:hi] = block + block.T + np.eye(hi - lo)
        w[420, 451] = w[397, 530] = w[397, 460] = 1.0
        assert validate_weights(storage(w)).issues == (
            "asymmetric weight matrix", "unbalanceable: entry (397, 460) is on no positive diagonal")

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

    @pytest.mark.parametrize("storage", [np.asarray, np.asfortranarray, _strided_view,
                                         _csr_with_stored_zeros],
                             ids=["dense", "fortran", "strided", "csr"])
    def test_min_positive_is_the_masked_minimum(self, storage):
        # 600 rows: full row blocks and a partial last one, which holds
        # the smallest positive entry among negatives and zeros
        rng = np.random.default_rng(13)
        w = rng.uniform(-1.0, 1.0, (600, 600)) * (rng.random((600, 600)) < 0.3)
        w[np.abs(w) < 1e-3] = 0.0
        w[590, 7], w[595, 3] = 2.5e-4, -1e-9
        a = storage(w)
        values = a.data if sp.issparse(a) else a
        assert validate_weights(a).min_positive == np.min(values, where=values > 0,
                                                         initial=np.inf) == 2.5e-4
        assert validate_weights(storage(np.zeros((600, 600)))).min_positive == 0.0

    def test_min_positive_makes_no_copy_of_the_values(self):
        # a masked reduction holds a bool mask, 1/8 of the float64 values;
        # np.where(v > 0, v, inf) held a copy of them as well, 9/8
        from dsshift.graphs import _min_positive

        w = sp.csr_array(np.random.default_rng(3).uniform(-0.5, 0.5, (400, 500)))
        _min_positive(w)
        tracemalloc.start()
        try:
            got = _min_positive(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == w.data[w.data > 0].min()
        assert peak < 0.5 * w.data.nbytes

    @pytest.mark.parametrize("n, scale", [(600, 1800.0), (1500, 600.0)], ids=["dense", "csr"])
    def test_balanced_operator_is_reported_on_its_kernel(self, n, scale):
        # diag(r) W diag(c) with r, c > 0 has W's zero pattern: its report is
        # W's, with W's symmetry (a formed S misses its mirror by an ulp)
        geo = _sensor_geometry(n, np.random.default_rng(1))
        g = build_weight_matrix(geo, scale=scale, threshold=1e-4, self_loops=True)
        op = sinkhorn_knopp(g, tol=1e-10).operator
        assert sp.issparse(g.weights) == (n == 1500)
        assert validate_weights(op) == validate_weights(g)
        assert op._stored._s is None  # S was not formed

    def test_row_block_size_changes_no_reader(self, tmp_path, monkeypatch):
        # every pass that walks a dense matrix in graphs._BLOCK rows reads
        # alike at 1, 7 and all 200 rows; the asymmetric, negative, smallest
        # positive and first off-diagonal entries sit in the last, partial
        # block (rows 192-199 at the default 64, 196-199 at 7).  Its entries
        # are multiples of 2**-20, so column sums are exact in any order.
        rng = np.random.default_rng(21)
        w = rng.integers(512, 1536, (200, 200)) / 1024 * (rng.random((200, 200)) < 0.1)
        w = w + w.T + np.eye(200)
        w[196:, :196] = w[:196, 196:] = 0.0
        w[196:, 196:] = 1.0  # two diagonal blocks, each with total support
        w[197, 10] = 1.0  # asymmetric, and on no positive diagonal
        w[198, 199], w[196, 198] = -0.5, 2.0**-20
        positive = rng.uniform(0.5, 1.5, (200, 200))
        positive[197, 3] = 1e-6
        op = sinkhorn_knopp(positive).operator  # kept unformed
        symmetric = positive + positive.T

        def read():
            for name, a in (("w", w), ("symmetric", symmetric)):
                save_matrix_market(tmp_path / f"{name}.mtx", a)
            return (validate_weights(w), Graph(np.abs(w)).is_symmetric(),
                    Graph(symmetric).is_symmetric(), matrix_norm(w, 1), matrix_norm(w, np.inf),
                    verify_doubly_stochastic(op).min_entry,
                    (tmp_path / "w.mtx").read_bytes(), (tmp_path / "symmetric.mtx").read_bytes())

        expected = read()
        assert expected[0].issues == (
            "1 negative entries", "asymmetric weight matrix",
            "unbalanceable: entry (197, 10) is on no positive diagonal")
        assert expected[0].min_positive == 2.0**-20 and expected[1:3] == (False, True)
        for block in (1, 7, 200):
            monkeypatch.setattr(graphs, "_BLOCK", block)
            assert read() == expected

    def test_dense_checks_hold_no_mask_of_every_entry(self):
        # validate_weights and Graph read a dense W in row blocks: beyond
        # Graph's own copy they hold under W.nbytes / 16, where a mask of
        # every entry is W.nbytes / 8.  (n = 2000: a 64-row float block of
        # the masked minimum is W.nbytes / 31 here, but W.nbytes / 15.6 at
        # n = 1000.)  Symmetric with a positive diagonal: no support search.
        w = np.random.default_rng(9).random((2000, 2000))
        w += w.T
        peaks = {}
        tracemalloc.start()
        try:
            for call, kept in ((validate_weights, 0), (Graph, w.nbytes)):
                tracemalloc.reset_peak()
                call(w)
                peaks[call.__name__] = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < w.nbytes / 16, peaks


def _assert_total_support_verdict(support):
    """validate_weights' verdict against a scan of every permutation: each
    positive entry must lie on a positive diagonal, and the issue names the
    first, in row-major order, that does not."""
    n = support.shape[0]
    on_diagonal = np.zeros_like(support)
    for image in itertools.permutations(range(n)):
        if support[np.arange(n), image].all():
            on_diagonal[np.arange(n), image] = True
    off = np.argwhere(support & ~on_diagonal)
    w = support * np.random.default_rng(n).uniform(0.5, 2.0, support.shape)
    d = validate_weights(w)
    assert validate_weights(sp.csr_array(w)) == d
    empty = not support.any(axis=0).all() or not support.any(axis=1).all()
    assert d.balanceable == (not empty and off.size == 0)
    named = [msg for msg in d.issues if "positive diagonal" in msg]
    assert named == ([f"unbalanceable: entry ({off[0][0]}, {off[0][1]}) is on no "
                      "positive diagonal"] if off.size else [])


@given(n=st.integers(1, 5), data=st.data())
@settings(max_examples=200)
def test_total_support_matches_permutation_scan(n, data):
    cells = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    _assert_total_support_verdict(np.array(cells).reshape(n, n))


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_array], ids=["dense", "csr"])
def test_symmetry_is_decided_alike_by_every_caller(storage):
    """Graph.is_symmetric, validate_weights and the balancer's choice between
    W and its embedding agree, also for one asymmetric entry, (597, 530), which
    the dense comparison reaches in a late row block."""
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


def _csr(entries, n=3):
    """A CSR of ``(row, column, value)`` entries in the given order, as stored."""
    rows, cols, values = zip(*entries)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(np.array(rows)[order], np.arange(n + 1))
    return sp.csr_array((np.array(values)[order], np.array(cols)[order], indptr), shape=(n, n))


@pytest.mark.parametrize("entries, symmetric", [
    ([(0, 1, 0.0), (2, 2, 1.0)], True),  # an explicit zero mirrors an absent entry
    ([(0, 1, 0.0), (1, 0, 2.0)], False),
    ([(0, 1, 1.5), (0, 1, 0.5), (1, 0, 2.0)], True),  # summed duplicates
    ([(0, 1, 1.5), (0, 1, 0.5), (1, 0, 1.5)], False),
    ([(0, 2, 1.0), (0, 1, 3.0), (1, 0, 3.0), (2, 0, 1.0)], True),  # unsorted columns
    ([(0, 1, 1 / 3), (1, 0, np.nextafter(1 / 3, 1.0))], False),  # one ulp off
])
def test_csr_symmetry_reads_the_summed_matrix(entries, symmetric):
    a = _csr(entries)
    assert _is_symmetric(a) is symmetric
    assert _is_symmetric(a.toarray()) is symmetric
    assert Graph(a).is_symmetric() is symmetric


@pytest.mark.parametrize("nudge", [False, True])
def test_csr_symmetry_holds_one_transposed_copy(nudge):
    # compared array by array with one transposed copy: a != a.T held about
    # twice the CSR's bytes besides its input
    w = build_weight_matrix(random_geometry(3000, 9), scale=300.0, threshold=1e-3,
                            self_loops=True).weights.copy()
    off = np.flatnonzero(w.indices != np.repeat(np.arange(3000), np.diff(w.indptr)))
    w.data[off[0]] *= 1 + nudge
    _is_symmetric(w)
    tracemalloc.start()
    try:
        verdict = _is_symmetric(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is not nudge
    assert peak < 1.25 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)


@given(n=st.sampled_from([1, 2, 65, DENSE_LIMIT, DENSE_LIMIT + 37]),
       kind=st.sampled_from(["symmetric", "asymmetric", "csr"]),
       columns=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_product_agrees_with_matmul(n, kind, columns, seed):
    """``_product`` is ``W @ x`` to n eps of ``|W| @ |x|``, for 1-D and 2-D x, on
    read-only dense buffers (symmetric or not) and CSR, on both sides of
    DENSE_LIMIT."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, (n, n))
    if kind != "asymmetric":
        w = w + w.T
    if kind == "csr":
        w = sp.csr_array(w * (w > 1.5))
    else:
        w.setflags(write=False)
    x = rng.standard_normal(n if columns is None else (n, columns))
    got = _product(w, x, kind != "asymmetric")
    assert got.shape == x.shape
    assert (np.abs(got - w @ x) <= n * EPS * (abs(w) @ np.abs(x))).all()


def test_symmetric_product_reads_one_triangle():
    # a dense symmetric W is multiplied from its upper triangle alone: a NaN
    # below the diagonal would reach the product if it were read
    rng = np.random.default_rng(8)
    w = rng.uniform(0.0, 1.0, (700, 700))
    upper = np.triu(w) + np.tril(np.full_like(w, np.nan), -1)
    x = rng.uniform(0.5, 1.5, 700)
    full = np.triu(w) + np.triu(w, 1).T
    np.testing.assert_allclose(_product(upper, x, True), full @ x, rtol=1e-13)


@pytest.mark.parametrize("n, scale, csr", [(300, 800.0, False), (700, 2000.0, False),
                                           (700, 300.0, True)])
@pytest.mark.parametrize("self_loops", [False, True])
def test_built_kernel_is_marked_symmetric(n, scale, csr, self_loops):
    # the flag is set without a check, and the check agrees with it
    g = build_weight_matrix(random_geometry(n, 11), scale=scale, threshold=1e-3,
                            self_loops=self_loops)
    assert sp.issparse(g.weights) == csr
    assert g._symmetric is True
    assert _is_symmetric(g.weights)


@pytest.mark.parametrize("n, scale", [(300, 800.0), (700, 300.0)], ids=["dense", "csr"])
def test_symmetry_is_decided_once_per_graph(n, scale, monkeypatch):
    # a built kernel is never checked; a Graph built from its weights is
    # checked once, and is_symmetric, validate_weights and sinkhorn_knopp share it
    from dsshift import graphs

    checks = []
    monkeypatch.setattr(graphs, "_is_symmetric", lambda a: checks.append(a) or True)
    built = build_weight_matrix(random_geometry(n, 13), scale=scale, threshold=1e-3,
                                self_loops=True)
    copied = Graph(built.weights)
    for g in (built, copied):
        assert g.is_symmetric() and validate_weights(g).symmetric
        result = sinkhorn_knopp(g)
        assert np.shares_memory(result.row_scaling, result.col_scaling)
    assert len(checks) == 1 and checks[0] is copied.weights


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


class TestKernelRange:
    # build_weight_matrix returns its kernel unchecked: every weight is exp of
    # a nonpositive number, or the 0/1 it writes, so none can be NaN, inf or
    # negative.  Both storage paths are covered: with DENSE_LIMIT at 0 a
    # pruned kernel below a quarter fill comes from the k-d tree.
    @pytest.mark.parametrize("dense_limit", [512, 0])
    @given(
        coords=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 3000.0)),
            min_size=2, max_size=12,
        ),
        scale=st.floats(0.0, 1e308, exclude_min=True),
        threshold=st.floats(0.0, 1e308),
        self_loops=st.booleans(),
    )
    @settings(max_examples=60)
    def test_weights_lie_in_unit_interval(self, dense_limit, coords, scale, threshold, self_loops):
        from unittest import mock

        lat, lon, alt = (np.array(c) for c in zip(*coords))
        geo = VertexGeometry(lat=45.0 + lat, lon=7.0 + lon, alt=alt)
        with mock.patch("dsshift.graphs.DENSE_LIMIT", dense_limit), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # coincident sites
            g = build_weight_matrix(geo, scale=scale, threshold=threshold, self_loops=self_loops)
        w = g.dense()
        assert np.isfinite(w).all()
        assert w.min() >= 0.0 and w.max() <= 1.0


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("call", [
    pytest.param(Graph, id="Graph"),
    pytest.param(DSOperator, id="DSOperator"),
    pytest.param(validate_weights, id="validate_weights"),
    pytest.param(sinkhorn_knopp, id="sinkhorn_knopp"),
    pytest.param(verify_doubly_stochastic, id="verify_doubly_stochastic"),
    pytest.param(birkhoff_decompose, id="birkhoff_decompose"),
    pytest.param(lambda a: matrix_norm(a, 1), id="matrix_norm-1"),
    pytest.param(lambda a: matrix_norm(a, 2), id="matrix_norm-2"),
    pytest.param(lambda a: matrix_norm(a, np.inf), id="matrix_norm-inf"),
    pytest.param(lambda a: diffusion_convergence(a, []), id="diffusion_convergence"),
])
def test_empty_matrix_is_rejected_naming_its_shape(storage, call):
    empty = sp.csr_array((0, 0)) if storage == "csr" else np.zeros((0, 0))
    with pytest.raises(ValueError, match=r"must be square and nonempty, got shape \(0, 0\)$"):
        call(empty)
