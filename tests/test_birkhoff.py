import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import maximum_bipartite_matching

from dsshift import (
    DecompositionError,
    birkhoff,
    birkhoff_decompose,
    build_weight_matrix,
    max_terms,
    reconstruct,
    sinkhorn_knopp,
    verify_doubly_stochastic,
)
from dsshift.birkhoff import _CUT
from dsshift.demo import _sensor_geometry

from conftest import balanced_operator, demo_kernel_operator

EPS = np.finfo(float).eps


class TestBirkhoffDecompose:
    def test_permutation_is_single_term(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        d = birkhoff_decompose(p)
        assert d.n_terms == 1
        assert d.coefficients.tolist() == [1.0]
        assert d.permutations[0].tolist() == [1, 2, 0]

    def test_uniform_two_by_two(self):
        d = birkhoff_decompose(np.full((2, 2), 0.5))
        terms = {(round(float(a), 12), tuple(p.tolist())) for a, p in d.terms()}
        assert terms == {(0.5, (0, 1)), (0.5, (1, 0))}

    def test_hand_verified_asymmetric_split(self, small_operator):
        # brute force over the two 2x2 permutations: 1/3 identity + 2/3 swap
        d = birkhoff_decompose(small_operator)
        assert d.n_terms == 2
        a0, p0 = d.coefficients[0], d.permutations[0]
        a1, p1 = d.coefficients[1], d.permutations[1]
        assert p0.tolist() == [0, 1] and a0 == pytest.approx(1 / 3, abs=1e-12)
        assert p1.tolist() == [1, 0] and a1 == pytest.approx(2 / 3, abs=1e-12)

    def test_coefficients_positive_and_sum_to_one(self):
        for seed in range(5):
            d = birkhoff_decompose(balanced_operator(8, seed=seed, tol=1e-14))
            assert d.coefficients.min() > 0
            assert abs(d.coefficients.sum() - 1.0) <= 1e-10

    def test_round_trip_on_balanced_operator(self):
        s = balanced_operator(8, seed=40, tol=1e-14)
        d = birkhoff_decompose(s)
        assert np.abs(reconstruct(d) - s.dense()).max() <= 1e-8

    def test_term_count_within_bound(self):
        for seed in range(5):
            n = 6 + seed
            d = birkhoff_decompose(balanced_operator(n, seed=seed + 50, tol=1e-14))
            assert d.n_terms <= max_terms(n)

    def test_permutation_support_contained_in_operator_support(self):
        rng = np.random.default_rng(41)
        mask = rng.random((9, 9)) < 0.4
        mask = mask | mask.T
        np.fill_diagonal(mask, True)
        w = rng.uniform(0.5, 1.5, (9, 9)) * mask
        s = sinkhorn_knopp(w, tol=1e-14).operator
        d = birkhoff_decompose(s)
        a = s.dense()
        for _, perm in d.terms():
            assert all(a[m, perm[m]] > 0 for m in range(9))

    def test_rejects_non_doubly_stochastic(self):
        with pytest.raises(ValueError, match="not doubly stochastic"):
            birkhoff_decompose(np.array([[0.9, 0.1], [0.2, 0.8]]))

    def test_near_miss_input_decomposes_within_its_imbalance(self):
        # passes the 1e-8 gate; the 1e-9 excess is left as unmatchable residue
        s = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-9]])
        d = birkhoff_decompose(s)
        terms = sorted((float(a), p.tolist()) for a, p in d.terms())
        assert terms == [(0.5, [0, 1]), (0.5, [1, 0])]
        err = np.abs(reconstruct(d) - s).max()
        assert err == s[1, 1] - 0.5
        assert err == pytest.approx(verify_doubly_stochastic(s).residual, rel=1e-6)
        assert d.dust <= d.dust_bound

    # Demo kernels balanced to 1e-13 need thousands of terms; what those
    # subtractions leave must stay within the leftover bound.
    @staticmethod
    def _decomposes_at_default_tolerance(s):
        d = birkhoff_decompose(s)
        assert d.n_terms <= max_terms(s.n)
        assert np.abs(reconstruct(d) - s.dense()).max() <= 1e-10

    def test_default_tolerance_on_demo_kernel_grid(self):
        # one site per cell of an 8 x 12 grid, n=96
        i, j = np.meshgrid(np.arange(8), np.arange(12), indexing="ij")
        s = demo_kernel_operator((j.ravel() + 0.5) / 12, (i.ravel() + 0.5) / 8)
        self._decomposes_at_default_tolerance(s)

    def test_default_tolerance_on_demo_kernel_random_sites(self):
        u, v = np.random.default_rng(0).uniform(0.0, 1.0, (2, 150))
        self._decomposes_at_default_tolerance(demo_kernel_operator(u, v))

    def test_permutation_needs_no_repair(self):
        # the only term frees every row, and the first has no augmenting path;
        # the residual is exactly 0, and so is the block's measure
        d = birkhoff_decompose(np.eye(3)[[1, 2, 0]])
        assert d.repairs == 0
        assert d.dust == 0.0
        assert d.dust_bound == 0.0

    def test_uniform_two_by_two_counts(self):
        # identity first; each freed row is repaired by the one-edge path to
        # its off-diagonal column; the swap then leaves nothing to match,
        # and the block measures an exactly zero residual
        d = birkhoff_decompose(np.full((2, 2), 0.5))
        assert d.repairs == 2
        assert d.dust == 0.0
        assert d.dust_bound == 0.0

    def test_misrecorded_coefficient_is_caught(self, monkeypatch):
        # a fault that records one coefficient 1e-9 above what it subtracted:
        # far beyond the check's rounding term, though well inside the old
        # worst-case bound (3.3e-9 on this operator)
        g = build_weight_matrix(_sensor_geometry(64, np.random.default_rng(0)),
                                scale=1800.0, threshold=1e-4, self_loops=True)
        s = sinkhorn_knopp(g).operator
        assert birkhoff_decompose(s).dust <= 1e-10
        fsum = math.fsum
        monkeypatch.setattr(birkhoff, "math", SimpleNamespace(
            fsum=lambda terms: fsum([terms[0] + 1e-9] + terms[1:])))
        with pytest.raises(DecompositionError, match="misses the Koenig block"):
            birkhoff_decompose(s)

    def test_failed_first_matching_raises(self, monkeypatch):
        # no entry above a cut of 0.6: the first search fails, its block
        # measures the whole mass, and no 0-term decomposition comes back
        monkeypatch.setattr(birkhoff, "_CUT", 0.6)
        with pytest.raises(DecompositionError, match="no perfect matching"):
            birkhoff_decompose(np.full((2, 2), 0.5))

    def test_sparse_operator_needs_no_dense_residual(self):
        # 0.3 I + 0.7 P with P one cycle through all n vertices; a dense
        # residual alone would take 3.2 GB
        n = 20_000
        order = np.random.default_rng(0).permutation(n)
        cycle = np.empty(n, dtype=np.int64)
        cycle[order] = np.roll(order, -1)
        rows = np.arange(n)
        s = sp.csr_array((np.r_[np.full(n, 0.3), np.full(n, 0.7)],
                          (np.r_[rows, rows], np.r_[rows, cycle])), shape=(n, n))
        tracemalloc.start()
        try:
            d = birkhoff_decompose(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        terms = sorted((round(float(a), 12), p.tolist()) for a, p in d.terms())
        assert terms == [(0.3, rows.tolist()), (0.7, cycle.tolist())]


def _assert_round_trip(s, a):
    """Properties of the decomposition of ``s``, whose dense form is ``a``."""
    d = birkhoff_decompose(s)
    rebuilt = reconstruct(d)
    assert np.abs(rebuilt - a).max() <= 1e-10
    assert d.coefficients.min() > 0
    assert abs(d.coefficients.sum() - 1.0) <= 1e-12
    rows = np.arange(a.shape[0])
    assert all((a[rows, image] > 0).all() for image in d.permutations)
    assert d.dust <= d.dust_bound
    # the stop condition: no perfect matching is left above the cut
    left = maximum_bipartite_matching(sp.csr_array(a - rebuilt > _CUT), perm_type="column")
    assert (left < 0).any()


def _permutation_mixture(rng, n, k):
    weights = rng.uniform(0.05, 1.0, k)
    a = np.zeros((n, n))
    for w in weights / weights.sum():
        a[np.arange(n), rng.permutation(n)] += w
    return a


@given(n=st.integers(50, 300), k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       sparse=st.booleans())
@settings(max_examples=30)
def test_round_trip_on_permutation_mixtures(n, k, seed, sparse):
    a = _permutation_mixture(np.random.default_rng(seed), n, k)
    _assert_round_trip(sp.csr_array(a) if sparse else a, a)


@given(n=st.integers(50, 300), k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       sparse=st.booleans(), log_size=st.floats(-14.0, -9.0))
@settings(max_examples=30)
def test_leftover_bound_on_perturbed_mixtures(n, k, seed, sparse, log_size):
    # one more permutation's worth of entries in [0, size]: the imbalance is
    # at most size, and the entries at or below the cut are stranded
    rng = np.random.default_rng(seed)
    a = _permutation_mixture(rng, n, k)
    a[np.arange(n), rng.permutation(n)] += 10.0**log_size * rng.uniform(0.0, 1.0, n)
    check = verify_doubly_stochastic(a)
    assert check.passed
    d = birkhoff_decompose(sp.csr_array(a) if sparse else a)
    assert d.dust <= d.dust_bound
    assert np.abs(reconstruct(d) - a).max() <= 2 * d.dust_bound + check.residual


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (64, 150) for seed in range(4)])
def test_default_pipeline_on_demo_operators(n, seed, monkeypatch):
    # the sensor demo's sites and kernel, balanced and decomposed at the defaults
    g = build_weight_matrix(_sensor_geometry(n, np.random.default_rng(seed)),
                            scale=1800.0, threshold=1e-4, self_loops=True)
    s = sinkhorn_knopp(g).operator
    augmenters = []

    class Spy(birkhoff._Augmenter):
        def __init__(self, *args):
            super().__init__(*args)
            augmenters.append(self)

    monkeypatch.setattr(birkhoff, "_Augmenter", Spy)
    d = birkhoff_decompose(s)
    r = verify_doubly_stochastic(s).residual
    assert np.abs(reconstruct(d) - s.dense()).max() <= 10 * (r + d.n_terms * EPS)
    assert d.dust <= d.dust_bound
    assert d.n_terms <= max_terms(n)
    # the failed search's Koenig block: |I| + |J| = n + 1, and the rows I
    # hold nothing above the cut in the columns J
    (aug,) = augmenters
    assert len(aug.rows) + n - len(aug.cols) == n + 1
    residual = sp.csr_array((aug.data, aug.indices, aug.indptr), shape=(n, n)).toarray()
    outside = np.setdiff1d(np.arange(n), aug.cols)
    assert (residual[np.ix_(aug.rows, outside)] <= _CUT).all()


def test_round_trip_on_demo_kernel():
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    s = demo_kernel_operator((j.ravel() + 0.5) / 8, (i.ravel() + 0.5) / 8)
    _assert_round_trip(s, s.dense())


class TestReconstruct:
    def test_identity_single_term(self):
        d = birkhoff_decompose(np.eye(4))
        assert np.array_equal(reconstruct(d), np.eye(4))

    def test_two_term_average(self):
        d = birkhoff_decompose(np.full((2, 2), 0.5))
        assert np.allclose(reconstruct(d, n=2), np.full((2, 2), 0.5), atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        d = birkhoff_decompose(np.eye(3))
        with pytest.raises(ValueError, match="act on 3 elements"):
            reconstruct(d, n=4)

    def test_reconstruction_is_doubly_stochastic(self):
        from dsshift import verify_doubly_stochastic

        d = birkhoff_decompose(balanced_operator(7, seed=60, tol=1e-14))
        assert verify_doubly_stochastic(reconstruct(d), tol=1e-10).passed
