import numpy as np
import pytest

from dsshift import (
    DecompositionError,
    birkhoff_decompose,
    max_terms,
    perfect_matching,
    reconstruct,
    sinkhorn_knopp,
)

from conftest import balanced_operator, demo_kernel_operator


class TestPerfectMatching:
    def test_full_support_prefers_identity(self):
        image = perfect_matching(np.ones((3, 3), dtype=bool))
        assert image.tolist() == [0, 1, 2]

    def test_forced_unique_matching(self):
        support = np.array([[False, True], [True, True]])
        assert perfect_matching(support).tolist() == [1, 0]

    def test_augmenting_path_required(self):
        # greedy seeding assigns row 0 to column 0; row 2 then needs an
        # augmenting path through rows 0 and 1
        support = np.array(
            [
                [True, True, False],
                [False, False, True],
                [True, False, False],
            ]
        )
        image = perfect_matching(support)
        assert image.tolist() == [1, 2, 0]

    def test_no_matching_returns_none(self):
        support = np.array([[True, True], [False, False]])
        assert perfect_matching(support) is None

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        support = rng.random((8, 8)) < 0.5
        np.fill_diagonal(support, True)
        first = perfect_matching(support)
        for _ in range(3):
            assert np.array_equal(perfect_matching(support), first)

    def test_long_chain_needs_no_recursion(self):
        # every augmenting path runs the length of the chain
        n = 3000
        support = np.zeros((n, n), dtype=bool)
        i = np.arange(n - 1)
        support[i, i] = support[i, i + 1] = True
        support[n - 1, 0] = True
        assert np.array_equal(perfect_matching(support), (np.arange(n) + 1) % n)


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

    def test_near_miss_input_fails_with_decomposition_error(self):
        # passes the 1e-8 gate but carries 1e-9 of unmatchable mass
        s = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-9]])
        with pytest.raises(DecompositionError, match="no perfect matching"):
            birkhoff_decompose(s, zero_tol=1e-14)

    # Demo kernels balanced to 1e-13 need thousands of terms; what those
    # subtractions leave must count as dust at the default zero_tol.
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

    def test_zero_tol_validation(self):
        with pytest.raises(ValueError, match="zero_tol"):
            birkhoff_decompose(np.eye(2), zero_tol=0.0)

    def test_zero_tol_above_every_entry_fails(self):
        with pytest.raises(DecompositionError, match="zero_tol=0.6"):
            birkhoff_decompose(np.full((2, 2), 0.5), zero_tol=0.6)


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
