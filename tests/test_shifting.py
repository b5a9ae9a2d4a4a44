import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dsshift import (
    DSOperator,
    apply_filter,
    apply_shift,
    diffuse,
    diffusion_convergence,
    matrix_norm,
    wss_check,
)

from conftest import balanced_operator

UNIFORM2 = DSOperator(np.full((2, 2), 0.5))


class TestApplyShift:
    def test_identity_operator(self):
        x = np.array([3.0, -1.0, 2.5])
        assert np.array_equal(apply_shift(np.eye(3), x), x)

    def test_uniform_averaging(self):
        assert apply_shift(UNIFORM2, [0.0, 2.0]).tolist() == [1.0, 1.0]

    def test_hand_product_and_l1_isometry(self, small_operator):
        y = apply_shift(small_operator, [3.0, 0.0])
        assert np.allclose(y, [1.0, 2.0], atol=1e-12)
        assert np.abs(y).sum() == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_shift(UNIFORM2, [1.0, 2.0, 3.0])


class TestApplyFilter:
    def test_zeroth_order_identity(self, small_operator):
        x = np.array([1.0, -2.0])
        assert np.array_equal(apply_filter(small_operator, [1.0], x), x)

    def test_first_order_equals_shift_exactly(self, small_operator):
        x = np.array([0.3, 1.7])
        y = apply_filter(small_operator, [0.0, 1.0], x)
        assert np.array_equal(y, apply_shift(small_operator, x))

    def test_hand_evaluated_average(self):
        y = apply_filter(UNIFORM2, [0.5, 0.5], [0.0, 2.0])
        assert y.tolist() == [0.5, 1.5]

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            apply_filter(UNIFORM2, [], [1.0, 2.0])

    def test_matches_explicit_power_expansion(self):
        s = balanced_operator(6, seed=21)
        rng = np.random.default_rng(22)
        h = rng.standard_normal(5)
        x = rng.standard_normal(6)
        a = s.dense()
        expected = sum(h[k] * np.linalg.matrix_power(a, k) @ x for k in range(5))
        assert np.allclose(apply_filter(s, h, x), expected, atol=1e-12)


class TestDiffuse:
    def test_zero_steps_returns_copy(self):
        x = np.array([1.0, 2.0])
        y = diffuse(UNIFORM2, x, 0)
        assert np.array_equal(y, x)
        assert y is not x

    def test_rank_one_projector_stabilizes_after_one_step(self):
        for k in (1, 2, 5):
            assert diffuse(UNIFORM2, [0.0, 2.0], k).tolist() == [1.0, 1.0]

    def test_second_eigenvalue_decay(self, small_operator):
        # second eigenvalue is -1/3, so the residual decays as 3**-k
        y = diffuse(small_operator, [3.0, 0.0], 20)
        assert np.abs(y - 1.5).max() <= 1e-4

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            diffuse(UNIFORM2, [1.0, 2.0], -1)


class TestMatrixNorm:
    def test_doubly_stochastic_norms_are_unity(self):
        s = balanced_operator(10, seed=23)
        for p in (1, 2, np.inf):
            assert matrix_norm(s, p) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_matrix(self):
        a = np.diag([3.0, -4.0])
        assert matrix_norm(a, 1) == 4.0
        assert matrix_norm(a, np.inf) == 4.0
        assert matrix_norm(a, 2) == pytest.approx(4.0, abs=1e-8)

    def test_nilpotent_matrix(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert matrix_norm(a, 1) == 2.0
        assert matrix_norm(a, np.inf) == 2.0
        assert matrix_norm(a, 2) == pytest.approx(2.0, abs=1e-10)

    def test_power_iteration_against_svd(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            a = rng.standard_normal((8, 8))
            assert matrix_norm(a, 2) == pytest.approx(
                np.linalg.norm(a, 2), rel=1e-8
            )

    def test_zero_matrix(self):
        assert matrix_norm(np.zeros((3, 3)), 2) == 0.0

    def test_one_by_one_and_zero_csr(self):
        assert matrix_norm(np.array([[-3.0]]), 2) == 3.0
        assert matrix_norm(sp.csr_array(np.array([[-3.0]])), 2) == 3.0
        assert matrix_norm(sp.csr_array((600, 600)), 2) == 0.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported norm"):
            matrix_norm(np.eye(2), 3)


class TestWSSCheck:
    def test_permutation_preserves_equicorrelated_structure(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        mu = np.full(3, 2.5)
        cov = 4.0 * (0.3 * np.ones((3, 3)) + 0.7 * np.eye(3))
        d = wss_check(p, mu, cov, tol=1e-12)
        assert d.passed
        assert d.mean_residual == 0.0
        assert d.covariance_residual == 0.0

    def test_nonuniform_mean_fails(self):
        d = wss_check(UNIFORM2, [1.0, 2.0], np.eye(2) * 0.0, tol=1e-6)
        assert d.mean_residual == pytest.approx(0.5)
        assert not d.passed

    def test_identity_covariance_fails_under_averaging(self):
        d = wss_check(UNIFORM2, [0.0, 0.0], np.eye(2), tol=1e-6)
        assert d.covariance_residual == pytest.approx(0.5)
        assert not d.passed

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            wss_check(UNIFORM2, [0.0, 0.0], cov, tol=1e-6)


class TestDiffusionConvergence:
    def test_positive_operator_converges(self):
        s = balanced_operator(12, seed=25)
        rng = np.random.default_rng(26)
        r = diffusion_convergence(s, rng.standard_normal(12), tol=1e-8)
        assert r.converged
        assert r.status == "converged"
        assert r.residual <= 1e-8

    def test_permutation_reported_non_convergent(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        r = diffusion_convergence(p, [1.0, 0.0, 0.0], tol=1e-8)
        assert not r.converged
        assert r.status == "non-convergent diffusion"

    def test_residual_non_increasing_for_positive_operator(self):
        s = balanced_operator(10, seed=27)
        rng = np.random.default_rng(28)
        x = rng.standard_normal(10)
        target = x.mean()
        residuals = []
        y = x
        for _ in range(50):
            y = apply_shift(s, y)
            residuals.append(np.abs(y - target).max())
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-15)
        assert residuals[-1] < 0.9 * residuals[0]


# Property tests over seeded random balanced operators.

operator_seeds = st.integers(min_value=0, max_value=200)
sizes = st.integers(min_value=2, max_value=16)


@given(sizes, operator_seeds)
@settings(max_examples=40)
def test_mean_preservation(n, seed):
    s = balanced_operator(n, seed, tol=1e-13)
    x = np.random.default_rng(seed + 1).standard_normal(n)
    assert abs(apply_shift(s, x).sum() - x.sum()) <= n * 1e-12


@given(sizes, operator_seeds)
@settings(max_examples=40)
def test_contraction_all_norms(n, seed):
    s = balanced_operator(n, seed)
    x = np.random.default_rng(seed + 2).standard_normal(n)
    y = apply_shift(s, x)
    for p in (1, 2, np.inf):
        assert np.linalg.norm(y, p) <= np.linalg.norm(x, p) + 1e-10


@given(sizes, operator_seeds)
@settings(max_examples=40)
def test_l1_isometry_on_nonnegative_signals(n, seed):
    s = balanced_operator(n, seed, tol=1e-13)
    x = np.random.default_rng(seed + 3).uniform(0.0, 5.0, n)
    assert abs(np.abs(apply_shift(s, x)).sum() - x.sum()) <= 1e-10


@given(sizes, operator_seeds, st.integers(min_value=0, max_value=8))
@settings(max_examples=40)
def test_filter_output_bounded_by_coefficient_mass(n, seed, order):
    s = balanced_operator(n, seed)
    rng = np.random.default_rng(seed + 4)
    h = rng.standard_normal(order + 1)
    x = rng.standard_normal(n)
    y = apply_filter(s, h, x)
    mass = np.abs(h).sum()
    for p in (1, 2, np.inf):
        assert np.linalg.norm(y, p) <= mass * np.linalg.norm(x, p) + 1e-10
