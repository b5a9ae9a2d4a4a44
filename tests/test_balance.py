import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from dsshift import (
    DSOperator,
    NotConvergedError,
    UnbalanceableError,
    apply_shift,
    matrix_norm,
    sinkhorn_knopp,
    verify_doubly_stochastic,
)

from conftest import balanced_operator, demo_kernel


class TestSinkhornKnopp:
    def test_permutation_fixed_point(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        result = sinkhorn_knopp(p)
        assert np.array_equal(result.operator.dense(), p)
        assert result.operator.iterations_used == 1

    def test_permutation_counters(self):
        # x = 1 already balances a permutation: one iteration, whose one
        # product with the embedding finds residual 0
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        result = sinkhorn_knopp(p)
        assert result.matvecs == 1
        assert result.residual_history.tolist() == [0.0]

    def test_counters_follow_newton_on_scaled_identity(self):
        # On 4 I each CG solve is exact after one step, so iteration k is the
        # scalar Newton step x <- x/2 + 1/(8x) on 4 x^2 = 1 and costs two
        # matvecs: one CG step and one to evaluate the new iterate.
        result = sinkhorn_knopp(4.0 * np.eye(2))
        x, expected = 1.0, []
        for _ in range(5):
            expected.append(abs(4.0 * x * x - 1.0))
            x = x / 2 + 1 / (8 * x)
        history = result.residual_history
        assert result.operator.iterations_used == len(history) == 6
        assert result.matvecs == 1 + 2 * 5
        assert history[-1] == result.operator.tolerance_achieved <= 1e-10
        np.testing.assert_allclose(history[:5], expected, rtol=1e-12)

    def test_all_ones_gives_uniform(self):
        s = sinkhorn_knopp(np.ones((2, 2))).operator.dense()
        assert np.allclose(s, 0.5, atol=1e-12)

    def test_hand_verified_fixed_point(self):
        # diag(d) [[1,2],[2,1]] diag(d) with 3 d^2 = 1 solves the symmetric
        # fixed point, so the balanced matrix is the input divided by 3.
        result = sinkhorn_knopp(np.array([[1.0, 2.0], [2.0, 1.0]]))
        expected = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        assert np.abs(result.operator.dense() - expected).max() <= 1e-10

    def test_scaling_vectors_reproduce_operator(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.5, 1.5, (7, 7))
        result = sinkhorn_knopp(w)
        rebuilt = result.row_scaling[:, None] * w * result.col_scaling[None, :]
        assert np.abs(rebuilt - result.operator.dense()).max() <= 1e-14
        assert result.row_scaling.min() > 0
        assert result.col_scaling.min() > 0

    def test_zero_row_rejected_before_iterating(self):
        w = np.ones((3, 3))
        w[1, :] = 0.0
        with pytest.raises(UnbalanceableError, match=r"empty row\(s\) \[1\]"):
            sinkhorn_knopp(w)

    def test_zero_column_rejected(self):
        w = np.ones((3, 3))
        w[:, 2] = 0.0
        with pytest.raises(UnbalanceableError, match="empty column"):
            sinkhorn_knopp(w)

    def test_support_without_total_support_does_not_converge(self):
        # the (0, 0) entry lies on no positive diagonal, so the column sums
        # approach 1 only at rate 1/k and the tolerance is unreachable
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotConvergedError) as exc_info:
            sinkhorn_knopp(w, tol=1e-10, max_iter=500)
        assert exc_info.value.residual > 1e-10
        assert exc_info.value.iterations == 500

    def test_zero_pattern_preserved_exactly(self):
        rng = np.random.default_rng(5)
        # symmetric support with a positive diagonal has total support
        mask = rng.random((10, 10)) < 0.4
        mask = mask | mask.T
        np.fill_diagonal(mask, True)
        w = rng.uniform(0.5, 1.5, (10, 10)) * mask
        s = sinkhorn_knopp(w).operator.dense()
        assert np.array_equal(s == 0, w == 0)

    def test_symmetric_input_gives_symmetric_operator(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.5, 1.5, (8, 8))
        w = (w + w.T) / 2
        s = sinkhorn_knopp(w, tol=1e-12).operator.dense()
        assert np.abs(s - s.T).max() <= 1e-10

    def test_idempotent_on_doubly_stochastic_input(self):
        s0 = balanced_operator(9, seed=8).dense()
        result = sinkhorn_knopp(s0, tol=1e-10)
        assert np.abs(result.row_scaling - 1.0).max() <= 1e-10
        assert np.abs(result.col_scaling - 1.0).max() <= 1e-10
        assert np.abs(result.operator.dense() - s0).max() <= 1e-10

    def test_spectral_norm_is_unity(self):
        s = balanced_operator(20, seed=9)
        for p in (1, 2, np.inf):
            assert matrix_norm(s, p) == pytest.approx(1.0, abs=1e-8)

    def test_invalid_parameters(self):
        w = np.ones((2, 2))
        with pytest.raises(ValueError, match="tol"):
            sinkhorn_knopp(w, tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            sinkhorn_knopp(w, max_iter=0)
        with pytest.raises(ValueError, match="nonnegative"):
            sinkhorn_knopp(np.array([[1.0, -0.1], [1.0, 1.0]]))


def _sparse_nonsymmetric():
    rng = np.random.default_rng(0)
    a = sp.random_array((2000, 2000), density=0.01, rng=rng, format="csr")
    return sp.csr_array(a + sp.eye_array(2000, format="csr"))


class TestHardInputs:
    """Inputs on which a Newton divergence guard could misfire."""

    @pytest.mark.parametrize(
        "make",
        [
            # the scaling must spread by 1e10
            lambda: np.diag([1e-20, 1.0]),
            # total support through a 1e-12 diagonal: spread 1e12
            lambda: np.array([[1e-12, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1e-12]]),
            # 1 % fill plus identity, balanced through the embedding
            _sparse_nonsymmetric,
            lambda: np.random.default_rng(1).random((500, 500)),
        ],
        ids=["diag-1e-20", "chain-1e-12", "csr-nonsymmetric-2000", "dense-nonsymmetric-500"],
    )
    def test_balances_with_exact_zero_pattern(self, make):
        w = make()
        op = sinkhorn_knopp(w, tol=1e-10).operator
        assert verify_doubly_stochastic(op, tol=1e-10).passed
        dense_w = w.toarray() if sp.issparse(w) else w
        assert np.array_equal(op.dense() == 0, dense_w == 0)


class TestLargeNProperties:
    """Invariants of balanced demo kernels at sizes where rounding builds up."""

    @settings(max_examples=8)
    @example(n=2000, seed=1, scale=1800.0, csr=False)
    @example(n=2000, seed=1, scale=1800.0, csr=True)
    @given(
        n=st.integers(600, 2000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([300.0, 800.0, 1800.0]),
        csr=st.booleans(),
    )
    def test_balanced_demo_kernel(self, n, seed, scale, csr):
        u, v = np.random.default_rng(seed).random((2, n))
        w = demo_kernel(u, v, scale).weights
        dense_w = w.toarray() if sp.issparse(w) else w
        op = sinkhorn_knopp(sp.csr_array(dense_w) if csr else dense_w, tol=1e-10).operator
        s = op.dense()
        assert sp.issparse(op.matrix) == csr
        assert verify_doubly_stochastic(op, tol=1e-10).passed
        assert np.array_equal(s == 0, dense_w == 0)
        assert np.abs(s - s.T).max() <= 1e-12
        x = np.random.default_rng(seed + 1).random(n)
        assert abs(np.abs(apply_shift(op, x)).sum() - x.sum()) <= 1e-10 * x.sum()


class TestSparsePipeline:
    def test_large_geometric_graph_stays_sparse_end_to_end(self):
        import scipy.sparse as sp

        from dsshift import VertexGeometry, apply_shift, build_weight_matrix

        rng = np.random.default_rng(0)
        n = 600  # above the dense storage limit
        geo = VertexGeometry(
            lat=45 + 0.1 * rng.random(n),
            lon=7 + 0.1 * rng.random(n),
            alt=rng.random(n),
        )
        g = build_weight_matrix(geo, scale=800.0, threshold=1e-3, self_loops=True)
        assert sp.issparse(g.weights)
        result = sinkhorn_knopp(g, tol=1e-10)
        assert sp.issparse(result.operator.matrix)
        assert verify_doubly_stochastic(result.operator, tol=1e-10).passed
        x = rng.standard_normal(n)
        y = apply_shift(result.operator, x)
        assert abs(y.sum() - x.sum()) <= n * 1e-10


    def test_dense_and_csr_storage_balance_alike(self):
        import scipy.sparse as sp

        from dsshift import VertexGeometry, build_weight_matrix

        rng = np.random.default_rng(3)
        n = 1000
        geo = VertexGeometry(
            lat=45 + 0.09 * rng.random(n), lon=7 + 0.127 * rng.random(n),
            alt=280 * rng.random(n),
        )
        w = build_weight_matrix(geo, scale=1800.0, threshold=1e-4, self_loops=True)
        assert not sp.issparse(w.weights)
        dense = sinkhorn_knopp(w.weights, tol=1e-10)
        csr = sinkhorn_knopp(sp.csr_matrix(w.weights), tol=1e-10)
        assert dense.operator.iterations_used == csr.operator.iterations_used
        diff = np.abs(dense.operator.dense() - csr.operator.dense()).max()
        assert diff <= 1e-12


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sinkhorn_rejects_before_sweeping(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sinkhorn_knopp(np.array([[1.0, bad], [2.0, 1.0]]))

    def test_sinkhorn_rejects_sparse_nan(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="finite"):
            sinkhorn_knopp(sp.csr_matrix(np.array([[1.0, np.nan], [0.0, 1.0]])))

    def test_operator_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DSOperator(np.array([[np.nan, 0.5], [0.5, 0.5]]))

    def test_each_matrix_checked_once(self, monkeypatch):
        # a Graph checks its weights when built; sinkhorn_knopp checks a raw
        # array, and neither pass is repeated on the operator it builds
        from dsshift import Graph, balance, graphs

        calls = []

        def counting(a, what):
            calls.append(what)
            real(a, what)

        real = graphs._require_finite_nonnegative
        monkeypatch.setattr(graphs, "_require_finite_nonnegative", counting)
        monkeypatch.setattr(balance, "_require_finite_nonnegative", counting)
        w = np.array([[1.0, 2.0], [2.0, 1.0]])
        sinkhorn_knopp(Graph(w))
        assert calls == ["weights"]
        sinkhorn_knopp(w)
        assert calls == ["weights", "weights"]


class TestVerifyDoublyStochastic:
    def test_identity_passes_with_zero_residual(self):
        d = verify_doubly_stochastic(np.eye(3), tol=1e-12)
        assert d.passed
        assert d.residual == 0.0
        assert d.min_entry == 0.0

    def test_column_imbalance_fails(self):
        d = verify_doubly_stochastic(np.array([[0.9, 0.1], [0.2, 0.8]]), tol=1e-6)
        assert not d.passed
        assert d.max_row_residual <= 1e-12
        assert d.max_col_residual == pytest.approx(0.1)

    def test_balancer_output_passes(self):
        rng = np.random.default_rng(10)
        s = sinkhorn_knopp(rng.uniform(0.1, 1.0, (10, 10)), tol=1e-10).operator
        assert verify_doubly_stochastic(s, tol=1e-10).passed

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            verify_doubly_stochastic(np.ones((2, 3)))


class TestDSOperator:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DSOperator(np.array([[1.1, -0.1], [-0.1, 1.1]]))

    def test_row_accessor(self):
        op = DSOperator(np.array([[0.25, 0.75], [0.75, 0.25]]))
        assert op.row(1).tolist() == [0.75, 0.25]
        assert op.n == 2

    def test_row_accessor_sparse_matches_dense(self):
        import scipy.sparse as sp

        a = np.array([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.75, 0.25]])
        op = DSOperator(sp.csr_matrix(a))
        for m in range(3):
            assert op.row(m).tolist() == a[m].tolist()
        for m in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                op.row(m)
