import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from dsshift import (
    DSOperator,
    NotConvergedError,
    UnbalanceableError,
    apply_shift,
    build_weight_matrix,
    matrix_norm,
    sinkhorn_knopp,
    validate_weights,
    verify_doubly_stochastic,
)
from dsshift import balance, graphs

from conftest import balanced_operator, demo_kernel, random_geometry, star


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
        # The start 1 / sqrt(mean(4 x 1)) = 1/2 balances 4 I: one iteration,
        # whose residual comes from the first and only product.
        result = sinkhorn_knopp(4.0 * np.eye(2))
        assert result.operator.iterations_used == result.matvecs == 1
        assert result.residual_history.tolist() == [0.0]
        assert result.row_scaling.tolist() == [0.5, 0.5]
        # On diag(a) each CG solve is exact after one step, so iteration k is
        # the scalar Newton step x <- x/2 + 1/(2 a x) on a x^2 = 1 per entry,
        # from the uniform start 1/sqrt(mean(a)), and costs two matvecs: one
        # CG step and one to evaluate the new iterate.
        a = np.array([1.0, 4.0])
        x, expected = np.full(2, 1 / np.sqrt(a.mean())), []
        while not expected or expected[-1] > 1e-10:
            expected.append(np.abs(1.0 - a * x * x).max())
            x = x / 2 + 1 / (2 * a * x)
        result = sinkhorn_knopp(np.diag(a))
        history = result.residual_history
        assert len(expected) == 6  # 0.6, then Newton's quadratic fall
        assert result.operator.iterations_used == len(history) == len(expected)
        assert result.matvecs == 1 + 2 * (len(expected) - 1)
        assert history[-1] == result.operator.tolerance_achieved <= 1e-10
        np.testing.assert_allclose(history[:-1], expected[:-1], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["dense", "csr", "kernel", "asymmetric dense",
                                      "asymmetric csr"])
    def test_matvecs_count_the_products_through_one_path(self, monkeypatch, kind):
        # every Newton product is the returned operator's, through graphs._product:
        # one call a matvec for a symmetric W, one each way (W, W.T) for the embedding
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 1.5, (40, 40)) * (rng.uniform(size=(40, 40)) < 0.3) + np.eye(40)
        if kind == "kernel":
            w = build_weight_matrix(random_geometry(650, 4), scale=2000.0, threshold=1e-4,
                                    self_loops=True)
            assert w._upper is not None  # a dense kernel kept as its upper triangle
        else:
            w = {"dense": a + a.T, "csr": sp.csr_array(a + a.T),
                 "asymmetric dense": a, "asymmetric csr": sp.csr_array(a)}[kind]
        calls = []
        product = graphs._product
        monkeypatch.setattr(graphs, "_product", lambda *args: calls.append(0) or product(*args))
        result = sinkhorn_knopp(w)
        assert result.matvecs > 1
        assert len(calls) == result.matvecs * (2 if kind.startswith("asymmetric") else 1)

    @pytest.mark.parametrize("kind", ["dense-demo", "csr", "asymmetric"])
    def test_balancing_does_not_depend_on_the_units_of_w(self, kind):
        # scaling W by a power of 4 scales every iterate exactly, from the start on
        rng = np.random.default_rng(0)
        if kind == "dense-demo":
            w = demo_kernel(*rng.uniform(0.0, 1.0, (2, 600))).weights
        elif kind == "csr":
            w = build_weight_matrix(random_geometry(600, 0), scale=800.0, threshold=1e-3,
                                    self_loops=True).weights
        else:
            w = rng.uniform(0.0, 1.0, (50, 50))
        assert isinstance(w, sp.csr_array) == (kind == "csr")
        base = sinkhorn_knopp(w)
        for k in (-10, 10):
            scaled = sinkhorn_knopp(4.0**k * w)
            assert np.array_equal(scaled.operator.dense(), base.operator.dense())
            assert scaled.operator.iterations_used == base.operator.iterations_used
            assert scaled.matvecs == base.matvecs

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

    def test_support_without_total_support_does_not_converge(self, monkeypatch):
        # the (0, 0) entry lies on no positive diagonal, so the scaling
        # spreads until the exact test names that entry, within 100 iterations
        monkeypatch.setattr(balance, "_MAX_ITERATIONS", 100)
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(UnbalanceableError,
                           match=r"^unbalanceable: entry \(0, 0\) is on no positive diagonal$"):
            sinkhorn_knopp(w, tol=1e-10)

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
        with pytest.raises(ValueError, match="nonnegative"):
            sinkhorn_knopp(np.array([[1.0, -0.1], [1.0, 1.0]]))


def _sparse_nonsymmetric():
    rng = np.random.default_rng(0)
    a = sp.random_array((2000, 2000), density=0.01, random_state=rng, format="csr")
    return sp.csr_array(a + sp.eye_array(2000, format="csr"))


class TestStoppingRules:
    """Balancing stops on the residual and the spread of the scaling: the
    exact total-support test rejects bad input, and a stalled residual ends
    a ``tol`` below rounding; the iteration backstop is never reached."""

    @pytest.mark.parametrize(
        "make, entry",
        [
            (lambda: np.array([[1.0, 1.0], [1.0, 0.0]]), (0, 0)),
            (lambda: sp.csr_array(np.triu(np.ones((2000, 2000)))), (0, 1)),
            (lambda: star(3), (0, 1)),
            (lambda: star(6), (0, 1)),
            (lambda: star(50), (0, 1)),
        ],
        ids=["two-by-two", "upper-triangular-csr-2000", "star-3", "star-6", "star-50"],
    )
    def test_no_total_support_rejected_within_100_iterations(self, monkeypatch, make, entry):
        # the stars have no positive diagonal at all: their CG meets zero curvature
        monkeypatch.setattr(balance, "_MAX_ITERATIONS", 100)
        w = make()
        with pytest.raises(UnbalanceableError) as exc_info:
            sinkhorn_knopp(w)
        assert str(exc_info.value) == validate_weights(w).issues[-1]
        assert f"entry {entry} " in str(exc_info.value)

    def test_exact_test_leaves_the_callers_csr_alone(self):
        # [[0, 3], [1, 1]] with (0, 1) stored twice; (1, 1) is on no positive diagonal
        w = sp.csr_matrix((np.array([1.0, 2.0, 1.0, 1.0]), np.array([1, 1, 0, 1]),
                           np.array([0, 2, 4])), shape=(2, 2))
        with pytest.raises(UnbalanceableError, match=r"entry \(1, 1\)"):
            sinkhorn_knopp(w)
        assert w.nnz == 4

    @pytest.mark.parametrize("n", [30, 50, 100])
    def test_upper_hessenberg_converges(self, n):
        # all ones on and above the subdiagonal: total support, wide scaling
        w = np.triu(np.ones((n, n)), -1)
        op = sinkhorn_knopp(w).operator
        assert verify_doubly_stochastic(op, tol=1e-10).passed
        assert np.array_equal(op.dense() == 0, w == 0)

    def test_tol_below_rounding_stalls(self):
        rng = np.random.default_rng(1)
        w = demo_kernel(*rng.uniform(0.0, 1.0, (2, 2000)))
        with pytest.raises(NotConvergedError) as exc_info:
            sinkhorn_knopp(w, tol=1e-17)
        assert exc_info.value.iterations <= 50
        assert 1e-17 < exc_info.value.residual <= 1e-15

    def test_stall_rule_waits_for_rounding_level(self):
        # scalings spread over 38 decades: the residual sits near 1 for more
        # than _STALL iterations in a row without improving, then converges
        w = np.diag(10.0 ** -np.arange(0, 40, 2))
        w[0, 1] = w[1, 0] = 1e-3
        result = sinkhorn_knopp(w)
        best = np.minimum.accumulate(result.residual_history)
        new_best = np.flatnonzero(np.r_[True, np.diff(best) < 0])
        assert np.diff(new_best).max() - 1 > balance._STALL
        assert verify_doubly_stochastic(result.operator, tol=1e-10).passed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verdict_agrees_with_validate_weights(self, n):
        # every support, random weights: converges exactly on total support,
        # else raises UnbalanceableError with validate_weights' issue
        rng = np.random.default_rng(n)
        for bits in range(2 ** (n * n)):
            support = (bits >> np.arange(n * n) & 1).reshape(n, n).astype(bool)
            w = rng.uniform(0.5, 1.5, (n, n)) * support
            d = validate_weights(w)
            try:
                result = sinkhorn_knopp(w)
            except UnbalanceableError as exc:
                assert not d.balanceable, support
                if d.zero_rows or d.zero_cols:  # named before any iteration
                    expected = [f"empty row(s) {list(d.zero_rows)}"] * bool(d.zero_rows)
                    expected += [f"empty column(s) {list(d.zero_cols)}"] * bool(d.zero_cols)
                    assert str(exc) == "unbalanceable: " + ", ".join(expected), support
                else:
                    assert d.issues[-1] in str(exc), support
            else:
                assert d.balanceable, support
                assert verify_doubly_stochastic(result.operator, tol=1e-10).passed


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

    def test_nan_tol_rejected_before_iterating(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            sinkhorn_knopp(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=np.nan)

    def test_each_matrix_checked_once(self, monkeypatch):
        # a Graph checks its weights when built; sinkhorn_knopp checks a raw
        # array through the Graph it copies it into, and neither pass is
        # repeated on the operator it builds; the kernel is in [0, 1] by
        # construction and is not checked at all
        from dsshift import Graph, build_weight_matrix, graphs

        calls = []

        def counting(a, what):
            calls.append(what)
            real(a, what)

        real = graphs._require_finite_nonnegative
        monkeypatch.setattr(graphs, "_require_finite_nonnegative", counting)
        sinkhorn_knopp(build_weight_matrix(random_geometry(8, seed=0), scale=2000.0))
        assert calls == []
        w = np.array([[1.0, 2.0], [2.0, 1.0]])
        sinkhorn_knopp(Graph(w))
        assert calls == ["weights"]
        sinkhorn_knopp(w)
        assert calls == ["weights", "weights"]
        DSOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert calls == ["weights", "weights", "operator"]


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

    @pytest.mark.parametrize("stored", ["writable", "read-only owner", "csr"])
    def test_callers_later_writes_do_not_reach_it(self, stored):
        w = np.array([[0.25, 0.75], [0.75, 0.25]])
        if stored == "csr":
            w = sp.csr_array(w)
        elif stored == "read-only owner":
            w.setflags(write=False)
        op = DSOperator(w)
        if stored == "csr":
            w.data[0] = np.nan
        else:
            w.setflags(write=True)
            w[0, 0] = np.nan
        assert op.dense().tolist() == [[0.25, 0.75], [0.75, 0.25]]
        assert apply_shift(op, [1.0, 1.0]).tolist() == [1.0, 1.0]

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


def _unformed_case(kind, n=60, seed=4):
    """A balanceable input of the given storage and symmetry: every diagonal
    entry positive, about half the others."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    if kind.endswith(" symmetric"):
        w = w + w.T
    return sp.csr_array(w) if kind.startswith("csr") else w


class TestUnformedOperator:
    """A balanced operator holds W, r and c; it forms S only when asked."""

    KINDS = ["dense symmetric", "dense asymmetric", "csr symmetric", "csr asymmetric"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matrix_is_the_scaling_formed_once(self, kind):
        from dsshift import Graph

        w = _unformed_case(kind)
        result = sinkhorn_knopp(w, tol=1e-12)
        op, r, c = result.operator, result.row_scaling, result.col_scaling
        checked = Graph(w).weights
        if sp.issparse(checked):
            want = sp.diags_array(r) @ checked @ sp.diags_array(c)
            got = op.matrix
            assert isinstance(got, sp.csr_array)
            for a, b in ((got.data, want.data), (got.indices, want.indices),
                         (got.indptr, want.indptr)):
                assert np.array_equal(a, b)
        else:
            want = r[:, None] * checked
            want *= c
            assert np.array_equal(op.matrix, want)
            assert not op.matrix.flags.writeable
        assert op.matrix is op.matrix
        assert verify_doubly_stochastic(op, tol=1e-12).passed

    @pytest.mark.parametrize("kind", KINDS)
    def test_products_rows_and_bounds_agree_with_the_formed_matrix(self, kind):
        from dsshift import apply_filter, diffuse, incoming_neighborhood, local_bounds, wss_check

        n = 60
        op = sinkhorn_knopp(_unformed_case(kind, n), tol=1e-12).operator
        s = op.matrix
        formed = DSOperator(s)  # a hand-built operator over the same S
        rng = np.random.default_rng(5)
        x, h = rng.uniform(0.5, 1.5, n), rng.uniform(0.0, 1.0, 5)

        def close(a, b):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)

        close(apply_shift(op, x), s @ x)
        close(apply_shift(pickle.loads(pickle.dumps(op)), x), s @ x)  # it pickles, as a DSOperator
        close(apply_filter(op, h, x), apply_filter(formed, h, x))
        close(diffuse(op, x, 4), diffuse(formed, x, 4))
        sigma = np.cov(rng.standard_normal((n, 2 * n)))  # 2-D products
        got, want = wss_check(op, x, sigma, 1.0), wss_check(formed, x, sigma, 1.0)
        close([got.mean_residual, got.covariance_residual],
              [want.mean_residual, want.covariance_residual])
        for m in range(0, n, 7):
            assert np.array_equal(op.row(m), formed.row(m))
            lb, lb_formed = local_bounds(op, m), local_bounds(formed, m)
            close([lb.lower, lb.upper, lb.total, lb.sum_sq],
                  [lb_formed.lower, lb_formed.upper, lb_formed.total, lb_formed.sum_sq])
            assert lb.size == lb_formed.size
            assert np.array_equal(incoming_neighborhood(op, m).members,
                                  incoming_neighborhood(formed, m).members)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sums_norms_and_min_entry_agree_with_the_formed_matrix(self, kind):
        n = 60
        op = sinkhorn_knopp(_unformed_case(kind, n), tol=1e-12).operator
        formed = DSOperator(op.matrix)  # a hand-built operator over the formed S
        rel = n * np.finfo(float).eps
        got, want = verify_doubly_stochastic(op), verify_doubly_stochastic(formed)
        assert got.passed == want.passed
        assert got.min_entry == want.min_entry
        # the residuals are |sum - 1| of sums near 1: n eps relative to the sums
        np.testing.assert_allclose([got.max_row_residual, got.max_col_residual],
                                   [want.max_row_residual, want.max_col_residual],
                                   rtol=0, atol=rel)
        for p in (1, 2, np.inf):
            np.testing.assert_allclose(matrix_norm(op, p), matrix_norm(formed, p), rtol=rel)

    def test_reads_hold_no_kernel_sized_array_and_keep_no_formed_matrix(self):
        import tracemalloc

        from scipy.sparse.linalg import svds  # noqa: F401  (imported before tracing)

        n = 1000
        u, v = np.random.default_rng(6).random((2, n))
        g = demo_kernel(u, v)
        w = g.weights
        assert not sp.issparse(w)
        op = sinkhorn_knopp(g, tol=1e-10).operator
        calls = {"verify": lambda: verify_doubly_stochastic(op, 1e-10),
                 "DSOperator": lambda: DSOperator(op)}
        calls.update({f"norm {p}": lambda p=p: matrix_norm(op, p) for p in (1, 2, np.inf)})
        peaks = {}
        tracemalloc.start()
        try:
            for name, call in calls.items():
                tracemalloc.reset_peak()
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < 0.25 * w.nbytes, peaks
        assert kept < 0.25 * w.nbytes  # no formed S stays on the operator

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("bad, text", [(np.nan, "finite"), (np.inf, "finite"),
                                           (-1.0, "nonnegative")])
    def test_raw_input_errors_keep_their_text(self, storage, bad, text):
        w = np.array([[1.0, 2.0], [bad, 1.0]])
        with pytest.raises(ValueError, match=f"^weights must be {text}$"):
            sinkhorn_knopp(sp.csr_array(w) if storage == "csr" else w)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_later_writes_do_not_reach_a_balanced_operator(self, storage):
        w = np.array([[1.0, 2.0], [2.0, 1.0]])
        raw = sp.csr_array(w) if storage == "csr" else w
        result = sinkhorn_knopp(raw)
        (raw.data if storage == "csr" else raw)[:] = np.nan
        result.row_scaling[:] = 0.0
        result.col_scaling[:] = 0.0
        np.testing.assert_allclose(apply_shift(result.operator, [1.0, 1.0]), [1.0, 1.0])
        np.testing.assert_allclose(result.operator.dense(), [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])

    def test_shifting_and_bounds_hold_no_second_kernel_sized_array(self):
        import tracemalloc

        from dsshift import apply_filter, diffuse, local_bounds

        n = 1000
        u, v = np.random.default_rng(6).random((2, n))
        g = demo_kernel(u, v)
        w = g.weights
        assert not sp.issparse(w)
        x = np.random.default_rng(7).random(n)
        tracemalloc.start()
        try:
            op = sinkhorn_knopp(g, tol=1e-10).operator
            diffuse(op, x, 5)
            apply_filter(op, [0.5, 0.3, 0.2], x)
            local_bounds(op, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * w.nbytes


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("check", ["verify", "wss", "diffusion"])
def test_tol_must_be_nonnegative(storage, check):
    from dsshift import diffusion_convergence, wss_check

    s = np.full((3, 3), 1 / 3)
    s = sp.csr_array(s) if storage == "csr" else s
    run = {"verify": lambda tol: verify_doubly_stochastic(s, tol),
           "wss": lambda tol: wss_check(s, np.ones(3), np.ones((3, 3)), tol),
           "diffusion": lambda tol: diffusion_convergence(s, [0.0, 1.0, 2.0], tol)}[check]
    for bad in (np.nan, -1e-12):
        with pytest.raises(ValueError, match=f"^tol must be nonnegative, got {bad}$"):
            run(bad)
    result = run(0.0)  # zero stays valid; these sums and products are exact
    assert result.converged if check == "diffusion" else result.passed
