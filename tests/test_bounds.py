import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from dsshift import (
    DSOperator,
    Neighborhood,
    RandomSignalModel,
    amgm_bias_term,
    asymptotic_variance_bound,
    exact_shift_variance,
    incoming_neighborhood,
    kantorovich_bound,
    local_bounds,
    monte_carlo_shift_stats,
    sample_local_signal,
    shift_power_bounds,
    variance_upper_bound,
)
from dsshift import graphs
from dsshift.bounds import _BLOCK_VALUES, _CHUNK_VALUES

from conftest import balanced_operator

ROW_THIRDS = DSOperator(np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]]))


def one_row_operator(weights):
    """An n x n CSR whose row 0 holds ``weights`` and every other row is empty."""
    n = weights.size
    return sp.csr_array((weights, (np.zeros(n, int), np.arange(n))), shape=(n, n))


def neighborhood_of(n):
    return Neighborhood(center=0, members=np.arange(n), size=n)


@pytest.mark.parametrize("stored", [np.asarray, sp.csr_array])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: local_bounds(s, 0),
        lambda s: kantorovich_bound(s, 0),
        lambda s: variance_upper_bound(s, 0, 1.0, 0.5),
        lambda s: exact_shift_variance(s, 0, 1.0, 0.5),
        lambda s: monte_carlo_shift_stats(s, 0, RandomSignalModel(0.0, 1.0, 0.5), trials=10),
    ],
    ids=["local_bounds", "kantorovich", "variance_bound", "exact_variance", "monte_carlo"],
)
def test_non_square_operator_rejected(stored, call):
    with pytest.raises(ValueError, match="operator must be square"):
        call(stored(np.full((2, 3), 1 / 3)))


@pytest.mark.parametrize("stored", [np.asarray, sp.csr_array])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: local_bounds(s, 0),
        lambda s: kantorovich_bound(s, 0),
        lambda s: variance_upper_bound(s, 0, 1.0, 0.5),
        lambda s: exact_shift_variance(s, 0, 1.0, 0.5),
        lambda s: monte_carlo_shift_stats(s, 0, RandomSignalModel(0.0, 1.0, 0.5), trials=10),
        lambda s: incoming_neighborhood(s, 0),
    ],
    ids=["local_bounds", "kantorovich", "variance_bound", "exact_variance", "monte_carlo",
         "neighborhood"],
)
def test_bad_row_entry_rejected(stored, bad, call):
    # a NaN, infinite or negative entry is not silently left out of the row
    message = "row 0 must be nonnegative" if bad < 0 else "row 0 must be finite"
    with pytest.raises(ValueError, match=message):
        call(stored(np.array([[0.5, bad], [0.5, 0.5]])))


def test_csr_row_is_read_from_its_stored_slice():
    # a dense copy of one row alone takes 1.6 MB
    n = 200_000
    s = sp.diags_array([np.full(n - 1, 0.25), np.full(n, 0.5), np.full(n - 1, 0.25)],
                       offsets=[-1, 0, 1], format="csr")
    local_bounds(s, 7)
    tracemalloc.start()
    try:
        lb = local_bounds(s, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert (lb.lower, lb.upper, lb.size, lb.total) == (0.25, 0.5, 3, 1.0)


def test_non_canonical_csr_row_sums_repeats_in_storage_order():
    # unsorted columns, a repeated column and a stored zero, left as given
    data = np.array([0.1, 0.3, 0.7, 1e-17, 0.0, 0.2, 0.4, 0.3, 0.1])
    indices = np.array([1, 0, 1, 1, 0, 1, 1, 0, 0])
    s = sp.csr_matrix((data, indices, np.array([0, 5, 9])), shape=(2, 2))
    assert not s.has_canonical_format
    lb = local_bounds(s, 0)
    assert (lb.lower, lb.upper, lb.size) == (0.3, (0.1 + 0.7) + 1e-17, 2)
    assert incoming_neighborhood(s, 1).members.tolist() == [0, 1]
    assert local_bounds(s, 1).total == (0.2 + 0.4) + (0.3 + 0.1)


class TestLocalBounds:
    def test_uniform_row(self):
        s = np.full((4, 4), 0.25)
        lb = local_bounds(s, 0)
        assert lb.lower == lb.upper == 0.25
        assert lb.size == 4

    def test_two_entry_row(self):
        lb = local_bounds(ROW_THIRDS, 0)
        assert lb.lower == pytest.approx(1 / 3)
        assert lb.upper == pytest.approx(2 / 3)
        assert lb.total == pytest.approx(1.0)
        assert lb.sum_sq == pytest.approx(5 / 9)

    def test_matches_exhaustive_scan(self):
        s = balanced_operator(10, seed=70)
        a = s.dense()
        for m in range(10):
            row = [v for v in a[m] if v > 0]
            lb = local_bounds(s, m)
            assert lb.lower == min(row)
            assert lb.upper == max(row)
            assert lb.size == len(row)

    def test_empty_row_rejected(self):
        s = np.zeros((2, 2))
        s[1, 1] = 1.0
        with pytest.raises(ValueError, match="no positive entries"):
            local_bounds(s, 0)


class TestKantorovichBound:
    def test_uniform_row_attains_equality(self):
        for n in (2, 5, 10):
            s = np.full((n, n), 1.0 / n)
            bound = kantorovich_bound(s, 0)
            assert bound == pytest.approx(1.0 / n, abs=1e-15)
            assert (s[0] ** 2).sum() == pytest.approx(bound, abs=1e-12)

    def test_hand_arithmetic(self):
        # sum of squares 5/9 against bound (1/2) * 1 / (8/9) = 9/16
        bound = kantorovich_bound(ROW_THIRDS, 0)
        assert bound == pytest.approx(9 / 16, abs=1e-15)
        assert 5 / 9 <= bound

    def test_dominates_sum_of_squares_on_every_row(self):
        s = balanced_operator(16, seed=71)
        a = s.dense()
        for m in range(16):
            assert (a[m] ** 2).sum() <= kantorovich_bound(s, m) < 1.0


class TestVarianceBounds:
    def test_zero_sigma(self):
        assert variance_upper_bound(ROW_THIRDS, 0, sigma=0.0, rho=0.5) == 0.0

    def test_iid_uniform_row(self):
        s = np.full((8, 8), 1.0 / 8)
        assert variance_upper_bound(s, 0, sigma=1.0, rho=0.0) == pytest.approx(1 / 8)

    def test_hand_arithmetic(self):
        v = variance_upper_bound(ROW_THIRDS, 0, sigma=1.0, rho=0.5)
        assert v == pytest.approx(10 / 9, abs=1e-12)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError, match="rho"):
            variance_upper_bound(ROW_THIRDS, 0, sigma=1.0, rho=1.5)

    def test_exact_iid_value(self):
        v = exact_shift_variance(ROW_THIRDS, 0, sigma=1.0, rho=0.0)
        assert v == pytest.approx(5 / 9, abs=1e-12)

    def test_exact_perfect_correlation_is_unit(self):
        for seed in range(3):
            s = balanced_operator(6, seed=seed)
            v = exact_shift_variance(s, 2, sigma=1.0, rho=1.0)
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_exact_below_upper_bound_everywhere(self):
        s = balanced_operator(12, seed=72)
        for m in range(12):
            for rho in (0.0, 0.25, 0.5, 1.0):
                exact = exact_shift_variance(s, m, 1.3, rho)
                assert exact <= variance_upper_bound(s, m, 1.3, rho) + 1e-12


class TestAsymptoticBounds:
    def test_iid_bound_vanishes(self):
        assert asymptotic_variance_bound(2.0, 0.0, 0.1, 0.4) == 0.0

    def test_equal_entry_bounds(self):
        assert asymptotic_variance_bound(1.0, 0.5, 0.2, 0.2) == pytest.approx(0.5)

    def test_hand_arithmetic(self):
        v = asymptotic_variance_bound(2.0, 0.25, 0.1, 0.4)
        assert v == pytest.approx(1.5625, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError, match=r"0 < L <= U"):
            asymptotic_variance_bound(1.0, 0.5, 0.0, 0.4)
        with pytest.raises(ValueError, match="below 1"):
            asymptotic_variance_bound(1.0, 0.5, 0.5, 1.0)

    def test_power_bounds_collapse_for_iid(self):
        pb = shift_power_bounds(3.0, 2.0, 0.0, 0.1, 0.4)
        assert pb.lower == pb.upper == 9.0

    def test_power_bounds_hand_values(self):
        pb = shift_power_bounds(2.0, 1.0, 0.5, 0.3, 0.3)
        assert pb.lower == 4.0
        assert pb.upper == pytest.approx(4.5)
        pb = shift_power_bounds(1.0, 2.0, 0.25, 0.1, 0.4)
        assert pb.upper == pytest.approx(2.5625, abs=1e-12)


class TestAMGMBiasTerm:
    def test_equality_at_equal_bounds(self):
        assert amgm_bias_term(0.3, 0.3) == 1.0

    def test_hand_value(self):
        assert amgm_bias_term(1.0, 4.0) == pytest.approx(25 / 16)

    def test_at_least_one_and_monotone_in_ratio(self):
        ratios = np.linspace(1.0, 50.0, 200)
        values = [amgm_bias_term(0.01, 0.01 * t) for t in ratios]
        assert values[0] == pytest.approx(1.0)
        assert all(v >= 1.0 for v in values)
        assert np.all(np.diff(values) >= 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            amgm_bias_term(0.0, 0.5)
        with pytest.raises(ValueError):
            amgm_bias_term(0.5, 0.2)


class TestRandomSignalModel:
    def test_invalid_moments_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            RandomSignalModel(0.0, -1.0, 0.0)
        with pytest.raises(ValueError, match="rho"):
            RandomSignalModel(0.0, 1.0, -0.2)
        with pytest.raises(ValueError, match="rho"):
            RandomSignalModel(0.0, 1.0, 1.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_moments_rejected(self, bad):
        # a NaN sigma passed ``sigma < 0`` and made every statistic NaN
        with pytest.raises(ValueError, match=f"^sigma must be finite and nonnegative, got {bad}"):
            RandomSignalModel(0.0, bad, 0.5)
        with pytest.raises(ValueError, match=f"^mu must be finite, got {bad}"):
            RandomSignalModel(bad, 1.0, 0.5)
        with pytest.raises(ValueError, match=f"^mu must be finite, got {bad}"):
            shift_power_bounds(bad, 1.0, 0.5, 0.3, 0.3)
        with pytest.raises(ValueError, match="^sigma must be finite"):
            exact_shift_variance(np.full((2, 2), 0.5), 0, bad, 0.5)


class TestSampleLocalSignal:
    def test_zero_sigma_is_constant(self):
        model = RandomSignalModel(mu=3.5, sigma=0.0, rho=0.4)
        x = sample_local_signal(model, neighborhood_of(6), rng=0)
        assert np.array_equal(x, np.full(6, 3.5))

    def test_full_correlation_gives_identical_members(self):
        model = RandomSignalModel(mu=0.0, sigma=2.0, rho=1.0)
        x = sample_local_signal(model, neighborhood_of(5), rng=1, size=100)
        assert np.all(np.ptp(x, axis=1) == 0.0)

    def test_empirical_moments(self):
        model = RandomSignalModel(mu=1.0, sigma=2.0, rho=0.3)
        x = sample_local_signal(model, neighborhood_of(4), rng=2, size=100_000)
        assert x.mean() == pytest.approx(1.0, abs=0.03)
        assert x.std() == pytest.approx(2.0, abs=0.03)
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off - 0.3).max() <= 0.01


class TestMonteCarloShiftStats:
    def test_zero_sigma_exact(self):
        model = RandomSignalModel(mu=2.0, sigma=0.0, rho=0.0)
        st = monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=100, seed=0)
        assert st.mean == 2.0
        assert st.variance == 0.0
        assert st.power == 4.0

    def test_iid_uniform_row_variance(self):
        n = 16
        s = np.full((n, n), 1.0 / n)
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.0)
        st = monte_carlo_shift_stats(s, 0, model, trials=50_000, seed=3)
        assert abs(st.variance - 1.0 / n) <= 3 * st.stderr_variance

    def test_correlated_row_matches_closed_form(self):
        # exact value 5/9 + 0.5 * 4/9 = 7/9
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.5)
        st = monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=50_000, seed=4)
        exact = exact_shift_variance(ROW_THIRDS, 0, 1.0, 0.5)
        assert exact == pytest.approx(7 / 9, abs=1e-12)
        assert abs(st.variance - exact) <= 3 * st.stderr_variance

    def test_bias_within_stderr(self):
        s = balanced_operator(9, seed=73)
        model = RandomSignalModel(mu=-1.7, sigma=1.5, rho=0.4)
        st = monte_carlo_shift_stats(s, 4, model, trials=50_000, seed=5)
        assert abs(st.mean - model.mu) <= 4 * st.stderr_mean

    def test_power_decomposition(self):
        model = RandomSignalModel(mu=1.0, sigma=1.0, rho=0.2)
        st = monte_carlo_shift_stats(ROW_THIRDS, 1, model, trials=50_000, seed=6)
        gap = abs(st.power - (st.mean**2 + st.variance))
        assert gap <= 4 * (st.stderr_power + st.stderr_variance)

    def test_deterministic_for_fixed_seed(self):
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.3)
        a = monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=5_000, seed=7)
        b = monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=5_000, seed=7)
        assert a == b

    def test_equals_shifting_the_sampled_signal(self):
        # The explicit path: draw the signals block by block with
        # sample_local_signal, each block from its own spawned SFC64 stream,
        # and shift them.
        s = balanced_operator(40, seed=74)
        model = RandomSignalModel(mu=1.0, sigma=1.5, rho=0.3)
        members = np.arange(40)
        weights = s.dense()[0]
        block = _BLOCK_VALUES // 41
        trials = 2 * block + 17  # two full blocks and a partial one
        starts = range(0, trials, block)
        gens = [np.random.Generator(np.random.SFC64(s))
                for s in np.random.SeedSequence(8).spawn(len(starts))]
        shifted = np.concatenate([
            sample_local_signal(model, Neighborhood(0, members, 40), gen,
                                size=min(block, trials - done)) @ weights
            for done, gen in zip(starts, gens)
        ])
        st = monte_carlo_shift_stats(s, 0, model, trials=trials, seed=8)
        assert st.trials == trials
        assert st.mean == pytest.approx(shifted.mean(), rel=1e-12)
        assert st.variance == pytest.approx(shifted.var(ddof=1), rel=1e-12)
        assert st.power == pytest.approx((shifted**2).mean(), rel=1e-12)

    @pytest.mark.parametrize("trials, blocks", [
        (2 * (_BLOCK_VALUES // 41) + 17, 3), (_BLOCK_VALUES // 41, 1), (2, 1),
    ])
    def test_reports_its_blocks(self, trials, blocks):
        s = balanced_operator(40, seed=74)
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.3)
        assert monte_carlo_shift_stats(s, 0, model, trials=trials).blocks == blocks

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        s = np.full((2000, 2000), 1 / 2000)
        model = RandomSignalModel(mu=0.5, sigma=1.0, rho=0.3)
        trials = 16 * (_BLOCK_VALUES // 2001) + 5
        runs = []
        for workers in (1, 2, 3, 16):
            monkeypatch.setattr(graphs, "_WORKERS", workers)
            runs.append(monte_carlo_shift_stats(s, 0, model, trials=trials, seed=9))
        assert runs[0].blocks == 17
        assert runs[0] == runs[1] == runs[2] == runs[3]
        assert runs[0] == monte_carlo_shift_stats(s, 0, model, trials=trials, seed=9)

    @pytest.mark.parametrize("size, trials", [
        (40, 2 * (_BLOCK_VALUES // 41) + 17),  # 799-row chunks: 8 and a 1-row one a block
        (40, 500),  # one partial chunk
        (40_000, 15),  # a row wider than a chunk: 6-row blocks of 1-row chunks
    ])
    def test_chunked_draws_equal_the_block_drawn_whole(self, size, trials):
        weights = np.random.default_rng(size).uniform(0.5, 1.5, size) / size
        model = RandomSignalModel(mu=1.0, sigma=1.5, rho=0.3)
        block = _BLOCK_VALUES // (size + 1)
        one_row_chunks = size + 1 > _CHUNK_VALUES
        assert trials % block and (one_row_chunks or trials % (_CHUNK_VALUES // (size + 1)))
        total = weights.sum()
        shifted = np.concatenate([
            model.mu * total + model.sigma * (np.sqrt(model.rho) * total * z[:, 0]
                                              + np.sqrt(1.0 - model.rho) * (z[:, 1:] @ weights))
            for k, s in enumerate(np.random.SeedSequence(10).spawn(-(-trials // block)))
            for z in [np.random.Generator(np.random.SFC64(s)).standard_normal(
                (min(block, trials - k * block), size + 1))]
        ])
        st = monte_carlo_shift_stats(one_row_operator(weights), 0, model, trials=trials, seed=10)
        assert st.blocks == -(-trials // block)
        assert st.mean == pytest.approx(shifted.mean(), rel=1e-12)
        assert st.variance == pytest.approx(shifted.var(ddof=1), rel=1e-12)
        assert st.power == pytest.approx((shifted**2).mean(), rel=1e-12)

    def test_draws_in_flight_stay_within_a_chunk_per_worker(self, monkeypatch):
        # 2 workers: two 256 KB buffers besides the 160 KB of results and of
        # their squares; whole 2 MB blocks took 4.5 MB
        s = one_row_operator(np.full(2000, 1 / 2000))
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.3)
        monkeypatch.setattr(graphs, "_WORKERS", 2)
        monte_carlo_shift_stats(s, 0, model, trials=1000)
        tracemalloc.start()
        try:
            st = monte_carlo_shift_stats(s, 0, model, trials=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.blocks == 153
        assert peak < 1.25e6

    def test_blocks_in_flight_stay_within_32_mb(self):
        assert 1 <= graphs._WORKERS and graphs._WORKERS * _BLOCK_VALUES * 8 <= 32 << 20

    def test_runs_under_the_callers_errstate(self):
        # a worker thread starts from numpy's defaults, which only warn on
        # overflow; the warning, made an error here, would escape instead
        model = RandomSignalModel(mu=0.0, sigma=1e308, rho=0.5)
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=1000)

    def test_leaves_no_thread_running(self):
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.3)
        before = threading.active_count()
        st = monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=4 * (_BLOCK_VALUES // 3))
        assert st.blocks == 4
        assert threading.active_count() == before

    def test_invalid_trials(self):
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.0)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=1)

    @pytest.mark.parametrize("trials", [2.5, 3.0, np.float64(10.0), True, "10", None], ids=repr)
    def test_non_integer_trials(self, trials):
        # a count of trials is a Python or numpy integer, checked before any draw
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.0)
        with pytest.raises(ValueError, match="^trials must be an integer of at least 2, got"):
            monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=trials)
        assert (monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=np.int64(10))
                == monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=10))
