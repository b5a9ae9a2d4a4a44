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
    validate_model_assignment,
    variance_upper_bound,
)

from conftest import balanced_operator

ROW_THIRDS = DSOperator(np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]]))


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

    def test_invalid_trials(self):
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.0)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_shift_stats(ROW_THIRDS, 0, model, trials=1)


class TestModelAssignment:
    def test_conflicting_overlap_rejected(self):
        s = balanced_operator(5, seed=74)
        nb0 = incoming_neighborhood(s, 0)
        nb1 = incoming_neighborhood(s, 1)
        pairs = [
            (nb0, RandomSignalModel(0.0, 1.0, 0.1)),
            (nb1, RandomSignalModel(0.5, 1.0, 0.1)),
        ]
        with pytest.raises(ValueError, match="conflicting models"):
            validate_model_assignment(pairs)

    def test_identical_models_allowed_on_overlap(self):
        s = balanced_operator(5, seed=75)
        model = RandomSignalModel(0.0, 1.0, 0.1)
        pairs = [(incoming_neighborhood(s, m), model) for m in range(5)]
        validate_model_assignment(pairs)

    def test_disjoint_neighborhoods_may_differ(self):
        a = Neighborhood(center=0, members=np.array([0, 1]), size=2)
        b = Neighborhood(center=2, members=np.array([2, 3]), size=2)
        validate_model_assignment(
            [(a, RandomSignalModel(0.0, 1.0, 0.0)), (b, RandomSignalModel(9.0, 2.0, 0.5))]
        )
