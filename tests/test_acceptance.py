"""Acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints one pass/fail line (visible with ``pytest -s``).
"""

import time
from functools import lru_cache

import numpy as np

from dsshift import (
    RandomSignalModel,
    SensorFieldConfig,
    amgm_bias_term,
    apply_filter,
    apply_shift,
    birkhoff_decompose,
    build_weight_matrix,
    diffuse,
    exact_shift_variance,
    kantorovich_bound,
    local_bounds,
    matrix_norm,
    max_terms,
    monte_carlo_shift_stats,
    reconstruct,
    run_sensor_demo,
    shift_power_bounds,
    sinkhorn_knopp,
    variance_upper_bound,
    verify_doubly_stochastic,
)
from dsshift.demo import _sensor_geometry

RHO_GRID = (0.0, 0.3, 0.7)
SIGMA_GRID = (0.5, 2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


@lru_cache(maxsize=None)
def _balanced_family_100():
    """100 random positive matrices, N in 4..64, balanced at 1e-10."""
    rng = np.random.default_rng(101)
    family = []
    for _ in range(100):
        n = int(rng.integers(4, 65))
        w = rng.uniform(0.5, 1.5, (n, n))
        family.append((w, sinkhorn_knopp(w, tol=1e-10)))
    return family


@lru_cache(maxsize=None)
def _tight_family_50():
    """50 operators balanced at 1e-13 for the exact-arithmetic criteria."""
    rng = np.random.default_rng(202)
    family = []
    for _ in range(50):
        n = int(rng.integers(4, 65))
        w = rng.uniform(0.5, 1.5, (n, n))
        family.append(sinkhorn_knopp(w, tol=1e-13).operator)
    return family


@lru_cache(maxsize=None)
def _birkhoff_family_50():
    """50 operators with N <= 16 for the decomposition round trip.

    Balanced to 1e-14, so the reconstruction error of criterion 07 measures
    the decomposition rather than the balancing residual.
    """
    rng = np.random.default_rng(303)
    family = []
    for _ in range(50):
        n = int(rng.integers(2, 17))
        w = rng.uniform(0.5, 1.5, (n, n))
        family.append(sinkhorn_knopp(w, tol=1e-14).operator)
    return family


def test_criterion_01_balancing_correctness():
    start = time.monotonic()
    family = _balanced_family_100()
    elapsed = time.monotonic() - start
    worst = 0.0
    patterns_ok = True
    for w, result in family:
        diag = verify_doubly_stochastic(result.operator, tol=1e-10)
        worst = max(worst, diag.residual)
        assert result.operator.iterations_used <= 10_000
        patterns_ok &= bool(np.array_equal(result.operator.dense() == 0, w == 0))
    ok = worst <= 1e-10 and patterns_ok and elapsed < 10.0
    _report(
        1,
        ok,
        f"100 matrices balanced, worst residual {worst:.2e}, "
        f"zero patterns exact, {elapsed:.2f} s",
    )


def test_criterion_02_hand_verified_fixed_point():
    s = sinkhorn_knopp(np.array([[1.0, 2.0], [2.0, 1.0]])).operator.dense()
    err = float(np.abs(s - np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])).max())
    _report(2, err <= 1e-10, f"[[1,2],[2,1]] balances to thirds, error {err:.2e}")


def test_criterion_03_operator_norms_unity():
    worst = 0.0
    for _, result in _balanced_family_100():
        for p in (1, 2, np.inf):
            worst = max(worst, abs(matrix_norm(result.operator, p) - 1.0))
    _report(3, worst <= 1e-8, f"L1/L2/Linf norms on 100 operators, worst |n-1| {worst:.2e}")


def test_criterion_04_mean_preservation_and_contraction():
    operators = _tight_family_50()
    rng = np.random.default_rng(404)
    worst_mean = 0.0
    contraction_ok = True
    pairs = 0
    for op in operators:
        n = op.n
        for _ in range(20):
            x = rng.standard_normal(n)
            y = apply_shift(op, x)
            worst_mean = max(worst_mean, abs(y.sum() - x.sum()) / (n * 1e-12))
            for p in (1, 2, np.inf):
                contraction_ok &= bool(
                    np.linalg.norm(y, p) <= np.linalg.norm(x, p) + 1e-10
                )
            pairs += 1
    ok = worst_mean <= 1.0 and contraction_ok and pairs == 1000
    _report(
        4,
        ok,
        f"{pairs} (S, x) pairs, worst mean drift {worst_mean:.3f} of the "
        "N*1e-12 budget, all norms contracted",
    )


def test_criterion_05_l1_isometry_nonnegative():
    operators = _tight_family_50()
    rng = np.random.default_rng(505)
    worst = 0.0
    pairs = 0
    for op in operators:
        for _ in range(20):
            x = rng.uniform(0.0, 5.0, op.n)
            y = apply_shift(op, x)
            worst = max(worst, abs(np.abs(y).sum() - x.sum()))
            pairs += 1
    _report(5, worst <= 1e-10 and pairs == 1000, f"1000 nonnegative signals, worst |dL1| {worst:.2e}")


def test_criterion_06_diffusion_limit():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 33))
        w = rng.uniform(0.5, 1.5, (n, n))
        op = sinkhorn_knopp(w, tol=1e-12).operator
        assert op.dense().min() > 0
        x = rng.standard_normal(n)
        y = diffuse(op, x, 200)
        worst = max(worst, float(np.abs(y - x.mean()).max()))
    _report(6, worst <= 1e-6, f"strictly positive operators, worst residual at k=200: {worst:.2e}")


def test_criterion_07_birkhoff_round_trip():
    start = time.monotonic()
    worst_err = 0.0
    worst_sum = 0.0
    bound_ok = True
    for op in _birkhoff_family_50():
        d = birkhoff_decompose(op)
        worst_err = max(worst_err, float(np.abs(reconstruct(d) - op.dense()).max()))
        worst_sum = max(worst_sum, abs(float(d.coefficients.sum()) - 1.0))
        bound_ok &= d.n_terms <= max_terms(op.n)
    elapsed = time.monotonic() - start
    ok = worst_err <= 1e-8 and worst_sum <= 1e-10 and bound_ok and elapsed < 30.0
    _report(
        7,
        ok,
        f"50 decompositions, worst reconstruction error {worst_err:.2e}, "
        f"worst |sum(a)-1| {worst_sum:.2e}, term bound held, {elapsed:.2f} s",
    )


def test_criterion_08_kantorovich_chain():
    chain_ok = True
    worst_bound = 0.0
    rows = 0
    operators = [r.operator for _, r in _balanced_family_100()]
    operators += list(_birkhoff_family_50())
    for op in operators:
        a = op.dense()
        for m in range(op.n):
            row = a[m][a[m] > 0]
            sum_sq = float((row**2).sum())
            bound = kantorovich_bound(op, m)
            chain_ok &= sum_sq <= bound * (1 + 1e-12) and bound < 1.0
            worst_bound = max(worst_bound, bound)
            rows += 1
    _report(
        8,
        chain_ok,
        f"{rows} rows checked, sum(S^2) <= bound < 1 everywhere, "
        f"largest bound {worst_bound:.4f}",
    )


def _grid_operator():
    rng = np.random.default_rng(2024)
    w = rng.uniform(0.5, 1.5, (12, 12))
    return sinkhorn_knopp(w, tol=1e-13).operator


def test_criterion_09_bias():
    op = _grid_operator()
    mu = 1.5
    worst_z = 0.0
    for rho in RHO_GRID:
        for sigma in SIGMA_GRID:
            model = RandomSignalModel(mu=mu, sigma=sigma, rho=rho)
            st = monte_carlo_shift_stats(op, 3, model, trials=100_000, seed=42)
            worst_z = max(worst_z, abs(st.mean - mu) / st.stderr_mean)
    _report(9, worst_z <= 4.0, f"bias over the grid, worst |z| {worst_z:.2f} (limit 4)")


def test_criterion_10_variance_sandwich():
    op = _grid_operator()
    worst_z = 0.0
    sandwich_ok = True
    for rho in RHO_GRID:
        for sigma in SIGMA_GRID:
            model = RandomSignalModel(mu=1.5, sigma=sigma, rho=rho)
            st = monte_carlo_shift_stats(op, 3, model, trials=100_000, seed=42)
            exact = exact_shift_variance(op, 3, sigma, rho)
            upper = variance_upper_bound(op, 3, sigma, rho)
            worst_z = max(worst_z, abs(st.variance - exact) / st.stderr_variance)
            sandwich_ok &= exact <= upper * (1 + 1e-12)
    ok = worst_z <= 3.0 and sandwich_ok
    _report(10, ok, f"variance over the grid, worst |z| {worst_z:.2f} (limit 3), exact <= bound")


def test_criterion_11_iid_consistency_trend():
    sizes = [4, 16, 64, 256]
    variances = []
    for n in sizes:
        s = np.full((n, n), 1.0 / n)
        model = RandomSignalModel(mu=0.0, sigma=1.0, rho=0.0)
        st = monte_carlo_shift_stats(s, 0, model, trials=200_000, seed=11)
        variances.append(st.variance)
    slope = float(np.polyfit(np.log(sizes), np.log(variances), 1)[0])
    _report(11, abs(slope + 1.0) <= 0.15, f"log-log variance slope {slope:.3f} (target -1 +- 0.15)")


def test_criterion_12_power_bounds():
    mu = 10.0
    n = 1024
    s = np.full((n, n), 1.0 / n)
    lb = local_bounds(s, 0)
    inside_ok = True
    collapse_ok = True
    for rho in RHO_GRID:
        for sigma in SIGMA_GRID:
            model = RandomSignalModel(mu=mu, sigma=sigma, rho=rho)
            st = monte_carlo_shift_stats(s, 0, model, trials=50_000, seed=5)
            pb = shift_power_bounds(mu, sigma, rho, lb.lower, lb.upper)
            lo = pb.lower - 4 * st.stderr_power
            hi = pb.upper + 4 * st.stderr_power
            inside_ok &= lo <= st.power <= hi
            if rho == 0.0:
                collapse_ok &= abs(st.power - mu**2) <= 4 * st.stderr_power
    ok = inside_ok and collapse_ok
    _report(
        12,
        ok,
        "power inside [mu^2 - 4se, mu^2 + asymptotic + 4se] across the grid; "
        "rho=0 collapses to mu^2 within 4 se",
    )


def test_criterion_13_filter_bound():
    rng = np.random.default_rng(1313)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 24))
        w = rng.uniform(0.5, 1.5, (n, n))
        op = sinkhorn_knopp(w, tol=1e-12).operator
        order = int(rng.integers(0, 9))
        h = rng.standard_normal(order + 1)
        x = rng.standard_normal(n)
        y = apply_filter(op, h, x)
        mass = float(np.abs(h).sum())
        for p in (1, 2, np.inf):
            ok &= bool(np.linalg.norm(y, p) <= mass * np.linalg.norm(x, p) + 1e-10)
    _report(13, ok, "500 random (S, h, x) with K <= 8, all filter norms within the coefficient mass")


def test_criterion_14_sensor_demo():
    start = time.monotonic()
    gains = []
    inputs = []
    for seed in range(20):
        report = run_sensor_demo(SensorFieldConfig(seed=seed))
        gains.append(report.gain_db)
        inputs.append(report.input_snr_db)
    gain_k1 = run_sensor_demo(SensorFieldConfig(seed=42, shifts=1)).gain_db
    gain_k50 = run_sensor_demo(SensorFieldConfig(seed=42, shifts=50)).gain_db
    elapsed = time.monotonic() - start
    mean_input = float(np.mean(inputs))
    mean_gain = float(np.mean(gains))
    ok = (
        abs(mean_input - 14.0) <= 0.5
        and mean_gain >= 3.0
        and gain_k50 < gain_k1
        and elapsed < 5.0
    )
    _report(
        14,
        ok,
        f"mean input SNR {mean_input:.2f} dB (target 14.0 +- 0.5), "
        f"mean gain {mean_gain:.2f} dB (>= 3), gain(k=50)={gain_k50:.2f} < "
        f"gain(k=1)={gain_k1:.2f}, {elapsed:.2f} s",
    )


def test_criterion_15_claims_on_demo_operators():
    # The paper's three claims on the sensor demo's own operators, n = 2000,
    # at kernel scales whose median in-neighbourhood runs from 10 to 1070.
    start = time.monotonic()
    geometry = _sensor_geometry(2000, np.random.default_rng(0))
    model = RandomSignalModel(mu=1.0, sigma=1.0, rho=0.3)
    chain_ok = variance_ok = mc_ok = True
    worst_col = worst_z = 0.0
    median_size, median_sum_sq = [], []
    for scale in (130.0, 300.0, 700.0, 1800.0):
        graph = build_weight_matrix(geometry, scale=scale, threshold=1e-4, self_loops=True)
        op = sinkhorn_knopp(graph).operator
        # claim iii: unit column sums preserve the mean
        worst_col = max(worst_col, float(np.abs(op.matrix.sum(axis=0) - 1.0).max()))
        sizes, sums_sq = [], []
        for m in range(op.n):
            lb = local_bounds(op, m)
            # claim i: 1 <= N_m sum(S^2) <= (L+U)^2 / (4LU), up to the balance residual
            spread = lb.size * lb.sum_sq
            chain_ok &= 1 - 1e-9 <= spread <= amgm_bias_term(lb.lower, lb.upper) * (1 + 1e-9)
            for rho in (0.0, 0.3):
                exact = exact_shift_variance(op, m, 1.0, rho)
                variance_ok &= exact <= variance_upper_bound(op, m, 1.0, rho) * (1 + 1e-12)
            sizes.append(lb.size)
            sums_sq.append(lb.sum_sq)
        median_size.append(float(np.median(sizes)))
        median_sum_sq.append(float(np.median(sums_sq)))
        if scale < 1000.0:
            st = monte_carlo_shift_stats(op, 0, model, trials=20_000, seed=15)
            exact = exact_shift_variance(op, 0, model.sigma, model.rho)
            z = max(abs(st.mean - model.mu) / st.stderr_mean,
                    abs(st.variance - exact) / st.stderr_variance)
            worst_z = max(worst_z, z)
            mc_ok &= z <= 5.0
    # claim ii: the i.i.d. variance sum(S^2) falls like 1 / N_m
    slope = float(np.polyfit(np.log(median_size), np.log(median_sum_sq), 1)[0])
    elapsed = time.monotonic() - start
    ok = chain_ok and variance_ok and mc_ok and worst_col <= 1e-9 and -1.1 <= slope <= -0.9
    _report(
        15,
        ok,
        f"median N_m {[round(s) for s in median_size]}, Kantorovich chain and "
        f"exact <= bound at all 8000 vertices, sum(S^2) slope {slope:.3f} (target -1 +- 0.1), "
        f"worst column residual {worst_col:.1e}, Monte Carlo worst |z| {worst_z:.2f} "
        f"(limit 5), {elapsed:.2f} s",
    )
