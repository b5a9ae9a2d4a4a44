"""Bias, variance, and power bounds for shifted random graph signals.

The shifted value at a vertex is a convex combination of locally
stationary Gaussian signals, so it is an unbiased estimator of the local
mean.  Its variance has an exact closed form under equicorrelation, an
upper bound through the Kantorovich inequality, and an asymptotic ceiling
governed by the spread of the operator's row entries.  Monte Carlo
estimates confirm each formula.
"""

import numpy as np

from dsshift import (
    RandomSignalModel,
    amgm_bias_term,
    asymptotic_variance_bound,
    exact_shift_variance,
    kantorovich_bound,
    local_bounds,
    monte_carlo_shift_stats,
    shift_power_bounds,
    sinkhorn_knopp,
    variance_upper_bound,
)

rng = np.random.default_rng(3)
op = sinkhorn_knopp(rng.uniform(0.5, 1.5, (12, 12)), tol=1e-13).operator
m = 4

print("=" * 70)
print("1. Row entry bounds and the Kantorovich chain")
print("=" * 70)
lb = local_bounds(op, m)
kb = kantorovich_bound(op, m)
print(f"row {m}: L = {lb.lower:.4f}, U = {lb.upper:.4f}, N_m = {lb.size}")
print(f"sum S^2 = {lb.sum_sq:.4f} <= {kb:.4f} = (1/N_m)(L+U)^2/(4LU) < 1")
print(f"AM/GM bias term (L+U)^2/4LU = {amgm_bias_term(lb.lower, lb.upper):.4f} (>= 1)")

print()
print("=" * 70)
print("2. Variance: exact value, finite bound, asymptotic ceiling")
print("=" * 70)
sigma, rho = 1.5, 0.4
print(f"sigma = {sigma}, rho = {rho}")
exact = exact_shift_variance(op, m, sigma, rho)
upper = variance_upper_bound(op, m, sigma, rho)
ceiling = asymptotic_variance_bound(sigma, rho, lb.lower, lb.upper)
print(f"exact variance:          {exact:.4f}")
print(f"finite-N upper bound:    {upper:.4f}")
print(f"asymptotic ceiling:      {ceiling:.4f} (limit as N_m grows)")

print()
print("=" * 70)
print("3. Monte Carlo agreement (100 000 trials)")
print("=" * 70)
model = RandomSignalModel(mu=2.0, sigma=sigma, rho=rho)
st = monte_carlo_shift_stats(op, m, model, trials=100_000, seed=0)
print(f"mean:     {st.mean:+.4f} vs mu = {model.mu} "
      f"(|z| = {abs(st.mean - model.mu) / st.stderr_mean:.2f})")
print(f"variance: {st.variance:.4f} vs exact {exact:.4f} "
      f"(|z| = {abs(st.variance - exact) / st.stderr_variance:.2f})")
pb = shift_power_bounds(model.mu, sigma, rho, lb.lower, lb.upper)
print(f"power:    {st.power:.4f} in [mu^2, mu^2 + ceiling] = "
      f"[{pb.lower:.4f}, {pb.upper:.4f}] (finite-N value sits between)")

print()
print("=" * 70)
print("4. Statistical consistency for independent signals (rho = 0)")
print("=" * 70)
print("uniform operators over complete graphs; variance should scale as 1/N")
sizes = [4, 16, 64, 256]
variances = []
for n in sizes:
    s = np.full((n, n), 1.0 / n)
    st = monte_carlo_shift_stats(
        s, 0, RandomSignalModel(mu=0.0, sigma=1.0, rho=0.0), trials=100_000, seed=1
    )
    variances.append(st.variance)
    print(f"N = {n:4d}: Monte Carlo variance {st.variance:.6f} (1/N = {1 / n:.6f})")
slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
print(f"log-log slope: {slope:.4f} (consistent estimation decays like 1/N)")
