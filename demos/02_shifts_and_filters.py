"""Graph shifts, polynomial filters, and diffusion toward the mean.

Demonstrates the operator-norm facts that make a doubly stochastic shift
well behaved: unit norms, mean preservation, L1 isometry on nonnegative
signals, norm contraction, the filter output bound, and convergence of
repeated shifts to the uniform mean signal (plus the periodic case where
that convergence fails).
"""

import numpy as np

from dsshift import (
    apply_filter,
    apply_shift,
    diffuse,
    diffusion_convergence,
    matrix_norm,
    sinkhorn_knopp,
    wss_check,
)

rng = np.random.default_rng(1)
n = 12
op = sinkhorn_knopp(rng.uniform(0.5, 1.5, (n, n)), tol=1e-13).operator
x = rng.standard_normal(n)

print("=" * 70)
print("1. Unit operator norms")
print("=" * 70)
for p in (1, 2, np.inf):
    print(f"||S||_{p} = {matrix_norm(op, p):.12f}")

print()
print("=" * 70)
print("2. One shift: mean preserved, every norm contracted")
print("=" * 70)
y = apply_shift(op, x)
print(f"mean before {x.mean():+.10f}  after {y.mean():+.10f}")
for p in (1, 2, np.inf):
    print(f"||x||_{p} = {np.linalg.norm(x, p):8.4f}   ||Sx||_{p} = {np.linalg.norm(y, p):8.4f}")

nonneg = rng.uniform(0, 3, n)
shifted = apply_shift(op, nonneg)
print(f"L1 isometry on nonnegative signals: {np.abs(nonneg).sum():.12f} -> "
      f"{np.abs(shifted).sum():.12f}")

print()
print("=" * 70)
print("3. Polynomial filter y = sum_k h_k S^k x")
print("=" * 70)
h = np.array([0.5, 0.3, 0.2])
filtered = apply_filter(op, h, x)
mass = np.abs(h).sum()
print(f"coefficients {h.tolist()}, coefficient mass {mass}")
for p in (1, 2, np.inf):
    print(f"||y||_{p} = {np.linalg.norm(filtered, p):8.4f} <= "
          f"{mass * np.linalg.norm(x, p):8.4f} = mass * ||x||_{p}")

print()
print("=" * 70)
print("4. Repeated shifts diffuse toward the mean")
print("=" * 70)
for k in (1, 2, 5, 10, 20):
    residual = np.abs(diffuse(op, x, k) - x.mean()).max()
    print(f"k = {k:3d}: max |S^k x - mean| = {residual:.3e}")
conv = diffusion_convergence(op, x, tol=1e-10)
print(f"convergence: {conv.status} after {conv.steps} steps")

print()
print("A permutation is doubly stochastic but periodic, so it never diffuses:")
perm = np.roll(np.eye(4), 1, axis=0)
conv = diffusion_convergence(perm, np.array([1.0, 0.0, 0.0, 0.0]), tol=1e-10)
print(f"4-cycle shift: {conv.status} (residual stuck at {conv.residual:.3f})")

print()
print("=" * 70)
print("5. Wide-sense stationarity check")
print("=" * 70)
mu = np.full(n, 2.0)
cov = 0.2 * np.ones((n, n)) + 0.8 * np.eye(n)
d = wss_check(op, mu, cov, tol=1e-8)
print(f"uniform mean, equicorrelated covariance: mean residual {d.mean_residual:.2e}, "
      f"covariance residual {d.covariance_residual:.3f} -> passed={d.passed}")
print("(the covariance condition generally needs an orthogonal shift; averaging")
print(" shrinks the independent part, so the check reports the residual honestly)")
