"""Decompose a doubly stochastic operator into permutation matrices.

Every doubly stochastic matrix is a convex combination of at most
(N-1)**2 + 1 permutation matrices.  The greedy extraction repeatedly finds
a perfect matching on the positive support, peels off the minimum matched
entry, and stops when no perfect matching is left; the input's own
imbalance bounds the mass it leaves behind.  Every operator here is
balanced at sinkhorn_knopp's default tolerance.
"""

import numpy as np

from dsshift import (
    birkhoff_decompose,
    max_terms,
    reconstruct,
    sinkhorn_knopp,
    verify_doubly_stochastic,
)

print("=" * 70)
print("1. A 2x2 example solvable by hand")
print("=" * 70)
op = sinkhorn_knopp(np.array([[1.0, 2.0], [2.0, 1.0]])).operator
print("S =")
print(op.dense())
d = birkhoff_decompose(op)
for a, perm in d.terms():
    print(f"  coefficient {a:.6f} x permutation {perm.tolist()}")
print("(1/3 identity + 2/3 swap, matching the exact fixed point)")

print()
print("=" * 70)
print("2. A balanced 8x8 operator, round-tripped")
print("=" * 70)
rng = np.random.default_rng(2)
op = sinkhorn_knopp(rng.uniform(0.5, 1.5, (8, 8))).operator
d = birkhoff_decompose(op)
print(f"terms used: {d.n_terms} (bound for N=8: {max_terms(8)})")
print(f"coefficient sum: {d.coefficients.sum():.15f}")
print(f"smallest coefficient: {d.coefficients.min():.3e}")
rebuilt = reconstruct(d)
print(f"max |S - sum a_i P_i| = {np.abs(rebuilt - op.dense()).max():.2e}")
print(f"mass left unextracted: {d.dust:.2e} (bound {d.dust_bound:.2e})")
print(f"reconstruction is doubly stochastic: "
      f"{verify_doubly_stochastic(rebuilt, tol=1e-10).passed}")

print()
print("=" * 70)
print("3. Term counts against the worst-case bound")
print("=" * 70)
for n in (4, 8, 12, 16):
    op = sinkhorn_knopp(rng.uniform(0.5, 1.5, (n, n))).operator
    d = birkhoff_decompose(op)
    print(f"N = {n:2d}: {d.n_terms:3d} terms (bound {max_terms(n):3d})")
