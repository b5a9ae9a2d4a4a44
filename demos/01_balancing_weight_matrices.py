"""Build a geometric weight matrix and balance it to doubly stochastic form.

Walks through the first half of the pipeline: sensor geometry to Gaussian
distance kernel, structural validation, Knight-Ruiz balancing, and the
provenance carried by the result.
"""

import numpy as np

from dsshift import (
    VertexGeometry,
    build_weight_matrix,
    incoming_neighborhood,
    sinkhorn_knopp,
    validate_weights,
    verify_doubly_stochastic,
)

rng = np.random.default_rng(0)
n = 10

print("=" * 70)
print("1. Geometry -> Gaussian kernel weight matrix")
print("=" * 70)
geometry = VertexGeometry(
    lat=45.0 + 0.02 * rng.random(n),
    lon=7.0 + 0.02 * rng.random(n),
    alt=150.0 * rng.random(n),
)
graph = build_weight_matrix(geometry, scale=900.0, threshold=1e-3)
print(f"graph: {graph}")
print(f"weights symmetric: {graph.is_symmetric()}")
print(f"weight range: ({graph.dense()[graph.dense() > 0].min():.4f}, "
      f"{graph.dense().max():.4f}]")

nb = incoming_neighborhood(graph, 0)
print(f"incoming neighbourhood of vertex 0: {nb.members.tolist()} (size {nb.size})")

print()
print("=" * 70)
print("2. Structural validation before balancing")
print("=" * 70)
diag = validate_weights(graph)
print(f"balanceable: {diag.balanceable}")
print(f"edges: {diag.n_edges}, density: {diag.density:.2f}")
print(f"issues: {list(diag.issues) or 'none'}")

print()
print("=" * 70)
print("3. Knight-Ruiz Newton balancing")
print("=" * 70)
result = sinkhorn_knopp(graph, tol=1e-12)
op = result.operator
print(f"converged in {op.iterations_used} Newton iterations ({result.matvecs} matvecs), residual {op.tolerance_achieved:.2e}")
check = verify_doubly_stochastic(op, tol=1e-10)
print(f"row-sum residual:    {check.max_row_residual:.2e}")
print(f"column-sum residual: {check.max_col_residual:.2e}")
print(f"min entry: {check.min_entry:.2e} (never negative)")

print()
print("The operator factors as diag(r) W diag(c), so zeros survive exactly:")
rebuilt = result.row_scaling[:, None] * graph.dense() * result.col_scaling[None, :]
print(f"max |S - diag(r) W diag(c)| = {np.abs(rebuilt - op.dense()).max():.2e}")
print(f"zero pattern preserved: {np.array_equal(op.dense() == 0, graph.dense() == 0)}")
