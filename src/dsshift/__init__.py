"""Doubly stochastic graph shift operators.

Construction of doubly stochastic operators from weighted directed graphs
by Knight-Ruiz Newton balancing, graph shifts and polynomial graph filters,
Birkhoff decomposition into permutation matrices, closed-form and Monte
Carlo statistical bounds for locally stationary random graph signals, and
a seeded sensor-field denoising demo.
"""

from .balance import (
    BalanceResult,
    DSDiagnostics,
    DSOperator,
    NotConvergedError,
    UnbalanceableError,
    sinkhorn_knopp,
    verify_doubly_stochastic,
)
from .birkhoff import (
    BirkhoffDecomposition,
    DecompositionError,
    birkhoff_decompose,
    max_terms,
    perfect_matching,
    reconstruct,
)
from .bounds import (
    LocalBounds,
    PowerBounds,
    RandomSignalModel,
    ShiftStats,
    amgm_bias_term,
    asymptotic_variance_bound,
    exact_shift_variance,
    kantorovich_bound,
    local_bounds,
    monte_carlo_shift_stats,
    sample_local_signal,
    shift_power_bounds,
    variance_upper_bound,
)
from .demo import (
    ExperimentReport,
    SensorFieldConfig,
    run_sensor_demo,
    snr_db,
    synthetic_true_field,
)
from .graphs import (
    Graph,
    Neighborhood,
    VertexGeometry,
    WeightDiagnostics,
    build_weight_matrix,
    incoming_neighborhood,
    validate_weights,
)
from .shifting import (
    DiffusionResult,
    WSSDiagnostics,
    apply_filter,
    apply_shift,
    diffuse,
    diffusion_convergence,
    matrix_norm,
    wss_check,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceResult",
    "BirkhoffDecomposition",
    "DSDiagnostics",
    "DSOperator",
    "DecompositionError",
    "DiffusionResult",
    "ExperimentReport",
    "Graph",
    "LocalBounds",
    "Neighborhood",
    "NotConvergedError",
    "PowerBounds",
    "RandomSignalModel",
    "SensorFieldConfig",
    "ShiftStats",
    "UnbalanceableError",
    "VertexGeometry",
    "WSSDiagnostics",
    "WeightDiagnostics",
    "amgm_bias_term",
    "apply_filter",
    "apply_shift",
    "asymptotic_variance_bound",
    "birkhoff_decompose",
    "build_weight_matrix",
    "diffuse",
    "diffusion_convergence",
    "exact_shift_variance",
    "incoming_neighborhood",
    "kantorovich_bound",
    "local_bounds",
    "matrix_norm",
    "max_terms",
    "monte_carlo_shift_stats",
    "perfect_matching",
    "reconstruct",
    "run_sensor_demo",
    "sample_local_signal",
    "shift_power_bounds",
    "sinkhorn_knopp",
    "snr_db",
    "synthetic_true_field",
    "validate_weights",
    "variance_upper_bound",
    "verify_doubly_stochastic",
    "wss_check",
]
