"""Closed-form bias/variance/power bounds for shifted random graph signals,
and a Monte Carlo harness to validate them.

The random signal model is locally stationary: every vertex in the
incoming neighbourhood of vertex ``m`` carries the same mean ``mu``,
standard deviation ``sigma``, and pairwise (equi)correlation ``rho``.
Under a doubly stochastic shift the value at ``m`` becomes the convex
combination ``sum_n S[m, n] x[n]``, which is an unbiased estimator of
``mu`` whose variance is

    sigma**2 * (sum_n S[m, n]**2 + rho * sum_{n != k} S[m, n] S[m, k])

with closed-form upper bounds built from the row entry bounds
``0 < L <= S[m, n] <= U < 1`` via the Kantorovich inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Neighborhood, _require_square, _row

__all__ = [
    "LocalBounds",
    "PowerBounds",
    "RandomSignalModel",
    "ShiftStats",
    "amgm_bias_term",
    "asymptotic_variance_bound",
    "exact_shift_variance",
    "kantorovich_bound",
    "local_bounds",
    "monte_carlo_shift_stats",
    "sample_local_signal",
    "shift_power_bounds",
    "validate_model_assignment",
    "variance_upper_bound",
]

# Trials are drawn in blocks of at most this many Gaussian values so the
# Monte Carlo harness never materializes a trials-by-neighbourhood matrix.
_BLOCK_VALUES = 1 << 22


@dataclass(frozen=True)
class RandomSignalModel:
    """Shared first and second moments of the signals in one neighbourhood.

    ``rho`` is restricted to [0, 1]: nonnegative equicorrelation is always
    a valid covariance and matches the single-factor sampler used here.
    """

    mu: float
    sigma: float
    rho: float

    def __post_init__(self):
        _check_moments(self.sigma, self.rho)


@dataclass(frozen=True)
class LocalBounds:
    """Smallest and largest positive entry of one operator row."""

    lower: float
    upper: float
    size: int


class PowerBounds(NamedTuple):
    """Asymptotic bounds on the expected power of a shifted vertex signal."""

    lower: float
    upper: float


@dataclass(frozen=True)
class ShiftStats:
    """Monte Carlo estimates for one shifted vertex, with standard errors."""

    mean: float
    variance: float
    power: float
    trials: int
    stderr_mean: float
    stderr_variance: float
    stderr_power: float


def _positive_row(S, m: int):
    """Columns and values of the positive entries in row ``m`` of a square
    operator."""
    a, _ = _require_square(S, "operator")
    row = _row(a, m)
    members = np.flatnonzero(row > 0)
    if members.size == 0:
        raise ValueError(f"row {m} has no positive entries")
    return members, row[members]


def local_bounds(S, m: int) -> LocalBounds:
    """Entry bounds L, U over the positive entries of row ``m``."""
    _, positive = _positive_row(S, m)
    return LocalBounds(
        lower=float(positive.min()),
        upper=float(positive.max()),
        size=int(positive.size),
    )


def kantorovich_bound(S, m: int) -> float:
    """Upper bound on ``sum_n S[m, n]**2`` from the row entry bounds:
    ``(1 / N_m) * (L + U)**2 / (4 L U)``.

    The bound always dominates the actual sum of squares.  It drops below
    1 once the neighbourhood is large enough relative to the entry spread
    (``4 L U N_m > (L + U)**2``); for a single-entry row it equals 1.
    """
    _, positive = _positive_row(S, m)
    lower = float(positive.min())
    upper = float(positive.max())
    bound = amgm_bias_term(lower, upper) / positive.size
    sum_sq = float((positive**2).sum())
    row_sum_sq = float(positive.sum()) ** 2
    # Kantorovich inequality; can only trip on numerical damage.
    assert sum_sq <= bound * row_sum_sq * (1 + 1e-9), (sum_sq, bound)
    return bound


def variance_upper_bound(S, m: int, sigma: float, rho: float) -> float:
    """Pre-Kantorovich variance bound ``sigma**2 (1 + N_m rho) sum S**2``."""
    _check_moments(sigma, rho)
    _, positive = _positive_row(S, m)
    sum_sq = float((positive**2).sum())
    return sigma**2 * (1.0 + positive.size * rho) * sum_sq


def exact_shift_variance(S, m: int, sigma: float, rho: float) -> float:
    """Exact variance of the shifted vertex signal under equicorrelation:
    ``sigma**2 * (sum S**2 + rho * (cross terms))``."""
    _check_moments(sigma, rho)
    _, positive = _positive_row(S, m)
    sum_sq = float((positive**2).sum())
    cross = float(positive.sum()) ** 2 - sum_sq
    return sigma**2 * (sum_sq + rho * cross)


def asymptotic_variance_bound(sigma: float, rho: float, lower: float, upper: float) -> float:
    """Large-neighbourhood variance ceiling ``rho sigma**2 (L+U)**2 / (4LU)``.

    Vanishes for rho = 0: with independent signals the shift is a
    statistically consistent estimator of the neighbourhood mean.
    """
    _check_moments(sigma, rho)
    _check_entry_bounds(lower, upper, strict_upper=True)
    return rho * sigma**2 * amgm_bias_term(lower, upper)


def shift_power_bounds(
    mu: float, sigma: float, rho: float, lower: float, upper: float
) -> PowerBounds:
    """Asymptotic bounds on the expected power ``E[(shifted value)**2]``.

    The floor ``mu**2`` is Jensen's inequality; the ceiling adds the
    asymptotic variance bound.  For rho = 0 the two coincide: the shift
    asymptotically preserves the power of the mean.
    """
    upper_bound = mu**2 + asymptotic_variance_bound(sigma, rho, lower, upper)
    return PowerBounds(lower=mu**2, upper=upper_bound)


def amgm_bias_term(lower: float, upper: float) -> float:
    """Squared ratio of arithmetic to geometric mean of the entry bounds,
    ``(L + U)**2 / (4 L U)``; at least 1, with equality iff L == U."""
    _check_entry_bounds(lower, upper, strict_upper=False)
    return (lower + upper) ** 2 / (4.0 * lower * upper)


def _check_moments(sigma: float, rho: float) -> None:
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")


def _check_entry_bounds(lower: float, upper: float, strict_upper: bool) -> None:
    if not 0.0 < lower <= upper:
        raise ValueError(f"entry bounds must satisfy 0 < L <= U, got L={lower}, U={upper}")
    if strict_upper and upper >= 1.0:
        raise ValueError(f"upper entry bound must be below 1, got U={upper}")


def sample_local_signal(
    model: RandomSignalModel,
    neighborhood: Neighborhood,
    rng,
    size: int | None = None,
):
    """Draw Gaussian signal values over one neighbourhood.

    Single-factor construction: with z0 and z_n independent standard
    normals,

        x_n = mu + sigma * (sqrt(rho) * z0 + sqrt(1 - rho) * z_n)

    gives mean mu, variance sigma**2, and pairwise correlation rho between
    distinct members.  Returns shape (N_m,) for a single draw
    (``size=None``) or (size, N_m) for a batch; ``rng`` may be a seed or a
    numpy Generator.
    """
    gen = np.random.default_rng(rng)
    n = neighborhood.size
    batch = () if size is None else (int(size),)
    z = gen.standard_normal(batch + (n + 1,))
    z0 = z[..., :1]
    zn = z[..., 1:]
    return model.mu + model.sigma * (
        np.sqrt(model.rho) * z0 + np.sqrt(1.0 - model.rho) * zn
    )


def monte_carlo_shift_stats(
    S, m: int, model: RandomSignalModel, trials: int, seed=0
) -> ShiftStats:
    """Estimate mean, variance, and power of the shifted vertex signal.

    Draws ``trials`` independent neighbourhood signals, applies the row of
    ``S`` at vertex ``m``, and reports unbiased sample statistics with
    standard errors (the variance standard error uses the Gaussian
    approximation ``s**2 * sqrt(2 / (trials - 1))``).  Deterministic for a
    fixed ``(seed, trials)`` pair.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    members, weights = _positive_row(S, m)
    neighborhood = Neighborhood(center=m, members=members, size=int(members.size))

    gen = np.random.default_rng(seed)
    block = max(1, _BLOCK_VALUES // (members.size + 1))
    shifted = np.empty(trials)
    done = 0
    while done < trials:
        take = min(block, trials - done)
        x = sample_local_signal(model, neighborhood, gen, size=take)
        shifted[done : done + take] = x @ weights
        done += take

    mean = float(shifted.mean())
    variance = float(shifted.var(ddof=1))
    squares = shifted**2
    power = float(squares.mean())
    return ShiftStats(
        mean=mean,
        variance=variance,
        power=power,
        trials=trials,
        stderr_mean=float(np.sqrt(variance / trials)),
        stderr_variance=float(variance * np.sqrt(2.0 / (trials - 1))),
        stderr_power=float(squares.std(ddof=1) / np.sqrt(trials)),
    )


def validate_model_assignment(assignments) -> None:
    """Reject per-neighbourhood model assignments that disagree on shared
    vertices.

    ``assignments`` is an iterable of ``(Neighborhood, RandomSignalModel)``
    pairs.  Overlapping neighbourhoods must carry identical moments, since
    a vertex cannot follow two different marginal distributions.
    """
    seen: dict[int, tuple[RandomSignalModel, int]] = {}
    for neighborhood, model in assignments:
        for vertex in np.asarray(neighborhood.members).tolist():
            if vertex in seen and seen[vertex][0] != model:
                other_model, other_center = seen[vertex]
                raise ValueError(
                    f"vertex {vertex} is shared by the neighbourhoods of "
                    f"{other_center} and {neighborhood.center} with "
                    f"conflicting models {other_model} vs {model}"
                )
            seen.setdefault(vertex, (model, neighborhood.center))
