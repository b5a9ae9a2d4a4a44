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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graphs import Neighborhood, _map_blocks, _positive_row, _require_square

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
    "variance_upper_bound",
]

# Trials are drawn in blocks of at most _BLOCK_VALUES Gaussian values (2 MB), each from
# its own SFC64 stream, on the package's (at most 16) worker threads; a block is drawn
# in chunks of at most _CHUNK_VALUES (256 KB, about an L2 cache) or one row, into one
# buffer per block: _WORKERS buffers in flight at most.
_BLOCK_VALUES = 1 << 18
_CHUNK_VALUES = 1 << 15


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
        _check_moments(self.sigma, self.rho, self.mu)


@dataclass(frozen=True)
class LocalBounds:
    """The positive entries of one operator row: smallest ``lower`` (L),
    largest ``upper`` (U), their count ``size`` (N_m), sum ``total`` and sum
    of squares ``sum_sq``.  Every bound at the row is a formula over these."""

    lower: float
    upper: float
    size: int
    total: float
    sum_sq: float


class PowerBounds(NamedTuple):
    """Asymptotic bounds on the expected power of a shifted vertex signal."""

    lower: float
    upper: float


@dataclass(frozen=True)
class ShiftStats:
    """Monte Carlo estimates for one shifted vertex, with standard errors;
    ``blocks`` counts the blocks of draws and takes no part in ``==``."""

    mean: float
    variance: float
    power: float
    trials: int
    stderr_mean: float
    stderr_variance: float
    stderr_power: float
    blocks: int = field(default=0, compare=False)


def _row_weights(S, m: int) -> np.ndarray:
    """The positive entries of row ``m`` of a square operator; ValueError when
    there are none, or when the row holds a NaN, infinite or negative entry."""
    a, _ = _require_square(S, "operator")
    _, positive = _positive_row(a, m)
    if positive.size == 0:
        raise ValueError(f"row {m} has no positive entries")
    return positive


def local_bounds(S, m: int) -> LocalBounds:
    """Entry bounds L, U, count, sum and sum of squares over the positive
    entries of row ``m``."""
    positive = _row_weights(S, m)
    return LocalBounds(
        lower=float(positive.min()),
        upper=float(positive.max()),
        size=int(positive.size),
        total=float(positive.sum()),
        sum_sq=float((positive**2).sum()),
    )


def kantorovich_bound(S, m: int) -> float:
    """Upper bound on ``sum_n S[m, n]**2`` from the row entry bounds:
    ``(1 / N_m) * (L + U)**2 / (4 L U)``.

    The bound always dominates the actual sum of squares.  It drops below
    1 once the neighbourhood is large enough relative to the entry spread
    (``4 L U N_m > (L + U)**2``); for a single-entry row it equals 1.
    """
    lb = local_bounds(S, m)
    bound = amgm_bias_term(lb.lower, lb.upper) / lb.size
    # Kantorovich inequality; can only trip on numerical damage.
    assert lb.sum_sq <= bound * lb.total**2 * (1 + 1e-9), (lb.sum_sq, bound)
    return bound


def variance_upper_bound(S, m: int, sigma: float, rho: float) -> float:
    """Pre-Kantorovich variance bound ``sigma**2 (1 + N_m rho) sum S**2``."""
    _check_moments(sigma, rho)
    lb = local_bounds(S, m)
    return sigma**2 * (1.0 + lb.size * rho) * lb.sum_sq


def exact_shift_variance(S, m: int, sigma: float, rho: float) -> float:
    """Exact variance of the shifted vertex signal under equicorrelation:
    ``sigma**2 * (sum S**2 + rho * (cross terms))``."""
    _check_moments(sigma, rho)
    lb = local_bounds(S, m)
    return sigma**2 * (lb.sum_sq + rho * (lb.total**2 - lb.sum_sq))


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
    _check_moments(sigma, rho, mu)
    upper_bound = mu**2 + asymptotic_variance_bound(sigma, rho, lower, upper)
    return PowerBounds(lower=mu**2, upper=upper_bound)


def amgm_bias_term(lower: float, upper: float) -> float:
    """Squared ratio of arithmetic to geometric mean of the entry bounds,
    ``(L + U)**2 / (4 L U)``; at least 1, with equality iff L == U."""
    _check_entry_bounds(lower, upper, strict_upper=False)
    return (lower + upper) ** 2 / (4.0 * lower * upper)


def _check_moments(sigma: float, rho: float, mu: float = 0.0) -> None:
    if not -np.inf < mu < np.inf:
        raise ValueError(f"mu must be finite, got {mu}")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
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
    x = np.sqrt(1.0 - model.rho) * z[..., 1:]  # the only temporary of z's size
    x += np.sqrt(model.rho) * z[..., :1]
    x *= model.sigma
    x += model.mu
    return x


def monte_carlo_shift_stats(
    S, m: int, model: RandomSignalModel, trials: int, seed=0
) -> ShiftStats:
    """Estimate mean, variance, and power of the shifted vertex signal.

    Draws ``trials`` independent neighbourhood signals, applies the row of
    ``S`` at vertex ``m``, and reports unbiased sample statistics with
    standard errors (the variance standard error uses the Gaussian
    approximation ``s**2 * sqrt(2 / (trials - 1))``).  The trials are cut
    into blocks of at most 2 MB of normals; block k draws from its own
    stream, ``np.random.Generator(np.random.SFC64(s_k))`` with ``s_k =
    np.random.default_rng(seed).bit_generator.seed_seq.spawn(blocks)[k]``
    (``np.random.SeedSequence(seed).spawn(blocks)[k]`` for an integer
    seed).  A block is drawn in chunks of about 256 KB of rows into one
    buffer, each shifted before the next is drawn, which gives the numbers
    of the block drawn whole; the blocks run on one thread per CPU, up to
    16, so the normals held at once are at most 16 buffers of 256 KB, and
    the result is deterministic for a fixed ``(seed, trials)`` pair
    whatever the CPU count.  (Versions that drew the blocks from PCG64
    streams, or every trial from one generator, give other values for the
    same seed.)
    """
    if not np.issubdtype(type(trials), np.integer) or trials < 2:
        raise ValueError(f"trials must be an integer of at least 2, got {trials!r}")
    if np.issubdtype(type(seed), np.integer) and seed < 0:  # numpy's own error names no seed
        raise ValueError(f"seed must be nonnegative, got {seed}")
    weights = _row_weights(S, m)

    # The draws of sample_local_signal, block by block, but the shift is
    # linear, so it is applied to the normals directly:
    # sum_n w_n x_n = mu W + sigma (sqrt(rho) W z0 + sqrt(1 - rho) z @ w),
    # with W = sum_n w_n, and no block-sized signal array is formed.
    width = weights.size + 1
    block, rows = max(1, _BLOCK_VALUES // width), max(1, _CHUNK_VALUES // width)
    seeds = np.random.default_rng(seed).bit_generator.seed_seq.spawn(-(-trials // block))
    total = float(weights.sum())
    shifted = np.empty(trials)

    def draw(k: int) -> None:
        gen = np.random.Generator(np.random.SFC64(seeds[k]))
        end = min(k * block + block, trials)
        z = np.empty((min(rows, end - k * block), width))
        for lo in range(k * block, end, len(z)):
            chunk = gen.standard_normal(out=z[:end - lo])
            shifted[lo:lo + len(chunk)] = model.mu * total + model.sigma * (
                np.sqrt(model.rho) * total * chunk[:, 0]
                + np.sqrt(1.0 - model.rho) * (chunk[:, 1:] @ weights)
            )

    _map_blocks(draw, range(len(seeds)))

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
        blocks=len(seeds),
    )
