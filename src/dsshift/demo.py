"""Sensor-field denoising demo: a synthetic geographic temperature field,
Gaussian measurement noise, and a doubly stochastic shift used as a local
expectation operator.

The true field is synthetic (a few smooth Gaussian bumps over the sensor
region plus an altitude lapse term) and its amplitude is normalized to a
documented constant so that the default noise level gives a known input
signal-to-noise ratio.  Everything is seeded, so a report is reproducible
byte for byte for a fixed BLAS build and thread count; across thread counts
its numbers agree to rounding (a threaded symmetric matrix-vector product
sums partial vectors in an order that depends on the thread count).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .balance import sinkhorn_knopp
from .graphs import VertexGeometry, build_weight_matrix
from .shifting import diffuse

__all__ = [
    "ExperimentReport",
    "FIELD_RMS",
    "REPORT_SCHEMA",
    "SensorFieldConfig",
    "run_sensor_demo",
    "snr_db",
    "synthetic_true_field",
]

# Root-mean-square amplitude of the calibrated true field.  With the
# default noise sigma of 2 this puts the expected input SNR at
# 20*log10(FIELD_RMS / 2) = 14.0 dB.
FIELD_RMS = 2.0 * 10.0 ** 0.7

# Version of the report layout written by ExperimentReport.to_dict.
REPORT_SCHEMA = 2

# Sensor region: a roughly 10 km square centred at 45 N.  The longitude
# half-span is widened by 1/cos(45 deg) so the projected box is square.
_LAT_CENTER = 45.0
_LAT_HALF_SPAN = 0.045
_LON_CENTER = 7.0
_LON_HALF_SPAN = 0.045 / np.cos(np.radians(_LAT_CENTER))

# Temperature decrease per meter of altitude.
_LAPSE_RATE = 0.0065


def snr_db(estimate, truth) -> float:
    """Signal-to-noise ratio ``10 log10(||truth||^2 / ||estimate - truth||^2)``.

    Raises ValueError for mismatched lengths or an identically zero truth;
    a zero error vector reports the +inf sentinel.
    """
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ValueError(f"signal shapes {e.shape} and {t.shape} differ")
    truth_power = float((t**2).sum())
    if truth_power == 0.0:
        raise ValueError("truth signal is identically zero")
    error_power = float(((e - t) ** 2).sum())
    if error_power == 0.0:
        return float("inf")
    return 10.0 * np.log10(truth_power / error_power)


def synthetic_true_field(geometry: VertexGeometry) -> np.ndarray:
    """Three smooth temperature bumps plus the altitude lapse term at the
    sensor sites, rescaled so its root mean square equals :data:`FIELD_RMS`."""
    lat, lon = geometry.lat, geometry.lon
    lat_span = lat.max() - lat.min() or 1.0
    lon_span = lon.max() - lon.min() or 1.0
    u = (lon - lon.min()) / lon_span
    v = (lat - lat.min()) / lat_span
    raw = 10.0 * np.ones_like(u)
    raw += 6.0 * np.exp(-(((u - 0.25) ** 2 + (v - 0.30) ** 2) / 0.45**2))
    raw -= 5.0 * np.exp(-(((u - 0.75) ** 2 + (v - 0.70) ** 2) / 0.50**2))
    raw += 4.0 * np.exp(-(((u - 0.60) ** 2 + (v - 0.15) ** 2) / 0.35**2))
    raw -= _LAPSE_RATE * geometry.alt
    rms = float(np.sqrt((raw**2).mean()))
    if rms == 0.0:
        raise ValueError("the synthetic field is zero at every site")
    return raw * (FIELD_RMS / rms)


def _sensor_geometry(n_sensors: int, rng: np.random.Generator) -> VertexGeometry:
    """Random sensor sites in the demo region with a smooth altitude hill."""
    lat = _LAT_CENTER + _LAT_HALF_SPAN * rng.uniform(-1.0, 1.0, n_sensors)
    lon = _LON_CENTER + _LON_HALF_SPAN * rng.uniform(-1.0, 1.0, n_sensors)
    u = (lon - (_LON_CENTER - _LON_HALF_SPAN)) / (2 * _LON_HALF_SPAN)
    v = (lat - (_LAT_CENTER - _LAT_HALF_SPAN)) / (2 * _LAT_HALF_SPAN)
    alt = 280.0 * np.exp(-(((u - 0.35) ** 2 + (v - 0.65) ** 2) / 0.4**2))
    return VertexGeometry(lat=lat, lon=lon, alt=alt)


@dataclass(frozen=True)
class SensorFieldConfig:
    """Configuration of the sensor denoising experiment."""

    n_sensors: int = 64
    noise_sigma: float = 2.0
    kernel_scale: float = 1800.0
    threshold: float = 1e-4
    seed: int = 42
    shifts: int = 1

    def __post_init__(self):
        if not np.issubdtype(type(self.n_sensors), np.integer) or self.n_sensors < 2:
            raise ValueError(f"n_sensors must be an integer of at least 2, got {self.n_sensors!r}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        for name in ("shifts", "seed"):
            if not np.issubdtype(type(value := getattr(self, name)), np.integer) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        for name in ("n_sensors", "shifts", "seed"):  # stored as the int that JSON can write
            if isinstance(getattr(self, name), np.integer):
                object.__setattr__(self, name, int(getattr(self, name)))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Outcome of one denoising run; ``gain_db`` is exactly output minus input
    (defined as 0 when both are the +inf zero-noise sentinel)."""

    input_snr_db: float
    output_snr_db: float
    gain_db: float
    balance_residual: float
    balance_iterations: int
    true_field: np.ndarray
    noisy: np.ndarray
    denoised: np.ndarray
    config: SensorFieldConfig

    def to_dict(self) -> dict:
        """The report as JSON values: the +inf zero-noise sentinel is ``None`` (null)."""
        return {
            "schema": REPORT_SCHEMA,
            "config": self.config.to_dict(),
            **{k: None if (db := getattr(self, k)) == np.inf else db
               for k in ("input_snr_db", "output_snr_db", "gain_db")},
            "operator": {
                "residual": self.balance_residual,
                "iterations": self.balance_iterations,
            },
            "true_field": self.true_field.tolist(),
            "noisy": self.noisy.tolist(),
            "denoised": self.denoised.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def run_sensor_demo(config: SensorFieldConfig | None = None) -> ExperimentReport:
    """Run the denoising pipeline: sample sensor sites, corrupt the true
    field with Gaussian noise, balance the distance-kernel weight matrix,
    and average the noisy readings with repeated shifts.

    With ``noise_sigma = 0`` there is nothing to denoise: the observation
    already equals the truth, both SNRs are the +inf sentinel, and the
    gain is 0 by definition.
    """
    cfg = config or SensorFieldConfig()
    rng = np.random.default_rng(cfg.seed)
    geometry = _sensor_geometry(cfg.n_sensors, rng)
    truth = synthetic_true_field(geometry)
    noisy = truth + cfg.noise_sigma * rng.standard_normal(cfg.n_sensors)

    graph = build_weight_matrix(
        geometry,
        scale=cfg.kernel_scale,
        threshold=cfg.threshold,
        self_loops=True,
    )
    result = sinkhorn_knopp(graph, tol=1e-10)
    operator = result.operator

    denoised = diffuse(operator, noisy, cfg.shifts) if cfg.noise_sigma else noisy.copy()
    input_snr = snr_db(noisy, truth)
    output_snr = snr_db(denoised, truth)
    return ExperimentReport(
        input_snr_db=input_snr,
        output_snr_db=output_snr,
        gain_db=output_snr - input_snr if cfg.noise_sigma else 0.0,
        balance_residual=operator.tolerance_achieved,
        balance_iterations=operator.iterations_used,
        true_field=truth,
        noisy=noisy,
        denoised=denoised,
        config=cfg,
    )
