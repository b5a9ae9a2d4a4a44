import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dsshift

from dsshift import SensorFieldConfig, run_sensor_demo, snr_db
from dsshift.demo import FIELD_RMS, synthetic_true_field
from dsshift.graphs import VertexGeometry


class TestSnrDb:
    def test_exact_estimate_reports_infinity(self):
        x = np.array([1.0, 2.0])
        assert snr_db(x, x) == float("inf")

    def test_zero_db_case(self):
        assert snr_db([1.0, 1.0], [1.0, 0.0]) == 0.0

    def test_hundredfold_power_ratio(self):
        truth = np.array([10.0, 0.0])
        estimate = truth + np.array([0.0, 1.0])
        assert snr_db(estimate, truth) == pytest.approx(20.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            snr_db([1.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            snr_db([1.0, 2.0], [1.0])


class TestSyntheticField:
    def test_rms_calibration(self):
        rng = np.random.default_rng(0)
        geo = VertexGeometry(
            lat=45 + 0.05 * rng.random(64),
            lon=7 + 0.05 * rng.random(64),
            alt=100 * rng.random(64),
        )
        field = synthetic_true_field(geo)
        assert np.sqrt((field**2).mean()) == pytest.approx(FIELD_RMS, rel=1e-12)

    def test_calibration_constant_targets_14_db(self):
        # expected input SNR with noise sigma 2 is 20 log10(FIELD_RMS / 2)
        assert 20 * np.log10(FIELD_RMS / 2.0) == pytest.approx(14.0)


class TestSensorFieldConfig:
    def test_defaults_match_documented_experiment(self):
        cfg = SensorFieldConfig()
        assert cfg.n_sensors == 64
        assert cfg.noise_sigma == 2.0
        assert cfg.shifts == 1

    @pytest.mark.parametrize("field, bad", [
        ("n_sensors", 2.5), ("n_sensors", 64.0), ("n_sensors", True), ("n_sensors", "64"),
        ("shifts", 1.5), ("shifts", 1.0), ("shifts", "1"),
        ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", True),
    ])
    def test_non_integer_counts_rejected(self, field, bad):
        # rejected on construction, before a kernel is built or balanced
        with pytest.raises(ValueError, match=f"^{field} must be .*integer"):
            SensorFieldConfig(**{field: bad})
        assert SensorFieldConfig(**{field: np.int64(3)}) == SensorFieldConfig(**{field: 3})

    def test_numpy_integers_write_the_same_json(self):
        fields = dict(n_sensors=48, shifts=2, seed=5)
        numpy_ints = SensorFieldConfig(**{k: np.int64(v) for k, v in fields.items()})
        assert all(type(getattr(numpy_ints, k)) is int for k in fields)
        assert (run_sensor_demo(numpy_ints).to_json()
                == run_sensor_demo(SensorFieldConfig(**fields)).to_json())

    def test_validation(self):
        with pytest.raises(ValueError, match="n_sensors"):
            SensorFieldConfig(n_sensors=1)
        with pytest.raises(ValueError, match="noise_sigma"):
            SensorFieldConfig(noise_sigma=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^noise_sigma must be finite and .*, got {bad}"):
                SensorFieldConfig(noise_sigma=bad)


class TestRunSensorDemo:
    def test_zero_noise_short_circuits(self):
        report = run_sensor_demo(SensorFieldConfig(noise_sigma=0.0, seed=1))
        assert report.input_snr_db == float("inf")
        assert report.output_snr_db == float("inf")
        assert report.gain_db == 0.0
        assert np.array_equal(report.denoised, report.true_field)

    def test_demo_reads_its_kernel_as_one_triangle(self, monkeypatch):
        # balancing and the shifts read the built kernel through dsymv alone:
        # its lower half is never mirrored
        from dsshift import demo, graphs

        built, fills = [], []
        build, fill = demo.build_weight_matrix, graphs._mirror
        monkeypatch.setattr(demo, "build_weight_matrix",
                            lambda *a, **k: built.append(build(*a, **k)) or built[-1])
        monkeypatch.setattr(graphs, "_mirror", lambda w: fills.append(w) or fill(w))
        report = run_sensor_demo(SensorFieldConfig(n_sensors=2000, seed=1))
        assert report.gain_db > 0
        assert len(built) == 1 and built[0]._upper is not None and not fills

    def test_gain_is_exactly_output_minus_input(self):
        report = run_sensor_demo(SensorFieldConfig(seed=2))
        assert report.gain_db == report.output_snr_db - report.input_snr_db

    def test_identical_seed_gives_identical_report_bytes(self):
        a = run_sensor_demo(SensorFieldConfig(seed=3)).to_json()
        b = run_sensor_demo(SensorFieldConfig(seed=3)).to_json()
        assert a.encode() == b.encode()

    def test_different_seeds_differ(self):
        a = run_sensor_demo(SensorFieldConfig(seed=4))
        b = run_sensor_demo(SensorFieldConfig(seed=5))
        assert a.input_snr_db != b.input_snr_db

    def test_default_config_denoises(self):
        gains = [run_sensor_demo(SensorFieldConfig(seed=s)).gain_db for s in range(5)]
        assert np.mean(gains) > 0.0

    def test_oversmoothing_hurts(self):
        g1 = run_sensor_demo(SensorFieldConfig(seed=42, shifts=1)).gain_db
        g50 = run_sensor_demo(SensorFieldConfig(seed=42, shifts=50)).gain_db
        assert g50 < g1

    def test_report_schema(self):
        report = run_sensor_demo(SensorFieldConfig(seed=6))
        payload = report.to_dict()
        assert payload["schema"] == 2
        assert set(payload["operator"]) == {"residual", "iterations"}
        assert len(payload["true_field"]) == 64
        assert len(payload["noisy"]) == 64
        assert len(payload["denoised"]) == 64


def _demo_report(threads: int) -> dict:
    """The demo's report at 1000 sensors, run in a fresh interpreter whose BLAS
    uses ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dsshift.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    code = ("import dsshift; print(dsshift.run_sensor_demo("
            "dsshift.SensorFieldConfig(n_sensors=1000, seed=1)).to_json())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_report_agrees_across_blas_thread_counts():
    # a threaded symmetric product sums partial vectors, so the last bits may
    # move with the thread count; the results may not
    one, two = _demo_report(1), _demo_report(2)
    assert one["gain_db"] == pytest.approx(two["gain_db"], rel=1e-12, abs=0)
    a, b = np.array(one["denoised"]), np.array(two["denoised"])
    assert np.abs(a - b).max() <= a.size * np.finfo(float).eps * np.abs(b).max()
    assert one["operator"]["iterations"] == two["operator"]["iterations"]
