import json

import numpy as np
import pytest

from dsshift import sinkhorn_knopp
from dsshift.cli import main
from dsshift.fileio import (
    load_birkhoff_json,
    load_matrix_market,
    load_signal_csv,
    save_matrix_market,
    save_signal_csv,
)


@pytest.fixture
def operator_file(tmp_path):
    s = sinkhorn_knopp(np.array([[1.0, 2.0], [2.0, 1.0]])).operator
    path = tmp_path / "S.mtx"
    save_matrix_market(path, s.matrix)
    return str(path)


def run(args):
    return main([str(a) for a in args])


class TestBalanceCommand:
    def test_balances_and_writes_sidecar(self, tmp_path, capsys):
        w = tmp_path / "W.mtx"
        save_matrix_market(w, np.array([[1.0, 2.0], [2.0, 1.0]]))
        out = tmp_path / "S.mtx"
        rc = run(["balance", "--input", w, "--tol", "1e-10", "--output", out])
        assert rc == 0
        s = load_matrix_market(out)
        assert np.abs(s - np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])).max() <= 1e-10
        sidecar = json.loads((tmp_path / "S.mtx.json").read_text())
        assert set(sidecar) == {"residual", "iterations"}
        stdout = capsys.readouterr().out
        assert json.loads(stdout.strip())["iterations"] >= 1

    def test_unbalanceable_input_exits_2(self, tmp_path, capsys):
        w = tmp_path / "W.mtx"
        save_matrix_market(w, np.array([[1.0, 0.0], [1.0, 0.0]]))
        rc = run(["balance", "--input", w, "--output", tmp_path / "S.mtx"])
        assert rc == 2
        assert "unbalanceable" in capsys.readouterr().err

    def test_non_convergent_exits_3(self, tmp_path, capsys):
        w = tmp_path / "W.mtx"
        save_matrix_market(w, np.array([[1.0, 1.0], [1.0, 0.0]]))
        rc = run(
            ["balance", "--input", w, "--output", tmp_path / "S.mtx", "--max-iter", 50]
        )
        assert rc == 3
        assert "convergence" in capsys.readouterr().err

    def test_nan_weights_exit_2_before_balancing(self, tmp_path, capsys):
        w = tmp_path / "W.mtx"  # written by hand: save_matrix_market refuses NaN
        w.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 1\n1 2 nan\n2 1 2\n2 2 1\n")
        rc = run(["balance", "--input", w, "--output", tmp_path / "S.mtx"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        rc = run(["balance", "--input", tmp_path / "none.mtx", "--output", tmp_path / "S.mtx"])
        assert rc == 4

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        w = tmp_path / "W.mtx"
        w.write_text("not a matrix\n")
        rc = run(["balance", "--input", w, "--output", tmp_path / "S.mtx"])
        assert rc == 2
        assert "W.mtx:1" in capsys.readouterr().err


class TestShiftCommand:
    def test_shift_writes_signal_and_norms(self, tmp_path, operator_file, capsys):
        x = tmp_path / "x.csv"
        save_signal_csv(x, [3.0, 0.0])
        out = tmp_path / "y.csv"
        rc = run(["shift", "--op", operator_file, "--signal", x, "--output", out])
        assert rc == 0
        y = load_signal_csv(out)
        assert np.allclose(y, [1.0, 2.0], atol=1e-10)
        record = json.loads((tmp_path / "y.csv.json").read_text())
        assert record["norms_before"]["l1"] == pytest.approx(3.0)
        assert record["norms_after"]["l1"] == pytest.approx(3.0, abs=1e-10)

    def test_repeated_shifts(self, tmp_path, operator_file):
        x = tmp_path / "x.csv"
        save_signal_csv(x, [3.0, 0.0])
        out = tmp_path / "y.csv"
        rc = run(["shift", "--op", operator_file, "--signal", x, "--k", 20, "--output", out])
        assert rc == 0
        assert np.abs(load_signal_csv(out) - 1.5).max() <= 1e-4

    def test_dimension_mismatch_exits_2(self, tmp_path, operator_file, capsys):
        x = tmp_path / "x.csv"
        save_signal_csv(x, [1.0, 2.0, 3.0])
        rc = run(["shift", "--op", operator_file, "--signal", x, "--output", tmp_path / "y.csv"])
        assert rc == 2

    def test_overflow_exits_3_without_a_record(self, tmp_path, capsys):
        op, x = tmp_path / "I.mtx", tmp_path / "x.csv"
        save_matrix_market(op, np.eye(2))
        save_signal_csv(x, [1e308, 1e308])  # the L1 and L2 norms overflow
        rc = run(["shift", "--op", op, "--signal", x])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflow" in captured.err

    def test_stdout_fallback_without_output_flag(self, tmp_path, operator_file, capsys):
        x = tmp_path / "x.csv"
        save_signal_csv(x, [3.0, 0.0])
        rc = run(["shift", "--op", operator_file, "--signal", x])
        assert rc == 0
        captured = capsys.readouterr()
        values = [float(line) for line in captured.out.strip().splitlines()]
        assert np.allclose(values, [1.0, 2.0], atol=1e-10)
        record = json.loads(captured.err.strip())
        assert record["norms_after"]["l1"] == pytest.approx(3.0, abs=1e-10)


class TestFilterCommand:
    def test_filter_matches_hand_value(self, tmp_path, capsys):
        s = tmp_path / "S.mtx"
        save_matrix_market(s, np.full((2, 2), 0.5))
        x = tmp_path / "x.csv"
        save_signal_csv(x, [0.0, 2.0])
        h = tmp_path / "h.csv"
        save_signal_csv(h, [0.5, 0.5])
        out = tmp_path / "y.csv"
        rc = run(["filter", "--op", s, "--coeffs", h, "--signal", x, "--output", out])
        assert rc == 0
        assert load_signal_csv(out).tolist() == [0.5, 1.5]
        record = json.loads((tmp_path / "y.csv.json").read_text())
        assert record["order"] == 1
        assert record["coefficient_l1"] == pytest.approx(1.0)


class TestBirkhoffCommand:
    def test_decomposition_json(self, tmp_path, operator_file, capsys):
        out = tmp_path / "decomp.json"
        rc = run(["birkhoff", "--op", operator_file, "--output", out])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [round(t["a"], 6) for t in payload["terms"]] == [0.333333, 0.666667]
        assert [t["perm"] for t in payload["terms"]] == [[0, 1], [1, 0]]
        d = load_birkhoff_json(out)
        assert d.n_terms == 2

    def test_non_doubly_stochastic_exits_2(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        save_matrix_market(bad, np.array([[0.9, 0.1], [0.2, 0.8]]))
        rc = run(["birkhoff", "--op", bad, "--output", tmp_path / "d.json"])
        assert rc == 2

    def test_zero_tol_is_not_an_option(self, tmp_path, operator_file, capsys):
        # the leftover bound comes from the input's measured imbalance
        with pytest.raises(SystemExit) as exc:
            run(["birkhoff", "--op", operator_file, "--zero-tol", "1e-9",
                 "--output", tmp_path / "d.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --zero-tol" in capsys.readouterr().err


class TestBoundsCommand:
    def test_report_schema_and_values(self, tmp_path, operator_file, capsys):
        out = tmp_path / "bounds.json"
        rc = run(
            [
                "bounds", "--op", operator_file, "--vertex", 0,
                "--sigma", 1.0, "--rho", 0.5, "--mu", 0.0,
                "--trials", 20000, "--seed", 42, "--output", out,
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["L"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["U"] == pytest.approx(2 / 3, abs=1e-9)
        assert report["kantorovich"] == pytest.approx(9 / 16, abs=1e-9)
        assert report["var_exact"] == pytest.approx(7 / 9, abs=1e-9)
        assert report["var_bound"] == pytest.approx(10 / 9, abs=1e-9)
        mc = report["mc"]
        assert abs(mc["var"] - 7 / 9) <= 3 * mc["stderr_var"]
        assert abs(mc["mean"]) <= 4 * mc["stderr_mean"]

    def test_invalid_rho_exits_2(self, tmp_path, operator_file):
        rc = run(
            ["bounds", "--op", operator_file, "--vertex", 0, "--sigma", 1.0, "--rho", 2.0]
        )
        assert rc == 2


class TestDemoCommand:
    def test_demo_summary_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(["demo-sensors", "--seed", 42, "--output", out])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["gain_db"] > 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert len(report["true_field"]) == 64

    def test_invalid_sensor_count_exits_2(self):
        assert run(["demo-sensors", "--sensors", 1]) == 2
