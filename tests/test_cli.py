import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp

import dsshift
from dsshift import sinkhorn_knopp
from dsshift.cli import main
from dsshift.fileio import (
    load_birkhoff_json,
    load_matrix_market,
    load_signal_csv,
    save_matrix_market,
    save_signal_csv,
)

from conftest import demo_kernel, star


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

    @pytest.mark.parametrize(
        "w, entry",
        [
            (np.array([[1.0, 1.0], [1.0, 0.0]]), "(0, 0)"),  # a diagonal, none through (0, 0)
            (star(6), "(0, 1)"),  # no self loops: no positive diagonal at all
        ],
        ids=["no-total-support", "star-6"],
    )
    def test_no_total_support_exits_2_naming_the_entry(self, tmp_path, capsys, w, entry):
        path = tmp_path / "W.mtx"
        save_matrix_market(path, w)
        out = tmp_path / "S.mtx"
        rc = run(["balance", "--input", path, "--output", out])
        assert rc == 2
        assert f"entry {entry} is on no positive diagonal" in capsys.readouterr().err
        assert not out.exists()

    def test_non_convergent_exits_3(self, tmp_path, capsys):
        # 1e-17 is below what rounding allows: the residual stalls near 2e-16
        w = tmp_path / "W.mtx"
        save_matrix_market(w, np.random.default_rng(0).uniform(0.5, 1.5, (8, 8)))
        start = time.monotonic()
        rc = run(["balance", "--input", w, "--output", tmp_path / "S.mtx", "--tol", "1e-17"])
        assert time.monotonic() - start < 1.0
        assert rc == 3
        assert "no convergence" in capsys.readouterr().err

    def test_max_iter_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run(["balance", "--input", tmp_path / "W.mtx", "--output", tmp_path / "S.mtx",
                 "--max-iter", 50])
        assert "unrecognized arguments: --max-iter" in capsys.readouterr().err

    def test_nan_tol_exits_2_before_balancing(self, tmp_path, capsys):
        w = tmp_path / "W.mtx"
        save_matrix_market(w, np.array([[1.0, 2.0], [2.0, 1.0]]))
        out = tmp_path / "S.mtx"
        rc = run(["balance", "--input", w, "--tol", "nan", "--output", out])
        assert rc == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "S.mtx.json").exists()

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

    def test_balanced_symmetric_kernel_is_written_general(self, tmp_path, capsys):
        # The cli-sparse-5k kernel (seed 1): its W.mtx is one triangle, and the
        # formed S = (r_i w_ij) c_j misses its mirror by an ulp, so S.mtx stays
        # general and is byte for byte what a general W.mtx gives.
        from scipy.io import mmwrite

        g = demo_kernel(*np.random.default_rng(1).uniform(0.0, 1.0, (2, 5000)), scale=300.0)
        w_sym, w_gen = tmp_path / "W.mtx", tmp_path / "W_general.mtx"
        save_matrix_market(w_sym, g)
        mmwrite(w_gen, sp.coo_array(g.weights), field="real", symmetry="general")
        assert w_sym.read_text().startswith("%%MatrixMarket matrix coordinate real symmetric\n")
        for name, w in (("S.mtx", w_sym), ("S_general.mtx", w_gen)):
            assert run(["balance", "--input", w, "--output", tmp_path / name]) == 0
        s = (tmp_path / "S.mtx").read_bytes()
        assert s.startswith(b"%%MatrixMarket matrix coordinate real general\n")
        assert s == (tmp_path / "S_general.mtx").read_bytes()
        sidecars = [(tmp_path / f"{name}.json").read_bytes() for name in ("S.mtx", "S_general.mtx")]
        assert sidecars[0] == sidecars[1]


    def test_symmetric_file_is_balanced_without_a_symmetry_check(self, tmp_path, monkeypatch):
        # the loader mirrors a symmetric file, so its W is exactly symmetric;
        # a general file's W is checked once, and both give the same S.mtx
        from scipy.io import mmwrite

        from dsshift import graphs

        g = demo_kernel(*np.random.default_rng(2).uniform(0.0, 1.0, (2, 1000)), scale=600.0)
        w_sym, w_gen = tmp_path / "W.mtx", tmp_path / "W_general.mtx"
        save_matrix_market(w_sym, g)
        mmwrite(w_gen, sp.coo_array(g.weights), field="real", symmetry="general")
        checks = []
        check = graphs._is_symmetric
        monkeypatch.setattr(graphs, "_is_symmetric", lambda a: checks.append(a) or check(a))
        for name, w, calls in (("S.mtx", w_sym, 0), ("S_general.mtx", w_gen, 1)):
            assert run(["balance", "--input", w, "--output", tmp_path / name]) == 0
            assert len(checks) == calls
        assert (tmp_path / "S.mtx").read_bytes() == (tmp_path / "S_general.mtx").read_bytes()


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

    @pytest.mark.parametrize("body", ["3 2 2\n1 1 1.0\n3 1 2.0\n", "2 3 1\n1 1 1.0\n"],
                             ids=["tall", "wide"])
    def test_non_square_symmetric_operator_exits_2_naming_line_2(self, tmp_path, capsys, body):
        op, x = tmp_path / "S.mtx", tmp_path / "x.csv"
        op.write_text("%%MatrixMarket matrix coordinate real symmetric\n" + body)
        save_signal_csv(x, [1.0, 2.0])
        rc = run(["shift", "--op", op, "--signal", x])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {op}:2: symmetric matrix must be square")

    def test_non_ascii_signal_exits_2_naming_its_line(self, tmp_path, operator_file, capsys):
        x = tmp_path / "x.csv"
        x.write_bytes(b"\xef\xbb\xbf3.0\n0.0\n")  # a UTF-8 byte order mark
        rc = run(["shift", "--op", operator_file, "--signal", x])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {x}:1: non-ASCII byte 0xef\n"

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
        assert [round(a, 6) for a in payload["a"]] == [0.333333, 0.666667]
        assert (payload["first"], payload["indptr"]) == ([0, 1], [0, 0, 2])
        assert (payload["rows"], payload["cols"]) == ([0, 1], [1, 0])  # the swap
        d = load_birkhoff_json(out)
        assert d.n_terms == 2
        record = json.loads(capsys.readouterr().out)
        assert sorted(record) == ["dust", "dust_bound", "output", "repairs", "terms"]
        assert (record["terms"], record["repairs"]) == (2, 2)
        assert record["dust"] <= record["dust_bound"]

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

    @pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--sigma", "inf"),
                                             ("--mu", "inf"), ("--mu", "nan")])
    def test_non_finite_moment_exits_2(self, operator_file, capsys, flag, value):
        moments = {"--sigma": "1.0", "--mu": "0.0", flag: value}
        args = ["bounds", "--op", operator_file, "--vertex", 0, "--rho", 0.5, "--trials", 100]
        assert run(args + [x for item in moments.items() for x in item]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[2:]} must be finite" in captured.err


    def test_overflow_in_the_monte_carlo_exits_3_without_a_warning(self, operator_file):
        # the Monte Carlo's worker threads run under the CLI's errstate, so the
        # overflow raises there instead of warning from a thread first
        src = os.path.dirname(os.path.dirname(os.path.abspath(dsshift.__file__)))
        args = ["bounds", "--op", operator_file, "--vertex", "0", "--sigma", "1e308",
                "--rho", "0.5", "--trials", "1000"]
        done = subprocess.run([sys.executable, "-m", "dsshift", *args], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and "RuntimeWarning" not in done.stderr


class TestDemoCommand:
    def test_demo_summary_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(["demo-sensors", "--seed", 42, "--output", out])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["gain_db"] > 0
        report = json.loads(out.read_text())
        assert report["schema"] == 2
        assert len(report["true_field"]) == 64

    def test_zero_noise_writes_strict_json(self, tmp_path, capsys):
        # both SNRs are the +inf sentinel, which strict JSON writes as null
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        out = tmp_path / "report.json"
        assert run(["demo-sensors", "--noise-sigma", 0, "--seed", 1, "--output", out]) == 0
        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        report = json.loads(out.read_text(), parse_constant=reject)
        assert summary == {"input_snr_db": None, "output_snr_db": None, "gain_db": 0.0}
        assert {k: report[k] for k in summary} == summary

    def test_invalid_sensor_count_exits_2(self):
        assert run(["demo-sensors", "--sensors", 1]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_sigma_exits_2(self, capsys, value):
        assert run(["demo-sensors", "--sensors", 8, "--noise-sigma", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise_sigma must be finite" in captured.err
