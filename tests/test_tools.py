import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBE = ROOT / "tools" / "scale_probe.py"


def test_scale_probe_runs_its_default_steps(tmp_path):
    # the probe wraps the kernel's arrays in a Graph through graphs._trusted, so a
    # change to Graph's internals shows here, not only in a 100 000-vertex run
    spec = importlib.util.spec_from_file_location("scale_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert "norm" in probe.DEFAULT_STEPS
    done = subprocess.run([sys.executable, str(PROBE), "--n", "2000", "--workdir", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = [line.split() for line in lines[2:-1]]  # after the size and header lines
    assert [row[0] for row in rows] == list(probe.DEFAULT_STEPS)
    assert all(len(row) == 4 and float(row[1]) >= 0 for row in rows)
    assert lines[-1].startswith("kernel CSR ")


def test_every_mutant_names_one_text_of_src():
    # tools/mutants.py is not run here; its list must not rot as src/ changes
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) == len({m.name for m in mutants.MUTANTS})
    for m in mutants.MUTANTS:
        assert m.file.startswith("src/") and m.old != m.new, m.name
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
