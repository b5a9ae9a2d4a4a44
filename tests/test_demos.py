"""Every demo script, the README quickstart, the README's command-line
block and its converter of the earlier decomposition layout run to
completion, so an API change that breaks one of them fails a test."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsshift import birkhoff_decompose, sinkhorn_knopp
from dsshift.cli import main
from dsshift.fileio import load_birkhoff_json, save_matrix_market, save_signal_csv

from conftest import demo_kernel

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty parametrization would pass silently


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(script, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quickstart\s+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_command_line_exits_0(tmp_path, monkeypatch):
    # the block's inputs: an n=64 demo-kernel W.mtx, a signal and filter taps
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\s.*?```bash\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "dsshift" for argv in commands)
    rng = np.random.default_rng(0)
    monkeypatch.chdir(tmp_path)
    save_matrix_market("W.mtx", demo_kernel(*rng.uniform(0.0, 1.0, (2, 64))))
    save_signal_csv("x.csv", rng.uniform(10.0, 20.0, 64))
    save_signal_csv("h.csv", [0.5, 0.3, 0.2])
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)


@pytest.mark.parametrize("n", [1, 9])
def test_readme_converter_reads_the_earlier_layout(tmp_path, monkeypatch, n):
    w = np.eye(n) if n == 1 else np.random.default_rng(3).uniform(0.5, 1.5, (n, n))
    d = birkhoff_decompose(sinkhorn_knopp(w).operator)
    terms = [{"a": float(a), "perm": p.tolist()} for a, p in d.terms()]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.json").write_text(json.dumps({"terms": terms}))
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"Migration: a decomposition file.*?```python\n(.*?)```", readme,
                      re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    back = load_birkhoff_json("new.json")
    assert np.array_equal(back.coefficients, d.coefficients)
    assert np.array_equal(back.permutations, d.permutations)
