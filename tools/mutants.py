"""Mutation probe: does the tier-1 suite fail on each of a list of one-line faults?

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant replaces one text of a file under ``src/`` (it must occur there
exactly once) by another.  For each, the tree is copied to a temporary
directory, the mutant is applied to the copy and the tier-1 suite runs there
with ``-x``.  A mutant is killed when the suite fails, and survives when it
passes; one line is printed per mutant, with the first failing test of a
killed one, then a count.  Exit code 0 when every mutant was killed, 1
otherwise.  About a minute per surviving mutant on a 2-vCPU VM, less for a
killed one.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str


MUTANTS = (
    Mutant("stderr_variance three times too large", "src/dsshift/bounds.py",
           "stderr_variance=float(variance * np.sqrt(2.0 / (trials - 1))),",
           "stderr_variance=float(3 * variance * np.sqrt(2.0 / (trials - 1))),"),
    Mutant("stderr_mean three times too large", "src/dsshift/bounds.py",
           "stderr_mean=float(np.sqrt(variance / trials)),",
           "stderr_mean=float(3 * np.sqrt(variance / trials)),"),
    Mutant("stderr_power three times too large", "src/dsshift/bounds.py",
           "stderr_power=float(squares.std(ddof=1) / np.sqrt(trials)),",
           "stderr_power=float(3 * squares.std(ddof=1) / np.sqrt(trials)),"),
    Mutant("kantorovich_bound's check of the inequality off", "src/dsshift/bounds.py",
           "assert lb.sum_sq <= bound * lb.total**2 * (1 + 1e-9), (lb.sum_sq, bound)",
           "pass"),
    Mutant("balance._STALL at 2", "src/dsshift/balance.py",
           "_STALL = 10", "_STALL = 2"),
    Mutant("shifting._STALE_STEPS at 30", "src/dsshift/shifting.py",
           "_STALE_STEPS = 10", "_STALE_STEPS = 30"),
    Mutant("Monte Carlo's common factor dropped", "src/dsshift/bounds.py",
           "np.sqrt(model.rho) * total * chunk[:, 0]", "0.0 * chunk[:, 0]"),
    Mutant("sampler's 1 - rho halved", "src/dsshift/bounds.py",
           "np.sqrt(1.0 - model.rho) * z[..., 1:]", "np.sqrt(0.5 * (1.0 - model.rho)) * z[..., 1:]"),
    Mutant("verify_doubly_stochastic's column check dropped", "src/dsshift/balance.py",
           "passed = row_res <= tol and col_res <= tol and", "passed = row_res <= tol and"),
    Mutant("birkhoff._CUT at 1e-8", "src/dsshift/birkhoff.py",
           "_CUT = 1e-12", "_CUT = 1e-8"),
    Mutant("storage rule at a half", "src/dsshift/graphs.py",
           "4 * nnz >= rows * cols", "2 * nnz >= rows * cols"),
    Mutant("kernel mask against threshold, not its positive floor", "src/dsshift/graphs.py",
           "np.greater_equal(d, max(threshold, math.ulp(0.0)), out=mask)",
           "np.greater_equal(d, threshold, out=mask)"),
    Mutant("dense kernel count's diagonal-block correction dropped", "src/dsshift/graphs.py",
           "count -= np.count_nonzero(mask[:, :hi - j])", "pass"),
    Mutant("triangle's row read takes the diagonal entry twice", "src/dsshift/graphs.py",
           "np.triu(d) + np.triu(d, 1).T", "np.triu(d) + np.triu(d).T"),
    Mutant("triangle's row read takes the column strip from the lower half",
           "src/dsshift/graphs.py", "(w[:lo, lo:hi].T, ", "(w[lo:hi, :lo], "),
)


def _run(mutant: Mutant, workdir: str) -> tuple[bool, str]:
    """``(killed, first failing test or "")`` for the tier-1 suite on a mutated copy."""
    tree = os.path.join(workdir, "tree")
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*"))
    path = os.path.join(tree, mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    # the one test that reads this list fails on any mutated copy: its old text is gone
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--deselect",
                           "tests/test_tools.py::test_every_mutant_names_one_text_of_src"],
                          cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode != 0, failed.group(1) if failed else ""


def main() -> int:
    killed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="dsshift-mutant-") as workdir:
            dead, test = _run(mutant, workdir)
        killed += dead
        print(f"{'killed  ' if dead else 'SURVIVED'} {time.perf_counter() - start:6.1f} s  "
              f"{mutant.name}{'  (' + test + ')' if test else ''}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
