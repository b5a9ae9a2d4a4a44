"""Scale probe: the cli-sparse pipeline at n sites, one step per fresh process.

Usage, from the repository root:

    python3 tools/scale_probe.py --n 100000 --workdir /tmp/probe

The sites are cli-sparse-5k's (``benchmarks/workloads.py``, seed 1) at n
sites, with the kernel scale shrunk as 300 * sqrt(5000 / n), so a row keeps
about as many neighbours as at 5000.  Each step runs in its own process and
prints its wall time and the rise of the process's peak resident memory
(VmHWM) across the step, also as a multiple of the kernel's CSR bytes:

    build     build_weight_matrix (threshold 1e-4, self loops)
    validate  validate_weights of the kernel's Graph
    balance   sinkhorn_knopp, tol 1e-10
    shift     diffuse by the balanced operator, k = 20
    norm      matrix_norm(op, 2) of the balanced operator, unformed
    birkhoff  birkhoff_decompose of the formed S, as ``dsshift birkhoff`` does
              (S is formed before the step); not among the default steps, as
              its terms grow like the kernel's entries and each costs O(n)
    save      save_matrix_market of the balanced operator, as ``dsshift balance``
              does: written as stored, a block of rows at a time, S never formed
    load      load_matrix_market of that S.mtx

The build step stores the kernel's CSR arrays as .npy files in the work
directory, and the later steps wrap them in a Graph without a copy, so their
setup peaks no higher than the kernel itself; a step's rise is what it adds.
The save and load steps leave S.mtx there (about 430 MB at n = 100 000).
VmHWM is Linux's; the probe is a measurement, not a test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS = ("build", "validate", "balance", "shift", "norm", "birkhoff", "save", "load")
DEFAULT_STEPS = tuple(step for step in STEPS if step != "birkhoff")


def _peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0])


def _geometry(n: int):
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import numpy as np
    from workloads import _sites

    return _sites(*np.random.default_rng(1).uniform(0.0, 1.0, (2, n)))


def _kernel(workdir: str):
    """The build step's kernel as a Graph over its stored arrays, uncopied."""
    import numpy as np
    import scipy.sparse as sp

    from dsshift.graphs import Graph, _read_only, _trusted

    parts = [np.load(os.path.join(workdir, f"W_{k}.npy")) for k in ("data", "indices", "indptr")]
    w = sp.csr_array(tuple(parts), shape=(parts[2].size - 1,) * 2)
    return _trusted(Graph, _weights=_read_only(w), _symmetric=True)


def _run_step(step: str, n: int, workdir: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import dsshift as ds
    from dsshift.fileio import load_matrix_market, save_matrix_market

    scale = 300.0 * math.sqrt(5000 / n)
    s_mtx = os.path.join(workdir, "S.mtx")
    # setup, untimed: imports warmed by a small build, and the inputs the step reads
    ds.build_weight_matrix(_geometry(1000), scale=300.0 * math.sqrt(5), threshold=1e-4)
    if step == "build":
        geometry = _geometry(n)
        run = lambda: ds.build_weight_matrix(geometry, scale=scale, threshold=1e-4,
                                             self_loops=True)
    elif step == "load":
        run = lambda: load_matrix_market(s_mtx)
    else:
        graph = _kernel(workdir)
        op = (ds.sinkhorn_knopp(graph, tol=1e-10).operator
              if step in ("shift", "norm", "birkhoff", "save") else None)
        s = op.matrix if step == "birkhoff" else None
        x = np.random.default_rng(1).uniform(0.5, 1.5, n)
        run = {"validate": lambda: ds.validate_weights(graph),
               "balance": lambda: ds.sinkhorn_knopp(graph, tol=1e-10),
               "shift": lambda: ds.diffuse(op, x, 20),
               "norm": lambda: ds.matrix_norm(op, 2),
               "birkhoff": lambda: ds.birkhoff_decompose(s),
               "save": lambda: save_matrix_market(s_mtx, op)}[step]
    before = _peak_kib()
    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start
    rise = (_peak_kib() - before) * 1024
    if step == "build":
        for k in ("data", "indices", "indptr"):
            np.save(os.path.join(workdir, f"W_{k}.npy"), getattr(result.weights, k))
    csr_bytes = sum(np.load(os.path.join(workdir, f"W_{k}.npy"), mmap_mode="r").nbytes
                    for k in ("data", "indices", "indptr"))
    return {"step": step, "seconds": seconds, "rise_bytes": rise, "csr_bytes": csr_bytes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--workdir", required=True, help="directory for W's arrays and S.mtx")
    p.add_argument("--steps", default=",".join(DEFAULT_STEPS),
                   help=f"comma-separated, in this order, from {','.join(STEPS)}")
    p.add_argument("--step", help=argparse.SUPPRESS)  # one step, in this process
    args = p.parse_args(argv)
    if args.step:
        print(json.dumps(_run_step(args.step, args.n, args.workdir)))
        return 0
    os.makedirs(args.workdir, exist_ok=True)
    print(f"n = {args.n}, kernel scale {300.0 * math.sqrt(5000 / args.n):.1f}")
    print(f"{'step':10s}{'seconds':>9s}{'VmHWM rise MiB':>16s}{'x CSR':>8s}")
    for step in args.steps.split(","):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--step", step,
                               "--n", str(args.n), "--workdir", args.workdir],
                              capture_output=True, text=True, check=True)
        record = json.loads(done.stdout.splitlines()[-1])
        print(f"{step:10s}{record['seconds']:9.3f}{record['rise_bytes'] / 2**20:16.1f}"
              f"{record['rise_bytes'] / record['csr_bytes']:8.2f}")
    print(f"kernel CSR {record['csr_bytes'] / 2**20:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
