"""dsshift benchmark: one seeded workload per process, timed end to end.

Usage, from the repository root:

    python3 benchmarks/run.py --workload cli-sparse-5k --seed 1 --seconds 25 --trace 0

The job of the workload starts again and again until ``--seconds`` have
passed (at least once).  Each job's outputs are checked after it, outside
the timed region.  ``--trace 0`` reports the end-to-end metrics of untraced
jobs; ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the per-job samples and any failed operations.
Exit code 0 when every correctness gate passed, 1 when one failed, 2 when
the dsshift sources are missing.  See README.md in this directory for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="demo-dense-5k, cli-sparse-5k or reuse-analysis")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import dsshift, generate the inputs and exit (one setup_s sample)")
    return p.parse_args(argv)


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _blas_threads():
    """Threads OpenBLAS reports, or None when the library cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _setup_samples(args) -> list[float]:
    """Wall time of fresh processes that import dsshift and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t)
    return samples


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(args, workload_cls, workdir: str):
    """Untraced jobs, and with ``--trace 1`` a traced job after each."""
    from tracing import Tracer, layer_metrics
    from workloads import Job

    workload = workload_cls(args.seed, workdir)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        for is_traced in (False, True) if args.trace else (False,):
            job, tracer = Job(), Tracer()
            with tracer.installed() if is_traced else contextlib.nullcontext():
                t = time.perf_counter()
                workload.run(job)
                job.seconds = time.perf_counter() - t
            job.peak_rss_mb = _peak_rss_mb()
            workload.check(job)
            if is_traced:
                job.layers = layer_metrics(tracer.spans)
                job.layers["birkhoff.reconstruct_err"] = getattr(workload, "reconstruct_err", 0.0)
                traced.append(job)
            else:
                untraced.append(job)
        if time.perf_counter() >= deadline:
            break
    return untraced, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dsshift", "__init__.py")):
        print(f"error: dsshift sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path.insert(0, SRC)
    import dsshift

    if os.path.dirname(os.path.dirname(os.path.abspath(dsshift.__file__))) != SRC:
        print(f"error: imported dsshift from {dsshift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            workload_cls(args.seed, workdir)
            return 0
        setup = _setup_samples(args)
        untraced, traced = _run(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    every = untraced + traced
    attempted = sum(j.attempted for j in every)
    failed = sum(j.failed for j in every)
    errors = [e for j in every for e in j.errors]
    job_s = _median(j.seconds for j in untraced)

    if args.trace:
        from tracing import UNITS

        metrics = {k: _metric(_median(j.layers[k] for j in traced), UNITS[k])
                   for k in traced[0].layers}
        metrics["trace.overhead_s"] = _metric(
            _median(j.seconds for j in traced) - job_s, "s")
        # Phase rates of reuse-analysis, from its untraced jobs; 0 elsewhere.
        for key in ("signals_per_s", "mc_trials_per_s", "decompose_s"):
            metrics[key] = _metric(_median(j.phases.get(key, 0.0) for j in untraced), UNITS[key])
    else:
        metrics = {
            "setup_s": _metric(_median(setup), "s"),
            "job_s": _metric(job_s, "s"),
            # After the first job: later jobs reuse heap the allocator kept.
            "peak_rss_mb": _metric(untraced[0].peak_rss_mb, "MB"),
            "ok_frac": _metric(1.0 - failed / attempted, "frac"),
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(nproc),
        "samples": {"setup_s": len(setup), "job_s": len(untraced), "traced_jobs": len(traced)},
        "setup_s_all": setup,
        "job_s_all": [j.seconds for j in untraced],
        "job_phases": [j.phases for j in untraced],
        "peak_rss_mb_after_job": [j.peak_rss_mb for j in untraced],
        "traced_job_s_all": [j.seconds for j in traced],
        "failed_ops": sorted({op for j in every for op, ok in j.ops.items() if not ok}),
        "errors": errors,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
