"""The benchmark's workloads: seeded inputs, the timed job, and the
correctness gates that run after it.

Every call into dsshift goes through a module attribute looked up at call
time (``ds.sinkhorn_knopp``, ``fileio.save_matrix_market``, ``cli.main``),
so the span wrappers installed by ``tracing.py`` see every call.

An *operation* is one top-level public call made by the job.  It fails when
it raises, when a CLI call returns a non-zero exit code, or when a gate on
its output fails.  Gates run outside the timed region.
"""

from __future__ import annotations

import json
import os
import time
import traceback

import numpy as np
import scipy.sparse as sp

import dsshift as ds
from dsshift import cli, fileio

# The demo's sensor region (same constants as dsshift.demo): a roughly
# 10 km square centred at 45 N, 7 E, with a smooth altitude hill.
_LAT0, _LAT_HALF = 45.0, 0.045
_LON0, _LON_HALF = 7.0, 0.045 / np.cos(np.radians(45.0))

# The demo's kernel settings, reused by the reuse-analysis operators.
_DEMO_KERNEL = dict(scale=1800.0, threshold=1e-4, self_loops=True)

# reuse-analysis sizes.
_REUSE_N = 2000
_FILTER_SIGNALS = 128
_FILTER_ORDER = 8
_MC_VERTICES = 3
_MC_TRIALS = 25_000
_MC_MODEL = ds.RandomSignalModel(mu=1.0, sigma=1.0, rho=0.3)
# Birkhoff operators: one site at the centre of each cell of a rows x cols
# grid over the demo region, the same for every seed.  At the default
# zero_tol n=64 decomposes (2067 terms) and n=96 raises DecompositionError:
# the ROADMAP's known Birkhoff defect, kept as a counted failure.  On random
# sites both outcomes, and the decomposition time, change with the seed
# (n=64 failed on 6 of 8 seeds, n=96 succeeded on some), which made
# ok_frac and job_s measure the seed rather than the code.
_BIRKHOFF_GRIDS = ((8, 8), (8, 12))


def _sites(u: np.ndarray, v: np.ndarray) -> ds.VertexGeometry:
    """Sites at unit-square positions (u east, v north) in the demo region."""
    alt = 280.0 * np.exp(-(((u - 0.35) ** 2 + (v - 0.65) ** 2) / 0.4**2))
    return ds.VertexGeometry(lat=_LAT0 + _LAT_HALF * (2 * v - 1),
                             lon=_LON0 + _LON_HALF * (2 * u - 1), alt=alt)


def grid_geometry(rows: int, cols: int) -> ds.VertexGeometry:
    """One site at the centre of each cell of a rows x cols grid."""
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return _sites((j.ravel() + 0.5) / cols, (i.ravel() + 0.5) / rows)


class Job:
    """Operation bookkeeping for one execution of a workload's job."""

    def __init__(self):
        self.ops: dict[str, bool] = {}
        self.errors: list[str] = []
        self.phases: dict[str, float] = {}  # reuse-analysis phase rates
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        self.layers: dict[str, float] = {}  # per-layer metrics of a traced job

    def call(self, name, fn, *args, **kwargs):
        """Run one operation.  DecompositionError only fails the operation
        (the known Birkhoff defect); any other raise, a non-zero CLI exit
        code or a failed gate also makes the result incorrect."""
        try:
            out = fn(*args, **kwargs)
        except ds.DecompositionError:
            self.ops[name] = False
            return None
        except Exception:  # a broken program must still yield a result line
            traceback.print_exc()
            self.fail(name, "raised")
            return None
        if name.startswith("cli.") and out != 0:
            self.fail(name, f"exit code {out}")
        else:
            self.ops[name] = True
        return out

    def fail(self, op: str, what: str) -> None:
        self.errors.append(f"{op}: {what}")
        self.ops[op] = False

    def gate(self, op: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(op, what)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ops.values())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


class DemoDense:
    """``dsshift demo-sensors`` at 5000 sensors: the paper's experiment."""

    name = "demo-dense-5k"

    def __init__(self, seed: int, workdir: str):
        self.report = os.path.join(workdir, "report.json")
        self.argv = ["demo-sensors", "--sensors", "5000", "--seed", str(seed),
                     "--output", self.report]

    def run(self, job: Job) -> None:
        job.call("cli.demo-sensors", cli.main, self.argv)

    def check(self, job: Job) -> None:
        op = "cli.demo-sensors"
        if not job.ops[op]:
            return
        with open(self.report, encoding="ascii") as fh:
            report = json.load(fh)
        job.gate(op, report["gain_db"] > 0, f"gain_db {report['gain_db']} <= 0")
        residual = report["operator"]["residual"]
        job.gate(op, residual <= 1e-10, f"operator residual {residual:.3e} > 1e-10")


class CliSparse:
    """Geometry CSV -> sparse kernel -> Matrix Market -> ``dsshift balance``
    -> ``dsshift shift --k 20`` at 5000 sites."""

    name = "cli-sparse-5k"
    N = 5000

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        geometry = _sites(*rng.uniform(0.0, 1.0, (2, self.N)))
        self.x = rng.uniform(0.5, 1.5, self.N)
        self.geometry_csv = os.path.join(workdir, "sites.csv")
        self.signal_csv = os.path.join(workdir, "x.csv")
        self.w_mtx = os.path.join(workdir, "W.mtx")
        self.s_mtx = os.path.join(workdir, "S.mtx")
        self.y_csv = os.path.join(workdir, "y.csv")
        with open(self.geometry_csv, "w", encoding="ascii") as fh:
            fh.write("id,lat,lon,alt\n")
            for i, row in enumerate(zip(geometry.lat, geometry.lon, geometry.alt)):
                fh.write(f"{i}," + ",".join(format(v, ".17g") for v in row) + "\n")
        with open(self.signal_csv, "w", encoding="ascii") as fh:
            fh.writelines(format(v, ".17g") + "\n" for v in self.x)

    def run(self, job: Job) -> None:
        geometry = job.call("fileio.load_geometry_csv", fileio.load_geometry_csv,
                            self.geometry_csv)
        graph = job.call("graphs.build_weight_matrix", ds.build_weight_matrix,
                         geometry, scale=300.0, threshold=1e-4, self_loops=True)
        job.call("fileio.save_matrix_market", fileio.save_matrix_market,
                 self.w_mtx, graph)
        job.call("cli.balance", cli.main,
                 ["balance", "--input", self.w_mtx, "--output", self.s_mtx])
        job.call("cli.shift", cli.main,
                 ["shift", "--op", self.s_mtx, "--signal", self.signal_csv,
                  "--k", "20", "--output", self.y_csv])

    def check(self, job: Job) -> None:
        if job.ops["cli.balance"]:
            with open(self.s_mtx + ".json", encoding="ascii") as fh:
                residual = json.load(fh)["residual"]
            job.gate("cli.balance", residual <= 1e-10,
                     f"sidecar residual {residual:.3e} > 1e-10")
            # Read S back with numpy, independently of dsshift's own loader.
            i, j, v = np.loadtxt(self.s_mtx, skiprows=2, unpack=True)
            s = sp.csr_matrix((v, (i.astype(np.int64) - 1, j.astype(np.int64) - 1)),
                              shape=(self.N, self.N))
            check = ds.verify_doubly_stochastic(s, 1e-9)
            job.gate("cli.balance", check.passed,
                     f"not doubly stochastic to 1e-9 (residual {check.residual:.3e})")
        if job.ops["cli.shift"]:
            y = np.loadtxt(self.y_csv)
            job.gate("cli.shift", _close(y.mean(), self.x.mean(), 1e-8),
                     f"mean {y.mean():.17g} != {self.x.mean():.17g}")
            job.gate("cli.shift", _close(np.abs(y).sum(), np.abs(self.x).sum(), 1e-8),
                     "L1 norm not preserved")


class ReuseAnalysis:
    """One n=2000 demo operator used heavily (filter stream, Monte Carlo),
    plus Birkhoff decompositions of small demo operators."""

    name = "reuse-analysis"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        u, v = rng.uniform(0.0, 1.0, (2, _REUSE_N))
        self.geometry = _sites(u, v)
        self.signals = rng.uniform(0.5, 1.5, (_FILTER_SIGNALS, _REUSE_N))
        self.h = rng.uniform(0.0, 1.0, _FILTER_ORDER + 1)
        # Monte Carlo at the sites nearest random points of the central
        # region: full-disc neighbourhoods of about 1.5k sites, whose size
        # varies little with the seed.
        self.vertices = [int(np.argmin(np.hypot(u - tu, v - tv)))
                         for tu, tv in rng.uniform(0.3, 0.7, (_MC_VERTICES, 2))]
        self.mc_seeds = rng.integers(0, 2**32, _MC_VERTICES)
        self.small = {r * c: grid_geometry(r, c) for r, c in _BIRKHOFF_GRIDS}

    def run(self, job: Job) -> None:
        clock = time.perf_counter
        # Drop the previous job's outputs first, so they do not add to its peak RSS.
        self.op = self.filtered = self.stats = self.decompositions = None
        graph = job.call("graphs.build_weight_matrix", ds.build_weight_matrix,
                         self.geometry, **_DEMO_KERNEL)
        result = job.call("balance.sinkhorn_knopp", ds.sinkhorn_knopp, graph, tol=1e-10)
        self.op = result.operator if result is not None else None

        t = clock()
        self.filtered = [
            job.call(f"shifting.apply_filter[{i}]", ds.apply_filter, self.op, self.h, x)
            for i, x in enumerate(self.signals)
        ]
        job.phases["signals_per_s"] = _FILTER_SIGNALS / (clock() - t)

        t = clock()
        self.stats = [
            job.call(f"bounds.monte_carlo_shift_stats[{i}]", ds.monte_carlo_shift_stats,
                     self.op, m, _MC_MODEL, trials=_MC_TRIALS, seed=int(s))
            for i, (m, s) in enumerate(zip(self.vertices, self.mc_seeds))
        ]
        job.phases["mc_trials_per_s"] = _MC_VERTICES * _MC_TRIALS / (clock() - t)

        self.decompositions = {}
        job.phases["decompose_s"] = 0.0
        for n, geometry in self.small.items():
            g = job.call(f"graphs.build_weight_matrix[n={n}]", ds.build_weight_matrix,
                         geometry, **_DEMO_KERNEL)
            r = job.call(f"balance.sinkhorn_knopp[n={n}]", ds.sinkhorn_knopp, g, tol=1e-13)
            t = clock()
            d = job.call(f"birkhoff.birkhoff_decompose[n={n}]", ds.birkhoff_decompose,
                         r.operator if r is not None else None)
            job.phases["decompose_s"] += clock() - t
            self.decompositions[n] = (r, d)

    def check(self, job: Job) -> None:
        hsum = float(self.h.sum())
        for i, (x, y) in enumerate(zip(self.signals, self.filtered)):
            op = f"shifting.apply_filter[{i}]"
            if job.ops[op]:
                job.gate(op, _close(y.mean(), hsum * x.mean(), 1e-8),
                         f"mean {y.mean():.17g} != sum(h)*mean(x) {hsum * x.mean():.17g}")
        for i, (m, stats) in enumerate(zip(self.vertices, self.stats)):
            op = f"bounds.monte_carlo_shift_stats[{i}]"
            if job.ops[op]:
                exact = ds.exact_shift_variance(self.op, m, _MC_MODEL.sigma,
                                                _MC_MODEL.rho)
                job.gate(op, abs(stats.variance - exact) <= 5 * stats.stderr_variance,
                         f"variance {stats.variance} vs exact {exact} beyond 5 stderr")
        self.reconstruct_err = 0.0
        for n, (r, d) in self.decompositions.items():
            op = f"birkhoff.birkhoff_decompose[n={n}]"
            if job.ops[op]:
                err = float(np.abs(ds.reconstruct(d) - r.operator.dense()).max())
                self.reconstruct_err = max(self.reconstruct_err, err)
                job.gate(op, err <= 1e-10, f"reconstruct error {err:.3e} > 1e-10")


WORKLOADS = {w.name: w for w in (DemoDense, CliSparse, ReuseAnalysis)}
