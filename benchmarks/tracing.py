"""Span tracing around dsshift's public functions, for the traced run.

``Tracer.installed()`` replaces each traced function by a wrapper wherever
a ``dsshift.*`` module holds it, so calls made inside the package (``cli``
imports ``load_matrix_market`` by name, ``demo`` imports
``sinkhorn_knopp``) are traced as well as the benchmark's own calls.
Spans stay in memory; ``layer_metrics`` reduces them when the run ends.

Work counts come from each call's arguments and result (sweeps, matvecs,
terms, file sizes), never from inside the package.  In-program counters are
a later change.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from dsshift.graphs import as_matrix

# Layer -> (module, traced public functions).  The layers are the modules.
TRACED = {
    "graphs": ("dsshift.graphs", ("build_weight_matrix",)),
    "balance": ("dsshift.balance", ("sinkhorn_knopp",)),
    "shifting": ("dsshift.shifting", ("apply_shift", "apply_filter", "diffuse")),
    "fileio": ("dsshift.fileio", None),  # every load_* and save_*
    "bounds": ("dsshift.bounds", ("monte_carlo_shift_stats",)),
    "birkhoff": ("dsshift.birkhoff", ("birkhoff_decompose",)),
    "demo": ("dsshift.demo", ("run_sensor_demo",)),
    "cli": ("dsshift.cli", ("main",)),
}


# Unit of each per-layer metric, and of the reuse-analysis phase rates that
# the traced run reports beside them.
UNITS = {
    "graphs.busy_s": "s", "graphs.useful_frac": "frac", "graphs.nnz": "count",
    "graphs.dense_storage": "frac", "graphs.bytes": "B",
    "balance.busy_s": "s", "balance.sweeps": "count", "balance.s_per_sweep": "s",
    "balance.residual": "1",
    "shifting.busy_s": "s", "shifting.matvecs": "count", "shifting.s_per_matvec": "s",
    "shifting.bytes_per_matvec": "B",
    "fileio.read_s": "s", "fileio.write_s": "s", "fileio.bytes_read": "B",
    "fileio.bytes_written": "B",
    "bounds.busy_s": "s", "bounds.mc_draws": "count", "bounds.draws_per_s": "1/s",
    "birkhoff.busy_s": "s", "birkhoff.terms": "count", "birkhoff.s_per_term": "s",
    "birkhoff.failures": "count", "birkhoff.reconstruct_err": "1",
    "demo.self_s": "s", "cli.self_s": "s", "cli.calls": "count",
    "trace.overhead_s": "s",
    "signals_per_s": "1/s", "mc_trials_per_s": "1/s", "decompose_s": "s",
}


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=lambda: {"calls": 1})

    @property
    def duration(self) -> float:
        return self.end - self.start


def _vector_bytes(a) -> int:
    return 2 * a.shape[0] * 8  # the vector read and the vector written


def _operator_bytes(a) -> int:
    if sp.issparse(a):
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    return a.nbytes


def _counts(layer: str, name: str, args: inspect.BoundArguments, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    a = args.arguments
    if layer == "graphs":
        w = result.weights
        return {"nnz": result.n_edges, "pairs": result.n_vertices**2,
                "dense": 0 if sp.issparse(w) else 1}
    if layer == "balance":
        return {"sweeps": result.operator.iterations_used,
                "residual": result.operator.tolerance_achieved}
    if layer == "shifting":
        m = as_matrix(a["S"])
        if name == "apply_filter":
            matvecs = len(a["coefficients"]) - 1  # Horner: one shift per order
        else:
            matvecs = int(a["k"]) if name == "diffuse" else 1
        return {"matvecs": matvecs,
                "bytes": matvecs * (_operator_bytes(m) + _vector_bytes(m))}
    if layer == "fileio":
        key = "bytes_read" if name.startswith("load_") else "bytes_written"
        return {key: os.path.getsize(next(iter(a.values())))}  # the path argument
    if layer == "bounds":
        m = as_matrix(a["S"])
        row = m[a["m"]].toarray().ravel() if sp.issparse(m) else m[a["m"]]
        return {"draws": a["trials"] * (int(np.count_nonzero(row > 0)) + 1),
                "trials": a["trials"]}
    if layer == "birkhoff":
        return {"terms": result.n_terms}
    return {}


class Tracer:
    """Records one span per traced call, nested by a call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, parent, 0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if layer == "graphs":
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                span.counts["failures"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if layer == "graphs":
                    span.counts["bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts.update(_counts(layer, name, bound, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every alias of each traced function in ``dsshift.*``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dsshift" or n.startswith("dsshift."))]
        patched = []
        try:
            for layer, (module_name, names) in TRACED.items():
                module = importlib.import_module(module_name)
                if names is None:
                    names = [n for n in module.__all__ if n.startswith(("load_", "save_"))]
                for name in names:
                    original = getattr(module, name)
                    wrapper = self._wrap(layer, name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Counts reported as their largest value in the job; the others are summed.
_PEAKS = ("graphs.bytes", "balance.residual")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer busy time, self time and work counts of one traced job.

    A layer's busy time sums its outermost spans (a span nested inside
    another span of the same layer is not counted twice).  Self time is a
    span's duration minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if spans[p].layer == s.layer:
                return False
            p = spans[p].parent
        return True

    busy, self_s, total, peak = Counter(), Counter(), Counter(), Counter()
    for s, children in zip(spans, child_time):
        self_s[s.layer] += s.duration - children
        if outermost(s):
            busy[s.layer] += s.duration
        for key, value in s.counts.items():
            name = f"{s.layer}.{key}"
            if name in _PEAKS:
                peak[name] = max(peak[name], value)
            else:
                total[name] += value

    def seconds(layer: str, ok=lambda s: True) -> float:
        return sum(s.duration for s in spans if s.layer == layer and ok(s))

    return {
        "graphs.busy_s": busy["graphs"],
        "graphs.useful_frac": _ratio(total["graphs.nnz"], total["graphs.pairs"]),
        "graphs.nnz": total["graphs.nnz"],
        "graphs.dense_storage": _ratio(total["graphs.dense"], total["graphs.calls"]),
        "graphs.bytes": peak["graphs.bytes"],
        "balance.busy_s": busy["balance"],
        "balance.sweeps": total["balance.sweeps"],
        "balance.s_per_sweep": _ratio(busy["balance"], total["balance.sweeps"]),
        "balance.residual": peak["balance.residual"],
        "shifting.busy_s": busy["shifting"],
        "shifting.matvecs": total["shifting.matvecs"],
        "shifting.s_per_matvec": _ratio(busy["shifting"], total["shifting.matvecs"]),
        "shifting.bytes_per_matvec": _ratio(total["shifting.bytes"], total["shifting.matvecs"]),
        "fileio.read_s": seconds("fileio", lambda s: s.name.startswith("load_")),
        "fileio.write_s": seconds("fileio", lambda s: s.name.startswith("save_")),
        "fileio.bytes_read": total["fileio.bytes_read"],
        "fileio.bytes_written": total["fileio.bytes_written"],
        "bounds.busy_s": busy["bounds"],
        "bounds.mc_draws": total["bounds.draws"],
        "bounds.draws_per_s": _ratio(total["bounds.draws"], busy["bounds"]),
        "birkhoff.busy_s": busy["birkhoff"],
        "birkhoff.terms": total["birkhoff.terms"],
        "birkhoff.s_per_term": _ratio(seconds("birkhoff", lambda s: s.error is None),
                                      total["birkhoff.terms"]),
        "birkhoff.failures": total["birkhoff.failures"],
        "demo.self_s": self_s["demo"],
        "cli.self_s": self_s["cli"],
        "cli.calls": total["cli.calls"],
    }
