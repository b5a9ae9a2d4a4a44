import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import dsshift
from dsshift.cli import build_parser

MODULES = ("balance", "birkhoff", "bounds", "demo", "graphs", "shifting")

# Each is imported inside the function that needs it; at module level each
# would add its import time to every ``import dsshift``.
LAZY = ("scipy.spatial", "scipy.sparse.csgraph", "scipy.io", "scipy.sparse.linalg",
        "scipy.linalg")


def _loaded_after(statements: str) -> str:
    """The LAZY modules loaded once a fresh interpreter has run ``statements``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dsshift.__file__)))
    code = (f"import sys, dsshift; {statements}; "
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_lazy_scipy_modules_unloaded():
    assert _loaded_after("pass") == ""


def test_birkhoff_matches_without_csgraph():
    # one matching routine, the decomposition's own augmenting search
    decompose = ("import numpy as np; w = np.random.default_rng(0).uniform(0.5, 1.5, (8, 8)); "
                 "d = dsshift.birkhoff_decompose(dsshift.sinkhorn_knopp(w).operator)")
    assert "scipy.sparse.csgraph" not in _loaded_after(decompose).split()


def test_converging_balance_skips_the_exact_test():
    # the total-support test loads csgraph; a balanceable kernel never needs it
    balance = ("import numpy as np; "
               "geo = dsshift.demo._sensor_geometry(600, np.random.default_rng(1)); "
               "g = dsshift.build_weight_matrix(geo, scale=1800.0, threshold=1e-4, self_loops=True); "
               "assert dsshift.sinkhorn_knopp(g).operator.iterations_used > 1")
    assert "scipy.sparse.csgraph" not in _loaded_after(balance).split()


def test_public_names_are_the_modules_own():
    modules = [importlib.import_module(f"dsshift.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert dsshift.__all__ == sorted(names)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(dsshift, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_demo_parser_defaults_are_the_config_defaults():
    flags = {"n_sensors": "sensors", "noise_sigma": "noise_sigma", "kernel_scale": "scale",
             "threshold": "threshold", "seed": "seed", "shifts": "k"}
    config = dsshift.SensorFieldConfig()
    assert set(flags) == {f.name for f in dataclasses.fields(config)}
    args = vars(build_parser().parse_args(["demo-sensors"]))
    assert {name: args[flag] for name, flag in flags.items()} == dataclasses.asdict(config)


def test_validating_a_self_looped_kernel_skips_the_exact_test():
    # symmetric with a positive diagonal: every entry is on a transposition's diagonal
    validate = ("import numpy as np; "
                "geo = dsshift.demo._sensor_geometry(600, np.random.default_rng(1)); "
                "g = dsshift.build_weight_matrix(geo, scale=1800.0, threshold=1e-4, "
                "self_loops=True); "
                "assert dsshift.validate_weights(g).balanceable; "
                # a balanced operator is read on its W, with W's kept symmetry
                "assert dsshift.validate_weights(dsshift.sinkhorn_knopp(g).operator).balanceable")
    assert "scipy.sparse.csgraph" not in _loaded_after(validate).split()


def test_every_source_file_parses_as_python_3_10():
    # requires-python is 3.10: its grammar, checked under any newer interpreter
    root = pathlib.Path(__file__).resolve().parents[1]
    dirs = ("src", "tests", "demos", "benchmarks", "tools")
    files = sorted(p for d in dirs for p in (root / d).rglob("*.py"))
    assert {p.name for p in files} >= {"run.py", "tracing.py", "workloads.py", "scale_probe.py"}
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="3.11"):  # the guard does reject newer grammar
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def _redefinitions(tree):
    """``(name, first line, next line)`` for each function or class name that a
    module or class body defines again; a ``@x.setter``, ``@x.deleter`` or
    ``@overload`` definition is none."""
    def exempt(node):
        names = {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
                 for d in node.decorator_list}
        return bool(names & {"setter", "deleter", "overload"})

    found = []
    for body in [tree.body] + [c.body for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]:
        seen = {}
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not exempt(node)):
                if node.name in seen:
                    found.append((node.name, seen[node.name], node.lineno))
                seen[node.name] = node.lineno
    return found


def test_no_body_defines_a_name_twice():
    # the later definition replaces the earlier, which then never runs (a test never collected)
    root = pathlib.Path(__file__).resolve().parents[1]
    files = sorted(p for d in ("src", "tests", "tools", "demos") for p in (root / d).rglob("*.py"))
    found = [f"{path.relative_to(root)}:{first} and :{again} define {name}"
             for path in files
             for name, first, again in _redefinitions(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found
    guard = ("import typing\nclass A:\n"
             "    @property\n    def x(self): pass\n    @x.setter\n    def x(self, v): pass\n"
             "    @typing.overload\n    def f(self): pass\n    def f(self): pass\n"
             "    def g(self): pass\n    def g(self): pass\n"
             "def h(): pass\nclass h: pass\n")
    assert _redefinitions(ast.parse(guard)) == [("h", 12, 13), ("g", 10, 11)]
