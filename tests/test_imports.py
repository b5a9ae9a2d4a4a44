import os
import subprocess
import sys

import dsshift

# Each is imported inside the function that needs it; at module level each
# would add its import time to every ``import dsshift``.
LAZY = ("scipy.spatial", "scipy.sparse.csgraph", "scipy.io", "scipy.sparse.linalg")


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
