import os
import subprocess
import sys

import dsshift

# Each is imported inside the function that needs it; at module level each
# would add its import time to every ``import dsshift``.
LAZY = ("scipy.spatial", "scipy.sparse.csgraph", "scipy.io", "scipy.sparse.linalg")


def test_import_leaves_lazy_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dsshift.__file__)))
    code = f"import sys, dsshift; print(' '.join(m for m in {LAZY!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""
