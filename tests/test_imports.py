"""scipy modules load only on the paths that use them.

`import imexglm` and the stability-area and validation paths use numpy
alone; scipy.sparse loads with the first PDE assembly, scipy.linalg with
the first LU factorization (scipy.sparse only for a sparse matrix),
scipy.optimize with the optimizer.  Checked in fresh interpreters, since
the test process has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import imexglm

_SCRIPT = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import imexglm, imexglm.cli
seen["import"] = scipy_modules()
from imexglm import (StabilityQuery, burgers_problem, constrained_region_area,
                     dahlquist_split_problem, integrate,
                     optimize_explicit_component, resolve_method,
                     validate_method)
m = resolve_method("dimsim4")
constrained_region_area(m, StabilityQuery())
seen["area"] = scipy_modules()
validate_method(m)
seen["validate"] = scipy_modules()
integrate(m, burgers_problem(n=10), 10)
seen["burgers"] = scipy_modules()
integrate(m, dahlquist_split_problem(-1.0, -50.0), 10)
seen["dahlquist"] = scipy_modules()
coarse = StabilityQuery(stiff_magnitudes=(0.0, 1e-2, 1.0, 100.0),
                        n_angles=9, tol=5e-3, y_top=8.0, n_lines=12)
optimize_explicit_component(m.implicit, m.c, m.v, coarse, budget=5,
                            seed_matrix=m.A)
seen["optimize"] = scipy_modules()
print(json.dumps(seen))
"""


def test_scipy_modules_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(imexglm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = {k: set(v) for k, v in json.loads(out.stdout).items()}

    assert seen["import"] == seen["area"] == seen["validate"] == set()
    assert "scipy.sparse" in seen["burgers"]
    assert not {"scipy.linalg", "scipy.sparse.linalg",
                "scipy.optimize"} & seen["burgers"]
    assert "scipy.linalg" in seen["dahlquist"]
    assert "scipy.optimize" not in seen["dahlquist"]
    assert "scipy.optimize" in seen["optimize"]


_DENSE_SCRIPT = r"""
import json, sys
from imexglm import dahlquist_split_problem, integrate, resolve_method
integrate(resolve_method("dimsim4"), dahlquist_split_problem(-1.0, -50.0), 10)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_dense_factorization_loads_no_sparse_module():
    # a dense stiff matrix is factored by LAPACK alone; run in its own
    # interpreter, since the burgers run above loads scipy.sparse first
    env = dict(os.environ, PYTHONPATH=str(Path(imexglm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _DENSE_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = set(json.loads(out.stdout))
    assert "scipy.linalg" in seen
    assert not {m for m in seen if m.startswith("scipy.sparse")}
