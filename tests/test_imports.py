"""scipy modules load only on the paths that use them.

`import imexglm`, the stability-area paths (of a DIMSIM and of an additive
RK pair), the validation path, and assembling, integrating and
referencing both PDE benchmarks use numpy alone;
scipy.linalg loads with the first dense LU factorization, scipy.sparse and
scipy.sparse.linalg with the first SuperLU factorization (a PDE without its
stiff_solver), scipy.optimize with the optimizer.  Checked in fresh
interpreters, since the test process has scipy loaded.
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
from imexglm.stability import COARSE_QUERY
from imexglm import (StabilityQuery, allen_cahn_problem, burgers_problem,
                     constrained_region_area, dahlquist_split_problem,
                     integrate, optimize_explicit_component,
                     reference_solution, resolve_method, validate_method)
m = resolve_method("dimsim4")
constrained_region_area(m, StabilityQuery())
constrained_region_area(resolve_method("ark4"), StabilityQuery())
seen["area"] = scipy_modules()
validate_method(m)
seen["validate"] = scipy_modules()
pdes = [allen_cahn_problem(n=10), burgers_problem(n=10)]
seen["assemble"] = scipy_modules()
for prob in pdes:
    integrate(m, prob, 50)
    reference_solution(prob, 400)
seen["pde"] = scipy_modules()
integrate(m, dahlquist_split_problem(-1.0, -50.0), 10)
seen["dahlquist"] = scipy_modules()
pdes[1].stiff_solver = None
integrate(m, pdes[1], 10)
seen["superlu"] = scipy_modules()
optimize_explicit_component(m.implicit, m.c, m.v, COARSE_QUERY, budget=5,
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
    assert seen["assemble"] == seen["pde"] == set()
    assert "scipy.linalg" in seen["dahlquist"]
    assert not {m for m in seen["dahlquist"]
                if m.startswith(("scipy.sparse", "scipy.optimize"))}
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= seen["superlu"]
    assert "scipy.optimize" not in seen["superlu"]
    assert "scipy.optimize" in seen["optimize"]


_DENSE_SCRIPT = r"""
import json, sys
from imexglm import dahlquist_split_problem, integrate, resolve_method
integrate(resolve_method("dimsim4"), dahlquist_split_problem(-1.0, -50.0), 10)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_dense_factorization_loads_no_sparse_module():
    # a dense stiff matrix is factored by LAPACK alone, in an interpreter
    # that has run nothing else
    env = dict(os.environ, PYTHONPATH=str(Path(imexglm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _DENSE_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = set(json.loads(out.stdout))
    assert "scipy.linalg" in seen
    assert not {m for m in seen if m.startswith("scipy.sparse")}


def test_cli_module_runs_without_runtime_warning():
    # `import imexglm` must not import imexglm.cli, or runpy warns that the
    # module was imported before it ran as __main__
    env = dict(os.environ, PYTHONPATH=str(Path(imexglm.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "imexglm.cli", "validate-method", "--method",
                          "dimsim4"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
