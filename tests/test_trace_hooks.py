"""Every library name the benchmark's tracer hooks still exists.

bench/tracing.py skips a hook whose target is gone and reports the layer
metrics that need it as None, so a renamed stepper, solver or stability
entry point would go unnoticed in a traced run.  Here it fails instead.
"""

import importlib.util
from pathlib import Path

import pytest

import imexglm

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_hook_installs(tracing):
    from imexglm import harness, integrator, problems, stability
    owners = (imexglm, harness, integrator, problems, stability,
              integrator.StiffSolverCache, problems.Grid2D)
    before = {owner: dict(vars(owner)) for owner in owners}
    tr = tracing.Tracer()
    try:
        tracing.install_hooks(tr)
        needed = {hook for hooks in tracing.LAYER_METRICS.values() for hook in hooks}
        assert needed - tr.installed == set()
    finally:
        tr.restore()
    # restore puts every patched attribute back
    for owner, names in before.items():
        assert all(vars(owner)[k] is v for k, v in names.items()), owner.__name__
