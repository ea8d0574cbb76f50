"""Count checks for the benchmark's tracing, on small inputs.

    python3 -m pytest bench

The counts are exact: they depend only on the methods, step counts and
queries, never on timing or on the order of operations.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

bench._import_library()

from imexglm import harness, methods, stability  # noqa: E402


def _small_wp():
    work = bench.WorkPrecision("allen-cahn", problem_params={"n": 10},
                               steps=(10, 20), n_ref=400)
    work.setup()
    return work


def _traced(fn):
    tr = tracing.Tracer()
    with tr:
        fn()
        return tracing.layer_metrics(tr)


def test_traced_rounds_repeat_counts():
    work = _small_wp()
    probe = calibration.SpeedProbe()
    prep = _traced(lambda: work.prepare(probe))
    assert prep["problems.reference.calls"] == 1
    assert prep["problems.f.calls"] == prep["problems.g.calls"] == 4 * 400
    rng = random.Random(7)
    first = _traced(lambda: work.round(rng, 7, probe))
    second = _traced(lambda: work.round(rng, 7, probe))
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["problems.reference.calls"] == 0
    assert first["integrator.start.calls"] == 4        # dimsim4, dimsim5 x 2 N
    assert first["problems.evaluate.calls"] > 0


# distinct stage-solve gammas per integrate call: dimsim4 has one diagonal
# value plus the IMEX-Euler starter's tau; dimsim5 one plus the ARK4
# starter's tau/4; ark4 alone has one (its first stage is explicit)
DISTINCT_GAMMAS = {"dimsim4": 2, "dimsim5": 2, "ark4": 1}


@pytest.mark.parametrize("label", sorted(DISTINCT_GAMMAS))
def test_one_factorization_per_distinct_gamma(label):
    arg = str(methods.bundled_ark_path(4)) if label == "ark4" else label
    spec = harness.StudySpec(problem="allen-cahn", problem_params={"n": 10},
                             methods=(arg,), steps=(40,), n_ref=400,
                             require_orders=False)
    studies = []
    m = _traced(lambda: studies.extend(harness.run_convergence(spec)))
    assert studies[0].rows[0].failure is None
    assert m["integrator.factor.calls"] == DISTINCT_GAMMAS[label]
    # every linear stage solve looks the factorization up once, solves
    # once and probes g(t, 0) once
    assert (m["integrator.factor.cache_hits"] + m["integrator.factor.calls"]
            == m["integrator.solve.calls"])
    assert m["problems.g.zero_probe_calls"] == m["integrator.solve.calls"]
    if label == "ark4":
        assert m["integrator.step.calls"] == 0
        assert m["integrator.ark_step.calls"] == 40
    else:
        assert m["integrator.step.calls"] == 40
        assert m["integrator.start.calls"] == 1
    assert m["harness.self_s"] >= 0.0


def test_default_query_area_counts_dimsim4():
    m4 = methods.resolve_method("dimsim4")
    m = _traced(lambda: stability.constrained_region_area(
        m4, stability.StabilityQuery(), workers=1))
    assert m["stability.probe.calls"] == 431
    assert m["stability.line.calls"] == 30
    assert m["stability.probe.points"] == 232 * 431
    assert m["stability.fallback.calls"] == 0
    assert (m["stability.crossing.probes"] + m["stability.bisect.steps"]
            + m["stability.line.calls"] == m["stability.probe.calls"])
    assert 0.0 < m["stability.decide.s"] < m["stability.probe.s"]
    assert m["stability.opt.evals"] == 0


def test_optimizer_counts_repeat_for_a_seed():
    work = bench.StabilityAreas(budget=20)
    work.setup()

    def opt():
        return stability.optimize_explicit_component(
            *work.opt_args, work.coarse, budget=20,
            seed_matrix=work.seed_matrix, rng_seed=3)

    first, second = _traced(opt), _traced(opt)
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name
    assert 0 < first["stability.opt.evals"] <= 20
    assert 0.0 < first["stability.opt.nonempty_frac"] <= 1.0


def test_missing_hook_target_reports_absent(monkeypatch):
    from imexglm import integrator
    monkeypatch.delattr(integrator, "glm_step")
    tr = tracing.Tracer()
    with tr:
        m = tracing.layer_metrics(tr)
    assert m["integrator.step.calls"] is None
    assert m["integrator.step.self_s"] is None
    assert m["integrator.ark_step.calls"] == 0
    assert hasattr(integrator, "ark_step") and not hasattr(integrator.ark_step, "__wrapped__")


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(cmd + ["--workload", "stability", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
