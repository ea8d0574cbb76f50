"""The benchmark's set-up runs against the library as it stands.

bench/run.py reads method attributes (implicit, c, v, A) and StudySpec
fields; a break there would only show as a failed benchmark run.  The
set-up of each workload takes about 0.1 s and writes no files.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import imexglm.harness as harness
from imexglm.stability import COARSE_QUERY, StabilityQuery

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["wp-allen-cahn", "wp-burgers", "stability"])
def test_setup_only_reports_seconds(workload):
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--setup-only"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["seconds"] > 0.0


def test_optimizer_query_is_the_coarse_query():
    # the stability workload's optimizer run and imexglm optimize-explicit
    # search on one query
    expected = json.loads((RUN.parent / "expected.json").read_text())
    query = dict(expected["stability"]["opt_query"])
    query["stiff_magnitudes"] = tuple(query["stiff_magnitudes"])
    assert StabilityQuery(**query) == COARSE_QUERY


def test_convergence_integrates_each_run_once(monkeypatch):
    # the wp-* operations build a StudySpec with the default repeats (3)
    # and time one run_convergence call each: it must integrate once
    calls = []
    real = harness.integrate

    def counting(m, prob, N, **kw):
        calls.append((m.name, N))
        return real(m, prob, N, **kw)

    monkeypatch.setattr(harness, "integrate", counting)
    spec = harness.StudySpec(problem="dahlquist", methods=("dimsim4", "ark4"),
                             steps=(8, 16, 32))
    assert spec.repeats == 3
    studies = harness.run_convergence(spec)
    assert sorted(calls) == sorted((m.name, N) for m in map(
        harness.resolve_method, spec.methods) for N in spec.steps)
    for st in studies:
        assert [len(r.repeat_seconds) for r in st.rows] == [1, 1, 1]
