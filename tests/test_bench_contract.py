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
