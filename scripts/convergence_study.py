"""Convergence and work-precision studies on the 2D benchmarks.

Writes per-method CSVs under results/ for both PDE problems and the four
high-order methods plus the first-order comparator.  Reuses one reference
per problem.
"""

import argparse
from pathlib import Path

from imexglm.harness import (StudySpec, _ReferenceCache, run_convergence,
                             run_workprecision, write_study_csv)
from imexglm.methods import bundled_ark_path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results")
    ap.add_argument("--steps", default="25,50,100,200")
    ap.add_argument("--problems", default="allen-cahn,burgers")
    args = ap.parse_args()
    steps = tuple(int(s) for s in args.steps.split(","))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    methods = ("dimsim4", "dimsim5",
               str(bundled_ark_path(4)), str(bundled_ark_path(5)),
               "imex-euler")
    for problem in args.problems.split(","):
        cache = _ReferenceCache()
        spec = StudySpec(problem=problem, methods=methods, steps=steps)
        conv = run_convergence(spec, cache)
        for st in conv:
            print(f"{problem} / {st.method}: slope = "
                  f"{'n/a' if st.slope is None else f'{st.slope:.3f}'}")
        write_study_csv(conv, out / f"convergence_{problem}.csv")
        wp = run_workprecision(spec, cache)
        write_study_csv(wp, out / f"workprecision_{problem}.csv")
    print(f"wrote studies under {out}/")


if __name__ == "__main__":
    main()
