"""Search the explicit coefficients of the order-4 method for a larger
constrained stability area, keeping the implicit component fixed.

Runs one search seeded at the built-in explicit tableau and several from
random starts, then saves the best method found.
"""

import argparse

import numpy as np

from imexglm.methods import resolve_method
from imexglm.stability import COARSE_QUERY, optimize_explicit_component
from imexglm.tableau import save_method


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--method", default="dimsim4")
    ap.add_argument("--budget", type=int, default=2000)
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--out", default="results/optimized_method.json")
    args = ap.parse_args()

    m = resolve_method(args.method)
    best = None
    runs = [("seeded", np.asarray(m.A), 0)]
    runs += [("random", None, int(s)) for s in args.seeds.split(",")]
    for label, seed_matrix, rng_seed in runs:
        res = optimize_explicit_component(m.implicit, np.asarray(m.c),
                                          np.asarray(m.v), COARSE_QUERY,
                                          budget=args.budget,
                                          seed_matrix=seed_matrix,
                                          rng_seed=rng_seed)
        print(f"{label} (rng {rng_seed}): area {res.area:.4f} "
              f"after {res.n_evaluations} evaluations"
              + (f" (seed area {res.seed_area:.4f})"
                 if res.seed_area is not None else ""))
        if not res.failed and (best is None or res.area > best.area):
            best = res
    if best is not None and best.method is not None:
        save_method(best.method, args.out)
        print(f"best area {best.area:.4f}; method saved to {args.out}")


if __name__ == "__main__":
    main()
