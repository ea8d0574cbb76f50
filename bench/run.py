#!/usr/bin/env python3
"""imexglm benchmark: work-precision sweeps on the two PDE benchmarks and
the stability-area/optimizer workload.

    python3 bench/run.py --workload wp-allen-cahn --seed 1 --seconds 40 --trace 0

Sets up the workload, prepares it once (the RK4 reference on the wp-*
workloads), then runs rounds of all its operations until the next round
would end after --seconds.  Every operation's output is checked against
bench/expected.json.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, built from per-operation medians over the rounds;
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of bench/tracing.py plus the tracing overhead.  A fuller record
(environment, per-operation times and checked outputs, spans of the last
traced round) goes to bench/results/.  See bench/README.md.

The library is imported from src/ of the checkout; nothing is installed.
"""

import os

# One worker thread everywhere: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
from tracing import COUNT_METRICS, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

E2E_METRICS = ("setup_s", "dimsim4_s", "dimsim5_s", "contrast_s", "time_to_tol_s")
SETUP_SAMPLES = 3

clock = time.perf_counter


def _import_library():
    if not (SRC / "imexglm" / "__init__.py").is_file():
        raise SystemExit(f"error: no imexglm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class _GivenReference:
    """Reference cache for run_convergence that hands back the
    precomputed reference solution."""

    def __init__(self, ref):
        self.ref = ref

    def get(self, spec, prob):
        return self.ref


def _op(name, fn, check, probe):
    """Run one timed operation, sampling the speed probe before, during and
    after it; fn's result goes to check, which returns (ok, detail).  Any
    exception is a failed operation."""
    kernel = probe.measure()
    out, error = None, None
    t0 = probe.start()
    try:
        out = fn()
    except Exception:  # noqa: BLE001 - a failing operation is a result
        error = traceback.format_exc(limit=4)
    finally:
        seconds, ticks = probe.stop(t0)
    ok, detail = False, {"exception": error}
    if error is None:
        try:
            ok, detail = check(out)
        except Exception:  # noqa: BLE001
            detail = {"exception": traceback.format_exc(limit=4)}
    kernel += probe.measure()
    return {"op": name, "seconds": seconds, "kernel_s": kernel, "tick_s": ticks,
            "scaled_s": calibration.scaled(seconds, kernel + ticks),
            "ok": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# workloads

def _median_times(rounds, key="scaled_s"):
    """Median time of each operation over the rounds it ran in."""
    samples = {}
    for ops in rounds:
        for o in ops:
            samples.setdefault(o["op"], []).append(o[key])
    return {op: statistics.median(v) for op, v in samples.items()}


def _always_ok(rounds):
    bad = {o["op"] for ops in rounds for o in ops if not o["ok"]}
    return {o["op"]: o for o in rounds[0] if o["op"] not in bad} if rounds else {}


class WorkPrecision:
    """prepare() computes the RK4 reference at the harness default n_ref;
    each round then makes every (method, N) run in a seeded shuffled order,
    each through harness.run_convergence with that reference."""

    METHODS = ("dimsim4", "dimsim5", "ark4")

    def __init__(self, problem, problem_params=None, steps=(50, 100, 200, 400),
                 n_ref=None):
        cfg = EXPECTED["wp"][problem]
        self.problem = problem
        self.problem_params = dict(cfg["problem_params"] if problem_params is None
                                   else problem_params)
        self.steps = tuple(steps)
        self.n_ref = n_ref
        self.tol = cfg["tol"]
        self.expected = cfg["errors"]
        self.ref = None

    def setup(self):
        from imexglm import harness, methods, problems
        self.harness, self.problems = harness, problems
        self.method_args = {"dimsim4": "dimsim4", "dimsim5": "dimsim5",
                            "ark4": str(methods.bundled_ark_path(4))}
        for arg in self.method_args.values():
            methods.resolve_method(arg)
        self.spec = harness.StudySpec(problem=self.problem,
                                      problem_params=self.problem_params,
                                      steps=(self.steps[0],), require_orders=False)
        self.harness.build_problem(self.spec)
        if self.n_ref is None:
            self.n_ref = problems.DEFAULT_REFERENCE_STEPS[self.problem]

    def prepare(self, probe):
        prob = self.harness.build_problem(self.spec)

        def reference():
            return self.problems.reference_solution(prob, self.n_ref)

        def ref_ok(ref):
            ok = ref.shape == prob.y0.shape and all(map(math.isfinite, ref))
            if ok:
                self.ref = ref
            return ok, {}

        return [_op("reference", reference, ref_ok, probe)]

    def round(self, rng, seed, probe):
        runs = [(label, N) for label in self.METHODS for N in self.steps]
        rng.shuffle(runs)
        ops = []
        for label, N in runs:
            key = f"{label}/{N}"
            if self.ref is None:
                ops.append({"op": key, "seconds": 0.0, "scaled_s": 0.0, "ok": False,
                            "detail": {"skipped": "no reference"}})
                continue
            spec = self.harness.StudySpec(
                problem=self.problem, problem_params=self.problem_params,
                methods=(self.method_args[label],), steps=(N,),
                require_orders=False)
            cache = _GivenReference(self.ref)
            ops.append(_op(key,
                           lambda: self.harness.run_convergence(spec, reference_cache=cache),
                           lambda studies: self._check(key, studies), probe))
        return ops

    def _check(self, key, studies):
        row = studies[0].rows[0]
        err, failure = row.error, row.failure
        want = self.expected.get(key)
        if failure is not None or err is None or want is None:
            return False, {"error": err, "failure": failure, "expected": want}
        tol = EXPECTED["error_rtol"] * want + EXPECTED["error_atol"]
        return abs(err - want) <= tol, {"error": err, "expected": want}

    def summarize(self, rounds, key="scaled_s"):
        t = _median_times(rounds, key)
        sweep = {label: sum(t[f"{label}/{N}"] for N in self.steps)
                 for label in self.METHODS}
        passing = [t[op] for op, o in _always_ok(rounds).items()
                   if o["detail"]["error"] <= self.tol]
        return {"dimsim4_s": sweep["dimsim4"], "dimsim5_s": sweep["dimsim5"],
                "contrast_s": sweep["ark4"],
                "time_to_tol_s": min(passing) if passing else None}


class StabilityAreas:
    """Each round: the constrained-region areas of dimsim4 and dimsim5 on
    the default query (alpha = pi/2, one worker) and one budgeted optimizer
    run seeded at dimsim4's explicit A, in a seeded order."""

    def __init__(self, budget=None):
        cfg = EXPECTED["stability"]
        self.cfg = cfg
        self.budget = cfg["opt_budget"] if budget is None else budget

    def setup(self):
        import numpy as np
        from imexglm import methods, stability
        self.stability = stability
        self.m4 = methods.resolve_method("dimsim4")
        self.m5 = methods.resolve_method("dimsim5")
        self.query = stability.StabilityQuery()
        query = dict(self.cfg["opt_query"])
        query["stiff_magnitudes"] = tuple(query["stiff_magnitudes"])
        self.coarse = stability.StabilityQuery(**query)
        self.opt_args = (self.m4.implicit, np.asarray(self.m4.c),
                         np.asarray(self.m4.v))
        self.seed_matrix = np.asarray(self.m4.A)

    def prepare(self, probe):
        return []

    def _area(self, m):
        return lambda: self.stability.constrained_region_area(
            m, self.query, alpha=math.pi / 2, workers=1)

    def _band(self, name):
        lo, hi = self.cfg["area_band"][name]
        return lambda out: (lo <= out[0].area <= hi,
                            {"area": out[0].area, "band": [lo, hi]})

    def round(self, rng, seed, probe):
        budget = self.budget

        def optimize():
            return self.stability.optimize_explicit_component(
                *self.opt_args, self.coarse, budget=budget,
                seed_matrix=self.seed_matrix, rng_seed=seed)

        def opt_ok(res):
            ok = (not res.failed and res.seed_area is not None
                  and res.area >= res.seed_area and res.n_evaluations <= budget)
            return ok, {"area": res.area, "seed_area": res.seed_area,
                        "n_evaluations": res.n_evaluations, "failed": res.failed}

        plan = [("area/dimsim4", self._area(self.m4), self._band("dimsim4")),
                ("area/dimsim5", self._area(self.m5), self._band("dimsim5")),
                ("opt", optimize, opt_ok)]
        rng.shuffle(plan)
        return [_op(*p, probe) for p in plan]

    def summarize(self, rounds, key="scaled_s"):
        t = _median_times(rounds, key)
        passing = [t[op] for op in _always_ok(rounds) if op.startswith("area/")]
        return {"dimsim4_s": t["area/dimsim4"], "dimsim5_s": t["area/dimsim5"],
                "contrast_s": t["opt"],
                "time_to_tol_s": min(passing) if passing else None}


WORKLOADS = {
    "wp-allen-cahn": lambda: WorkPrecision("allen-cahn"),
    "wp-burgers": lambda: WorkPrecision("burgers"),
    "stability": StabilityAreas,
}


# ---------------------------------------------------------------------------
# environment, setup and the measurement loop

def environment():
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
           "machine": platform.machine(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        env["git_revision"] = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["git_revision"] = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "imexglm").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def setup_once(name):
    """Import, method resolution and problem assembly.  Returns the
    workload, a speed probe and the set-up time in raw and scaled seconds;
    the probe is timed after the set-up, which is what loads numpy."""
    t0 = clock()
    _import_library()
    work = WORKLOADS[name]()
    work.setup()
    seconds = clock() - t0
    probe = calibration.SpeedProbe()
    kernel = probe.measure()
    return work, probe, {"seconds": seconds, "kernel_s": kernel,
                         "scaled_s": calibration.scaled(seconds, kernel)}


def setup_in_child(name):
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--setup-only", "--workload", name],
                         capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"setup child failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, trace):
    """Set up, prepare once, then run rounds until the next one would end
    after `seconds`.  With trace, rounds alternate untraced and traced, and
    the preparation is traced too."""
    work, probe, first = setup_once(name)
    setup = [first] + [setup_in_child(name) for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer()
    rng = random.Random(seed)
    t_start = clock()
    probe.ticking = calibration.TICKING and not trace
    if trace:
        with tracer:
            prep = work.prepare(probe)
            prep_layers = layer_metrics(tracer)
    else:
        prep, prep_layers = work.prepare(probe), None
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        probe.ticking = not traced and calibration.TICKING
        t0 = clock()
        if traced:
            tracer.reset()
            with tracer:
                ops = work.round(rng, seed, probe)
                layers = layer_metrics(tracer)
        else:
            ops, layers = work.round(rng, seed, probe), None
        rounds.append({"traced": traced, "seconds": clock() - t0, "ops": ops,
                       "layers": layers})
        longest = max(r["seconds"] for r in rounds)
        if len(rounds) >= (2 if trace else 1) and clock() - t_start + longest > seconds:
            break

    ops_all = prep + [o for r in rounds for o in r["ops"]]
    failed = sum(not o["ok"] for o in ops_all)
    plain = [r for r in rounds if not r["traced"]]
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup_s": setup, "prepare": prep,
              "rounds": rounds, "attempted": len(ops_all), "failed": failed,
              "fail_frac": failed / len(ops_all)}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for k, v in prep_layers.items():
            values = [r["layers"][k] for r in traced]
            median = statistics.median_low if k in COUNT_METRICS else statistics.median
            metrics[k] = None if v is None or None in values else v + median(values)
        # operation seconds leave out the speed-probe time of both kinds of round
        op_seconds = [(r["traced"], sum(o["seconds"] for o in r["ops"])) for r in rounds]
        metrics["trace.overhead_s"] = (
            statistics.median(t for is_traced, t in op_seconds if is_traced)
            - statistics.median(t for is_traced, t in op_seconds if not is_traced))
        detail["counts_repeat"] = all(
            r["layers"][k] == traced[0]["layers"][k] for r in traced for k in COUNT_METRICS)
        detail["spans"] = tracer.spans
        units = {k: _layer_unit(k) for k in metrics}
        correct = failed == 0
    else:
        ops = [r["ops"] for r in plain]
        metrics = dict(work.summarize(ops),
                       setup_s=statistics.median(s["scaled_s"] for s in setup))
        metrics = {k: metrics[k] for k in E2E_METRICS}
        detail["raw_metrics"] = dict(
            work.summarize(ops, key="seconds"),
            setup_s=statistics.median(s["seconds"] for s in setup))
        units = {k: "s" for k in metrics}
        correct = failed == 0 and None not in metrics.values()
    detail["metrics"] = metrics
    detail["samples"] = {"setup_s": len(setup), "rounds": len(plain)}
    return {"correct": correct, "attempted": len(ops_all), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}, detail


def _layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps(setup_once(args.workload)[2]))
        return 0

    _import_library()
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, default=float) + "\n")
    print("summary: " + json.dumps({
        "environment": detail["environment"], "fail_frac": detail["fail_frac"],
        "attempted": detail["attempted"],
        "samples": detail["samples"], "raw_metrics": detail.get("raw_metrics"),
        "record": str(out.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
