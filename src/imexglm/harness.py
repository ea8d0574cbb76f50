"""Study orchestration: convergence tables, work-precision tables with
phase-separated timing, and stability-region file export.

All study output is deterministic for a fixed spec (timing columns
aside): rows are emitted in spec order and floats are printed
with round-trip precision.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .integrator import IntegrationError, StartingConfig, integrate
from .methods import resolve_method
from .problems import (DEFAULT_REFERENCE_STEPS, allen_cahn_benchmark,
                       burgers_benchmark, dahlquist_split_problem, l2_error,
                       reference_solution)
from .stability import StabilityQuery, constrained_region_area
from .tableau import ImexGlmMethod


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass
class StudySpec:
    """One benchmark study: a problem, methods to run on it, and the step
    counts.  Step counts must increase strictly; order estimation needs at
    least three."""

    problem: str = "allen-cahn"
    methods: tuple = ("dimsim4",)
    steps: tuple = (25, 50, 100, 200)
    problem_params: dict = field(default_factory=dict)
    n_ref: int | None = None
    tau_ratio: float = 0.5
    starter: str = "auto"          # "auto" | a method name of an additive RK pair
    repeats: int = 3
    require_orders: bool = True    # single-run specs may drop the 3-point rule

    def __post_init__(self):
        if isinstance(self.methods, str):
            self.methods = (self.methods,)
        self.methods = tuple(self.methods)
        self.steps = tuple(int(N) for N in self.steps)
        if self.require_orders and len(self.steps) < 3:
            raise ValueError("need at least 3 step counts for order estimation")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("step counts must be strictly increasing")
        if not 0.0 < self.tau_ratio <= 1.0:
            raise ValueError("tau_ratio must lie in (0, 1]")


def build_problem(spec: StudySpec):
    params = dict(spec.problem_params)
    if spec.problem == "allen-cahn":
        return allen_cahn_benchmark(**params).problem
    if spec.problem == "burgers":
        return burgers_benchmark(**params).problem
    if spec.problem == "dahlquist":
        params.setdefault("xi", -1.0)
        params.setdefault("xihat", -2.0)
        return dahlquist_split_problem(**params)
    raise ValueError(f"unknown problem {spec.problem!r}")


def _reference_steps(spec: StudySpec) -> int:
    if spec.n_ref is not None:
        return spec.n_ref
    return DEFAULT_REFERENCE_STEPS.get(spec.problem, 10000)


def starter_config(spec: StudySpec, m: ImexGlmMethod) -> StartingConfig:
    """spec.starter is "auto" or any method name of an additive RK pair.
    "auto" takes imex-euler-ark, or ark4 for starting weights of degree
    five and up, whose observed order the Euler starter costs."""
    name = spec.starter
    if name == "auto":
        name = "ark4" if m.Q.shape[1] - 1 >= 5 else "imex-euler-ark"
    scheme = resolve_method(name)
    if not scheme.is_additive_rk:
        raise ValueError(f"starter {name!r} ({scheme.name}) is not an additive "
                         "RK pair; the IMEX Euler starter is 'imex-euler-ark'")
    return StartingConfig(scheme=scheme, tau_ratio=spec.tau_ratio)


@dataclass
class ConvergenceRow:
    N: int
    h: float
    error: float | None
    pairwise_order: float | None
    failure: str | None = None


@dataclass
class ConvergenceStudy:
    method: str
    problem: str
    rows: list
    slope: float | None

    def csv_lines(self):
        yield "N,h,error,pairwise_order"
        for r in self.rows:
            err = "" if r.error is None else _fmt(r.error)
            ordr = "" if r.pairwise_order is None else _fmt(r.pairwise_order)
            yield f"{r.N},{_fmt(r.h)},{err},{ordr}"


class _ReferenceCache:
    """Holds one reference per (problem, params, n_ref) within a study run."""

    def __init__(self):
        self._refs = {}

    def get(self, spec: StudySpec, prob):
        key = (spec.problem, tuple(sorted(spec.problem_params.items())),
               _reference_steps(spec))
        if key not in self._refs:
            self._refs[key] = reference_solution(prob, _reference_steps(spec))
        return self._refs[key]


def _lsq_slope(rows):
    pts = [(r.N, r.error) for r in rows
           if r.error is not None and np.isfinite(r.error) and r.error > 0]
    if len(pts) < 2:
        return None
    logs_h = np.log([1.0 / N for N, _ in pts])
    logs_e = np.log([e for _, e in pts])
    return float(np.polyfit(logs_h, logs_e, 1)[0])


def _scored_run(m, prob, N, start_cfg, ref):
    """One integration and its error against ref.  An overflowed run is a
    failed run: its non-finite error raises IntegrationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate(m, prob, N, start=start_cfg)
        err = l2_error(res.y, ref)
    if not np.isfinite(err):
        raise IntegrationError(f"non-finite error at N={N}")
    return res, err


def run_convergence(spec: StudySpec, reference_cache=None) -> list:
    """Integrate each method at every step count, score against the cached
    fine reference, and report pairwise orders plus a least-squares slope.
    Failed rows are recorded and the study continues."""
    cache = reference_cache or _ReferenceCache()
    prob = build_problem(spec)
    ref = cache.get(spec, prob)
    studies = []
    for name in spec.methods:
        m = resolve_method(name)
        start_cfg = starter_config(spec, m)
        rows = []
        prev = None
        for N in spec.steps:
            h = (prob.tF - prob.t0) / N
            try:
                _, err = _scored_run(m, prob, N, start_cfg, ref)
                order = None
                if prev is not None and prev[1] > 0 and err > 0:
                    # an exact run (error 0) has no order, as in _lsq_slope
                    N0, e0 = prev
                    order = float(np.log(e0 / err) / np.log(N / N0))
                rows.append(ConvergenceRow(N, h, err, order))
                prev = (N, err)
            except (IntegrationError, FloatingPointError) as exc:
                rows.append(ConvergenceRow(N, h, None, None, failure=str(exc)))
        studies.append(ConvergenceStudy(method=name, problem=spec.problem,
                                        rows=rows, slope=_lsq_slope(rows)))
    return studies


@dataclass
class WorkPrecisionRow:
    N: int
    h: float
    seconds: float | None          # stepping phase only, min over repeats
    error: float | None
    start_seconds: float | None = None
    repeat_seconds: tuple = ()
    failure: str | None = None


@dataclass
class WorkPrecisionStudy:
    method: str
    problem: str
    rows: list

    def csv_lines(self):
        yield "N,h,seconds,error"
        for r in self.rows:
            sec = "" if r.seconds is None else _fmt(r.seconds)
            err = "" if r.error is None else _fmt(r.error)
            yield f"{r.N},{_fmt(r.h)},{sec},{err}"


def run_workprecision(spec: StudySpec, reference_cache=None) -> list:
    """Same runs as run_convergence with wall-clock timing of the stepping
    phase; each run repeated, minimum reported, starter cost separate."""
    cache = reference_cache or _ReferenceCache()
    prob = build_problem(spec)
    ref = cache.get(spec, prob)
    studies = []
    for name in spec.methods:
        m = resolve_method(name)
        start_cfg = starter_config(spec, m)
        rows = []
        for N in spec.steps:
            h = (prob.tF - prob.t0) / N
            try:
                step_times, start_times = [], []
                for _ in range(max(1, spec.repeats)):
                    res, err = _scored_run(m, prob, N, start_cfg, ref)
                    step_times.append(res.step_seconds)
                    start_times.append(res.start_seconds)
                best = min(step_times)
                spread = (max(step_times) - best) / best if best > 0 else 0.0
                if spread > 0.2:
                    warnings.warn(
                        f"timing spread {spread:.0%} over repeats at N={N}",
                        RuntimeWarning, stacklevel=2)
                rows.append(WorkPrecisionRow(
                    N, h, best, err,
                    start_seconds=min(start_times),
                    repeat_seconds=tuple(step_times)))
            except (IntegrationError, FloatingPointError) as exc:
                rows.append(WorkPrecisionRow(N, h, None, None, failure=str(exc)))
        studies.append(WorkPrecisionStudy(method=name, problem=spec.problem,
                                          rows=rows))
    return studies


# ---------------------------------------------------------------------------
# stability-region export

STABILITY_ALPHAS = (np.pi / 2, np.pi / 3, np.pi / 4)


def _boundary_csv_lines(boundary, with_alpha=None):
    header = "x,y_upper,y_lower"
    if with_alpha is not None:
        header = "alpha," + header
    yield header
    for xi, yu, yl in boundary.mirrored():
        row = f"{_fmt(xi)},{_fmt(yu)},{_fmt(yl)}"
        if with_alpha is not None:
            row = f"{_fmt(with_alpha)}," + row
        yield row


def emit_stability(m: ImexGlmMethod, query: StabilityQuery, out_dir) -> dict:
    """Write the stability files for one method into out_dir:

    s.csv       explicit-component region boundary
    shat.csv    implicit-component region boundary
    s_alpha.csv pair-region boundaries for alpha in {pi/2, pi/3, pi/4},
                distinguished by the alpha column
    areas.json  area report per region, after the query that made it

    Returns the area report dictionary.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"method": m.name, "convention": "total",
              "query": _query_entry(query),
              "explicit": None, "implicit": None, "pair": []}

    area, boundary = constrained_region_area(m, query, component="explicit")
    report["explicit"] = _area_entry(m.name, area)
    (out_dir / "s.csv").write_text("\n".join(_boundary_csv_lines(boundary)) + "\n")

    area_i, boundary_i = constrained_region_area(m, query, component="implicit")
    report["implicit"] = _area_entry(m.name, area_i)
    (out_dir / "shat.csv").write_text("\n".join(_boundary_csv_lines(boundary_i)) + "\n")

    pair_lines = []
    for k, alpha in enumerate(STABILITY_ALPHAS):
        area_p, boundary_p = constrained_region_area(m, query, alpha=alpha)
        report["pair"].append(_area_entry(m.name, area_p, alpha=alpha))
        lines = _boundary_csv_lines(boundary_p, with_alpha=alpha)
        if k > 0:
            next(lines)            # single header across the alpha blocks
        pair_lines.extend(lines)
    (out_dir / "s_alpha.csv").write_text("\n".join(pair_lines) + "\n")

    (out_dir / "areas.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _query_entry(q: StabilityQuery) -> dict:
    return dict(asdict(q), stiff_magnitudes=[float(x) for x in q.stiff_magnitudes])


def _area_entry(name, area, alpha=None):
    entry = {"method": name,
             "alpha": None if alpha is None else float(alpha),
             "x_b": float(area.x_b),
             "area_upper": float(area.area_upper),
             "area_total": float(area.area_total),
             "decisions": area.decisions, "matrices": area.matrices,
             "singular": area.singular, "screened": area.screened}
    if area.flagged_empty:
        entry["flagged_empty"] = True
    if area.unbounded:
        entry["unbounded"] = True
    return entry


def write_study_csv(studies, out: str | None) -> list:
    """Write per-method CSVs; single-method studies use the path verbatim,
    multi-method studies append the method name to the stem."""
    written = []
    if out is None:
        return written
    out = Path(out)
    for st in studies:
        if len(studies) == 1:
            path = out
        else:
            safe = st.method.replace("/", "_").replace(os.sep, "_")
            path = out.with_name(f"{out.stem}_{safe}{out.suffix or '.csv'}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(st.csv_lines()) + "\n")
        written.append(path)
    return written
