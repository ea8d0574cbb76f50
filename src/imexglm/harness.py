"""Study orchestration: convergence and work-precision studies, made by
one study loop, and stability-region file export.  The work-precision
study is the convergence study with each run repeated and timed.

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
from .stability import StabilityQuery, constrained_region_areas
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
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


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
    "auto" takes imex-euler-ark, or ark4 for r >= 5 (a DIMSIM of order five
    and up), whose observed order the Euler starter costs."""
    name = spec.starter
    if name == "auto":
        name = "ark4" if m.r >= 5 else "imex-euler-ark"
    scheme = resolve_method(name)
    if not scheme.is_additive_rk:
        raise ValueError(f"starter {name!r} ({scheme.name}) is not an additive "
                         "RK pair; the IMEX Euler starter is 'imex-euler-ark'")
    return StartingConfig(scheme=scheme, tau_ratio=spec.tau_ratio)


@dataclass
class ConvergenceRow:
    """One (method, N) run; seconds and start_seconds are the minimum
    stepping and starter times over its repeats."""

    N: int
    h: float
    error: float | None
    pairwise_order: float | None
    seconds: float | None = None
    start_seconds: float | None = None
    repeat_seconds: tuple = ()
    failure: str | None = None


@dataclass
class ConvergenceStudy:
    method: str
    problem: str
    rows: list
    slope: float | None
    timed: bool = False            # a work-precision study: CSV with seconds

    def csv_lines(self):
        cols = (("N", "h", "seconds", "error") if self.timed
                else ("N", "h", "error", "pairwise_order"))
        yield ",".join(cols)
        for r in self.rows:
            cells = (getattr(r, c) for c in cols)
            yield ",".join("" if x is None else _fmt(x) for x in cells)


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


def _run_studies(spec: StudySpec, reference_cache, repeats: int,
                 timed: bool) -> list:
    """Integrate each (method, N) `repeats` times and score it against the
    cached fine reference; a failed run makes a failure row and the study
    continues."""
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
                runs = [_scored_run(m, prob, N, start_cfg, ref)
                        for _ in range(repeats)]
            except (IntegrationError, FloatingPointError) as exc:
                rows.append(ConvergenceRow(N, h, None, None, failure=str(exc)))
                continue
            err = runs[-1][1]
            order = None
            if prev is not None and prev[1] > 0 and err > 0:
                # an exact run (error 0) has no order, as in _lsq_slope
                N0, e0 = prev
                order = float(np.log(e0 / err) / np.log(N / N0))
            prev = (N, err)
            step_times = tuple(res.step_seconds for res, _ in runs)
            best = min(step_times)
            spread = (max(step_times) - best) / best if best > 0 else 0.0
            if spread > 0.2:
                warnings.warn(f"timing spread {spread:.0%} over repeats at N={N}",
                              RuntimeWarning, stacklevel=3)
            rows.append(ConvergenceRow(
                N, h, err, order, seconds=best,
                start_seconds=min(res.start_seconds for res, _ in runs),
                repeat_seconds=step_times))
        studies.append(ConvergenceStudy(method=name, problem=spec.problem,
                                        rows=rows, slope=_lsq_slope(rows),
                                        timed=timed))
    return studies


def run_convergence(spec: StudySpec, reference_cache=None) -> list:
    """The convergence study: each (method, N) integrated once, whatever
    spec.repeats says, with its errors, pairwise orders and slope."""
    return _run_studies(spec, reference_cache, repeats=1, timed=False)


def run_workprecision(spec: StudySpec, reference_cache=None) -> list:
    """The work-precision study: the convergence study with each run
    repeated spec.repeats times, reporting its minimum times."""
    return _run_studies(spec, reference_cache, repeats=spec.repeats, timed=True)


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

    The five regions are traced in lockstep, in one constrained_region_areas
    call.  Returns the area report dictionary.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"method": m.name, "convention": "total",
              "query": _query_entry(query),
              "explicit": None, "implicit": None, "pair": []}

    (area, boundary), (area_i, boundary_i), *pairs = constrained_region_areas(
        [(m, None, "explicit"), (m, None, "implicit")]
        + [(m, alpha, "pair") for alpha in STABILITY_ALPHAS], query)
    report["explicit"] = _area_entry(m.name, area)
    (out_dir / "s.csv").write_text("\n".join(_boundary_csv_lines(boundary)) + "\n")
    report["implicit"] = _area_entry(m.name, area_i)
    (out_dir / "shat.csv").write_text("\n".join(_boundary_csv_lines(boundary_i)) + "\n")

    pair_lines = []
    for k, (alpha, (area_p, boundary_p)) in enumerate(zip(STABILITY_ALPHAS, pairs)):
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
             "area_total": float(area.area),
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
