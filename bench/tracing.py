"""Span tracing for the benchmark's traced runs, applied from outside the
library.

The hooks replace public attributes of the imexglm modules with wrappers
that record a span (name, start, end, parent) per call and a few counters,
all in memory.  Nothing inside ``src/imexglm`` knows about tracing.  A hook
whose target no longer exists is skipped, and the layer metrics that need it
are reported as absent (``None``) instead of failing the run.

Span names are the layer names used in BENCHMARK.json:

    problems.f  problems.g  problems.evaluate  problems.reference
    integrator.integrate  integrator.start  integrator.step
    integrator.ark_step  integrator.factor  integrator.solve
    harness  stability.probe  stability.decide  stability.line
    stability.area  stability.opt
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

_MISSING = object()

# Per-layer metric -> hooks it needs.  A metric whose hooks are not all
# installed reads None.
LAYER_METRICS = {
    "problems.f.calls": ("problems.fg",),
    "problems.f.s": ("problems.fg",),
    "problems.g.calls": ("problems.fg",),
    "problems.g.s": ("problems.fg",),
    "problems.g.zero_probe_calls": ("problems.fg",),
    "problems.evaluate.calls": ("problems.evaluate",),
    "problems.evaluate.s": ("problems.evaluate",),
    "problems.reference.calls": ("problems.reference",),
    "problems.reference.s": ("problems.reference",),
    "integrator.start.calls": ("integrator.start",),
    "integrator.start.s": ("integrator.start",),
    "integrator.step.calls": ("integrator.step",),
    "integrator.step.s": ("integrator.step",),
    "integrator.step.self_s": ("integrator.step", "problems.fg",
                               "integrator.factor"),
    "integrator.ark_step.calls": ("integrator.ark_step",),
    "integrator.ark_step.s": ("integrator.ark_step",),
    "integrator.factor.calls": ("integrator.factor",),
    "integrator.factor.s": ("integrator.factor",),
    "integrator.factor.cache_hits": ("integrator.factor",
                                     "integrator.factor_lookup"),
    "integrator.solve.calls": ("integrator.factor",),
    "integrator.solve.s": ("integrator.factor",),
    "harness.self_s": ("harness", "integrator.integrate"),
    "stability.probe.calls": ("stability.probe",),
    "stability.probe.s": ("stability.probe",),
    "stability.probe.points": ("stability.probe",),
    "stability.decide.s": ("stability.probe", "stability.decide"),
    "stability.assemble.s": ("stability.probe", "stability.decide"),
    "stability.fallback.calls": ("stability.probe", "stability.fallback"),
    "stability.line.calls": ("stability.line",),
    "stability.line.s": ("stability.line",),
    "stability.bisect.steps": ("stability.probe", "stability.line"),
    "stability.crossing.probes": ("stability.probe", "stability.line"),
    "stability.opt.evals": ("stability.opt", "stability.area"),
    "stability.opt.eval_s": ("stability.opt", "stability.area"),
    "stability.opt.nonempty_frac": ("stability.opt", "stability.area"),
}

# Counts that must repeat exactly between two traced rounds of the
# same workload and seed.
COUNT_METRICS = tuple(k for k in LAYER_METRICS
                      if k.endswith((".calls", ".cache_hits", ".points",
                                     ".steps", ".probes", ".evals")))


def _imexglm_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "imexglm" or name.startswith("imexglm."))]


class _Forward:
    """Attribute proxy: listed names are overridden, the rest forward to
    the wrapped object (used to time numpy.linalg.eigvals as seen by the
    stability module only)."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TracedLU:
    """SuperLU object whose solve is a traced span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory spans and counters for one traced round at a time."""

    def __init__(self):
        self.installed = set()
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()

    # -- span recording -------------------------------------------------

    def wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, hook, module_name, attr, make):
        """Replace module.attr, and every other imexglm module binding of
        the same object, by make(original).  Missing targets mark the hook
        absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        target = getattr(module, attr, _MISSING)
        if target is _MISSING:
            return
        new = make(target)
        for mod in _imexglm_modules():
            if getattr(mod, attr, None) is target:
                self._set(mod, attr, new)
        self.installed.add(hook)

    def patch_class(self, hook, module_name, cls_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        cls = getattr(module, cls_name, None)
        target = getattr(cls, attr, _MISSING) if cls is not None else _MISSING
        if target is _MISSING:
            return
        self._set(cls, attr, make(target))
        self.installed.add(hook)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.installed = set()

    def __enter__(self):
        install_hooks(self)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- instrumented problem -------------------------------------------

    def instrument_problem(self, prob):
        """Trace f and g on a problem object; g calls with y == 0 (the
        g(t, 0) offset probe of the linear stage solve) are counted."""
        f = getattr(prob, "f", None)
        g = getattr(prob, "g", None)
        if f is None or g is None:
            self.installed.discard("problems.fg")
            return prob
        traced_g = self.wrap("problems.g", g)

        def g_counted(t, y, *args, **kwargs):
            if not y.any():
                self.counts["g.zero_probe"] += 1
            return traced_g(t, y, *args, **kwargs)

        prob.f = self.wrap("problems.f", f)
        prob.g = g_counted
        return prob


def install_hooks(tr: Tracer) -> None:
    """Wrap every traced entry point that exists in the loaded library."""

    def build_problem(orig):
        return lambda *a, **k: tr.instrument_problem(orig(*a, **k))

    tr.patch("problems.fg", "imexglm.harness", "build_problem", build_problem)
    tr.patch_class("problems.evaluate", "imexglm.problems", "Grid2D", "evaluate",
                   lambda fn: tr.wrap("problems.evaluate", fn))
    tr.patch("problems.reference", "imexglm.problems", "reference_solution",
             lambda fn: tr.wrap("problems.reference", fn))

    for attr in ("integrate", "ark_integrate"):
        tr.patch("integrator.integrate", "imexglm.integrator", attr,
                 lambda fn: tr.wrap("integrator.integrate", fn))
    tr.patch("integrator.start", "imexglm.integrator", "initialize_external",
             lambda fn: tr.wrap("integrator.start", fn))
    tr.patch("integrator.step", "imexglm.integrator", "glm_step",
             lambda fn: tr.wrap("integrator.step", fn))
    tr.patch("integrator.ark_step", "imexglm.integrator", "ark_step",
             lambda fn: tr.wrap("integrator.ark_step", fn))

    def splu(orig):
        factor = tr.wrap("integrator.factor", orig)

        def traced_splu(*a, **k):
            tr.counts["factor.n"] += 1
            lu = factor(*a, **k)
            return _TracedLU(lu, tr.wrap("integrator.solve", lu.solve))

        return traced_splu

    tr.patch("integrator.factor", "imexglm.integrator", "splu", splu)

    def lookup(orig):
        def factorization(cache, *a, **k):
            before = tr.counts["factor.n"]
            out = orig(cache, *a, **k)
            if tr.counts["factor.n"] == before:
                tr.counts["factor.cache_hits"] += 1
            return out

        return factorization

    tr.patch_class("integrator.factor_lookup", "imexglm.integrator",
                   "StiffSolverCache", "factorization", lookup)

    tr.patch("harness", "imexglm.harness", "run_convergence",
             lambda fn: tr.wrap("harness", fn))

    def probe(orig):
        span = tr.wrap("stability.probe", orig)
        sizes = {}

        def traced_probe(m, w, q=None, alpha=None, *a, **k):
            fallback_before = tr.counts["fallback.matrix"]
            out = span(m, w, q, alpha, *a, **k)
            if tr.counts["fallback.matrix"] > fallback_before:
                tr.counts["fallback.probes"] += 1
            key = (id(q), alpha)
            if key not in sizes:
                try:
                    from imexglm.stability import StabilityQuery
                    sizes[key] = (q, int((q or StabilityQuery()).stiff_grid(alpha).size))
                except (AttributeError, ImportError, TypeError):
                    sizes[key] = (q, None)
            points = sizes[key][1]
            if points is None:
                tr.counts["probe.points_unknown"] += 1
            else:
                tr.counts["probe.points"] += points
            return out

        return traced_probe

    tr.patch("stability.probe", "imexglm.stability", "max_rho_over_stiff_grid", probe)

    def numpy_proxy(np_mod):
        eigvals = tr.wrap("stability.decide", np_mod.linalg.eigvals)
        return _Forward(np_mod, linalg=_Forward(np_mod.linalg, eigvals=eigvals))

    tr.patch("stability.decide", "imexglm.stability", "np", numpy_proxy)

    def fallback(orig):
        def counted(*a, **k):
            tr.counts["fallback.matrix"] += 1
            return orig(*a, **k)

        return counted

    tr.patch("stability.fallback", "imexglm.stability", "imex_stability_matrix",
             fallback)
    tr.patch("stability.line", "imexglm.stability", "boundary_intersection",
             lambda fn: tr.wrap("stability.line", fn))

    def area(orig):
        span = tr.wrap("stability.area", orig)

        def traced_area(*a, **k):
            in_opt = tr._parent_name() == "stability.opt"
            out = span(*a, **k)
            if in_opt:
                res = out[0] if isinstance(out, tuple) else out
                if not getattr(res, "flagged_empty", True) and res.area > 0.0:
                    tr.counts["opt.nonempty"] += 1
            return out

        return traced_area

    tr.patch("stability.area", "imexglm.stability", "constrained_region_area", area)
    tr.patch("stability.opt", "imexglm.stability", "optimize_explicit_component",
             lambda fn: tr.wrap("stability.opt", fn))


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of the spans and counters recorded since the last
    reset.  Self time of a span is its duration minus its direct children's."""
    spans = tr.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    parent_name = [None] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            parent_name[i] = spans[s[3]][0]
    calls, total, self_s = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]

    probes_in_lines = sum(1 for i, s in enumerate(spans)
                          if s[0] == "stability.probe"
                          and parent_name[i] == "stability.line")
    opt_evals = [i for i, s in enumerate(spans)
                 if s[0] == "stability.area" and parent_name[i] == "stability.opt"]
    c = tr.counts
    m = {
        "problems.f.calls": calls["problems.f"],
        "problems.f.s": total["problems.f"],
        "problems.g.calls": calls["problems.g"],
        "problems.g.s": total["problems.g"],
        "problems.g.zero_probe_calls": c["g.zero_probe"],
        "problems.evaluate.calls": calls["problems.evaluate"],
        "problems.evaluate.s": total["problems.evaluate"],
        "problems.reference.calls": calls["problems.reference"],
        "problems.reference.s": total["problems.reference"],
        "integrator.start.calls": calls["integrator.start"],
        "integrator.start.s": total["integrator.start"],
        "integrator.step.calls": calls["integrator.step"],
        "integrator.step.s": total["integrator.step"],
        "integrator.step.self_s": self_s["integrator.step"],
        "integrator.ark_step.calls": calls["integrator.ark_step"],
        "integrator.ark_step.s": total["integrator.ark_step"],
        "integrator.factor.calls": calls["integrator.factor"],
        "integrator.factor.s": total["integrator.factor"],
        "integrator.factor.cache_hits": c["factor.cache_hits"],
        "integrator.solve.calls": calls["integrator.solve"],
        "integrator.solve.s": total["integrator.solve"],
        "harness.self_s": self_s["harness"],
        "stability.probe.calls": calls["stability.probe"],
        "stability.probe.s": total["stability.probe"],
        "stability.probe.points": (None if c["probe.points_unknown"]
                                   else c["probe.points"]),
        "stability.decide.s": total["stability.decide"],
        "stability.assemble.s": total["stability.probe"] - total["stability.decide"],
        "stability.fallback.calls": c["fallback.probes"],
        "stability.line.calls": calls["stability.line"],
        "stability.line.s": total["stability.line"],
        "stability.bisect.steps": probes_in_lines - calls["stability.line"],
        "stability.crossing.probes": calls["stability.probe"] - probes_in_lines,
        "stability.opt.evals": len(opt_evals),
        "stability.opt.eval_s": sum(dur[i] for i in opt_evals),
        "stability.opt.nonempty_frac": (c["opt.nonempty"] / len(opt_evals)
                                        if opt_evals else 0.0),
    }
    # a probe layer whose decision no longer goes through eigvals is not
    # measured by the decide hook
    if calls["stability.probe"] and not calls["stability.decide"]:
        m["stability.decide.s"] = m["stability.assemble.s"] = None
    for name, hooks in LAYER_METRICS.items():
        if not set(hooks) <= tr.installed:
            m[name] = None
    return m
