"""Command-line front end.

Subcommands: validate-method, integrate, converge, work-precision,
stability, optimize-explicit; converge and work-precision share one
command body, _cmd_study.  Exit codes: 0 success, 1 validation failure,
2 runtime failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (StudySpec, build_problem, emit_stability,
                      run_convergence, run_workprecision, starter_config,
                      write_study_csv)
from .integrator import IntegrationError, integrate
from .methods import resolve_method
from .problems import ReferenceFailureError, l2_error, reference_solution
from .stability import COARSE_QUERY, StabilityQuery, optimize_explicit_component
from .tableau import save_method, validate_method

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _build_parser() -> _Parser:
    p = _Parser(prog="imexglm",
                description="IMEX general linear method toolkit")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # each subcommand is offered only the options it reads
    def common(sp, out=True, problem=False, fmt=False, study=True):
        sp.add_argument("--method", default="dimsim4",
                        help="dimsim4 | dimsim5 | imex-euler | imex-euler-ark "
                             "| ark4 | ark5 | path to a method file; converge, "
                             "work-precision and stability take a "
                             "comma-separated list")
        if out:
            sp.add_argument("--out", default=None, help="output file or directory")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="format of the --out file")
        if problem:
            sp.add_argument("--problem", default="allen-cahn",
                            choices=("allen-cahn", "burgers", "dahlquist"))
            sp.add_argument("--grid-n", type=int, default=None,
                            help="interior grid resolution for PDE problems")
            sp.add_argument("--alpha", type=float, default=None,
                            help="Allen-Cahn diffusion coefficient")
            sp.add_argument("--n-ref", type=int, default=None,
                            help="reference RK4 step count")
            sp.add_argument("--tau-ratio", type=float, default=0.5,
                            help="starting micro-step as a fraction of h")
            sp.add_argument("--starter", default="auto",
                            help="auto | any --method name of an additive RK pair")
            if study:
                sp.add_argument("--steps", default="25,50,100,200",
                                help="comma-separated step counts")
            else:
                sp.add_argument("--steps", type=int, default=25,
                                help="step count")

    common(sub.add_parser("validate-method", help="run tableau checks"), out=False)
    common(sub.add_parser("integrate", help="single integration run"),
           problem=True, study=False)
    common(sub.add_parser("converge", help="convergence study"),
           problem=True, fmt=True)
    common(sub.add_parser("work-precision", help="timed accuracy study"),
           problem=True, fmt=True)
    common(sub.add_parser("stability", help="export stability-region files"))
    sp = sub.add_parser("optimize-explicit",
                        help="search explicit coefficients for pair area")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="optimizer rng seed")
    sp.add_argument("--budget", type=int, default=2000,
                    help="stability-area evaluation budget")
    return p


def _parse_steps(text) -> tuple:
    try:
        steps = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        sys.stderr.write(f"error: bad --steps value {text!r}\n")
        raise SystemExit(USAGE_EXIT)
    return steps


def _method_list(args) -> tuple:
    return tuple(tok.strip() for tok in args.method.split(",") if tok.strip())


def _study_spec(args, require_orders=True) -> StudySpec:
    params = {}
    if getattr(args, "grid_n", None) is not None:
        params["n"] = args.grid_n
    if getattr(args, "alpha", None) is not None and args.problem == "allen-cahn":
        params["alpha"] = args.alpha
    return StudySpec(problem=args.problem, methods=_method_list(args),
                     steps=_parse_steps(args.steps), problem_params=params,
                     n_ref=args.n_ref, tau_ratio=args.tau_ratio,
                     starter=args.starter, require_orders=require_orders)


def _cmd_validate(args) -> int:
    try:
        m = resolve_method(args.method)
    except (ValueError, OSError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    if m.is_additive_rk:
        # loader already enforced shape/abscissa consistency
        print(f"{m.name}: additive RK pair, {m.s} stages, "
              f"row sums match abscissae")
        return 0
    report = validate_method(m)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_integrate(args) -> int:
    spec = _study_spec(args, require_orders=False)
    prob = build_problem(spec)
    m = resolve_method(args.method)
    N = args.steps
    res = integrate(m, prob, N, start=starter_config(spec, m))
    row = {"method": args.method, "problem": args.problem, "N": N,
           "h": res.h, "t": res.t}
    if args.n_ref is not None:
        ref = reference_solution(prob, args.n_ref)
        row["error_vs_reference"] = l2_error(res.y, ref)
    elif prob.exact is not None:
        row["error_vs_exact"] = l2_error(res.y, prob.exact(res.t_readout))
    print(json.dumps(row, indent=2, default=float))
    if args.out:
        np.savetxt(args.out, res.y, header=f"{args.method} {args.problem} N={N}")
    return 0


# a study's JSON row keys, the same for converge and work-precision
_JSON_ROW_KEYS = ("N", "h", "error", "pairwise_order", "seconds",
                  "start_seconds", "failure")


def _cmd_study(args) -> int:
    """converge and work-precision: per method, a header with the
    least-squares slope and the study's CSV on stdout, and the studies
    written to --out as CSV or JSON."""
    run = run_workprecision if args.command == "work-precision" else run_convergence
    studies = run(_study_spec(args))
    payload = []
    for st in studies:
        print(f"# {st.method} on {st.problem}  "
              f"(least-squares slope: "
              f"{'n/a' if st.slope is None else f'{st.slope:.3f}'})")
        for line in st.csv_lines():
            print(line)
        payload.append({
            "method": st.method, "problem": st.problem, "slope": st.slope,
            "rows": [{k: getattr(r, k) for k in _JSON_ROW_KEYS}
                     for r in st.rows]})
    if args.out and args.format == "json":
        Path(args.out).write_text(json.dumps(payload, indent=2, default=float) + "\n")
    elif args.out:
        write_study_csv(studies, args.out)
    return 0


def _cmd_stability(args) -> int:
    methods = {name: resolve_method(name) for name in _method_list(args)}
    reports = []
    for name, m in methods.items():
        # one method writes to --out itself, a list to --out/<method>, named
        # as given (a method file by its stem)
        if args.out is None:
            out_dir = Path(f"stability_{m.name}")
        elif len(methods) > 1:
            out_dir = Path(args.out) / Path(name).stem
        else:
            out_dir = Path(args.out)
        reports.append(emit_stability(m, StabilityQuery(), out_dir))
        print(f"# files written to {out_dir}", file=sys.stderr)
    print(json.dumps(reports if len(reports) > 1 else reports[0], indent=2,
                     default=float))
    return 0


def _cmd_optimize(args) -> int:
    m = resolve_method(args.method)
    if m.s != m.r:
        # the explicit B is rebuilt from the DIMSIM order conditions
        raise IntegrationError("optimizer needs a DIMSIM pair (s = r)")
    result = optimize_explicit_component(
        m.implicit, np.asarray(m.c), np.asarray(m.v), COARSE_QUERY,
        budget=args.budget, seed_matrix=np.asarray(m.A), rng_seed=args.seed)
    print(json.dumps({
        "method": m.name, "seed_area": result.seed_area, "area": result.area,
        "n_evaluations": result.n_evaluations, "failed": result.failed,
        "decisions": result.decisions, "matrices": result.matrices,
        "singular": result.singular, "screened": result.screened,
        "best_area_trace": result.best_area_trace},
        indent=2, default=float))
    if args.out:
        save_method(result.method, args.out)
        print(f"# optimized method written to {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "validate-method": _cmd_validate,
    "integrate": _cmd_integrate,
    "converge": _cmd_study,
    "work-precision": _cmd_study,
    "stability": _cmd_stability,
    "optimize-explicit": _cmd_optimize,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, IntegrationError, ReferenceFailureError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
