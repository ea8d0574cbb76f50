import json
import math
import warnings

import numpy as np
import pytest

import imexglm.harness as harness
from imexglm.cli import _build_parser, cli_main
from imexglm.harness import (STABILITY_ALPHAS, ConvergenceStudy, StudySpec,
                             _ReferenceCache, build_problem, emit_stability,
                             run_convergence, run_workprecision,
                             starter_config, write_study_csv)
from imexglm.integrator import SemiDiscreteProblem, imex_euler_ark, integrate
from imexglm.methods import bundled_ark_path
from imexglm.tableau import load_method, method_to_dict, save_method


def dahlquist_spec(**kw):
    kw.setdefault("problem", "dahlquist")
    kw.setdefault("methods", ("dimsim4",))
    kw.setdefault("steps", (8, 16, 32))
    return StudySpec(**kw)


class TestStudySpec:
    def test_steps_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            dahlquist_spec(steps=(16, 8, 32))

    def test_order_estimation_needs_three_points(self):
        with pytest.raises(ValueError, match="3 step counts"):
            dahlquist_spec(steps=(8, 16))
        spec = dahlquist_spec(steps=(8,), require_orders=False)
        assert spec.steps == (8,)

    def test_tau_ratio_range(self):
        with pytest.raises(ValueError, match="tau_ratio"):
            dahlquist_spec(tau_ratio=0.0)
        with pytest.raises(ValueError, match="tau_ratio"):
            dahlquist_spec(tau_ratio=1.5)

    def test_repeats_must_be_positive(self):
        for repeats in (0, -1):
            with pytest.raises(ValueError, match="repeats"):
                dahlquist_spec(repeats=repeats)

    def test_single_method_string_coerces(self):
        spec = dahlquist_spec(methods="dimsim4")
        assert spec.methods == ("dimsim4",)

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            build_problem(dahlquist_spec(problem="heat"))


PAIR_FIELDS = ("c", "U", "v", "A", "B", "Ahat", "Bhat", "Q", "Qhat")


def same_pair(a, b):
    """Same name and bitwise the same coefficients."""
    return a.name == b.name and all(
        np.array_equal(getattr(a, k), getattr(b, k)) for k in PAIR_FIELDS)


class TestStarterPolicy:
    def test_auto_uses_euler_for_order_four(self, dimsim4):
        cfg = starter_config(dahlquist_spec(tau_ratio=0.25), dimsim4)
        assert same_pair(cfg.scheme, imex_euler_ark())
        assert cfg.tau_ratio == 0.25

    def test_auto_switches_for_order_five(self, dimsim5):
        cfg = starter_config(dahlquist_spec(), dimsim5)
        assert same_pair(cfg.scheme, load_method(bundled_ark_path(4)))

    def test_explicit_override_wins(self, dimsim5):
        cfg = starter_config(dahlquist_spec(starter="imex-euler-ark"), dimsim5)
        assert same_pair(cfg.scheme, imex_euler_ark())

    def test_path_starter_resolves(self, dimsim4):
        path = bundled_ark_path(5)
        cfg = starter_config(dahlquist_spec(starter=str(path)), dimsim4)
        assert same_pair(cfg.scheme, load_method(path))

    @pytest.mark.parametrize("name", ["dimsim4", "imex-euler"])
    def test_starter_must_be_an_additive_rk_pair(self, name, dimsim4):
        # imex-euler is the one-value GLM pair, as under --method
        with pytest.raises(ValueError, match="additive RK pair.*imex-euler-ark"):
            starter_config(dahlquist_spec(starter=name), dimsim4)

    @pytest.mark.parametrize("problem, params", [
        ("dahlquist", {}), ("burgers", {"n": 10})], ids=["dahlquist", "burgers"])
    def test_auto_is_bitwise_the_named_ark4_starter(self, problem, params,
                                                    dimsim5):
        runs = []
        for starter in ("auto", "ark4"):
            spec = dahlquist_spec(problem=problem, problem_params=params,
                                  starter=starter)
            runs.append(integrate(dimsim5, build_problem(spec), 20,
                                  start=starter_config(spec, dimsim5)).y)
        assert np.array_equal(*runs)


class TestConvergence:
    def test_structure_and_recomputable_orders(self):
        spec = dahlquist_spec()
        (study,) = run_convergence(spec)
        assert study.method == "dimsim4"
        assert [r.N for r in study.rows] == [8, 16, 32]
        assert study.rows[0].pairwise_order is None
        for prev, row in zip(study.rows, study.rows[1:]):
            want = math.log(prev.error / row.error) / math.log(row.N / prev.N)
            assert row.pairwise_order == pytest.approx(want, rel=1e-12)
            assert row.h == pytest.approx((1.0 - 0.0) / row.N)
        assert 3.5 < study.slope < 4.6

    def test_exact_runs_have_no_order(self):
        # y' = 0: ark4 is exact, so its errors are 0 and no pair of its rows
        # gives an order; dimsim4's start leaves rounding-level errors
        spec = dahlquist_spec(problem_params={"xi": 0.0, "xihat": 0.0},
                              methods=("dimsim4", "ark4"), steps=(10, 20, 40))
        dimsim4, ark4 = run_convergence(spec)
        assert all(0.0 < r.error < 1e-12 for r in dimsim4.rows)
        assert [r.error for r in ark4.rows] == [0.0] * 3
        assert [r.pairwise_order for r in ark4.rows] == [None] * 3
        assert ark4.slope is None
        assert list(ark4.csv_lines())[1:] == [
            f"{r.N},{r.h:.17g},0," for r in ark4.rows]

    def test_csv_lines_are_deterministic(self):
        spec = dahlquist_spec()
        a = list(run_convergence(spec)[0].csv_lines())
        b = list(run_convergence(spec)[0].csv_lines())
        assert a == b
        assert a[0] == "N,h,error,pairwise_order"
        assert len(a) == 1 + len(spec.steps)

    def test_ark_alias_runs(self):
        (study,) = run_convergence(dahlquist_spec(methods=("ark4",),
                                                  steps=(10, 20, 40)))
        assert study.method == "ark4"
        assert all(r.failure is None for r in study.rows)
        assert 3.5 < study.slope < 4.6

    def test_reference_computed_once_per_problem(self, monkeypatch):
        calls = {"n": 0}
        real = harness.reference_solution

        def counting(prob, n_ref):
            calls["n"] += 1
            return real(prob, n_ref)

        monkeypatch.setattr(harness, "reference_solution", counting)
        cache = _ReferenceCache()
        spec = dahlquist_spec(methods=("dimsim4", "imex-euler"))
        run_convergence(spec, cache)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_workprecision(dahlquist_spec(repeats=1), cache)
        assert calls["n"] == 1

    def test_failed_row_recorded_and_study_continues(self, allen_cahn_n40,
                                                     allen_cahn_reference):
        # h = 0.02 puts the stiffest reaction mode outside the explicit
        # region; with the plain Euler starter the run overflows mid-study
        cache = _ReferenceCache()
        cache._refs[("allen-cahn", (), 5000)] = allen_cahn_reference
        spec = StudySpec(problem="allen-cahn", methods=("dimsim5",),
                         steps=(25, 50), require_orders=False,
                         starter="imex-euler-ark")
        (study,) = run_convergence(spec, cache)
        first, second = study.rows
        assert first.error is None
        assert first.failure is not None and "step" in first.failure
        assert second.failure is None
        assert second.error is not None and second.error < 1e-4
        # blank cells, not poisoned values, in the CSV
        lines = list(study.csv_lines())
        assert lines[1].endswith(",,")


def nan_stiff_problem(t_bad):
    """y' = -y - 2y on [0, 1] with the nonlinear-path stiff part -2y, which
    turns NaN from t = t_bad on: the Newton stage solve then fails."""
    return SemiDiscreteProblem(
        name="nan-g", d=1, t0=0.0, tF=1.0, y0=np.array([1.0]),
        f=lambda t, y: -y,
        g=lambda t, y: -2.0 * y if t < t_bad else np.full_like(y, np.nan),
        g_jacobian=lambda t, y: np.array([[-2.0]]))


class TestStageFailureRows:
    """A failed stage solve, in a step or in the starter, becomes a failure
    row in both studies and the study goes on."""

    @pytest.mark.parametrize("t_bad, message", [
        (0.5, "step 5/10 at t=0.4 failed"),
        (1e-3, "starting procedure failed"),
    ])
    def test_both_studies_record_the_failure(self, t_bad, message,
                                             monkeypatch):
        monkeypatch.setattr(harness, "build_problem",
                            lambda spec: nan_stiff_problem(t_bad))
        spec = dahlquist_spec(steps=(10,), require_orders=False, n_ref=100,
                              repeats=1)
        cache = _ReferenceCache()
        cache._refs[("dahlquist", (), 100)] = np.exp(-3.0) * np.ones(1)
        (conv,) = run_convergence(spec, cache)
        (wp,) = run_workprecision(spec, cache)
        for row in (conv.rows[0], wp.rows[0]):
            assert row.error is None
            assert message in row.failure and "Newton" in row.failure


class TestOverflowRows:
    @pytest.mark.parametrize("N", [20, 40])
    def test_both_studies_record_an_overflow_as_a_failure(self, N):
        # xi = -1e4 explicit: h = 1/N is far outside the explicit region
        spec = StudySpec(problem="dahlquist",
                         problem_params={"xi": -1e4, "xihat": -1.0},
                         methods=("dimsim4",), steps=(N,),
                         require_orders=False, repeats=1)
        cache = _ReferenceCache()
        (conv,) = run_convergence(spec, cache)
        (wp,) = run_workprecision(spec, cache)
        for row in (conv.rows[0], wp.rows[0]):
            assert row.error is None
            assert row.failure == f"non-finite error at N={N}"
        assert wp.rows[0].seconds is None
        assert list(wp.csv_lines())[1].endswith(",,")


class TestWorkPrecision:
    def test_timing_fields(self):
        spec = dahlquist_spec(repeats=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            (study,) = run_workprecision(spec)
        assert list(study.csv_lines())[0] == "N,h,seconds,error"
        for r in study.rows:
            assert len(r.repeat_seconds) == 2
            assert r.seconds == min(r.repeat_seconds)
            assert r.start_seconds is not None and r.start_seconds >= 0.0
            assert r.error is not None and r.error < 1e-3

    def test_errors_match_convergence_runs(self):
        cache = _ReferenceCache()
        conv = run_convergence(dahlquist_spec(), cache)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            wp = run_workprecision(dahlquist_spec(repeats=1), cache)[0]
        for cr, wr in zip(conv.rows, wp.rows):
            assert wr.error == pytest.approx(cr.error, rel=1e-12)


class TestEmitStability:
    def test_file_set_and_content(self, euler_glm, coarse_query, tmp_path):
        report = emit_stability(euler_glm, coarse_query, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["areas.json", "s.csv", "s_alpha.csv", "shat.csv"]

        s_lines = (tmp_path / "s.csv").read_text().splitlines()
        assert s_lines[0] == "x,y_upper,y_lower"
        assert len(s_lines) == 1 + coarse_query.n_lines

        sa_lines = (tmp_path / "s_alpha.csv").read_text().splitlines()
        assert sa_lines[0] == "alpha,x,y_upper,y_lower"
        assert len(sa_lines) == 1 + 3 * coarse_query.n_lines
        alphas = sorted({float(l.split(",")[0]) for l in sa_lines[1:]})
        assert np.allclose(alphas, sorted(STABILITY_ALPHAS))

        disk = json.loads((tmp_path / "areas.json").read_text())
        assert disk == report
        assert report["method"] == "imex-euler"
        assert report["convention"] == "total"
        # the query that made the numbers, once, before them
        assert list(report)[:3] == ["method", "convention", "query"]
        assert report["query"] == {
            "stiff_magnitudes": list(coarse_query.stiff_magnitudes),
            "n_angles": coarse_query.n_angles, "alpha": coarse_query.alpha,
            "tol": coarse_query.tol, "y_top": coarse_query.y_top,
            "n_lines": coarse_query.n_lines}
        assert abs(report["explicit"]["area_total"] - math.pi) < 0.12
        assert report["implicit"].get("unbounded") is True
        assert len(report["pair"]) == 3
        for entry in report["pair"]:
            assert abs(entry["area_total"] - math.pi) < 0.12
            assert entry["decisions"] > 0 and entry["singular"] == 0
            assert entry["matrices"] >= entry["decisions"]
            assert entry["x_b"] == pytest.approx(-2.0, abs=0.02)

    def test_alpha_nesting_pointwise(self, euler_glm, coarse_query, tmp_path):
        emit_stability(euler_glm, coarse_query, tmp_path)
        rows = np.loadtxt(tmp_path / "s_alpha.csv", delimiter=",", skiprows=1)
        blocks = {}
        for alpha in STABILITY_ALPHAS:
            sel = np.isclose(rows[:, 0], alpha)
            blocks[alpha] = rows[sel][:, 1:3]
        slack = 2 * coarse_query.tol
        half, third, quarter = (blocks[a] for a in STABILITY_ALPHAS)
        assert np.allclose(half[:, 0], quarter[:, 0], atol=slack)
        # wider stiff sectors can only shrink the region
        assert (half[:, 1] <= third[:, 1] + slack).all()
        assert (third[:, 1] <= quarter[:, 1] + slack).all()


class TestWriteStudyCsv:
    def fake_study(self, name):
        return ConvergenceStudy(method=name, problem="dahlquist", rows=[],
                                slope=None)

    def test_single_study_uses_path_verbatim(self, tmp_path):
        out = tmp_path / "conv.csv"
        written = write_study_csv([self.fake_study("dimsim4")], str(out))
        assert written == [out]
        assert out.read_text() == "N,h,error,pairwise_order\n"

    def test_multi_study_appends_method(self, tmp_path):
        out = tmp_path / "conv.csv"
        written = write_study_csv(
            [self.fake_study("dimsim4"), self.fake_study("imex-euler")],
            str(out))
        assert [p.name for p in written] == ["conv_dimsim4.csv",
                                             "conv_imex-euler.csv"]

    def test_none_out_writes_nothing(self):
        assert write_study_csv([self.fake_study("dimsim4")], None) == []


class TestCli:
    def test_validate_builtin(self, capsys):
        assert cli_main(["validate-method", "--method", "dimsim4"]) == 0
        out = capsys.readouterr().out
        assert "imex-dimsim4" in out and "OK" in out

    def test_validate_ark_alias(self, capsys):
        assert cli_main(["validate-method", "--method", "ark4"]) == 0
        assert "additive RK pair" in capsys.readouterr().out

    def test_validate_corrupted_file(self, dimsim4, tmp_path, capsys):
        d = method_to_dict(dimsim4)
        d["B"][0][0] = "9.9"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli_main(["validate-method", "--method", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["validate-method", "--method", str(missing)]) == 1

    def test_integrate_reports_error(self, capsys):
        rc = cli_main(["integrate", "--problem", "dahlquist",
                       "--method", "dimsim4", "--steps", "40"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["N"] == 40
        assert row["error_vs_exact"] < 1e-5

    def test_integrate_defaults_to_25_steps(self, capsys):
        assert cli_main(["integrate", "--problem", "dahlquist"]) == 0
        assert json.loads(capsys.readouterr().out)["N"] == 25

    def test_integrate_refuses_cut_starting_weights(self, dimsim4, tmp_path,
                                                     capsys):
        # Q and Qhat cut to 3 columns (p = 2) used to exit 2 with numpy's
        # matmul error at the first step; the file is now refused on load
        d = method_to_dict(dimsim4)
        d.update(p=2, q=2, Q=[row[:3] for row in d["Q"]],
                 Qhat=[row[:3] for row in d["Qhat"]])
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(d))
        rc = cli_main(["integrate", "--problem", "dahlquist",
                       "--method", str(path), "--steps", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'Q' has shape (4, 3), expected (4, 5)" in err

    def test_integrate_takes_one_step_count(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["integrate", "--problem", "dahlquist",
                      "--steps", "10,20,40"])
        assert info.value.code == 64
        assert capsys.readouterr().out == ""

    def test_converge_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = cli_main(["converge", "--problem", "dahlquist",
                       "--method", "dimsim4", "--steps", "8,16,32",
                       "--out", str(out)])
        assert rc == 0
        assert "least-squares slope" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "N,h,error,pairwise_order"
        assert len(lines) == 4

    def test_studies_take_a_method_list(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = cli_main(["converge", "--problem", "dahlquist",
                       "--method", "dimsim4,ark4", "--steps", "8,16,32",
                       "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.count("least-squares slope") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "conv_ark4.csv", "conv_dimsim4.csv"]
        out = tmp_path / "wp.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli_main(["work-precision", "--problem", "dahlquist",
                           "--method", "dimsim4,ark4", "--steps", "8,16,32",
                           "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [st["method"] for st in payload] == ["dimsim4", "ark4"]
        assert all(r["failure"] is None for st in payload for r in st["rows"])

    def test_study_json_rows_share_their_keys(self, tmp_path, capsys):
        keys = {}
        for command in ("converge", "work-precision"):
            out = tmp_path / f"{command}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = cli_main([command, "--problem", "dahlquist",
                               "--method", "dimsim4", "--steps", "8,16,32",
                               "--format", "json", "--out", str(out)])
            assert rc == 0
            (study,) = json.loads(out.read_text())
            keys[command] = [list(study)] + [list(r) for r in study["rows"]]
        assert keys["converge"] == keys["work-precision"]
        assert keys["converge"][1] == ["N", "h", "error", "pairwise_order",
                                       "seconds", "start_seconds", "failure"]

    def test_stability_takes_a_method_list(self, euler_glm, tmp_path, capsys):
        path = tmp_path / "euler-file.json"
        save_method(euler_glm, path)
        out = tmp_path / "regions"
        rc = cli_main(["stability", "--method", f"imex-euler,{path}",
                       "--out", str(out)])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in reports] == ["imex-euler", "imex-euler"]
        for sub, report in zip(("imex-euler", "euler-file"), reports):
            assert json.loads((out / sub / "areas.json").read_text()) == report

    def test_stability_of_an_additive_rk_pair(self, tmp_path, capsys):
        out = tmp_path / "ark4"
        assert cli_main(["stability", "--method", "ark4", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads((out / "areas.json").read_text()) == report
        for name in ("s.csv", "shat.csv", "s_alpha.csv"):
            assert (out / name).read_text().startswith(("x,", "alpha,x,"))
        assert [e["alpha"] for e in report["pair"]] == list(STABILITY_ALPHAS)
        assert all(e["area_total"] > 0.0 for e in report["pair"])

    def test_optimize_with_tiny_budget(self, capsys):
        rc = cli_main(["optimize-explicit", "--method", "dimsim4",
                       "--budget", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_evaluations"] <= 4
        assert payload["seed_area"] > 0.0
        # the seed alone is 16 decisions over 4,676 points (coarse query)
        assert payload["decisions"] >= 16 and payload["matrices"] >= 4_676
        assert payload["singular"] == 0
        trace = payload["best_area_trace"]
        assert len(trace) == payload["n_evaluations"]
        assert trace[0] == payload["seed_area"] and trace[-1] == payload["area"]

    def test_optimize_refuses_a_budget_below_one(self, capsys):
        # a budget that scores nothing is refused, not reported as a
        # seed_area of 0.0 for a seed never scored
        rc = cli_main(["optimize-explicit", "--method", "dimsim4",
                       "--budget", "0"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "budget must be at least 1" in captured.err

    # the options each subcommand reads, beyond --method
    READS = {
        "validate-method": set(),
        "integrate": {"out", "problem", "steps"},
        "converge": {"out", "problem", "steps", "format"},
        "work-precision": {"out", "problem", "steps", "format"},
        "stability": {"out"},
        "optimize-explicit": {"out", "seed", "budget"},
    }
    PROBLEM = {"problem": "burgers", "grid-n": "10", "alpha": "0.1",
               "n-ref": "100", "tau-ratio": "0.5", "starter": "auto"}
    VALUES = dict(PROBLEM, out="x", steps="10", format="json", seed="1",
                  budget="3")

    @pytest.mark.parametrize("command", sorted(READS))
    def test_each_subcommand_takes_exactly_the_options_it_reads(self, command):
        reads = self.READS[command] | {"method"}
        if "problem" in reads:
            reads |= set(self.PROBLEM)
        argv = [command]
        for opt in sorted(reads):
            argv += [f"--{opt}", self.VALUES.get(opt, "dimsim4")]
        args = vars(_build_parser().parse_args(argv))
        assert set(args) - {"command"} == {o.replace("-", "_") for o in reads}
        for opt in sorted(set(self.VALUES) - reads):
            with pytest.raises(SystemExit) as info:
                _build_parser().parse_args([command, f"--{opt}", self.VALUES[opt]])
            assert info.value.code == 64

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli_main(["converge", "--bogus", "1"])
        assert info.value.code == 64

    def test_bad_steps_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli_main(["converge", "--problem", "dahlquist",
                      "--steps", "a,b"])
        assert info.value.code == 64

    @pytest.mark.parametrize("starter", [
        "ark4", "ark5", "imex-euler-ark", str(bundled_ark_path(5))],
        ids=["ark4", "ark5", "imex-euler-ark", "ark548.json"])
    def test_starter_takes_any_additive_rk_name(self, starter, capsys):
        rc = cli_main(["integrate", "--problem", "dahlquist", "--method",
                       "dimsim5", "--starter", starter, "--steps", "20"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["error_vs_exact"] < 1e-4

    @pytest.mark.parametrize("starter", ["dimsim4", "imex-euler"])
    def test_starter_that_is_no_additive_rk_pair_exits_two(self, starter,
                                                            capsys):
        rc = cli_main(["integrate", "--problem", "dahlquist", "--method",
                       "dimsim5", "--starter", starter])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "additive RK pair" in line

    def test_runtime_failure_exits_two(self, capsys):
        rc = cli_main(["optimize-explicit", "--method", "ark4"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_glm_file_round_trip_through_cli(self, dimsim4, tmp_path):
        path = tmp_path / "m.json"
        save_method(dimsim4, path)
        assert cli_main(["validate-method", "--method", str(path)]) == 0
