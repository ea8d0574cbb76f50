import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imexglm.integrator as integrator
from imexglm.integrator import (ExternalState, IntegrationError,
                                SemiDiscreteProblem, StageSolveConfig,
                                StageSolveError, StartingConfig,
                                ark_integrate, ark_step, derivative_weights,
                                glm_step, imex_euler_ark, initialize_external,
                                integrate, rescaling_matrix, solve_stage)
from imexglm.methods import ImexRkMethod, bundled_ark_path
from imexglm.problems import (KroneckerSum, allen_cahn_benchmark,
                              burgers_benchmark, dahlquist_split_problem)
from imexglm.stability import imex_stability_matrix


def quadrature_problem(fcoef, gcoef, t0=0.0, tF=1.0):
    """y' = pf(t) + pg(t) with polynomial parts; exact y by antiderivatives."""
    pf = np.polynomial.Polynomial(fcoef)
    pg = np.polynomial.Polynomial(gcoef)
    anti = (pf + pg).integ()
    return SemiDiscreteProblem(
        name="quadrature", d=1, t0=t0, tF=tF,
        y0=np.array([anti(t0)]),
        f=lambda t, y: np.array([pf(t)]),
        stiff_matrix=np.zeros((1, 1)),
        stiff_forcing=lambda t: np.array([pg(t)]),
        exact=lambda t: np.array([anti(t)]),
    ), pf, pg


class TestDerivativeWeights:
    def test_r2(self):
        assert np.array_equal(derivative_weights(2)[0], [1.0, 0.0])
        assert np.allclose(derivative_weights(2)[1], [-1.0, 1.0], atol=1e-14)

    def test_r3(self):
        D = derivative_weights(3)
        assert np.array_equal(D[0], [1.0, 0.0, 0.0])
        assert np.allclose(D[1], [-1.5, 2.0, -0.5], atol=1e-13)
        assert np.allclose(D[2], [1.0, -2.0, 1.0], atol=1e-13)

    @given(seed=st.integers(0, 10 ** 6), r=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_polynomials(self, seed, r):
        # row k recovers x^(k)(0) from x' samples at 0..r-1, exactly for
        # x' of degree <= r-1
        rng = np.random.default_rng(seed)
        xp = np.polynomial.Polynomial(rng.uniform(-1, 1, size=r))
        D = derivative_weights(r)
        samples = xp(np.arange(r, dtype=float))
        for k in range(1, r + 1):
            want = xp.deriv(k - 1)(0.0)
            assert D[k - 1] @ samples == pytest.approx(want, rel=1e-9,
                                                       abs=1e-9)

    def test_bad_r(self):
        with pytest.raises(ValueError):
            derivative_weights(0)

    def test_ill_conditioned_warns(self):
        with pytest.warns(RuntimeWarning):
            derivative_weights(13)


class TestRescaling:
    def test_values(self):
        R = rescaling_matrix(0.1, 0.05, 3)
        assert np.allclose(np.diag(R), [2.0, 4.0, 8.0])

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            rescaling_matrix(0.1, 0.0, 2)


class TestStartingProcedure:
    def test_polynomial_exactness(self, dimsim4, dimsim5):
        """For pure-time polynomial splittings of degree < r the starting
        vector must match the derivative expansion to roundoff."""
        rng = np.random.default_rng(7)
        for m in (dimsim4, dimsim5):
            r, h = m.r, 0.2
            prob, pf, pg = quadrature_problem(rng.uniform(-1, 1, r),
                                              rng.uniform(-1, 1, r))
            state = initialize_external(m, prob, h)
            y0 = prob.y0[0]
            for i in range(r):
                want = y0
                for k in range(1, m.p + 1):
                    want += h ** k * (m.Q[i, k] * pf.deriv(k - 1)(0.0)
                                      + m.Qhat[i, k] * pg.deriv(k - 1)(0.0))
                assert state.blocks[i, 0] == pytest.approx(want, abs=1e-11)

    def test_one_block_start_is_shifted_euler(self, euler_glm):
        prob = dahlquist_split_problem(-0.3, -2.0)
        h = 0.1
        state = initialize_external(euler_glm, prob, h)
        g0 = prob.g(prob.t0, prob.y0)
        assert np.allclose(state.blocks[0], prob.y0 - h * g0, atol=1e-15)

    def test_tau_equal_h_allowed(self, dimsim4):
        prob = dahlquist_split_problem(-0.3, -2.0)
        state = initialize_external(dimsim4, prob, 0.05,
                                    StartingConfig(tau_ratio=1.0))
        assert state.blocks.shape == (4, prob.d)

    def test_tau_out_of_range(self, dimsim4):
        prob = dahlquist_split_problem(-0.3, -2.0)
        with pytest.raises(ValueError, match="tau"):
            initialize_external(dimsim4, prob, 0.05, StartingConfig(tau_ratio=4.0))
        with pytest.raises(ValueError, match="tau"):
            initialize_external(dimsim4, prob, 0.05, StartingConfig(tau_ratio=0.0))

    def test_file_scheme(self, dimsim5):
        prob = dahlquist_split_problem(-0.3, -2.0)
        state = initialize_external(
            dimsim5, prob, 0.05, StartingConfig(scheme=bundled_ark_path(4)))
        assert state.blocks.shape == (5, prob.d)

    def test_bad_scheme_type(self, dimsim4):
        prob = dahlquist_split_problem(-0.3, -2.0)
        with pytest.raises(TypeError):
            initialize_external(dimsim4, prob, 0.05,
                                StartingConfig(scheme=42))


class TestStepLinearity:
    def test_step_matches_stability_matrix(self, dimsim4, dimsim5, euler_glm):
        """One step on y' = xi y + xihat y must act as the two-parameter
        stability matrix on the external blocks."""
        rng = np.random.default_rng(2)
        for m in (dimsim4, dimsim5, euler_glm):
            for _ in range(10):
                xi = rng.uniform(-0.8, 0.0)
                xihat = rng.uniform(-3.0, 0.0)
                prob = dahlquist_split_problem(xi, xihat)
                h = 0.5
                blocks = rng.standard_normal((m.r, prob.d))
                state = ExternalState(t=0.0, h=h, blocks=blocks)
                out = glm_step(m, prob, state)
                M = imex_stability_matrix(m, h * xi, h * xihat).real
                want = M @ blocks
                assert np.max(np.abs(out.blocks - want)) < 1e-12

    def test_superposition(self, dimsim4):
        prob = dahlquist_split_problem(-0.4, -1.5)
        rng = np.random.default_rng(3)
        b1 = rng.standard_normal((4, 1))
        b2 = rng.standard_normal((4, 1))
        a, b = 0.7, -1.3
        h = 0.3
        out1 = glm_step(dimsim4, prob, ExternalState(0.0, h, b1)).blocks
        out2 = glm_step(dimsim4, prob, ExternalState(0.0, h, b2)).blocks
        out12 = glm_step(dimsim4, prob,
                         ExternalState(0.0, h, a * b1 + b * b2)).blocks
        assert np.max(np.abs(out12 - (a * out1 + b * out2))) < 1e-12

    def test_block_count_mismatch(self, dimsim4):
        prob = dahlquist_split_problem(-0.4, -1.5)
        with pytest.raises(ValueError, match="blocks"):
            glm_step(dimsim4, prob, ExternalState(0.0, 0.1, np.zeros((3, 1))))


class TestStageSolves:
    def test_one_factorization_per_distinct_gamma(self, dimsim4, monkeypatch):
        # dimsim4 stages share gamma = h*lambda; the IMEX Euler starter adds
        # its micro-step tau as the only other value
        calls = []
        real = integrator._factorize

        def counted(J, gamma, d):
            calls.append(gamma)
            return real(J, gamma, d)

        monkeypatch.setattr(integrator, "_factorize", counted)
        prob = dahlquist_split_problem(-0.5, -8.0)
        for _ in range(2):          # the cache lives for one integrate call
            calls.clear()
            res = integrate(dimsim4, prob, 20)
            assert sorted(calls) == sorted([res.h * dimsim4.lam, 0.5 * res.h])

    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_laplacian_solver_matches_superlu_end_to_end(self, make, dimsim4,
                                                         dimsim5, monkeypatch):
        # the fast-diagonalization path and SuperLU give the same runs; it
        # is built once per distinct gamma and SuperLU is never reached
        start5 = StartingConfig(scheme=bundled_ark_path(4))
        runs = {"dimsim4": (lambda p: integrate(dimsim4, p, 40), 2),
                "dimsim5": (lambda p: integrate(dimsim5, p, 40, start=start5), 2),
                "ark4": (lambda p: ark_integrate(_m4(), p, 40), 1)}
        superlu = {}
        for label, (run, _) in runs.items():
            prob = make(n=10).problem
            prob.stiff_solver = None
            superlu[label] = run(prob).y

        def no_splu(*args, **kwargs):
            raise AssertionError("SuperLU reached")

        monkeypatch.setattr(integrator, "splu", no_splu)
        for label, (run, n_gammas) in runs.items():
            prob = make(n=10).problem
            factory, gammas = prob.stiff_solver, []

            def counted(gamma):
                gammas.append(gamma)
                return factory(gamma)

            prob.stiff_solver = counted
            y, want = run(prob).y, superlu[label]
            assert len(gammas) == len(set(gammas)) == n_gammas, label
            assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want), label

    def test_affine_stage_evaluates_forcing_once(self, dimsim4, monkeypatch):
        bench = allen_cahn_benchmark(n=8)
        prob, grid = bench.problem, bench.grid
        forcing, g = prob.stiff_forcing, prob.g
        forcing_times, zero_probes, stages = [], [], []

        def counted_forcing(t):
            forcing_times.append(t)
            return forcing(t)

        def counted_g(t, y):
            if not y.any():
                zero_probes.append(t)
            return g(t, y)

        def recorded_stage(*args, **kwargs):
            R = args[1].copy()
            Y, G = real_stage(*args, **kwargs)
            stages.append((args[0], R, args[3], Y.copy(), G.copy()))
            return Y, G

        prob.stiff_forcing, prob.g = counted_forcing, counted_g
        state = initialize_external(dimsim4, prob, 0.01)
        forcing_times.clear()
        real_stage = integrator._stage
        monkeypatch.setattr(integrator, "_stage", recorded_stage)
        glm_step(dimsim4, prob, state)
        # every dimsim4 stage is implicit: one forcing call each, no probe
        assert forcing_times == [0.01 * c for c in dimsim4.c]
        assert zero_probes == []
        # G comes from the solve, G = (Y - R)/gamma.  It meets the stage
        # equation to rounding, and differs from J Y + b by the solve's
        # residual over gamma plus the rounding of both formulas.  The
        # fast-diagonalization solve makes four products with the m x m sine
        # matrix S, m = n - 1; each errs by at most gamma_m |S| |Z| (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.13),
        # in norm m eps || |S| || ||Z|| <= m^1.5 eps ||Z|| as S is
        # orthogonal, and ||Z|| <= ||I - gamma J|| ||Y||.  Forming R + gamma b
        # and the scaling by the eigenvalue table D (its own rounding
        # included) add 6 eps ||I - gamma J|| ||Y||; over gamma, ||I - gamma
        # J|| / |gamma| <= 1/|gamma| + ||J||.  The subtract-and-divide adds
        # 2 eps ||G||, and J Y + b (two tridiagonal products, each row of
        # 3 terms with || |scale T| || = ||J|| / 2, and two adds) adds
        # 4 eps ||J|| ||Y|| + eps ||G||.  With ||b|| <= ||J|| ||Y||, so
        # ||G|| <= 2 ||J|| ||Y||, c = 4 m^1.5 + 16 at first order in eps
        # (the tables S and D are taken as exact).
        eps, m, J = np.finfo(float).eps, grid.n - 1, prob.stiff_matrix
        norm_J = 2.0 * abs(J.scale) * np.abs(np.linalg.eigvalsh(J.T)).max()
        c = 4.0 * m ** 1.5 + 16.0
        for gamma, R, t_i, Y, G in stages:
            norm_Y = np.linalg.norm(Y)
            assert np.linalg.norm(Y - R - gamma * G) <= eps * norm_Y
            b = forcing(t_i)
            assert np.linalg.norm(b) <= norm_J * norm_Y
            assert (np.linalg.norm(G - (J @ Y + b))
                    <= c * eps * norm_Y * (1.0 / abs(gamma) + norm_J))

    def test_implicit_linear_stages_form_no_stiff_product(self, dimsim4,
                                                          monkeypatch):
        # allen-cahn's f makes no operator product, so every product counted
        # is a G = J Y + b: none for dimsim4's implicit stages, one for
        # ARK4's explicit (gamma = 0) first stage
        prob = allen_cahn_benchmark(n=8).problem
        state = initialize_external(dimsim4, prob, 0.01)
        calls = []
        real = KroneckerSum.__matmul__

        def counted(op, y):
            calls.append(y.shape)
            return real(op, y)

        monkeypatch.setattr(KroneckerSum, "__matmul__", counted)
        glm_step(dimsim4, prob, state)
        assert calls == []
        ark_step(_m4(), prob, prob.y0, 0.0, 0.01)
        assert len(calls) == 1

    @pytest.mark.parametrize("path", ["fast-diagonalization", "superlu",
                                      "lapack"])
    def test_stage_equation_on_every_linear_solver_path(self, path, dimsim4,
                                                        monkeypatch):
        # the check recomputes Y - R as the stage did, so its residual is the
        # rounding of the division and of gamma*G, at most 2 eps ||Y - R||:
        # below eps ||Y|| while ||Y - R|| < ||Y|| / 2
        if path == "lapack":
            prob = dahlquist_split_problem(-1.0 + 2.0j, -5.0 + 3.0j)
        else:
            prob = allen_cahn_benchmark(n=8).problem
            if path == "superlu":
                prob.stiff_solver = None
        factored, stages = [], []
        real_splu, real_stage = integrator.splu, integrator._stage

        def counted_splu(*args, **kwargs):
            factored.append(args[0].shape)
            return real_splu(*args, **kwargs)

        def recorded_stage(*args, **kwargs):
            R = args[1].copy()
            Y, G = real_stage(*args, **kwargs)
            assert np.array_equal(args[1], R)    # the caller's R is intact
            stages.append((args[0], R, Y.copy(), G.copy()))
            return Y, G

        monkeypatch.setattr(integrator, "splu", counted_splu)
        monkeypatch.setattr(integrator, "_stage", recorded_stage)
        state = initialize_external(dimsim4, prob, 0.1)
        glm_step(dimsim4, prob, state)
        assert bool(factored) == (path == "superlu")
        eps = np.finfo(float).eps
        implicit = [st for st in stages if st[0] != 0.0]
        assert len(implicit) == dimsim4.s + dimsim4.r - 1
        for gamma, R, Y, G in implicit:
            norm_Y = np.linalg.norm(Y)
            assert np.linalg.norm(Y - R) < 0.5 * norm_Y
            assert np.linalg.norm(Y - R - gamma * G) <= eps * norm_Y

    def test_newton_residual_contract(self, dimsim4):
        # stiff nonlinear g: the returned stage satisfies the implicit
        # relation to the configured tolerance
        prob = SemiDiscreteProblem(
            name="nl", d=2, t0=0.0, tF=1.0, y0=np.array([0.7, -0.2]),
            f=lambda t, y: np.zeros(2),
            g=lambda t, y: -4.0 * y ** 3,
            g_jacobian=lambda t, y: np.diag(-12.0 * y ** 2),
        )
        h, t, i = 0.2, 0.0, 2
        rhs = np.array([0.9, -0.4])
        cfg = StageSolveConfig()
        Y = solve_stage(i, rhs, dimsim4, prob, t, h, cfg)
        gamma = h * dimsim4.lam
        res = Y - gamma * prob.g(t + dimsim4.c[i] * h, Y) - rhs
        assert np.linalg.norm(res) <= cfg.newton_tol * max(
            1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize("lam", [-1e4, -1e6, -1e7, -1e8])
    def test_newton_converges_on_very_stiff_scalar_problem(self, dimsim4, lam):
        # nonlinear Prothero-Robinson: y' = cos t + lam (y + y^3 - sin t -
        # sin^3 t), exact y = sin t.  The reachable Newton residual is set by
        # the rounding inside gamma*g(y), above 1e-12 once |lam| >= 1e6
        def g(t, y):
            s = np.sin(t)
            return lam * (y + y ** 3 - s - s ** 3)

        prob = SemiDiscreteProblem(
            name="prothero-robinson-nl", d=1, t0=0.0, tF=1.0, y0=np.zeros(1),
            f=lambda t, y: np.array([np.cos(t)]), g=g,
            g_jacobian=lambda t, y: np.diag(lam * (1.0 + 3.0 * y ** 2)))
        res = integrate(dimsim4, prob, 40)
        assert abs(res.y[0] - np.sin(1.0)) <= 1e-12

    def test_newton_stall_reports_stage_and_residual(self, dimsim4):
        prob = SemiDiscreteProblem(
            name="nl", d=1, t0=0.0, tF=1.0, y0=np.array([0.7]),
            f=lambda t, y: np.zeros(1),
            g=lambda t, y: np.exp(y) - 1.0,
            g_jacobian=lambda t, y: np.diag(np.exp(y)),
        )
        cfg = StageSolveConfig(max_newton=1)
        with pytest.raises(StageSolveError) as info:
            solve_stage(1, np.array([2.0]), dimsim4, prob, 0.0, 0.5, cfg,
                        predictor=np.array([40.0]))
        assert info.value.stage == 1
        assert info.value.residual is not None

    def test_explicit_stage_is_passthrough(self, dimsim4):
        prob = dahlquist_split_problem(-0.5, -8.0)
        rhs = np.array([1.23])
        Y = solve_stage(0, rhs, dimsim4, prob, 0.0, 0.1)
        # dimsim4 has ahat_00 = lambda > 0 so stage 0 is implicit; the
        # explicit passthrough shows up with gamma = 0 via an ARK first stage
        assert not np.array_equal(Y, rhs)
        mrk = imex_euler_ark()
        y = ark_step(mrk, prob, np.array([1.0]), 0.0, 0.0)
        assert np.allclose(y, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StageSolveConfig(newton_tol=0.0)
        with pytest.raises(ValueError):
            StageSolveConfig(max_newton=0)

    def test_stiff_part_described_once(self):
        base = dict(name="p", d=1, t0=0.0, tF=1.0, y0=np.zeros(1),
                    f=lambda t, y: y)
        with pytest.raises(ValueError, match="not both"):
            SemiDiscreteProblem(**base, stiff_matrix=np.eye(1),
                                g=lambda t, y: y,
                                g_jacobian=lambda t, y: np.eye(1))
        with pytest.raises(ValueError):
            SemiDiscreteProblem(**base)
        with pytest.raises(ValueError):
            SemiDiscreteProblem(**base, g=lambda t, y: y)
        with pytest.raises(ValueError):
            SemiDiscreteProblem(**base, g=lambda t, y: y,
                                g_jacobian=lambda t, y: np.eye(1),
                                stiff_forcing=lambda t: np.ones(1))
        with pytest.raises(ValueError, match="stiff_solver"):
            SemiDiscreteProblem(**base, g=lambda t, y: y,
                                g_jacobian=lambda t, y: np.eye(1),
                                stiff_solver=lambda gamma: lambda r: r)
        prob = SemiDiscreteProblem(**base, stiff_matrix=np.array([[-2.0]]),
                                   stiff_forcing=lambda t: np.array([t]))
        assert prob.g(3.0, np.array([1.5])) == pytest.approx([0.0])
        assert np.array_equal(prob.g_jacobian(0.0, prob.y0), [[-2.0]])


class TestFailurePropagation:
    def test_blowup_names_step(self, dimsim4):
        prob = SemiDiscreteProblem(
            name="blowup", d=1, t0=0.0, tF=2.0, y0=np.array([1.0]),
            f=lambda t, y: y ** 2,
            stiff_matrix=np.zeros((1, 1)),
        )
        with pytest.raises(IntegrationError, match=r"step \d+/\d+"):
            integrate(dimsim4, prob, 50)

    def test_nonfinite_state_rejected(self):
        with pytest.raises(IntegrationError):
            ExternalState(t=0.0, h=0.1, blocks=np.array([[np.nan]]))

    def test_integrate_needs_steps(self, dimsim4):
        prob = dahlquist_split_problem(-0.5, -2.0)
        with pytest.raises(ValueError):
            integrate(dimsim4, prob, 0)
        with pytest.raises(ValueError):
            ark_integrate(imex_euler_ark(), prob, 0)


def classical_rk4():
    return ImexRkMethod(
        name="rk4", c=np.array([0.0, 0.5, 0.5, 1.0]),
        A_explicit=np.array([[0.0, 0.0, 0.0, 0.0],
                             [0.5, 0.0, 0.0, 0.0],
                             [0.0, 0.5, 0.0, 0.0],
                             [0.0, 0.0, 1.0, 0.0]]),
        b_explicit=np.array([1, 2, 2, 1]) / 6.0,
        A_implicit=np.zeros((4, 4)),
        b_implicit=np.zeros(4),
    )


class TestArkStepper:
    def test_explicit_part_is_classical_rk4(self):
        prob = SemiDiscreteProblem(
            name="nl", d=1, t0=0.0, tF=1.0, y0=np.array([0.8]),
            f=lambda t, y: np.sin(t) - y ** 2,
            stiff_matrix=np.zeros((1, 1)),
        )
        y, t, h = np.array([0.8]), 0.3, 0.05
        out = ark_step(classical_rk4(), prob, y, t, h)
        k1 = prob.f(t, y)
        k2 = prob.f(t + h / 2, y + h / 2 * k1)
        k3 = prob.f(t + h / 2, y + h / 2 * k2)
        k4 = prob.f(t + h, y + h * k3)
        want = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.allclose(out, want, rtol=0, atol=1e-15)

    def test_implicit_part_matches_rational_function(self):
        base = _m4()
        mrk = ImexRkMethod(name="ark4-implicit-only",
                           c=np.asarray(base.c),
                           A_explicit=np.zeros_like(base.A_explicit),
                           b_explicit=np.zeros_like(base.b_explicit),
                           A_implicit=np.asarray(base.A_implicit),
                           b_implicit=np.asarray(base.b_implicit))
        xihat = -3.7
        prob = dahlquist_split_problem(0.0, xihat)
        h = 0.4
        z = h * xihat
        sig = mrk.sigma
        e = np.ones(sig)
        R = 1.0 + z * mrk.b_implicit @ np.linalg.solve(
            np.eye(sig) - z * mrk.A_implicit, e)
        out = ark_step(mrk, prob, prob.y0, 0.0, h)
        assert out[0] == pytest.approx(R * prob.y0[0], rel=1e-13)

    def test_euler_glm_equals_ark_shifted(self, euler_glm):
        prob = dahlquist_split_problem(-0.7, -2.5, t_final=1.0)
        N = 10
        res_glm = integrate(euler_glm, prob, N)
        res_ark = ark_integrate(imex_euler_ark(), prob, N,
                                record_trajectory=True)
        t_prev, y_prev = res_ark.trajectory[N - 2]
        assert res_glm.t_readout == pytest.approx(t_prev, abs=1e-12)
        assert np.allclose(res_glm.y, y_prev, rtol=1e-14, atol=0)


def _m4():
    from imexglm.methods import load_ark_method
    return load_ark_method(bundled_ark_path(4))


def two_product_glm_step(m, prob, state):
    """glm_step written as U y plus separate A and Ahat products per stage;
    returns (blocks, last stage)."""
    h, t, s = state.h, state.t, m.s
    cfg, cache = StageSolveConfig(), integrator.StiffSolverCache(prob)
    F, G = np.zeros((s, prob.d)), np.zeros((s, prob.d))
    Uy = m.explicit.U @ state.blocks
    for i in range(s):
        rhs = Uy[i] + h * (m.A[i, :i] @ F[:i] + m.Ahat[i, :i] @ G[:i])
        t_i = t + float(m.c[i]) * h
        Y, _ = integrator._stage(h * m.Ahat[i, i], rhs, prob, t_i, cfg, cache)
        F[i], G[i] = prob.f(t_i, Y), prob.g(t_i, Y)
    return h * (m.B @ F + m.Bhat @ G) + m.explicit.V @ state.blocks, Y


def two_product_ark_step(mrk, prob, y, t, h):
    sig = mrk.sigma
    Ae, Ai = mrk.A_explicit, mrk.A_implicit
    cfg, cache = StageSolveConfig(), integrator.StiffSolverCache(prob)
    F, G = np.zeros((sig, prob.d)), np.zeros((sig, prob.d))
    for i in range(sig):
        rhs = y + h * (Ae[i, :i] @ F[:i] + Ai[i, :i] @ G[:i])
        t_i = t + float(mrk.c[i]) * h
        Y, _ = integrator._stage(h * Ai[i, i], rhs, prob, t_i, cfg, cache)
        F[i], G[i] = prob.f(t_i, Y), prob.g(t_i, Y)
    return y + h * (mrk.b_explicit @ F + mrk.b_implicit @ G)


KERNEL_PROBLEMS = {
    "allen-cahn-n8": lambda: allen_cahn_benchmark(n=8).problem,
    "dahlquist-complex": lambda: dahlquist_split_problem(-1.0 + 2.0j, -20.0 + 5.0j),
}


def close(got, want, rel=1e-13):
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


class TestStageKernel:
    @pytest.mark.parametrize("problem", KERNEL_PROBLEMS)
    def test_glm_step_matches_two_product_loop(self, problem, dimsim4, dimsim5,
                                               euler_glm):
        for m in (dimsim4, dimsim5, euler_glm):
            prob = KERNEL_PROBLEMS[problem]()
            state = initialize_external(m, prob, 0.01)
            for _ in range(3):
                want, want_Y = two_product_glm_step(m, prob, state)
                state = glm_step(m, prob, state)
                assert close(state.blocks, want) and close(state.last_stage, want_Y)

    @pytest.mark.parametrize("problem", KERNEL_PROBLEMS)
    @pytest.mark.parametrize("mrk", [_m4(), imex_euler_ark()],
                             ids=["ark4", "imex-euler"])
    def test_ark_step_matches_two_product_loop(self, problem, mrk):
        # ark4's first stage is explicit (gamma = 0)
        assert mrk.A_implicit[0, 0] == 0.0
        prob = KERNEL_PROBLEMS[problem]()
        y, t, h = prob.y0, 0.0, 0.01
        for _ in range(3):
            want = two_product_ark_step(mrk, prob, y, t, h)
            y, t = ark_step(mrk, prob, y, t, h), t + h
            assert close(y, want)

    @pytest.mark.parametrize("h", [1.0, 0.37])
    def test_rows_reproduce_the_coefficients(self, h, dimsim4, dimsim5):
        # at h = 1 the rows hold the coefficients themselves
        same = np.array_equal if h == 1.0 else (
            lambda a, b: np.allclose(a, b, rtol=1e-15, atol=0))
        for m in (dimsim4, dimsim5, _m4()):
            rows = integrator.stage_rows(m, h)
            if isinstance(m, ImexRkMethod):
                U, V = np.ones((m.sigma, 1)), np.ones((1, 1))
                A, Ah, B, Bh = (m.A_explicit, m.A_implicit,
                                m.b_explicit[None, :], m.b_implicit[None, :])
            else:
                U, V, A, Ah, B, Bh = (m.explicit.U, m.explicit.V, m.A, m.Ahat,
                                      m.B, m.Bhat)
            s, r = U.shape
            assert len(rows.stage) == s and rows.update.shape == (r, r + 2 * s)
            for i, row in enumerate(rows.stage):
                assert row.shape == (r + 2 * i,)
                assert np.array_equal(row[:r], U[i])
                assert same(row[r::2] / h, A[i, :i])
                assert same(row[r + 1::2] / h, Ah[i, :i])
            assert np.array_equal(rows.update[:, :r], V)
            assert same(rows.update[:, r::2] / h, B)
            assert same(rows.update[:, r + 1::2] / h, Bh)
            assert rows.gamma == tuple(h * float(a) for a in np.diag(Ah))
            assert rows.dt == tuple(float(c) * h for c in m.c)

    def test_rows_built_once_per_method_and_step_size(self, dimsim4,
                                                      monkeypatch):
        built = []
        build = integrator.stage_rows

        def counted(m, h):
            built.append((m.name, h))
            return build(m, h)

        monkeypatch.setattr(integrator, "stage_rows", counted)
        integrate(dimsim4, dahlquist_split_problem(-1.0, -5.0), 20)
        # the starter's imex-euler micro-steps at tau = h/2, then the steps
        assert built == [("imex-euler-ark", 0.025), (dimsim4.name, 0.05)]

    def test_nonfinite_stage_rhs_raises(self, dimsim4):
        # F_1 = inf reaches stage 2's right-hand side
        prob = SemiDiscreteProblem(
            name="inf-f", d=1, t0=0.0, tF=1.0, y0=np.array([1.0]),
            f=lambda t, y: np.array([np.inf]), stiff_matrix=np.array([[-1.0]]))
        state = initialize_external(dimsim4, dahlquist_split_problem(0.0, -1.0), 0.1)
        with pytest.raises(StageSolveError, match="non-finite stage") as info:
            glm_step(dimsim4, prob, state)
        assert info.value.stage == 1

    def test_nonfinite_ark_update_raises(self):
        # every classical RK4 stage is explicit, so only the update check sees it
        prob = SemiDiscreteProblem(
            name="inf-f", d=1, t0=0.0, tF=1.0, y0=np.array([1.0]),
            f=lambda t, y: np.array([np.inf]), stiff_matrix=np.zeros((1, 1)))
        with pytest.raises(IntegrationError, match="non-finite additive-RK update"):
            ark_step(classical_rk4(), prob, prob.y0, 0.0, 0.1)
        with pytest.raises(IntegrationError, match=r"step 1/4"):
            ark_integrate(classical_rk4(), prob, 4)


def observed_order(m_or_rk, prob, steps, start=None):
    errs = []
    for N in steps:
        if isinstance(m_or_rk, ImexRkMethod):
            res = ark_integrate(m_or_rk, prob, N)
        else:
            res = integrate(m_or_rk, prob, N, start=start)
        errs.append(np.linalg.norm(res.y - prob.exact(res.t_readout)))
    logs = np.log(errs)
    slope, _ = np.polyfit(np.log([1.0 / n for n in steps]), logs, 1)
    return slope, errs


class TestConvergenceOrders:
    def test_dimsim4_order_on_dahlquist(self, dimsim4):
        prob = dahlquist_split_problem(-1.0, -6.0, t_final=2.0)
        slope, _ = observed_order(dimsim4, prob, [20, 40, 80])
        assert slope >= 3.7

    def test_dimsim5_order_with_file_starter(self, dimsim5):
        prob = dahlquist_split_problem(-1.0, -6.0, t_final=2.0)
        start = StartingConfig(scheme=bundled_ark_path(4))
        slope, _ = observed_order(dimsim5, prob, [20, 40, 80], start=start)
        assert slope >= 4.7

    def test_tau_choice_does_not_change_order(self, dimsim4):
        prob = dahlquist_split_problem(-1.0, -6.0, t_final=2.0)
        s_half, _ = observed_order(dimsim4, prob, [20, 40, 80],
                                   start=StartingConfig(tau_ratio=0.5))
        s_full, _ = observed_order(dimsim4, prob, [20, 40, 80],
                                   start=StartingConfig(tau_ratio=1.0))
        assert abs(s_half - s_full) < 0.3

    def test_readout_time_semantics(self, dimsim4, euler_glm):
        prob = dahlquist_split_problem(-1.0, -6.0, t_final=1.0)
        N = 16
        res4 = integrate(dimsim4, prob, N)
        assert res4.t_readout == pytest.approx(1.0, abs=1e-12)
        rese = integrate(euler_glm, prob, N)
        assert rese.t_readout == pytest.approx(1.0 - 1.0 / N, abs=1e-12)
        err_at_readout = abs(rese.y[0] - prob.exact(rese.t_readout)[0])
        err_at_final = abs(rese.y[0] - prob.exact(1.0)[0])
        assert err_at_readout < err_at_final
