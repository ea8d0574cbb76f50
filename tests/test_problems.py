import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexglm import integrator, problems
from imexglm.integrator import (StageSolveError, StartingConfig,
                                imex_euler_ark, integrate)
from imexglm.methods import resolve_method
from imexglm.problems import (DEFAULT_REFERENCE_STEPS, Grid2D,
                              ReferenceFailureError, _allen_cahn_fields,
                              KroneckerSum, allen_cahn_benchmark,
                              burgers_benchmark, central_divergence,
                              dahlquist_split_problem, error_field,
                              five_point_laplacian, l2_error,
                              reference_solution, shifted_laplacian_solver,
                              write_field_csv)


class TestGrid2D:
    def test_layout(self):
        g = Grid2D(4)
        assert g.m == 9
        assert g.dx == 0.25
        assert np.allclose(g.coords, [0.25, 0.5, 0.75])
        # i (x index) varies slowest in the flattened order
        assert g.X[0] == 0.25 and g.Y[0] == 0.25
        assert g.X[1] == 0.25 and g.Y[1] == 0.5
        assert g.X[3] == 0.5 and g.Y[3] == 0.25

    def test_evaluate_matches_loop(self):
        g = Grid2D(5)
        got = g.evaluate(lambda t, x, y: 10 * x + y + t, 2.0)
        want = np.array([10 * x + y + 2.0
                         for x in g.coords for y in g.coords])
        assert np.array_equal(got, want)

    def test_evaluate_bitwise_matches_meshgrid(self):
        # broadcasting x as a column and y as a row gives the same bits as
        # evaluating on the flattened meshgrid
        u_ac, source = _allen_cahn_fields(0.01, 3.0)
        bench = burgers_benchmark(n=50)
        cases = [(Grid2D(40), u_ac), (Grid2D(40), source),
                 (bench.grid, bench.boundary_value)]
        for grid, fn in cases:
            for t in (0.0, 0.137, 0.5):
                got = grid.evaluate(fn, t)
                assert got.shape == (grid.m,) and got.flags.writeable
                assert np.array_equal(got, fn(t, grid.X, grid.Y))

    def test_evaluate_constant_field_has_full_shape(self):
        g = Grid2D(6)
        got = g.evaluate(lambda t, x, y: 2.5, 0.0)
        assert got.shape == (g.m,) and np.all(got == 2.5)
        assert np.array_equal(g.evaluate(lambda t, x, y: x, 0.0), g.X)

    def test_node_rows(self):
        g = Grid2D(4)
        rows = list(g.node_rows(np.arange(9.0)))
        assert len(rows) == 9
        assert rows[0] == (1, 1, 0.25, 0.25, 0.0)
        assert rows[-1] == (3, 3, 0.75, 0.75, 8.0)

    def test_guards(self):
        with pytest.raises(ValueError):
            Grid2D(3)
        with pytest.raises(ValueError):
            list(Grid2D(4).node_rows(np.zeros(4)))


class TestExactFields:
    def test_allen_cahn_spot_values(self):
        u, _ = _allen_cahn_fields(0.01, 3.0)
        assert u(0.0, 0.25, 0.0) == pytest.approx(3.0, abs=1e-14)
        assert u(0.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-14)
        assert u(0.25, 0.5, 0.25) == pytest.approx(3.0, abs=1e-14)

    def test_burgers_front_values(self):
        u = burgers_benchmark(n=4).boundary_value
        assert u(0.5, 0.25, 0.25) == pytest.approx(0.5, abs=1e-14)
        assert u(0.0, -50.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert u(0.0, 50.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_allen_cahn_source_against_finite_differences(self):
        """The manufactured source must close the PDE at off-grid points."""
        alpha, beta = 0.01, 3.0
        u, source = _allen_cahn_fields(alpha, beta)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.1, 0.9, size=(100, 3))  # (t, x, y)
        ht, hx = 1e-6, 1e-4
        for t, x, y in pts:
            ut = (u(t + ht, x, y) - u(t - ht, x, y)) / (2 * ht)
            lap = (u(t, x + hx, y) - 2 * u(t, x, y) + u(t, x - hx, y)
                   + u(t, x, y + hx) - 2 * u(t, x, y)
                   + u(t, x, y - hx)) / hx ** 2
            uu = u(t, x, y)
            resid = ut - alpha * lap - beta * (uu - uu ** 3) - source(t, x, y)
            assert abs(resid) < 1e-6

    def test_burgers_front_solves_pde(self):
        """u_t + (u^2/2)_x + (u^2/2)_y = nu*Lap(u), checked by finite
        differences at random points."""
        nu = 0.1
        u = burgers_benchmark(n=4, nu=nu).boundary_value
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.1, 0.9, size=(50, 3))
        ht, hx = 1e-6, 1e-4
        for t, x, y in pts:
            ut = (u(t + ht, x, y) - u(t - ht, x, y)) / (2 * ht)
            wx = (u(t, x + hx, y) ** 2 - u(t, x - hx, y) ** 2) / (2 * hx)
            wy = (u(t, x, y + hx) ** 2 - u(t, x, y - hx) ** 2) / (2 * hx)
            lap = (u(t, x + hx, y) - 2 * u(t, x, y) + u(t, x - hx, y)
                   + u(t, x, y + hx) - 2 * u(t, x, y)
                   + u(t, x, y - hx)) / hx ** 2
            resid = ut + 0.5 * (wx + wy) - nu * lap
            assert abs(resid) < 1e-5


def rhs_residual(bench, t):
    """Semi-discrete RHS at the exact field vs the exact time derivative."""
    v = bench.exact_field(t)
    got = bench.problem.rhs(t, v)
    ht = 1e-6
    ut = (bench.exact_field(t + ht) - bench.exact_field(t - ht)) / (2 * ht)
    d = got - ut
    return float(np.abs(d).max()), float(np.sqrt(np.mean(d ** 2)))


class TestDiscretization:
    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_rhs_residual_refines_at_second_order(self, make):
        t = 0.3
        maxes, rmses = [], []
        for n in (10, 20, 40):
            mx, rm = rhs_residual(make(n=n), t)
            maxes.append(mx)
            rmses.append(rm)
        for seq in (maxes, rmses):
            for coarse, fine in zip(seq, seq[1:]):
                assert 3.2 < coarse / fine < 4.8

    def test_laplacian_row_sums(self):
        g = Grid2D(6)
        L = five_point_laplacian(g)
        m = g.n - 1
        # row sums are -k/dx^2 with k the number of missing neighbors,
        # restored by the boundary closure
        sums = np.asarray(L.sum(axis=1)).ravel() * g.dx ** 2
        assert sums[0] == pytest.approx(-2.0)            # corner (1,1)
        assert sums[1] == pytest.approx(-1.0)            # edge (1,2)
        assert sums[2 * m + 2] == pytest.approx(0.0)     # interior (3,3)

    def test_boundary_injection_spot_value(self):
        g = Grid2D(5)
        u = lambda t, x, y: np.asarray(t + 10.0 * x + y)
        b = g.scatter_ring(g.ring(u, 2.0), 1.0 / g.dx ** 2)
        # corner node (1,1) misses both the x=0 and y=0 neighbors
        want = (u(2.0, 0.0, g.coords[0]) + u(2.0, g.coords[0], 0.0)) / g.dx ** 2
        assert b[0] == pytest.approx(want)
        # middle edge node (1,2) misses only x=0
        k = 0 * (g.n - 1) + 1
        assert b[k] == pytest.approx(u(2.0, 0.0, g.coords[1]) / g.dx ** 2)
        # interior node (2,2) has all neighbors
        k = 1 * (g.n - 1) + 1
        assert b[k] == 0.0

    def test_boundary_injection_matches_exact_solution(self):
        bench = allen_cahn_benchmark(n=8, alpha=0.01)
        u, grid = bench.boundary_value, bench.grid
        b = bench.problem.stiff_forcing(0.2)
        want = u(0.2, 0.0, grid.coords[0]) + u(0.2, grid.coords[0], 0.0)
        assert b[0] * grid.dx ** 2 / 0.01 == pytest.approx(want, rel=1e-13)

    def test_ring_layout(self):
        g = Grid2D(5)
        c, zero, one = g.coords, np.zeros(4), np.ones(4)
        assert np.array_equal(g.ring_x, np.concatenate([zero, one, c, c]))
        assert np.array_equal(g.ring_y, np.concatenate([c, c, zero, one]))


def side_forcing(grid, u, t, coef):
    """Dirichlet term of coef * five-point Laplacian, side by side."""
    c, m = grid.coords, grid.n - 1
    b = np.zeros((m, m))
    b[0, :] += u(t, 0.0, c)
    b[-1, :] += u(t, 1.0, c)
    b[:, 0] += u(t, c, 0.0)
    b[:, -1] += u(t, c, 1.0)
    return coef * (b.ravel() / grid.dx ** 2)


def side_flux_closure(grid, u, t):
    """Boundary closure of the central-difference divergence of u^2, side by
    side: -w/2dx on the x=0, y=0 sides and +w/2dx on x=1, y=1."""
    c, m = grid.coords, grid.n - 1
    b = np.zeros((m, m))
    b[0, :] -= u(t, 0.0, c) ** 2
    b[-1, :] += u(t, 1.0, c) ** 2
    b[:, 0] -= u(t, c, 0.0) ** 2
    b[:, -1] += u(t, c, 1.0) ** 2
    return b.ravel() / (2.0 * grid.dx)


def relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestBoundaryRing:
    @pytest.mark.parametrize("n", [5, 40, 50])
    @pytest.mark.parametrize("t", [0.0, 0.137, 0.5])
    def test_forcing_matches_side_by_side(self, n, t):
        for bench, coef in ((allen_cahn_benchmark(n=n, alpha=0.01), 0.01),
                            (burgers_benchmark(n=n, nu=0.1), 0.1)):
            got = bench.problem.stiff_forcing(t)
            want = side_forcing(bench.grid, bench.boundary_value, t, coef)
            assert relative(got, want) <= 1e-15

    @pytest.mark.parametrize("n", [5, 40, 50])
    @pytest.mark.parametrize("t", [0.0, 0.137, 0.5])
    def test_burgers_closure_matches_side_by_side(self, n, t):
        bench = burgers_benchmark(n=n)
        prob = bench.problem
        # f(t, 0) = -0.5 * closure, since the interior flux vanishes
        got = -2.0 * prob.f(t, np.zeros(prob.d))
        want = side_flux_closure(bench.grid, bench.boundary_value, t)
        assert relative(got, want) <= 1e-15

    @pytest.mark.parametrize("n", [5, 50])
    def test_burgers_f_bitwise_matches_unfolded_formula(self, n):
        # f with -1/2 applied last, as -0.5 * (D (v^2) + closure); folding
        # the power of two into D and the closure scale changes no bits
        bench = burgers_benchmark(n=n)
        grid, prob = bench.grid, bench.problem
        D = central_divergence(grid)
        signs = np.repeat([-1.0, 1.0, -1.0, 1.0], n - 1)
        rng = np.random.default_rng(5)
        for t in (0.0, 0.137, 0.5):
            ring = grid.ring(bench.boundary_value, t)
            closure = grid.scatter_ring(signs * ring ** 2, 1.0 / (2.0 * grid.dx))
            for v in (prob.exact(t), rng.uniform(-2.0, 2.0, prob.d)):
                want = -0.5 * (D @ (v ** 2) + closure)
                assert np.array_equal(prob.f(t, v), want)


def csr_kronecker_sum(n, offsets, values, scale):
    """Oracle: scale * (T (x) I + I (x) T) assembled by scipy.sparse.kron,
    with T the (n-1) x (n-1) banded matrix of the given diagonals."""
    from scipy import sparse
    m = n - 1
    T = sparse.diags([np.full(m - abs(k), v) for k, v in zip(offsets, values)],
                     offsets=offsets, format="csr")
    I = sparse.identity(m, format="csr")
    return (scale * (sparse.kron(T, I) + sparse.kron(I, T))).tocsr()


def laplacian_oracle(n, coef):
    dx = 1.0 / n
    return csr_kronecker_sum(n, (-1, 0, 1), (1.0, -2.0, 1.0), coef * (1.0 / dx ** 2))


def divergence_oracle(n):
    dx = 1.0 / n
    return csr_kronecker_sum(n, (-1, 1), (-1.0, 1.0), 1.0 / (2.0 * dx))


class TestKroneckerSum:
    @pytest.mark.parametrize("n", [4, 5, 10, 40, 50])
    def test_stiff_matrices_match_csr_oracle(self, n):
        rng = np.random.default_rng(n)
        for bench, coef in ((allen_cahn_benchmark(n=n, alpha=0.01), 0.01),
                            (burgers_benchmark(n=n, nu=0.1), 0.1)):
            J, want = bench.problem.stiff_matrix, laplacian_oracle(n, coef)
            for y in (rng.standard_normal(bench.problem.d), bench.problem.y0):
                assert relative(J @ y, want @ y) <= 1e-15

    @pytest.mark.parametrize("n", [4, 5, 10, 40, 50])
    def test_divergence_matches_csr_oracle(self, n):
        grid = Grid2D(n)
        D, want = central_divergence(grid), divergence_oracle(n)
        rng = np.random.default_rng(n)
        for w in (rng.standard_normal(grid.m),
                  grid.evaluate(burgers_benchmark(n=n).boundary_value, 0.3) ** 2):
            assert relative(D @ w, want @ w) <= 1e-15

    @pytest.mark.parametrize("n", [4, 5, 10, 40, 50])
    def test_tocsc_equals_oracle(self, n):
        grid = Grid2D(n)
        for op, want in ((0.01 * five_point_laplacian(grid), laplacian_oracle(n, 0.01)),
                         (central_divergence(grid), divergence_oracle(n))):
            got = op.tocsc()
            assert got.format == "csc" and got.shape == want.shape
            assert np.array_equal(got.toarray(), want.toarray())

    def test_scalar_multiples(self):
        # powers of two, so the scaled product is exact
        op = five_point_laplacian(Grid2D(6))
        y = np.random.default_rng(1).standard_normal(Grid2D(6).m)
        for c in (0.25, np.float64(0.25), 2):
            for scaled in (c * op, op * c):
                assert isinstance(scaled, KroneckerSum)
                assert scaled.scale == c * op.scale
                assert np.array_equal(scaled @ y, float(c) * (op @ y))

    def test_sums_match_assembled_matrix(self):
        # the divergence is not symmetric, so its row and column sums differ
        op = 0.3 * central_divergence(Grid2D(5))
        A = op.tocsc()
        for axis in (0, 1):
            assert np.allclose(op.sum(axis=axis), np.asarray(A.sum(axis=axis)).ravel(),
                               rtol=1e-15, atol=0.0)


class TestAllenCahnSource:
    @pytest.mark.parametrize("alpha, beta", [(0.01, 3.0), (1.0, 3.0), (0.1, 0.5)])
    def test_fused_source_matches_unfused(self, alpha, beta):
        u, source = _allen_cahn_fields(alpha, beta)

        def u_t(t, x, y):
            return (-2 * np.pi * np.cos(2 * np.pi * (x - t)) * np.cos(3 * np.pi * (y - t))
                    + 3 * np.pi * np.sin(2 * np.pi * (x - t)) * np.sin(3 * np.pi * (y - t)))

        def lap_u(t, x, y):
            return -13.0 * np.pi ** 2 * (u(t, x, y) - 2.0)

        grid = Grid2D(40)
        for t in (0.0, 0.137, 0.5):
            uu = grid.evaluate(u, t)
            want = (grid.evaluate(u_t, t) - alpha * grid.evaluate(lap_u, t)
                    - beta * (uu - uu ** 3))
            assert relative(grid.evaluate(source, t), want) <= 1e-13

    @pytest.mark.parametrize("alpha, beta", [(0.01, 3.0), (1.0, 3.0), (0.1, 0.5)])
    @pytest.mark.parametrize("n", [4, 5, 10, 40])
    def test_factored_stage_data_matches_pointwise_fields(self, n, alpha, beta):
        # the problem's ring and source come from one-axis factors, evaluated
        # for an array of times; the pointwise fields of _allen_cahn_fields
        # are the oracle, and a time's row is the same evaluated alone
        bench = allen_cahn_benchmark(n=n, alpha=alpha, beta=beta)
        grid, prob = bench.grid, bench.problem
        u, source = _allen_cahn_fields(alpha, beta)
        stage_data = problems._allen_cahn_stage_data(grid, alpha, beta)
        ts = np.array([0.0, 0.137, 0.5])
        rings, L, R = stage_data(ts)
        for k, t in enumerate(ts):
            ring = grid.ring(u, t)
            assert np.array_equal(rings[k], ring)
            alone = stage_data(ts[k:k + 1])
            for block, one in zip((rings, L, R), alone):
                assert np.array_equal(block[k], one[0])
            assert relative((L[k].T @ R[k]).ravel(), grid.evaluate(source, t)) <= 1e-13
            want = grid.scatter_ring(ring, alpha / grid.dx ** 2)
            assert np.array_equal(prob.stiff_forcing(t), want)
            # f(t, 0) is the source alone
            got = prob.f(t, np.zeros(prob.d))
            assert relative(got, grid.evaluate(source, t)) <= 1e-13


def recorder(fn, log, t_arg):
    """Wrap fn to log (t, output) per call, t being positional t_arg."""
    def recorded(*args):
        out = fn(*args)
        log.append((args[t_arg], out))
        return out

    return recorded


def record_stage_data(monkeypatch, log):
    """Log (times, (rings, L, R)) per Allen-Cahn stage-data evaluation."""
    stage_data = problems._allen_cahn_stage_data
    monkeypatch.setattr(
        problems, "_allen_cahn_stage_data",
        lambda grid, alpha, beta: recorder(stage_data(grid, alpha, beta), log, 0))


class TestTimeMemo:
    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_interleaved_times_match_fresh_problem(self, make):
        t1, t2 = 0.137, 0.5
        prob = make(n=10).problem
        v = prob.exact(0.3)
        calls = []
        for t in (t1, t2, t1, t1, t2):
            calls.append((t, prob.stiff_forcing(t), prob.f(t, v)))
            calls.append((t, prob.stiff_forcing(t), prob.f(t, v)))
        for t, forcing, f in calls:
            fresh = make(n=10).problem
            assert np.array_equal(forcing, fresh.stiff_forcing(t))
            assert np.array_equal(f, fresh.f(t, v))

    def test_memoized_arrays_are_read_only(self, monkeypatch):
        rings, stage_data = [], []
        monkeypatch.setattr(Grid2D, "ring", recorder(Grid2D.ring, rings, 2))
        record_stage_data(monkeypatch, stage_data)
        ac = allen_cahn_benchmark(n=6).problem
        bu = burgers_benchmark(n=6).problem
        ac.stiff_forcing(0.1)
        ac.f(0.1, ac.y0)
        bu.f(0.1, bu.y0)
        # Allen-Cahn's ring and source factors come from one evaluation,
        # Burgers' ring from Grid2D.ring, each of the one time 0.1
        assert len(rings) == 1 and len(stage_data) == 1
        assert [list(np.ravel(t)) for t, _ in rings + stage_data] == [[0.1]] * 2
        ac.prepare_times([0.2, 0.3])
        bu.prepare_times([0.2, 0.3])
        assert len(rings) == 2 and len(stage_data) == 2
        shared = [out for _, out in rings] + [a for _, out in stage_data for a in out]
        assert len(shared) == 8
        for prob in (ac, bu):
            table = prob.prepare_times.__self__
            shared += [a for row in table.rows.values() for a in row]
        assert len(shared) == 8 + 2 * 3 + 2
        for out in shared:
            with pytest.raises(ValueError):
                out.flat[0] = 1.0
        # the problem's own outputs stay writable
        for t in (0.1, 0.2):
            for out in (ac.f(t, ac.y0), ac.stiff_forcing(t), bu.f(t, bu.y0),
                        bu.stiff_forcing(t)):
                out[0] = 1.0

    def test_burgers_closure_scattered_once_per_stage_time(self, monkeypatch):
        scales = []
        monkeypatch.setattr(Grid2D, "scatter_ring",
                            recorder(Grid2D.scatter_ring, scales, 2))
        bench = burgers_benchmark(n=10, t_final=0.5)
        prob = bench.problem
        closure_scale = -0.5 / (2.0 * bench.grid.dx)

        def closures():
            return sum(scale == closure_scale for scale, _ in scales)

        f, f_calls = prob.f, []

        def counted(t, y):
            before = closures()
            out = f(t, y)
            f_calls.append((t, closures() - before))
            return out

        prob.f = counted
        integrate(resolve_method("dimsim4"), prob, 20)
        # the closure is scattered exactly on the f calls at a new time
        ts = [t for t, _ in f_calls]
        want = [int(k == 0 or t != ts[k - 1]) for k, t in enumerate(ts)]
        assert [n for _, n in f_calls] == want
        assert 0 < sum(want) < len(ts)
        # the forcing is still scattered on every g call
        assert len(scales) > closures()

    def test_allen_cahn_source_formed_once_per_time(self, monkeypatch):
        # f looks up the source factors L, R, and forms L^T R, only when it
        # is called at a time other than its last one; stiff_forcing's
        # lookups of the ring are not counted
        in_f, lookups = [False], []
        lookup = problems._TimeTable.__call__

        def logged(table, t):
            if in_f[0]:
                lookups.append(t)
            return lookup(table, t)

        monkeypatch.setattr(problems._TimeTable, "__call__", logged)
        prob = allen_cahn_benchmark(n=10, t_final=0.5).problem
        f, f_times = prob.f, []

        def flagged(t, y):
            f_times.append(t)
            in_f[0] = True
            try:
                return f(t, y)
            finally:
                in_f[0] = False

        prob.f = flagged
        m, N = resolve_method("dimsim4"), 20
        integrate(m, prob, N)
        new_time = [k == 0 or t != f_times[k - 1] for k, t in enumerate(f_times)]
        assert lookups == [t for t, new in zip(f_times, new_time) if new]
        # stepping: each step's last stage (c_s = 1) shares the next step's
        # first (c_1 = 0), so one product per distinct stage time
        stepping = f_times[-N * m.s:]
        assert len(set(stepping)) == N * (m.s - 1) + 1
        assert sum(new_time[-N * m.s:]) == len(set(stepping))

    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_one_evaluation_per_distinct_stage_time(self, make, monkeypatch):
        # Burgers evaluates its ring through Grid2D.ring; Allen-Cahn its ring
        # and source together, in _allen_cahn_stage_data, and never the ring
        # through Grid2D.ring.  Each evaluation takes an array of times: a
        # block of prepared stage times, or one time alone.
        rings, stage_data = [], []
        monkeypatch.setattr(Grid2D, "ring", recorder(Grid2D.ring, rings, 2))
        record_stage_data(monkeypatch, stage_data)
        evaluations = stage_data if make is allen_cahn_benchmark else rings
        start = integrator.initialize_external
        stepping_from = []

        def marked_start(*args, **kwargs):
            out = start(*args, **kwargs)
            stepping_from.append(len(evaluations))
            return out

        monkeypatch.setattr(integrator, "initialize_external", marked_start)

        def times(log, skip=0):
            return [t for ts, _ in log[skip:] for t in np.ravel(ts).tolist()]

        N = 20
        dimsim4 = resolve_method("dimsim4")
        prob = make(n=10, t_final=0.5).problem
        h = (prob.tF - prob.t0) / N
        stage_times, t = [], prob.t0
        for _ in range(N):                   # glm_step's clock: t <- t + h
            stage_times += [t + float(c) * h for c in dimsim4.c]
            t = t + h
        distinct = list(dict.fromkeys(stage_times))
        # c_1 = 0 and c_s = 1: each step's last stage time is the next one's first
        assert len(distinct) == N * (dimsim4.s - 1) + 1
        evaluations.clear()
        integrate(dimsim4, prob, N)
        # the starter evaluates its times in one block, and the steps then
        # evaluate only the times it does not hold (t0, and t0 + h = 2 tau)
        assert stepping_from == [1]
        starter = starter_times(dimsim4, prob, h)
        assert times(evaluations) == list(dict.fromkeys(starter + distinct))
        assert set(distinct) - set(times(evaluations, 1)) == {0.0, h}

        ark4 = resolve_method("ark4")
        N = 50
        prob = make(n=10, t_final=0.5).problem
        h = (prob.tF - prob.t0) / N
        # a clock of t0 + (k + 1)*h misses the last stage's t + 1.0*h here
        assert sum(prob.t0 + (k + 1) * h != (prob.t0 + k * h) + 1.0 * h
                   for k in range(N)) == 11
        stage_times, t = [], prob.t0
        for _ in range(N):                   # glm_step's clock: t <- t + h
            stage_times += [t + float(c) * h for c in ark4.c]
            t = t + h
        distinct = list(dict.fromkeys(stage_times))
        assert len(distinct) == N * (ark4.s - 1) + 1
        evaluations.clear()
        integrate(ark4, prob, N)
        assert times(evaluations) == distinct

        # classical RK4 reference: k2 and k3 share t + h/2, k4 the next k1
        n_ref = 400
        prob = make(n=10, t_final=0.5).problem
        h = (prob.tF - prob.t0) / n_ref
        stage_times, t = [], prob.t0
        for _ in range(n_ref):
            stage_times += [t, t + 0.5 * h, t + 0.5 * h, t + h]
            t = t + h
        evaluations.clear()
        reference_solution(prob, n_ref)
        assert times(evaluations) == list(dict.fromkeys(stage_times))
        assert len(times(evaluations)) == 2 * n_ref + 1
        # one evaluation per block of steps
        assert len(evaluations) == -(-n_ref // integrator.PREPARE_STEPS)
        if make is allen_cahn_benchmark:
            assert rings == []

    @pytest.mark.parametrize("method, scheme", [
        ("dimsim4", imex_euler_ark()), ("dimsim5", resolve_method("ark4"))],
        ids=["dimsim4", "dimsim5"])
    def test_starter_nodes_share_one_ring(self, method, scheme, monkeypatch):
        rings, calls = [], []
        monkeypatch.setattr(Grid2D, "ring", recorder(Grid2D.ring, rings, 2))
        m = resolve_method(method)
        prob = burgers_benchmark(n=10).problem
        for name in ("f", "g"):
            def counted(t, y, fn=getattr(prob, name), name=name):
                before = len(rings)
                out = fn(t, y)
                calls.append((name, t, len(rings) - before))
                return out

            setattr(prob, name, counted)
        integrator.initialize_external(m, prob, 0.05,
                                       StartingConfig(scheme=scheme))
        # g runs only at the r starter nodes, each right after f there,
        # and reuses the ring f evaluated (or reused) at that node
        g_at = [k for k, c in enumerate(calls) if c[0] == "g"]
        assert len(g_at) == m.r
        for k in g_at:
            assert calls[k - 1][:2] == ("f", calls[k][1])
            assert calls[k][2] == 0


def starter_times(m, prob, h):
    """The times initialize_external evaluates with the default starter, in
    its float arithmetic: the nodes t0 + j tau, j < r, then each micro-step's
    stage times (t0 + j tau) + c_i tau, j < r - 1, as glm_step forms them."""
    start = StartingConfig()
    tau = start.tau_ratio * h
    nodes = [prob.t0 + j * tau for j in range(m.r)]
    return nodes + [t + float(c) * tau for t in nodes[:-1] for c in start.scheme.c]


def watch_table(prob, monkeypatch):
    """Log the times of each evaluation of prob's time table as (times,
    inside_hook, inside_starter): whether the problem's prepare_times hook
    asked for it, and whether it came during the starting procedure."""
    table = prob.prepare_times.__self__
    log, inside = [], {"hook": False, "starter": False}
    evaluate = table.evaluate

    def logged(times):
        log.append((times.tolist(), inside["hook"], inside["starter"]))
        return evaluate(times)

    def flagged(fn, flag):
        def run(*args, **kwargs):
            inside[flag] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[flag] = False

        return run

    table.evaluate = logged
    prob.prepare_times = flagged(table.prepare, "hook")
    monkeypatch.setattr(integrator, "initialize_external",
                        flagged(integrator.initialize_external, "starter"))
    return log


class TestTimeTable:
    @pytest.mark.parametrize("N", [20, 70])
    @pytest.mark.parametrize("method", ["dimsim4", "dimsim5", "ark4"])
    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_prepared_run_matches_unprepared(self, make, method, N):
        # without the hook every time is evaluated alone; N = 70 crosses
        # two block boundaries (dimsim5 on Allen-Cahn needs h <= 0.02)
        m = resolve_method(method)
        prepared = integrate(m, make(n=10, t_final=0.25).problem, N)
        prob = make(n=10, t_final=0.25).problem
        prob.prepare_times = None
        alone = integrate(m, prob, N)
        assert np.array_equal(prepared.y, alone.y)
        assert np.array_equal(prepared.state.blocks, alone.state.blocks)

    @pytest.mark.parametrize("method", ["dimsim4", "dimsim5", "ark4"])
    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_every_stage_time_hits_the_table(self, make, method, monkeypatch):
        m = resolve_method(method)
        prob = make(n=10).problem
        log = watch_table(prob, monkeypatch)
        N = 70
        integrate(m, prob, N)
        # outside the starter every evaluation is a block the hook asked for
        blocks = [times for times, hook, starter in log if not starter]
        assert all(hook for _, hook, starter in log if not starter)
        assert len(blocks) == -(-N // integrator.PREPARE_STEPS)
        # a GLM's starter makes one evaluation, asked for by the hook, of
        # exactly its distinct times; an additive RK pair has no starter
        starts = [(times, hook) for times, hook, starter in log if starter]
        if m.is_additive_rk:
            assert starts == []
        else:
            h = (prob.tF - prob.t0) / N
            want = list(dict.fromkeys(starter_times(m, prob, h)))
            assert starts == [(want, True)]

    @pytest.mark.parametrize("make", [allen_cahn_benchmark, burgers_benchmark])
    def test_reference_hits_the_table(self, make, monkeypatch):
        prob = make(n=10, t_final=0.5).problem
        log = watch_table(prob, monkeypatch)
        reference_solution(prob, 200)
        assert [hook for _, hook, _ in log] == [True] * 7

    def test_table_holds_one_block_after_a_long_reference(self):
        prob = burgers_benchmark(n=10).problem
        table = prob.prepare_times.__self__
        reference_solution(prob, 20000)
        block = 2 * integrator.PREPARE_STEPS + 1      # t, t + h/2 per step, and t + h
        assert 0 < len(table.rows) <= block
        # the rows' memory: one block's arrays and the rows copied into it
        arrays = {}
        for row in table.rows.values():
            for a in row:
                base = a if a.base is None else a.base
                arrays[id(base)] = base.nbytes
        assert sum(arrays.values()) <= block * 4 * (10 - 1) * 8


class TestShiftedLaplacianSolver:
    @pytest.mark.parametrize("n", [4, 5, 10, 40, 50])
    @pytest.mark.parametrize("coef", [0.01, 0.1])
    @pytest.mark.parametrize("make", [
        lambda n, coef: allen_cahn_benchmark(n=n, alpha=coef),
        lambda n, coef: burgers_benchmark(n=n, nu=coef)],
        ids=["allen-cahn", "burgers"])
    def test_matches_superlu(self, make, n, coef):
        prob = make(n, coef).problem
        J = prob.stiff_matrix
        L = coef * five_point_laplacian(Grid2D(n))
        r = np.random.default_rng(n).standard_normal(prob.d)
        for gamma in np.geomspace(1e-4, 1.0, 9):
            y = prob.stiff_solver(gamma)(r)
            want = integrator._factorize(L, gamma, prob.d)(r)
            assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
            residual = r - (y - gamma * (J @ y))
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_is_singular(self, gamma):
        factory = shifted_laplacian_solver(Grid2D(6), 0.1)
        with pytest.raises(StageSolveError,
                           match=rf"singular iteration matrix \(gamma={gamma}\)"):
            factory(gamma)

    def test_zero_pivot_is_singular(self):
        # coef makes 1 - gamma*coef*(lambda_1 + lambda_1) exactly 0 at gamma = 1
        grid = Grid2D(4)
        lam1 = -4.0 * np.sin(np.pi / 8) ** 2 / grid.dx ** 2
        factory = shifted_laplacian_solver(grid, 1.0 / (lam1 + lam1))
        with pytest.raises(StageSolveError,
                           match=r"singular iteration matrix \(gamma=1.0\)"):
            factory(1.0)


class TestDahlquist:
    def test_real_split(self):
        p = dahlquist_split_problem(-1.0, -3.0, y0=2.0, t_final=0.5)
        assert p.d == 1
        y = np.array([1.7])
        assert p.f(0.0, y)[0] == pytest.approx(-1.7)
        assert p.g(0.0, y)[0] == pytest.approx(-5.1)
        assert p.exact(0.5)[0] == pytest.approx(2.0 * math.exp(-2.0))

    def test_complex_split_matches_complex_arithmetic(self):
        xi, xihat = -0.5 + 2.0j, -3.0 - 1.0j
        p = dahlquist_split_problem(xi, xihat)
        assert p.d == 2
        y = np.array([0.3, -0.7])
        zc = complex(y[0], y[1])
        fz = xi * zc
        assert np.allclose(p.f(0.0, y), [fz.real, fz.imag])
        ez = 1.0 * np.exp((xi + xihat) * 0.8)
        assert np.allclose(p.exact(0.8), [ez.real, ez.imag])


class TestNorms:
    def test_three_four_five(self):
        assert l2_error([3.0, 4.0], [0.0, 0.0]) == 5.0

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal(257), rng.standard_normal(257)
        want = math.sqrt(math.fsum((ai - bi) ** 2 for ai, bi in zip(a, b)))
        assert l2_error(a, b) == pytest.approx(want, rel=1e-14)

    @given(seed=st.integers(0, 10 ** 6),
           lam=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_axioms(self, seed, lam):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(-5, 5, (3, 8))
        assert l2_error(a, b) == l2_error(b, a)
        assert l2_error(a, a) == 0.0
        assert l2_error(a, c) <= l2_error(a, b) + l2_error(b, c) + 1e-12
        assert l2_error(lam * a, lam * b) == pytest.approx(
            abs(lam) * l2_error(a, b), rel=1e-12, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l2_error(np.zeros(3), np.zeros(4))

    def test_error_field_single_perturbation(self):
        g = Grid2D(4)
        u = np.linspace(0.0, 1.0, g.m)
        v = u.copy()
        v[5] += 1e-9
        ef = error_field(v, u, g)
        assert ef.shape == (g.m,)
        assert ef[5] == pytest.approx(1e-9)
        assert np.count_nonzero(ef) == 1

    def test_error_field_shape_guard(self):
        g = Grid2D(4)
        with pytest.raises(ValueError):
            error_field(np.zeros(8), np.zeros(8), g)

    def test_write_field_csv(self, tmp_path):
        g = Grid2D(4)
        field = np.arange(9.0) * math.pi
        path = tmp_path / "field.csv"
        write_field_csv(g, field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,x,y,value"
        assert len(lines) == 1 + g.m
        parts = lines[4].split(",")
        assert (int(parts[0]), int(parts[1])) == (2, 1)
        assert float(parts[4]) == field[3]


class TestReferenceSolution:
    def test_exact_on_dahlquist(self):
        p = dahlquist_split_problem(-1.0, -2.0)
        y = reference_solution(p, DEFAULT_REFERENCE_STEPS["dahlquist"])
        assert abs(y[0] - p.exact(1.0)[0]) < 1e-12

    def test_instability_raises_with_advice(self):
        p = dahlquist_split_problem(0.0, -1000.0)
        with pytest.warns(RuntimeWarning, match="stability bound"):
            with pytest.raises(ReferenceFailureError, match="increase n_ref"):
                reference_solution(p, 5)

    def test_below_bound_warns_but_succeeds_when_stable(self):
        p = dahlquist_split_problem(0.0, -1000.0)
        with pytest.warns(RuntimeWarning, match="stability bound"):
            y = reference_solution(p, 3999)
        assert abs(y[0] - p.exact(1.0)[0]) < 1e-9

    def test_self_convergence_is_fourth_order(self):
        prob = allen_cahn_benchmark(n=8, t_final=0.1).problem
        sols = {n: reference_solution(prob, n) for n in (200, 400, 800)}
        d1 = l2_error(sols[200], sols[800])
        d2 = l2_error(sols[400], sols[800])
        assert 10.0 < d1 / d2 < 22.0  # about 2^4 with the nested tail
