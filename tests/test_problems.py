import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexglm import integrator
from imexglm.integrator import StageSolveError
from imexglm.problems import (DEFAULT_REFERENCE_STEPS, Grid2D,
                              ReferenceFailureError, _allen_cahn_fields,
                              allen_cahn_benchmark, burgers_benchmark,
                              dahlquist_split_problem, error_field,
                              five_point_laplacian, l2_error,
                              laplacian_boundary, reference_solution,
                              shifted_laplacian_solver, write_field_csv)


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
        b = laplacian_boundary(g, u, t=2.0)
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
        bench = allen_cahn_benchmark(n=8)
        u = bench.boundary_value
        b = laplacian_boundary(bench.grid, u, t=0.2)
        want = u(0.2, 0.0, bench.grid.coords[0]) + u(0.2, bench.grid.coords[0], 0.0)
        assert b[0] * bench.grid.dx ** 2 == pytest.approx(want, rel=1e-13)


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
