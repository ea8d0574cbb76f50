import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexglm.stability import (DEFAULT_STIFF_MAGNITUDES,
                               SingularStabilityError, StabilityQuery,
                               _block_charpoly, _charpoly, _leftmost_crossing,
                               _NODE_RADIUS, _pair_blocks,
                               _pair_charpolys, _pair_matrices_batch,
                               _ring_charpolys, _ring_points,
                               _schur_cohn,
                               _stability_decider, boundary_intersection,
                               check_irks,
                               check_L_stability, constrained_region_area,
                               glm_stability_matrix, imex_stability_matrix,
                               max_rho_over_stiff_grid,
                               optimize_explicit_component,
                               region_boundary_points, spectral_radius)
import imexglm.stability as stability
from imexglm.methods import resolve_method
from imexglm.tableau import imex_dimsim

PARENT = json.loads((Path(__file__).parent / "data"
                     / "stability_parent.json").read_text())


def euler_oracle(w, what):
    return (1.0 + w) / (1.0 - what)


def eig_stable(Ms):
    return np.abs(np.linalg.eigvals(Ms)).max(axis=-1) < 1.0


def singular_toy():
    """One-stage pair with Ahat = [[-1]]: I - w A - what Ahat = 1 + what is
    singular at what = -1, a point of the coarse grid (magnitude 1, angle 0)."""
    return imex_dimsim("singular-toy", np.array([1.0]), np.zeros((1, 1)),
                       np.array([[-1.0]]), np.array([1.0]))


def shifted_toy():
    """One-stage pair with V = 1.5 and B = 0.5: the explicit component
    M(w, 0) = 1.5 + w/2 is inside on (-5, -1) only, so the search's seeds
    near the origin are outside and a later one is the first inside."""
    return imex_dimsim("shifted-toy", np.array([1.0]), np.zeros((1, 1)),
                       np.array([[1.0]]), np.array([1.5]))


class TestStabilityMatrices:
    def test_euler_pair_analytic(self, euler_glm):
        rng = np.random.default_rng(1)
        for _ in range(25):
            w = complex(*rng.uniform(-2, 1, 2))
            what = complex(*rng.uniform(-5, 0.5, 2))
            M = imex_stability_matrix(euler_glm, w, what)
            assert M.shape == (1, 1)
            assert M[0, 0] == pytest.approx(euler_oracle(w, what), rel=1e-13)

    def test_euler_implicit_is_backward_euler(self, euler_glm):
        for z in (-0.5, -4.0, 2.0 + 1.0j):
            M = glm_stability_matrix(euler_glm.implicit, z)
            assert M[0, 0] == pytest.approx(1.0 / (1.0 - z), rel=1e-14)

    def test_singular_point_raises(self, euler_glm):
        with pytest.raises(SingularStabilityError):
            glm_stability_matrix(euler_glm.implicit, 1.0)

    def test_pair_matrix_reduces_to_components(self, dimsim4):
        z = -0.7 + 0.3j
        Mw = imex_stability_matrix(dimsim4, z, 0.0)
        assert np.allclose(Mw, glm_stability_matrix(dimsim4.explicit, z))
        Mhat = imex_stability_matrix(dimsim4, 0.0, z)
        assert np.allclose(Mhat, glm_stability_matrix(dimsim4.implicit, z))


class TestSpectralRadius:
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_triangular_oracle(self, seed, n):
        # for triangular matrices the spectrum is the diagonal
        rng = np.random.default_rng(seed)
        T = np.triu(rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))
        assert spectral_radius(T) == pytest.approx(
            np.abs(np.diag(T)).max(), rel=1e-10, abs=1e-12)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        D = np.diag([0.3, -1.7, 0.9])
        P = rng.standard_normal((3, 3)) + np.eye(3) * 2
        M = P @ D @ np.linalg.inv(P)
        assert spectral_radius(M) == pytest.approx(1.7, rel=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((17, 17)))


class TestStiffGridMax:
    def test_euler_values(self, euler_glm, coarse_query):
        # sup over the left sector of |1+w|/|1-what| is attained at what=0
        for w, want in ((0.0, 1.0), (-1.0, 0.0), (-2.5, 1.5)):
            got = max_rho_over_stiff_grid(euler_glm, w, coarse_query)
            assert got == pytest.approx(want, abs=1e-12)

    def test_detail_counts_singular_points(self, euler_glm, coarse_query):
        worst, n_singular = max_rho_over_stiff_grid(
            euler_glm, -0.5, coarse_query, return_detail=True)
        assert n_singular == 0
        assert worst == pytest.approx(0.5, abs=1e-12)

    def test_grid_requires_origin(self):
        with pytest.raises(ValueError):
            StabilityQuery(stiff_magnitudes=(1.0, 10.0))


class TestQueryValidation:
    @pytest.mark.parametrize("field", ["tol", "y_top"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_tol_and_y_top_positive_and_finite(self, field, value):
        # y_top = 0 or a NaN tol used to trace an empty region, no error
        with pytest.raises(ValueError, match="positive and finite"):
            StabilityQuery(**{field: value})

    @pytest.mark.parametrize("alpha", [-0.1, 2.0, math.pi / 2 + 1e-9,
                                       math.nan])
    def test_alpha_outside_the_quarter_turn(self, dimsim4, alpha):
        # alpha < 0 left only what = 0 on the grid; alpha > pi/2 was taken
        # as pi/2
        q = StabilityQuery()
        for call in (lambda: q.rings(alpha), lambda: q.stiff_grid(alpha),
                     lambda: StabilityQuery(alpha=alpha).rings(),
                     lambda: max_rho_over_stiff_grid(dimsim4, -0.5, q, alpha),
                     lambda: constrained_region_area(dimsim4, q, alpha=alpha)):
            with pytest.raises(ValueError, match="outside"):
                call()

    def test_alpha_slack_at_the_ends(self):
        q = StabilityQuery(n_angles=5)
        assert q.rings(math.pi / 2 + 1e-13)[1].size == 5
        assert q.rings(-1e-13)[1].tolist() == [0.0]

    def test_layout_is_shared_and_read_only(self, coarse_query):
        same = dataclasses.replace(coarse_query)
        assert same is not coarse_query
        assert same.stiff_grid() is coarse_query.stiff_grid()
        assert coarse_query.rings(math.pi / 3)[1].size == 5
        for a in (*coarse_query.rings(), coarse_query.stiff_grid()):
            with pytest.raises(ValueError):
                a.flat[0] = 1.0
        # a list of magnitudes is held as a tuple, so the query hashes
        q = StabilityQuery(stiff_magnitudes=[0.0, 1.0])
        assert q == StabilityQuery(stiff_magnitudes=(0.0, 1.0))
        assert q.stiff_grid().size == 1 + 33


class TestBoundary:
    def test_euler_disk_ordinates(self, euler_glm, coarse_query):
        # region is the unit disk centered at -1: y(x) = sqrt(1 - (1+x)^2)
        for x in (-1.0, -0.5, -1.5):
            hit = boundary_intersection(euler_glm, x, coarse_query)
            assert hit.inside
            want = math.sqrt(1.0 - (1.0 + x) ** 2)
            assert hit.y == pytest.approx(want, abs=2 * coarse_query.tol)

    def test_outside_point(self, euler_glm, coarse_query):
        hit = boundary_intersection(euler_glm, 0.5, coarse_query)
        assert hit == (0.0, False)

    def test_bisection_matches_dense_scan(self, dimsim4, coarse_query):
        x = -0.6
        hit = boundary_intersection(dimsim4, x, coarse_query)
        assert hit.inside
        ys = np.arange(0.0, coarse_query.y_top, coarse_query.tol)
        inside = np.array([max_rho_over_stiff_grid(dimsim4, complex(x, y),
                                                   coarse_query) < 1.0
                           for y in ys])
        dense_y = ys[np.nonzero(inside)[0][-1]] if inside.any() else 0.0
        assert hit.y == pytest.approx(dense_y, abs=3 * coarse_query.tol)

    def test_boundary_trace_shape(self, dimsim4, coarse_query):
        b = region_boundary_points(dimsim4, coarse_query)
        assert b.xs.size == coarse_query.n_lines
        assert b.xs[0] == b.x_b and b.xs[-1] == 0.0
        assert (b.ys >= 0).all()
        rows = b.mirrored()
        assert rows.shape == (coarse_query.n_lines, 3)
        assert np.array_equal(rows[:, 2], -rows[:, 1])


@np.errstate(over="ignore", invalid="ignore")
def _schur_cohn_stable(M: np.ndarray) -> np.ndarray:
    """rho(M) < 1 for each matrix of a stack (..., r, r), by the
    Schur-Cohn test on its characteristic polynomial."""
    return _schur_cohn(np.moveaxis(_charpoly(M), -1, 0))


class TestSchurCohnDecision:
    def test_matches_eigenvalues_on_random_matrices(self):
        rng = np.random.default_rng(11)
        n = 7_000
        for r in (3, 4, 5):
            G = (rng.standard_normal((n, r, r))
                 + 1j * rng.standard_normal((n, r, r))) / math.sqrt(2 * r)
            Ms = G * rng.uniform(0.5, 1.5, size=(n, 1, 1))
            want = eig_stable(Ms)
            assert 0.2 < want.mean() < 0.8
            assert np.array_equal(_schur_cohn_stable(Ms), want)

    def test_matches_eigenvalues_on_boundary_lines(self, dimsim4, dimsim5,
                                                   coarse_query):
        grid = coarse_query.stiff_grid()
        for m in (dimsim4, dimsim5):
            b = region_boundary_points(m, coarse_query)
            ys = np.concatenate([np.linspace(0.0, coarse_query.y_top, 33),
                                 b.ys, b.ys + coarse_query.tol])
            ws = (b.xs[:, None] + 1j * ys[None, :]).ravel()
            Ms = _pair_matrices_batch(m, ws, grid)
            assert Ms.shape == (ws.size, grid.size, m.r, m.r)
            # on the line x = 0, M(iy, what) has rho = 1 to rounding for
            # small y; there either answer is a rounding artifact
            rho = np.abs(np.linalg.eigvals(Ms)).max(axis=-1)
            decidable = np.abs(rho - 1.0) > 1e-12
            ties = np.nonzero(~decidable)[0]
            assert ties.size < 0.01 * rho.size
            assert (ws[ties].real == 0.0).all()
            assert np.array_equal(_schur_cohn_stable(Ms)[decidable],
                                  (rho < 1.0)[decidable])

    def test_batched_matrices_match_single_w(self, dimsim4, coarse_query):
        grid = coarse_query.stiff_grid()
        ws = np.array([-0.6 + 0.2j, -1.1 + 0.0j])
        Ms = _pair_matrices_batch(dimsim4, ws, grid)
        for k, w in enumerate(ws):
            assert np.array_equal(Ms[k], _pair_matrices_batch(dimsim4, w, grid))


def stacked_decisions(m, ws, grid, component):
    """The decisions of _stability_decider made the direct way: one LAPACK
    solve per stacked M, then the Schur-Cohn test on each M's
    characteristic polynomial; also rho per point, for spotting ties."""
    if component == "implicit":
        Ms = _pair_matrices_batch(m, 0.0, ws)[:, None]
    else:
        Ms = _pair_matrices_batch(m, ws, grid)
    return _schur_cohn_stable(Ms).all(axis=-1), Ms


class TestLinePolynomial:
    """Decisions from the line polynomials interpolated once per region."""

    @pytest.mark.parametrize("component", ["pair", "explicit", "implicit"])
    def test_decisions_match_stacked_matrices(self, dimsim4, dimsim5,
                                              coarse_query, component):
        rng = np.random.default_rng(2014)
        random = (rng.uniform(-6.0, 0.5, 3_000)
                  + 1j * rng.uniform(0.0, 8.0, 3_000))
        for q in (StabilityQuery(), coarse_query):
            grid = q.stiff_grid() if component == "pair" else np.zeros(1)
            for m in (dimsim4, dimsim5):
                # plus points within tol of the traced boundary
                b = region_boundary_points(m, coarse_query,
                                           component=component)
                near = np.concatenate([b.xs + 1j * b.ys,
                                       b.xs + 1j * (b.ys + coarse_query.tol)])
                inside, _ = _stability_decider(m, q, q.alpha, component)
                n_inside = 0
                for ws in np.array_split(np.concatenate([random, near]), 12):
                    got = inside(ws)
                    want, Ms = stacked_decisions(m, ws, grid, component)
                    n_inside += want.sum()
                    # only rounding ties, |rho - 1| <= 1e-12, may differ
                    rho = np.abs(np.linalg.eigvals(Ms[got != want]))
                    assert (np.abs(rho.max(axis=-1) - 1.0) <= 1e-12).any(
                        axis=-1).all()
                assert 0 < n_inside < random.size + near.size

    def test_block_determinant_matches_scaled_charpoly(self, dimsim4,
                                                       dimsim5):
        rng = np.random.default_rng(5)
        for m in (dimsim4, dimsim5):
            w = rng.uniform(-3.0, 1.0, 20) + 1j * rng.uniform(0.0, 4.0, 20)
            what = -rng.uniform(0.0, 100.0, 7) * np.exp(
                1j * rng.uniform(-1.5, 1.5, 7))
            E, W = _pair_blocks(m, w, what)
            got = _block_charpoly(E, W, m.explicit.U.astype(complex),
                                  m.explicit.V)
            want = _pair_charpolys(m, w, what)
            scale = np.abs(want).max(axis=-1, keepdims=True)
            assert (np.abs(got - want) <= 1e-9 * scale).all()

    def test_singular_stiff_point_polynomial(self, coarse_query):
        # E = 1 + what vanishes at what = -1, so Q = det[[0, -U], [-W, z - V]]
        # = -U W: no z term, and a singular point decides unstable
        toy = singular_toy()
        w = np.array([-0.5, 0.3 + 0.7j])
        Q = _pair_charpolys(toy, w, [-1.0, -0.5])
        U, V = toy.explicit.U[0, 0], toy.explicit.V[0, 0]
        W = w * toy.B[0, 0] - toy.Bhat[0, 0]
        assert (Q[:, 0, 0] == 0.0).all()
        assert np.allclose(Q[:, 0, 1], -U * W, rtol=1e-14)
        M = _pair_matrices_batch(toy, w, [-0.5])[:, 0, 0, 0]
        assert np.allclose(Q[:, 1], 0.5 * np.stack([np.ones(2), -M], -1),
                           rtol=1e-14)
        # with two stages the interpolated z^2 coefficient carries rounding;
        # it must still read as an exact 0 to be tallied
        inside, counts = _stability_decider(two_stage_singular_toy(), coarse_query,
                                            coarse_query.alpha, "pair")
        assert not inside(w).any()
        assert counts["singular"] == 2

    def test_traces_match_recorded_parent(self, coarse_query):
        queries = {"default": StabilityQuery(), "coarse": coarse_query}
        alphas = {"pi/2": math.pi / 2, "pi/3": math.pi / 3,
                  "pi/4": math.pi / 4}
        assert len(PARENT["traces"]) == 30
        for rec in PARENT["traces"]:
            m = resolve_method(rec["method"])
            q = queries[rec["query"]]
            res, b = constrained_region_area(m, q, alpha=alphas[rec["alpha"]],
                                             component=rec["component"])
            got = {"area": res.area, "x_b": res.x_b,
                   "flagged_empty": res.flagged_empty,
                   "unbounded": res.unbounded, "decisions": res.decisions,
                   "matrices": res.matrices, "singular": res.singular,
                   "ys_times_1024": (b.ys * 1024).tolist()}
            want = {k: v for k, v in rec.items() if k in got}
            assert got == want, rec
            assert np.array_equal(b.xs, np.linspace(res.x_b, 0.0, q.n_lines))

    def test_optimizer_matches_recorded_parent(self, dimsim4, coarse_query):
        rec = PARENT["optimizer"]
        out = optimize_explicit_component(
            dimsim4.implicit, dimsim4.c, dimsim4.v, q=coarse_query,
            budget=rec["budget"], seed_matrix=np.asarray(dimsim4.A),
            rng_seed=rec["rng_seed"])
        assert out.A[np.tril_indices(4, k=-1)].tolist() == rec["A_strictly_lower"]
        assert (out.area, out.seed_area, out.n_evaluations) == (
            rec["area"], rec["seed_area"], rec["n_evaluations"])
        assert (out.decisions, out.matrices, out.singular) == (
            rec["decisions"], rec["matrices"], rec["singular"])
        trace = out.best_area_trace
        assert len(trace) == out.n_evaluations
        assert trace[0] == out.seed_area and trace[-1] == out.area
        assert (np.diff(trace) >= 0.0).all()


@np.errstate(over="ignore", invalid="ignore")
def allocating_schur_cohn(a):
    """The Schur-Cohn test as it was written before the workspace: four
    fresh temporaries per step, a left as it was."""
    stable = np.ones(a.shape[1:], dtype=bool)
    for _ in range(a.shape[0] - 1):
        lead, const = a[0], a[-1]
        stable &= np.abs(lead) > np.abs(const)
        a = lead.conj() * a[:-1] - const * a[:0:-1].conj()
    return stable


def lapack_pair_charpolys(m, w, whats):
    """det(E) det(zI - M) as it was computed before the triangular setup:
    LAPACK det and solve on E."""
    s, r = m.s, m.r
    E, W = _pair_blocks(m, w, whats)
    U, V = m.explicit.U.astype(complex), m.explicit.V
    det = np.linalg.det(E)
    ok = det != 0.0
    Q = np.empty(E.shape[:-2] + (r + 1,), dtype=complex)
    X = np.linalg.solve(E[ok], np.broadcast_to(U, (np.count_nonzero(ok), s, r)))
    Q[ok] = _charpoly(V + W[ok] @ X) * det[ok][:, None]
    if not ok.all():
        Q[~ok] = _block_charpoly(E[~ok], W[~ok], U, V)
        Q[~ok, 0] = 0.0
    return Q


def rays_query(top, n_magnitudes):
    """Only the two boundary rays arg(-what) = +-pi/2, with log-spaced
    magnitudes from 1e-4 to 10^top."""
    mags = (0.0,) + tuple(np.logspace(-4.0, top, n_magnitudes))
    return StabilityQuery(stiff_magnitudes=mags, n_angles=2)


def random_stack(rng, n, P, L, scale=1.0):
    return scale * (rng.standard_normal((n, P, L))
                    + 1j * rng.standard_normal((n, P, L)))


class TestDecisionOracles:
    """The workspace Schur-Cohn test and the triangular setup against the
    allocating test and the LAPACK setup they replace."""

    @pytest.mark.parametrize("L", [1, 12, 30])
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
    def test_workspace_matches_allocating_schur_cohn(self, n, L):
        rng = np.random.default_rng(100 * n + L)
        P = 40
        # unit disk products and stacks near it, plus the extremes: an exact
        # zero leading coefficient, |lead| = |const| ties (const = conj(lead),
        # -lead, i * lead), and magnitudes that overflow within a few steps
        stacks = [random_stack(rng, n, P, L),
                  random_stack(rng, n, P, L, scale=1e-3),
                  random_stack(rng, n, P, L, scale=1e90)]
        roots = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (n - 1, P, L)))
        roots *= rng.uniform(0.5, 1.1, (n - 1, P, L))
        monic = np.ones((1, P, L), dtype=complex)
        for k in range(n - 1):
            monic = np.concatenate([monic, np.zeros((1, P, L))])
            monic[1:] -= roots[k] * monic[:-1]
        stacks.append(monic)
        a = random_stack(rng, n, P, L)
        a[0, : P // 4] = 0.0
        a[-1, P // 4: P // 2] = a[0, P // 4: P // 2].conj()
        a[-1, P // 2: 3 * P // 4] = -a[0, P // 2: 3 * P // 4]
        a[-1, 3 * P // 4:] = 1j * a[0, 3 * P // 4:]
        stacks.append(a)
        for a in stacks:
            want = allocating_schur_cohn(a)
            got = _schur_cohn(a.copy())
            assert got.dtype == bool and got.shape == (P, L)
            assert np.array_equal(got, want)
            # a strided view, as _schur_cohn_stable passes
            view = np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)
            assert np.array_equal(_schur_cohn(view), want)
        if n == 5:
            assert 0.0 < allocating_schur_cohn(stacks[3]).mean() < 1.0

    @pytest.mark.parametrize("name", ["dimsim4", "dimsim5", "imex-euler"])
    def test_triangular_setup_matches_lapack(self, name, coarse_query):
        # Coefficient k of det(E) det(zI - M) is measured against the size
        # of its terms, |det E| (1 + |M|_F)^k.  Against each polynomial's
        # largest coefficient the two setups differ by up to 4e-8 at these
        # random w, where Newton's identities cancel; a 50-digit reference
        # puts both that far off, the triangular one closer.
        m = resolve_method(name)
        rng = np.random.default_rng(7)
        v = line_nodes(m)
        ws = np.concatenate([v, rng.uniform(-6.0, 0.5, 40)
                             + 1j * rng.uniform(0.0, 8.0, 40)])
        for q in (StabilityQuery(), coarse_query, rays_query(7.0, 193)):
            grid = q.stiff_grid()
            for w, whats in ((ws, grid), (0.0, v)):
                want = lapack_pair_charpolys(m, w, whats)
                got = _pair_charpolys(m, w, whats)
                E, _ = _pair_blocks(m, w, whats)
                norm = np.linalg.norm(_pair_matrices_batch(m, w, whats),
                                      axis=(-2, -1))
                scale = (np.abs(np.linalg.det(E))[..., None]
                         * (1.0 + norm[..., None]) ** np.arange(m.r + 1))
                assert (np.abs(got - want) <= 1e-13 * scale).all()

    def test_triangular_setup_singular_points(self):
        toy = singular_toy()
        w = np.array([-0.5, 0.3 + 0.7j])
        whats = [-1.0, -0.5, -2.0 + 1.0j]
        got = _pair_charpolys(toy, w, whats)
        want = lapack_pair_charpolys(toy, w, whats)
        assert np.array_equal(got[..., 0] == 0.0, want[..., 0] == 0.0)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("top", [7.0, 8.0])
    def test_decisions_match_eigenvalues_far_along_the_rays(self, dimsim4,
                                                            dimsim5, top):
        # without scaling, the Schur-Cohn products of dimsim5 overflow once
        # |what| reaches about 3e4 and every point decides outside
        q = rays_query(top, 97)
        grid = q.stiff_grid()
        rng = np.random.default_rng(300)
        ws = rng.uniform(-1.5, 0.0, 300) + 1j * rng.uniform(0.0, 1.5, 300)
        for m in (dimsim4, dimsim5):
            inside, _ = _stability_decider(m, q, q.alpha, "pair")
            got = inside(ws)
            want = eig_stable(_pair_matrices_batch(m, ws, grid)).all(axis=-1)
            assert want.sum() > 40
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("top", [5, 8])
    def test_longer_stiff_grid_keeps_default_area(self, dimsim4, dimsim5,
                                                  top):
        # max rho over the sector is reached at moderate |what| for both
        # pairs, so magnitudes up to 10^top add nothing to the default query
        mags = DEFAULT_STIFF_MAGNITUDES + tuple(10.0 ** k
                                                for k in range(4, top + 1))
        for m in (dimsim4, dimsim5):
            want, _ = constrained_region_area(m)
            got, _ = constrained_region_area(
                m, StabilityQuery(stiff_magnitudes=mags))
            assert got.area == want.area > 0.5


def serial_ordinates(rho, xs, q):
    """Reference bisection, one line and one point at a time."""
    ys = []
    for x in xs:
        y_bot, y_top = 0.0, q.y_top
        if rho(complex(x, 0.0)) < 1.0:
            while y_top - y_bot > q.tol:
                y_mid = 0.5 * (y_bot + y_top)
                if rho(complex(x, y_mid)) < 1.0:
                    y_bot = y_mid
                else:
                    y_top = y_mid
        ys.append(y_bot)
    return np.array(ys)


class TestLockstepBisection:
    def test_pair_matches_serial_bisection(self, dimsim4, dimsim5,
                                           coarse_query):
        for m in (dimsim4, dimsim5):
            b = region_boundary_points(m, coarse_query)
            want = serial_ordinates(
                lambda w: max_rho_over_stiff_grid(m, w, coarse_query),
                b.xs, coarse_query)
            assert np.array_equal(b.ys, want)

    def test_components_match_serial_bisection(self, dimsim4, dimsim5,
                                               coarse_query):
        origin_only = StabilityQuery(stiff_magnitudes=(0.0,),
                                     n_angles=coarse_query.n_angles,
                                     tol=coarse_query.tol,
                                     y_top=coarse_query.y_top,
                                     n_lines=coarse_query.n_lines)
        for m in (dimsim4, dimsim5):
            b = region_boundary_points(m, coarse_query, component="explicit")
            want = serial_ordinates(
                lambda w: max_rho_over_stiff_grid(m, w, origin_only),
                b.xs, coarse_query)
            assert np.array_equal(b.ys, want)
            b = region_boundary_points(m, coarse_query, component="implicit")
            want = serial_ordinates(
                lambda z: spectral_radius(glm_stability_matrix(m.implicit, z)),
                b.xs, coarse_query)
            assert np.array_equal(b.ys, want)

    def test_exact_decision_counts(self, dimsim4, coarse_query):
        # default query: one decision on the 15 ladder points -tol 2^k (seeds
        # and doublings), 4 bisection batches to x_b (11 levels, 7 + 7 + 7 + 3
        # midpoints), 1 decision on the starts of the 30 lines, then 13 levels
        # over the 29 lines inside, at 232 stiff points each:
        # (15 + 24 + 30 + 13 * 29) * 232.  The 14 line decisions are screened
        # (29 or 30 w x 232 x 5 coefficients), and the screen alone puts 224
        # of their w outside
        res, b = constrained_region_area(dimsim4, StabilityQuery())
        assert (res.decisions, res.matrices, res.singular) == (19, 103_472, 0)
        assert res.screened == 224
        assert b.counts == {"decisions": 19, "matrices": 103_472,
                            "singular": 0, "screened": 224}
        # coarse query: 13 ladder points, 3 batches (9 levels, 21 midpoints),
        # the starts of 12 lines, 11 levels over 11 lines, at 28 stiff points
        # each: (13 + 21 + 12 + 11 * 11) * 28.  No batch is screened
        res, _ = constrained_region_area(dimsim4, coarse_query)
        assert (res.decisions, res.matrices, res.singular) == (16, 4_676, 0)
        assert res.screened == 0

    def test_singular_point_counts_unstable(self, coarse_query):
        toy = singular_toy()
        inside, counts = _stability_decider(toy, coarse_query,
                                            coarse_query.alpha, "pair")
        assert not inside([-0.5, -1.0 + 0.5j]).any()
        assert counts == {"decisions": 1, "matrices": 56, "singular": 2,
                          "screened": 0}
        assert max_rho_over_stiff_grid(toy, -0.5, coarse_query,
                                       return_detail=True) == (np.inf, 1)
        # implicit component: M(0, z) = (1 + 2z) / (1 + z), singular at -1
        inside, counts = _stability_decider(toy, coarse_query,
                                            coarse_query.alpha, "implicit")
        assert inside([-0.5, -1.0]).tolist() == [True, False]
        assert counts["singular"] == 1
        # the empty region costs one decision on the 13 ladder points, each
        # meeting the singular stiff point what = -1
        res, _ = constrained_region_area(toy, coarse_query)
        assert res.flagged_empty
        assert (res.decisions, res.matrices, res.singular) == (1, 13 * 28, 13)
        assert res.screened == 0


def line_nodes(m):
    """The line variable's interpolation nodes of _stability_decider: 0,
    then s points on the circle of radius _NODE_RADIUS."""
    nodes = _NODE_RADIUS * np.exp(1j * np.pi * (2 * np.arange(m.s) + 1) / m.s)
    return np.concatenate(([0.0], nodes))


def line_coefficients(m, Q):
    """_stability_decider's scaled coefficient matrix from the line
    polynomials Q (s + 1 line nodes, P stiff points, r + 1)."""
    s, nodes = m.s, line_nodes(m)[1:]
    D = np.fft.fft((Q[1:] - Q[0]) / nodes[:, None, None], axis=0)
    D /= (s * nodes[0] ** np.arange(s))[:, None, None]
    C = np.concatenate([Q[:1], D]).transpose(2, 1, 0)
    _, e = np.frexp(np.abs(C).max(axis=(0, 2)))
    return (C * np.ldexp(1.0, -e)[:, None]).reshape(-1, s + 1)


def unscreened_decider(m, q, alpha, component):
    """_stability_decider as it was before the screen: every batch against
    the whole stiff grid in one matmul and one Schur-Cohn test."""
    if component == "pair":
        grid = q.stiff_grid(alpha)
    else:
        grid = np.zeros(1, dtype=complex)
    s, r, P = m.s, m.r, grid.size
    v = line_nodes(m)
    if component == "implicit":
        Q = _pair_charpolys(m, 0.0, v)[:, None]
    else:
        Q = _pair_charpolys(m, v, grid)
    C = line_coefficients(m, Q)
    counts = {"decisions": 0, "matrices": 0, "singular": 0}

    def inside(ws) -> np.ndarray:
        ws = np.asarray(ws, dtype=complex).ravel()
        a = (C @ np.vander(ws, s + 1, increasing=True).T).reshape(r + 1, P, -1)
        counts["decisions"] += 1
        counts["matrices"] += ws.size * P
        counts["singular"] += int(np.count_nonzero(a[0] == 0.0))
        return _schur_cohn(a).all(axis=0)

    return inside, counts


def recorded_batches(m, q):
    """constrained_region_area's result and every batch it decided, in
    order."""
    batches = []
    real = stability._stability_decider

    def recording(*args):
        inside, counts = real(*args)

        def record(ws):
            batches.append(np.asarray(ws, dtype=complex).ravel())
            return inside(ws)
        return record, counts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_stability_decider", recording)
        res, _ = constrained_region_area(m, q)
    return res, batches


def assert_replays_unscreened(m, q, component, batches):
    """Decide the batches in order with the screened decider and the
    unscreened oracle; return the screened decider's counts."""
    inside, counts = _stability_decider(m, q, q.alpha, component)
    oracle, want = unscreened_decider(m, q, q.alpha, component)
    for ws in batches:
        assert np.array_equal(inside(ws), oracle(ws))
    assert {k: counts[k] for k in want} == want
    return counts


class TestScreenOracle:
    """The hot-point screen against the unscreened decider it replaces."""

    @pytest.mark.parametrize("query", ["default", "coarse", "rays"])
    def test_area_batches_match_unscreened(self, query, coarse_query):
        # rays: item 1's converged query, 193 magnitudes to 1e7 on the two
        # boundary rays, 120 lines, tol 1e-4
        q = {"default": StabilityQuery(), "coarse": coarse_query,
             "rays": dataclasses.replace(rays_query(7.0, 193), n_lines=120,
                                         tol=1e-4)}[query]
        screened = {}
        for name in ("dimsim4", "dimsim5", "ark4"):
            m = resolve_method(name)
            res, batches = recorded_batches(m, q)
            counts = assert_replays_unscreened(m, q, "pair", batches)
            assert counts == {"decisions": res.decisions,
                              "matrices": res.matrices,
                              "singular": res.singular,
                              "screened": res.screened}
            screened[name] = res.screened
        if query == "coarse":
            # at most 13 w x 28 points x 5 coefficients: never screened
            assert screened == {"dimsim4": 0, "dimsim5": 0, "ark4": 0}
        elif query == "default":
            # ark4 has r = 1, so its 30-line batches hold 13,920
            # coefficients, below the threshold
            assert screened["dimsim4"] > 0 and screened["dimsim5"] > 0
            assert screened["ark4"] == 0
        else:
            assert min(screened.values()) > 0

    def test_singular_points_under_the_screen(self):
        # what = -1 is on the default grid; 60 w x 232 x 2 coefficients are
        # screened, and each w meets the singular point once
        toy = singular_toy()
        q = StabilityQuery()
        rng = np.random.default_rng(25)
        batches = [rng.uniform(-2.0, 0.5, 60) + 1j * rng.uniform(0, 2, 60)
                   for _ in range(3)]
        counts = assert_replays_unscreened(toy, q, "pair", batches)
        assert counts["singular"] == 180
        assert counts["decisions"] == 3

    @pytest.mark.parametrize("component", ["explicit", "implicit"])
    def test_components_match_unscreened(self, dimsim5, component):
        # one stiff point: only batches of 3,334 w or more reach the
        # threshold, and the implicit component's leading coefficient
        # varies along the line, so it is never screened
        q = StabilityQuery()
        rng = np.random.default_rng(26)
        batches = [rng.uniform(-6.0, 0.5, n) + 1j * rng.uniform(0, 8, n)
                   for n in (4_000, 4_000, 50)]
        counts = assert_replays_unscreened(dimsim5, q, component, batches)
        if component == "implicit":
            assert counts["screened"] == 0
        else:
            assert counts["screened"] > 0


def two_stage_singular_toy():
    """Two stages with Ahat = [[-1, 0], [0.5, -1]]: E is singular at
    what = -1, and the rows of Q carry rounding in their z^2 terms."""
    return imex_dimsim("singular-toy-2", np.array([0.0, 1.0]),
                       np.zeros((2, 2)),
                       np.array([[-1.0, 0.0], [0.5, -1.0]]),
                       np.array([0.5, 0.5]))


class TestSingularCountRule:
    @pytest.mark.parametrize("query", ["coarse", "default"])
    def test_flat_rows_count_as_the_products_did(self, query, coarse_query):
        # the pair component's leading rows are flat, so singular points are
        # counted from them on both paths.  On the coarse query every batch
        # is unscreened; on the default one the 60-w batches are screened
        # (at least 60 x 232 x 2 coefficients) and the others are not.  The
        # oracle counts the exact zeros of every product's leading row
        q = {"default": StabilityQuery(), "coarse": coarse_query}[query]
        rng = np.random.default_rng(29)
        batches = [rng.uniform(-2.0, 0.5, n) + 1j * rng.uniform(0.0, 2.0, n)
                   for n in (1, 13, 60, 13)]
        for m in (singular_toy(), two_stage_singular_toy()):
            counts = assert_replays_unscreened(m, q, "pair", batches)
            # what = -1 is one grid point, met once per w
            assert counts["singular"] == 87


def scattering_bisect_lines(inside, xs, q):
    """_bisect_lines as it was before the compact arrays: full-length bot,
    top and active arrays, gathered and scattered at every level."""
    start = inside(xs.astype(complex))
    bot = np.zeros_like(xs)
    top = np.full_like(xs, q.y_top)
    active = start & (top - bot > q.tol)
    while active.any():
        idx = np.flatnonzero(active)
        mid = 0.5 * (bot[idx] + top[idx])
        ok = inside(xs[idx] + 1j * mid)
        bot[idx[ok]] = mid[ok]
        top[idx[~ok]] = mid[~ok]
        active[idx] = top[idx] - bot[idx] > q.tol
    return bot, start


def traced_area(m, q, bisect):
    """constrained_region_area with bisect as its line bisection: the
    bytes of every batch decided, in order, each bisect call's (ordinates,
    start flags), the AreaResult and the boundary."""
    batches, lines = [], []
    decider = stability._stability_decider

    def recording(*args):
        inside, counts = decider(*args)

        def record(ws):
            batches.append(np.asarray(ws, dtype=complex).ravel().tobytes())
            return inside(ws)
        return record, counts

    def logged(*args):
        ys, start = bisect(*args)
        lines.append((ys.tobytes(), start.tolist()))
        return ys, start

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_stability_decider", recording)
        mp.setattr(stability, "_bisect_lines", logged)
        res, b = constrained_region_area(m, q)
    return batches, lines, res, b


class TestCompactBisection:
    @pytest.mark.parametrize("query", ["default", "coarse", "rays"])
    def test_batches_match_scattering_bisection(self, query, coarse_query):
        q = {"default": StabilityQuery(), "coarse": coarse_query,
             "rays": dataclasses.replace(rays_query(7.0, 193), n_lines=120,
                                         tol=1e-4)}[query]
        for name in ("dimsim4", "dimsim5", "ark4"):
            m = resolve_method(name)
            batches, lines, res, b = traced_area(m, q, stability._bisect_lines)
            want = traced_area(m, q, scattering_bisect_lines)
            assert batches == want[0]
            assert lines == want[1] and len(lines) == 1
            assert dataclasses.asdict(res) == dataclasses.asdict(want[2])
            assert b.ys.tobytes() == want[3].ys.tobytes()
            assert len(batches) == res.decisions


def per_point_decider(m, q, alpha, component):
    """_stability_decider with the line polynomials of every stiff point
    from _pair_charpolys, the set-up that the rings replace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_ring_charpolys",
                   lambda m, w, mags, th: _pair_charpolys(
                       m, w, _ring_points(mags, th)))
        return _stability_decider(m, q, alpha, component)


def setup_sample_counts(m, q):
    """The number of stiff values of every _pair_charpolys call made while
    one pair decider is set up."""
    sizes = []
    real = stability._pair_charpolys

    def spy(m, w, whats):
        sizes.append(np.size(whats))
        return real(m, w, whats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_pair_charpolys", spy)
        _stability_decider(m, q, q.alpha, "pair")
    return sizes


def assert_replays_per_point(m, q, batches, res=None):
    """Decide the batches in order on the ring set-up and on the per-point
    one: the same booleans, and the same counts (those of the area run when
    res is given).  Returns the stiff points whose own decision differs."""
    inside, counts = _stability_decider(m, q, q.alpha, "pair")
    oracle, want = per_point_decider(m, q, q.alpha, "pair")
    s = m.s
    C_ring = line_coefficients(m, _ring_charpolys(m, line_nodes(m),
                                                  *q.rings()))
    C_point = line_coefficients(m, _pair_charpolys(m, line_nodes(m),
                                                   q.stiff_grid()))
    differ = []
    for ws in batches:
        assert np.array_equal(inside(ws), oracle(ws))
        vt = np.vander(ws, s + 1, increasing=True).T
        a, b = ((C @ vt).reshape(m.r + 1, -1, ws.size)
                for C in (C_ring, C_point))
        differ += [(p, ws[l]) for p, l in np.argwhere(_schur_cohn(a)
                                                      != _schur_cohn(b))]
    # a stiff point may decide differently only at rho = 1 within rounding;
    # the w then fails elsewhere (at what = 0 if w = 0), so only the
    # screen's hot list, and with it the screened count, could move
    grid = q.stiff_grid()
    for p, w in differ:
        M = _pair_matrices_batch(m, w, [grid[p]])[0]
        assert abs(np.abs(np.linalg.eigvals(M)).max() - 1.0) <= 1e-12
    keys = ("decisions", "matrices", "singular")
    assert {k: counts[k] for k in keys} == {k: want[k] for k in keys}
    if res is not None:
        assert {k: getattr(res, k) for k in keys} == {k: want[k] for k in keys}
    if not differ:
        # the screen's hot list follows each point's failures, so it
        # is the same list as long as every point decides the same
        assert counts["screened"] == want["screened"]
    return counts, want, differ


def wide_query(top=8.0):
    """33 angles, 25 log-spaced magnitudes from 1e-4 to 10^top."""
    return StabilityQuery(stiff_magnitudes=(0.0,) + tuple(
        np.logspace(-4.0, top, 25)))


class TestRingOracle:
    """Line polynomials interpolated per stiff-magnitude ring against the
    per-point set-up they replace."""

    @pytest.mark.parametrize("alpha", ["pi/2", "pi/3", "pi/4"])
    @pytest.mark.parametrize("name", ["dimsim4", "dimsim5", "ark4"])
    def test_default_query_batches_match_per_point(self, name, alpha):
        m = resolve_method(name)
        q = dataclasses.replace(StabilityQuery(), alpha={
            "pi/2": math.pi / 2, "pi/3": math.pi / 3,
            "pi/4": math.pi / 4}[alpha])
        assert setup_sample_counts(m, q) == [1 + 7 * (m.s + 1)]
        res, batches = recorded_batches(m, q)
        counts, want, _ = assert_replays_per_point(m, q, batches, res)
        assert counts == want and counts["screened"] == res.screened

    @pytest.mark.parametrize("name", ["dimsim4", "dimsim5", "ark4"])
    def test_wide_query_batches_match_per_point(self, name):
        m = resolve_method(name)
        q = wide_query()
        assert setup_sample_counts(m, q) == [1 + 25 * (m.s + 1)]
        res, batches = recorded_batches(m, q)
        assert_replays_per_point(m, q, batches, res)

    def test_wide_query_areas_are_bitwise_per_point(self):
        for name in ("dimsim4", "dimsim5", "ark4", "ark5"):
            m = resolve_method(name)
            for top in (3.0, 5.0, 8.0):
                q = wide_query(top)
                res, b = constrained_region_area(m, q)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(stability, "_stability_decider",
                               per_point_decider)
                    want, b_want = constrained_region_area(m, q)
                assert (res.area, res.x_b) == (want.area, want.x_b)
                assert np.array_equal(b.ys, b_want.ys)

    def test_singular_points_on_the_rings(self):
        # what = -1 is a grid point of the ring rho = 1; the samples
        # u_k = +-i stay off it.  Each of the 60 w meets it once
        toy = singular_toy()
        q = StabilityQuery()
        assert setup_sample_counts(toy, q) == [1 + 7 * 2]
        rng = np.random.default_rng(25)
        batches = [rng.uniform(-2.0, 0.5, 60) + 1j * rng.uniform(0, 2, 60)
                   for _ in range(3)]
        counts, want, differ = assert_replays_per_point(toy, q, batches)
        assert counts == want and differ == []
        assert counts["singular"] == 180 and counts["decisions"] == 3
        Q = _ring_charpolys(toy, line_nodes(toy), *q.rings())
        singular = np.flatnonzero(Q[0, :, 0] == 0.0)
        assert q.stiff_grid()[singular].tolist() == [-1.0]


def mp_line_polynomials(mpmath, m, ws, whats):
    """det [[E, -U], [-W, zI - V]] at every (w, what), as coefficients in z
    highest first, in 50-digit arithmetic from the stored doubles: the
    block determinant at the (r + 1)th roots of unity, then their inverse
    DFT."""
    s, r = m.s, m.r
    mp = mpmath.mp
    with mpmath.workdps(50):
        zs = [mpmath.expjpi(mpmath.mpf(2 * k) / (r + 1)) for k in range(r + 1)]
        out = np.empty((len(ws), len(whats), r + 1), dtype=complex)
        for i, w in enumerate(ws):
            for j, wh in enumerate(whats):
                w_, wh_ = mp.mpc(complex(w)), mp.mpc(complex(wh))
                dets = []
                for z in zs:
                    K = mp.matrix(s + r, s + r)
                    for a in range(s):
                        for b in range(s):
                            K[a, b] = (int(a == b) - w_ * float(m.A[a, b])
                                       - wh_ * float(m.Ahat[a, b]))
                        for b in range(r):
                            K[a, s + b] = -float(m.U[a, b])
                    for a in range(r):
                        for b in range(s):
                            K[s + a, b] = -(w_ * float(m.B[a, b])
                                            + wh_ * float(m.Bhat[a, b]))
                        for b in range(r):
                            K[s + a, s + b] = z * int(a == b) - float(m.V[a, b])
                    dets.append(mp.det(K))
                for k in range(r + 1):
                    c = sum(d * z ** -k for d, z in zip(dets, zs)) / (r + 1)
                    out[i, j, r - k] = complex(c)
    return out


class TestRingAccuracy:
    @pytest.mark.parametrize("name, query", [("dimsim4", "default"),
                                             ("dimsim5", "default"),
                                             ("dimsim5", "wide")])
    def test_coefficients_against_50_digits(self, name, query):
        # every coefficient of Q at all s + 1 line nodes, measured against
        # each reference polynomial's largest coefficient.  default: points
        # on the rings rho = 1e-3, 1, 10 and 1000 (the poles 1 / ahat_ii of
        # both pairs lie between 1 and 10).  wide: the ring rho = 10^0.5
        # next to dimsim5's pole 3.60, where samples on the whole ring cost
        # 2.5 digits (3.5e-9).  Measured, rings against per point: dimsim4
        # 1.45e-11 and 1.02e-11, dimsim5 2.86e-11 for both (default) and
        # 9.74e-12 for both (wide)
        mpmath = pytest.importorskip("mpmath")
        m = resolve_method(name)
        if query == "default":
            q = StabilityQuery()
            spots = ((0, 16), (3, 0), (3, 16), (4, 8), (4, 32), (6, 24))
        else:
            q = wide_query()
            spots = tuple((9, angle) for angle in (0, 8, 16, 24, 32))
        points = [1 + 33 * ring + angle for ring, angle in spots]
        whats = q.stiff_grid()[points]
        v = line_nodes(m)
        ref = mp_line_polynomials(mpmath, m, v, whats)
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        ring = _ring_charpolys(m, v, *q.rings())[:, points]
        point = _pair_charpolys(m, v, whats)
        err_ring = (np.abs(ring - ref) / scale).max()
        err_point = (np.abs(point - ref) / scale).max()
        assert err_ring <= 2.0 * err_point
        assert err_ring < 1e-10


class TestRingPathChoice:
    def test_small_rings_stay_per_point(self, dimsim4, dimsim5,
                                        coarse_query):
        # 9 angles on the optimizer's coarse query and the 2 boundary rays
        # are fewer than 2(s + 1): every grid point is set up on its own
        for m in (dimsim4, dimsim5, resolve_method("ark4")):
            assert setup_sample_counts(m, coarse_query) == [1 + 3 * 9]
            assert setup_sample_counts(m, rays_query(7.0, 193)) == [
                1 + 193 * 2]
            assert setup_sample_counts(m, StabilityQuery()) == [
                1 + 7 * (m.s + 1)]

    @pytest.mark.parametrize("name", ["dimsim4", "dimsim5", "ark4"])
    def test_areas_across_the_threshold(self, name):
        # 2(s + 1) - 1 angles set up per point, 2(s + 1) and 2(s + 1) + 1
        # on the rings; each area is the one the other set-up gives
        m = resolve_method(name)
        n = 2 * (m.s + 1)
        for n_angles in (n - 1, n, n + 1):
            q = StabilityQuery(n_angles=n_angles)
            on_rings = n_angles >= n
            assert setup_sample_counts(m, q) == [
                1 + 7 * (m.s + 1 if on_rings else n_angles)]
            res, b = constrained_region_area(m, q)
            with pytest.MonkeyPatch.context() as mp:
                if on_rings:
                    mp.setattr(stability, "_stability_decider",
                               per_point_decider)
                else:
                    mp.setattr(stability, "_RING_MIN_ANGLES", 0)
                other, b_other = constrained_region_area(m, q)
            assert (res.area, res.decisions, res.matrices) == (
                other.area, other.decisions, other.matrices)
            assert np.array_equal(b.ys, b_other.ys)


def serial_crossing(inside, tol, x_cap):
    """Reference real-axis search, one point per decision."""
    a = None
    x = -tol
    while x >= -x_cap:
        if inside([x])[0]:
            a = x
            break
        x *= 4.0
    if a is None:
        return None
    b = a
    while inside([b])[0]:
        b *= 2.0
        if b <= -x_cap:
            return -x_cap, True
    while a - b > tol:
        mid = 0.5 * (a + b)
        if inside([mid])[0]:
            a = mid
        else:
            b = mid
    return a, False


def crossings(m, q, component):
    """The batched and the serial crossing search on one decider, and the
    decider."""
    inside, _ = _stability_decider(m, q, q.alpha, component)
    return (_leftmost_crossing(inside, q.tol, 4.0 * q.y_top),
            serial_crossing(inside, q.tol, 4.0 * q.y_top), inside)


class TestCrossingSearch:
    """The batched search returns bitwise what the one-point search does."""

    @pytest.mark.parametrize("name", ["dimsim4", "dimsim5", "imex-euler"])
    def test_builtin_methods_match_serial_search(self, name, coarse_query):
        m = resolve_method(name)
        for q in (StabilityQuery(), coarse_query):
            for component in ("pair", "explicit", "implicit"):
                got, want, _ = crossings(m, q, component)
                assert got == want and got is not None
                assert got[1] == (component == "implicit")
            assert got == (-4.0 * q.y_top, True)

    def test_empty_region(self, coarse_query):
        got, want, _ = crossings(singular_toy(), coarse_query, "pair")
        assert got is want is None

    def test_later_seed_and_no_doubling(self):
        toy = shifted_toy()
        q = StabilityQuery()
        got, want, inside = crossings(toy, q, "explicit")
        assert not inside([-q.tol, -4 * q.tol]).any()
        assert got == want and abs(got[0] + 5.0) < q.tol
        # seed -3 is the first inside, doubling -6 the first outside: the
        # bracket [-6, -3] halves to a width of exactly tol after four
        # levels, where the search stops
        q = StabilityQuery(tol=3 / 16)
        got, want, inside = crossings(toy, q, "explicit")
        assert inside([-3.0, -6.0]).tolist() == [True, False]
        assert got == want and abs(got[0] + 5.0) < q.tol
        # x_cap = 2: the first inside seed, -1.024, has no doubling > -2
        q = StabilityQuery(y_top=0.5)
        assert -1.024 * 2.0 < -4.0 * q.y_top
        assert crossings(toy, q, "explicit")[:2] == ((-2.0, True),) * 2
        # a ladder point at -x_cap exactly is a seed (>= -x_cap) but not a
        # doubling (> -x_cap)
        euler = resolve_method("imex-euler")
        q = StabilityQuery(tol=0.5, y_top=0.5)
        assert crossings(euler, q, "explicit")[:2] == ((-2.0, True),) * 2

    @pytest.mark.parametrize("tol", [1e-4, 2e-3, 0.07, 0.3, 1.5, 40.0])
    def test_partial_batches_match_serial_search(self, tol, dimsim4):
        # bisections that end after one, two and three levels of a batch,
        # and ladders with no inside seed or no point at all
        q = StabilityQuery(stiff_magnitudes=(0.0, 1.0), n_angles=3, tol=tol)
        for component in ("pair", "explicit", "implicit"):
            got, want, _ = crossings(dimsim4, q, component)
            assert got == want


class TestAreas:
    def test_euler_disk_area(self, euler_glm, coarse_query):
        res, _ = constrained_region_area(euler_glm, coarse_query)
        assert not res.flagged_empty
        assert res.area_total == pytest.approx(2 * res.area_upper)
        assert res.area == res.area_total
        assert abs(res.area - math.pi) < 0.1
        assert res.x_b == pytest.approx(-2.0, abs=3 * coarse_query.tol)

    def test_euler_area_is_sector_independent(self, euler_glm, coarse_query):
        # |1 - what| >= 1 on the whole left sector, so the disk never shrinks
        a2, _ = constrained_region_area(euler_glm, coarse_query,
                                        alpha=math.pi / 2)
        a4, _ = constrained_region_area(euler_glm, coarse_query,
                                        alpha=math.pi / 4)
        assert a4.area == pytest.approx(a2.area, rel=1e-6)

    def test_empty_region_flagged(self):
        # lambda = 0.01 is nowhere near A-stable: the coupled grid with a
        # stiff magnitude of 100 rejects every nonstiff value
        c = np.array([0.0, 1.0])
        v = np.array([0.5, 0.5])
        m = imex_dimsim("unstable", c, np.zeros((2, 2)),
                        np.array([[0.01, 0.0], [0.0, 0.01]]), v)
        q = StabilityQuery(stiff_magnitudes=(0.0, 100.0), n_angles=5,
                           tol=5e-3, y_top=4.0, n_lines=8)
        res, _ = constrained_region_area(m, q)
        assert res.flagged_empty
        assert res.area == 0.0


class TestLStabilityReport:
    def test_backward_euler_is_L_stable(self, euler_glm):
        rep = check_L_stability(euler_glm.implicit, name="backward-euler")
        assert rep.passed, rep.summary()

    def test_builtin_implicit_parts_hit_rounding_floor(self, dimsim4,
                                                       dimsim5):
        """The printed tables are L-stable in exact arithmetic; at 15
        digits the defective eigenvalue cluster splits and the strict
        limit checks land on a measurable noise floor."""
        for m, lo, hi in ((dimsim4, 1e-4, 2e-3), (dimsim5, 1e-2, 2e-1)):
            rep = check_L_stability(m.implicit, name=m.name)
            by_name = {ch.name: ch for ch in rep.checks}
            assert by_name["imaginary axis rho <= 1"].passed
            assert by_name["random left half-plane rho <= 1"].passed
            limit = by_name["rho(M(-1e8)) < 1e-5"]
            assert not limit.passed
            assert lo < limit.residual < hi


class TestIrksReport:
    def test_single_stage_trivially_inherits(self, euler_glm):
        rep = check_irks(euler_glm.implicit, name="backward-euler")
        assert rep.passed
        for s in rep.samples:
            assert s.R_empirical == pytest.approx(1.0 / (1.0 - s.z),
                                                  rel=1e-12)

    def test_builtin_floor_and_charpoly_contrast(self, dimsim4, dimsim5):
        """Raw eigenvalue splitting sits at residual^(1/(s-1)), far above
        the 15-digit table precision; the characteristic-polynomial tail
        measures the same property linearly and lands near that precision."""
        rep4 = check_irks(dimsim4.implicit, name="dimsim4")
        assert not rep4.passed
        assert 1e-5 < rep4.worst_small_magnitude < 1e-3
        assert rep4.worst_charpoly_residual < 1e-10

        rep5 = check_irks(dimsim5.implicit, name="dimsim5")
        assert not rep5.passed
        assert 1e-3 < rep5.worst_small_magnitude < 2e-1
        assert rep5.worst_charpoly_residual < 1e-5

    def test_empirical_R_tends_to_zero_at_stiff_infinity(self, dimsim4):
        rep = check_irks(dimsim4.implicit, samples=[-1e6 + 0.0j])
        assert abs(rep.samples[0].R_empirical) < 1e-3


def optimizer_record(out):
    """Everything an OptimizeExplicitResult reports, bitwise."""
    m = out.method
    return ((out.A.tobytes(), out.area, out.seed_area, out.n_evaluations,
             out.failed, out.decisions, out.matrices, out.singular,
             out.screened, out.best_area_trace)
            + tuple(getattr(m, k).tobytes() for k in ("A", "B", "Q", "Qhat")))


def spied_optimizer(dimsim4, q, rng_seed, budget=100):
    """optimize_explicit_component seeded at dimsim4's A, and the bytes of
    the strictly lower A of every pair whose area it computed."""
    scored, real = [], stability.constrained_region_area

    def spy(m, *args, **kwargs):
        scored.append(m.A[np.tril_indices(m.s, k=-1)].tobytes())
        return real(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "constrained_region_area", spy)
        out = optimize_explicit_component(
            dimsim4.implicit, dimsim4.c, dimsim4.v, q=q, budget=budget,
            seed_matrix=np.asarray(dimsim4.A), rng_seed=rng_seed)
    return out, scored


class TestRepeatMemo:
    """A candidate met again is scored once, and the result is the one
    re-scoring gives."""

    def test_recorded_run_scores_each_candidate_once(self, dimsim4,
                                                     coarse_query):
        # each of the 3 Nelder-Mead polishes starts at a start-pool point
        # already scored: 93 evaluations of 90 distinct candidates
        rec = PARENT["optimizer"]
        out, scored = spied_optimizer(dimsim4, coarse_query, rec["rng_seed"],
                                      rec["budget"])
        assert len(scored) == len(set(scored)) == 90
        assert out.n_evaluations == rec["n_evaluations"] == 93
        assert out.A[np.tril_indices(4, k=-1)].tolist() == rec["A_strictly_lower"]
        assert (out.area, out.seed_area, out.decisions, out.matrices,
                out.singular) == (rec["area"], rec["seed_area"],
                                  rec["decisions"], rec["matrices"],
                                  rec["singular"])
        assert len(out.best_area_trace) == 93

    @pytest.mark.parametrize("rng_seed", [0, 1, 2])
    def test_matches_a_run_without_the_memo(self, dimsim4, coarse_query,
                                            rng_seed, monkeypatch):
        out, scored = spied_optimizer(dimsim4, coarse_query, rng_seed)
        # a key that never repeats defeats the memo: every evaluation is
        # scored
        monkeypatch.setattr(stability, "_candidate_key", lambda p: object())
        again, rescored = spied_optimizer(dimsim4, coarse_query, rng_seed)
        assert len(rescored) == again.n_evaluations == out.n_evaluations
        assert len(scored) == len(set(scored)) < len(rescored)
        assert set(scored) == set(rescored)
        assert optimizer_record(out) == optimizer_record(again)


class TestOptimizer:
    def test_seeded_never_falls_below_seed(self, dimsim4, coarse_query):
        out = optimize_explicit_component(
            dimsim4.implicit, dimsim4.c, dimsim4.v, q=coarse_query,
            budget=40, seed_matrix=np.asarray(dimsim4.A), rng_seed=0)
        assert not out.failed
        assert out.seed_area is not None and out.seed_area > 1.0
        assert out.area >= out.seed_area
        assert out.n_evaluations <= 40
        # the reported tableau reproduces the reported area
        again, _ = constrained_region_area(out.method, coarse_query)
        assert again.area == pytest.approx(out.area, rel=1e-12)

    def test_budget_is_a_hard_cap(self, dimsim4, coarse_query):
        out = optimize_explicit_component(
            dimsim4.implicit, dimsim4.c, dimsim4.v, q=coarse_query,
            budget=5, seed_matrix=np.asarray(dimsim4.A), rng_seed=0)
        assert out.n_evaluations <= 5

    def test_empty_seed_flags_failure(self):
        c = np.array([0.0, 1.0])
        v = np.array([0.5, 0.5])
        m = imex_dimsim("unstable", c, np.zeros((2, 2)),
                        np.array([[0.01, 0.0], [0.0, 0.01]]), v)
        q = StabilityQuery(stiff_magnitudes=(0.0, 100.0), n_angles=5,
                           tol=5e-3, y_top=4.0, n_lines=8)
        out = optimize_explicit_component(m.implicit, c, v, q=q, budget=3,
                                          seed_matrix=np.zeros((2, 2)),
                                          rng_seed=0)
        assert out.failed
        assert out.area == 0.0
        assert out.n_evaluations <= 3

    def test_random_start_is_deterministic(self):
        c = np.array([0.0, 1.0])
        v = np.array([0.4, 0.6])
        implicit = imex_dimsim(
            "base", c, np.zeros((2, 2)),
            np.array([[0.3, 0.0], [0.1, 0.3]]), v).implicit
        q = StabilityQuery(stiff_magnitudes=(0.0, 1.0), n_angles=5,
                           tol=5e-3, y_top=4.0, n_lines=8)
        runs = [optimize_explicit_component(implicit, c, v, q=q, budget=40,
                                            rng_seed=7) for _ in range(2)]
        assert runs[0].area == runs[1].area
        assert runs[0].n_evaluations == runs[1].n_evaluations
        assert np.array_equal(runs[0].A, runs[1].A)
        assert runs[0].area > 0.0


def ark_butcher(order):
    """The explicit (A, b) of a bundled ARK pair, read from its file."""
    from imexglm.methods import bundled_ark_path
    d = json.loads(bundled_ark_path(order).read_text())
    return (np.array(d["A_explicit"], dtype=float),
            np.array(d["b_explicit"], dtype=float))


def seeded_points(seed, n=300):
    rng = np.random.default_rng(seed)
    return rng.uniform(-6.0, 0.5, n) + 1j * rng.uniform(0.0, 8.0, n)


class TestAdditiveRkStability:
    """An additive RK pair is a one-value GLM pair, so the shared stability
    code decides its regions as it does a DIMSIM's."""

    @pytest.mark.parametrize("order", [4, 5])
    def test_explicit_component_is_rk_stability_function(self, order):
        # R(w) = 1 + w b^T (I - w A)^{-1} e, from the Butcher arrays alone
        A, b = ark_butcher(order)
        m = resolve_method(f"ark{order}")
        ws = seeded_points(order)
        e = np.ones(b.size)
        R = np.array([1.0 + w * b @ np.linalg.solve(np.eye(b.size) - w * A, e)
                      for w in ws])
        q = StabilityQuery()
        inside, _ = _stability_decider(m, q, q.alpha, "explicit")
        want = np.abs(R) < 1.0
        tie = np.abs(np.abs(R) - 1.0) <= 1e-12
        assert np.array_equal(inside(ws)[~tie], want[~tie])
        assert 0 < want.sum() < ws.size

    @pytest.mark.parametrize("order", [4, 5])
    def test_pair_decisions_match_eigenvalues(self, order):
        m = resolve_method(f"ark{order}")
        ws = seeded_points(10 + order)
        q = StabilityQuery()
        inside, _ = _stability_decider(m, q, q.alpha, "pair")
        rho = np.array([max_rho_over_stiff_grid(m, w, q) for w in ws])
        tie = np.abs(rho - 1.0) <= 1e-12
        assert np.array_equal(inside(ws)[~tie], (rho < 1.0)[~tie])
        assert 0 < (rho < 1.0).sum() < ws.size
