import json
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from imexglm.methods import resolve_method
from imexglm.tableau import (DistinctNodesError, GlmTableau, ImexGlmMethod,
                             MethodFileError, additive_rk_pair,
                             dimsim_b_matrix, imex_dimsim,
                             load_method, method_from_dict, method_to_dict,
                             nodal_polynomials, save_method,
                             starting_weight_matrix, validate_method)


def phi(c, j, x):
    out = 1.0
    for k, ck in enumerate(c):
        if k != j:
            out = out * (x - ck)
    return out


class TestNodalPolynomials:
    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = int(rng.integers(2, 6))
            c = np.sort(rng.uniform(-1, 2, size=s))
            if np.min(np.diff(c)) < 5e-2:
                continue
            tab = nodal_polynomials(c)
            for j in range(s):
                assert tab.phi_norm[j] == pytest.approx(phi(c, j, c[j]),
                                                        rel=1e-12)
                for i in range(s):
                    assert tab.value_shift[i, j] == pytest.approx(
                        phi(c, j, 1 + c[i]), rel=1e-10, abs=1e-12)
                    val, _ = quad(lambda x: phi(c, j, x), 0.0, 1 + c[i])
                    assert tab.integral_shift[i, j] == pytest.approx(
                        val, rel=1e-9, abs=1e-11)
                    val, _ = quad(lambda x: phi(c, j, x), 0.0, c[i])
                    assert tab.integral_node[i, j] == pytest.approx(
                        val, rel=1e-9, abs=1e-11)

    def test_single_node(self):
        tab = nodal_polynomials(np.array([0.0]))
        assert tab.phi_norm[0] == 1.0
        assert tab.integral_shift[0, 0] == pytest.approx(1.0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DistinctNodesError):
            nodal_polynomials(np.array([0.0, 0.5, 0.5 + 1e-15, 1.0]))


def exact_blocks(Q, h, ders):
    """External vector for a known smooth x: y_i = sum_k q_ik h^k x^(k)."""
    r = Q.shape[0]
    return np.array([sum(Q[i, k] * h ** k * ders[k] for k in range(r + 1))
                     for i in range(r)])


class TestBMatrixOrderConditions:
    """The update weights must advance polynomial external data exactly.

    For y' = x'(t) with x polynomial of degree <= p, exact inputs
    y_i^[0] = sum_k q_ik h^k x^(k)(0) must map to the exact outputs at h.
    This exercises B, Q, c, v jointly against plain calculus.
    """

    @pytest.mark.parametrize("part", ["explicit", "implicit"])
    def test_polynomial_exactness(self, dimsim4, dimsim5, part):
        for m in (dimsim4, dimsim5):
            s, h = m.s, 0.37
            rng = np.random.default_rng(5)
            coeffs = rng.standard_normal(s + 1)      # x of degree p = s
            xpoly = np.polynomial.Polynomial(coeffs)
            ders0 = [xpoly.deriv(k)(0.0) if k else xpoly(0.0)
                     for k in range(s + 1)]
            dersh = [xpoly.deriv(k)(h) if k else xpoly(h)
                     for k in range(s + 1)]
            xp = xpoly.deriv(1)
            F = np.array([xp(m.c[i] * h) for i in range(s)])
            if part == "explicit":
                Q, B = m.Q, m.B
            else:
                Q, B = m.Qhat, m.Bhat
            y0 = exact_blocks(Q, h, ders0)
            y1 = h * (B @ F) + np.outer(np.ones(s), m.v) @ y0
            assert np.max(np.abs(y1 - exact_blocks(Q, h, dersh))) < 1e-8

    def test_b_matrix_recomputation_matches_tables(self, dimsim4, dimsim5):
        # published coefficients carry about 15 digits, so the recomputed
        # blocks agree to the order-condition tolerance rather than roundoff
        for m in (dimsim4, dimsim5):
            B = dimsim_b_matrix(np.asarray(m.A), np.asarray(m.c),
                                np.asarray(m.v))
            assert np.max(np.abs(B - m.B)) < 1e-8
            Bhat = dimsim_b_matrix(np.asarray(m.Ahat), np.asarray(m.c),
                                   np.asarray(m.v))
            assert np.max(np.abs(Bhat - m.Bhat)) < 1e-8


class TestStartingWeights:
    def test_formula(self):
        rng = np.random.default_rng(3)
        s = 4
        c = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        A = np.tril(rng.standard_normal((s, s)), k=-1)
        Q = starting_weight_matrix(A, c, s)
        assert Q.shape == (s, s + 1)
        assert np.all(Q[:, 0] == 1.0)
        for k in range(1, s + 1):
            expected = c ** k / factorial(k) - A @ (c ** (k - 1) / factorial(k - 1))
            assert np.max(np.abs(Q[:, k] - expected)) < 1e-14


class TestSerialization:
    def test_round_trip_is_exact(self, dimsim4, dimsim5, euler_glm, tmp_path):
        for m in (dimsim4, dimsim5, euler_glm):
            path = tmp_path / f"{m.name}.json"
            save_method(m, path)
            m2 = load_method(path)
            for attr in ("A", "Ahat", "B", "Bhat", "Q", "Qhat", "v", "c"):
                a, b = np.asarray(getattr(m, attr)), np.asarray(getattr(m2, attr))
                assert np.array_equal(a, b), attr
            assert (m2.name, m2.r) == (m.name, m.r)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_methods(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 5))
        c = np.linspace(0.0, 1.0, s)
        A = np.tril(rng.standard_normal((s, s)), k=-1)
        Ahat = A + np.eye(s) * rng.uniform(0.1, 1.0)
        v = rng.uniform(0.1, 1.0, size=s)
        v = v / v.sum()
        m = imex_dimsim("random", c, A, Ahat, v)
        d = method_to_dict(m)
        m2 = method_from_dict(json.loads(json.dumps(d)))
        assert np.array_equal(np.asarray(m.B), np.asarray(m2.B))
        assert np.array_equal(np.asarray(m.Qhat), np.asarray(m2.Qhat))

    def test_pair_the_format_cannot_hold_is_refused(self, tmp_path):
        # the file stores no U: loading would rebuild U = I, which is e_1
        # for an additive RK pair (U = e)
        path = tmp_path / "ark4.json"
        with pytest.raises(ValueError, match="U = I, V = e v"):
            save_method(resolve_method("ark4"), path)
        assert not path.exists()

    def test_missing_field_rejected(self, dimsim4, tmp_path):
        d = method_to_dict(dimsim4)
        del d["B"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MethodFileError):
            load_method(path)

    def test_wrong_shape_rejected(self, dimsim4, tmp_path):
        d = method_to_dict(dimsim4)
        d["v"] = d["v"][:-1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MethodFileError):
            load_method(path)


class TestValidation:
    def test_builtins_pass(self, dimsim4, dimsim5, euler_glm):
        for m in (dimsim4, dimsim5, euler_glm):
            report = validate_method(m)
            assert report.passed, report.summary()

    def test_corrupted_coefficient_fails(self, dimsim4):
        A = np.array(dimsim4.A)
        A[2, 1] += 1e-4
        bad = ImexGlmMethod(
            name="bad", c=dimsim4.c, U=dimsim4.U, v=dimsim4.v,
            A=A, B=dimsim4.B, Ahat=dimsim4.Ahat, Bhat=dimsim4.Bhat,
            Q=dimsim4.Q, Qhat=dimsim4.Qhat)
        report = validate_method(bad)
        assert not report.passed
        names = [chk.name for chk in report.failures()]
        assert any("order conditions" in n or "starting weights" in n
                   for n in names)

    def test_non_triangular_pair_rejected(self, dimsim4, tmp_path):
        # the stepper reads only the lower triangles, so such a pair would
        # integrate as if its upper entries were 0
        c, v = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        lower = np.array([[0.5, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="strictly lower"):
            imex_dimsim("upper", c, np.array([[0.0, 0.5], [0.5, 0.0]]),
                        lower, v)
        with pytest.raises(ValueError, match="strictly lower"):
            imex_dimsim("diagonal", c, np.diag([0.0, 0.5]), lower, v)
        with pytest.raises(ValueError, match="implicit A must be lower"):
            imex_dimsim("upper-hat", c, np.zeros((2, 2)),
                        np.array([[0.5, 0.1], [0.5, 0.5]]), v)
        d = method_to_dict(dimsim4)
        d["Ahat"][0][3] = "1e-300"
        path = tmp_path / "upper.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MethodFileError, match="implicit A must be lower"):
            load_method(path)

    def test_additive_rk_pair_reports_instead_of_raising(self):
        # the DIMSIM B relation needs r = s; an ARK pair has r = 1
        report = validate_method(resolve_method("ark4"))
        failed = {chk.name: chk.residual for chk in report.failures()}
        assert failed["square family (r = s)"] > 0.0
        assert failed["explicit B solves order conditions"] == np.inf
        assert failed["implicit B solves order conditions"] == np.inf
        # Q has r = 1 row and the starting weights s rows: no broadcast
        assert failed["starting weights Q"] == np.inf
        assert failed["starting weights Qhat"] == np.inf
        assert not report.passed

    def test_fewer_values_than_stages_reports_instead_of_raising(self):
        # s = 3 stages, r = 2 values: the s-row starting weights cannot be
        # compared with the r-row Q, so the check reports inf, not raises
        c = np.array([0.0, 0.5, 1.0])
        A = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0]])
        Ah = np.diag([0.5, 0.5, 0.5]) + np.tril(np.full((3, 3), 0.1), -1)
        B = np.full((2, 3), 1.0 / 3.0)
        Q = np.array([[1.0, 0.0, 0.0], [1.0, 0.5, 0.125]])
        m = ImexGlmMethod(name="s3r2", c=c, U=np.ones((3, 2)) / 2.0,
                          v=np.array([0.5, 0.5]), A=A, B=B, Ahat=Ah, Bhat=B,
                          Q=Q, Qhat=Q)
        assert np.array_equal(m.V, np.full((2, 2), 0.5))
        report = validate_method(m)
        failed = {chk.name: chk.residual for chk in report.failures()}
        assert failed["starting weights Q"] == np.inf
        assert failed["starting weights Qhat"] == np.inf
        assert not report.passed

    def test_tableau_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GlmTableau(A=np.zeros((2, 2)), U=np.eye(2), B=np.zeros((3, 2)),
                       V=np.eye(2), c=np.array([0.0, 1.0]))

    def test_non_square_V_raises(self):
        # r is read from V's rows, so a (2, 3) V would pass the U and B
        # checks and fail later in glm_stability_matrix
        with pytest.raises(ValueError, match="inconsistent tableau"):
            GlmTableau(A=np.zeros((2, 2)), U=np.eye(2), B=np.zeros((2, 2)),
                       V=np.zeros((2, 3)), c=np.array([0.0, 1.0]))

    def test_coefficients_are_readonly(self, dimsim4):
        with pytest.raises(ValueError):
            dimsim4.A[0, 0] = 1.0


def cut_starting_weights(d: dict, columns: int) -> dict:
    """A method file whose Q and Qhat keep their first columns only, with
    the p and q of the degree that width states."""
    return dict(d, p=columns - 1, q=columns - 1,
                Q=[row[:columns] for row in d["Q"]],
                Qhat=[row[:columns] for row in d["Qhat"]])


class TestStartingWeightShape:
    """Q and Qhat are (r, r + 1): the starting procedure reads columns
    1..r, so r is the one degree a pair records."""

    def test_cut_degree_file_names_the_q_shape(self, dimsim4, tmp_path):
        # such a file used to load and then fail at the first step with
        # numpy's matmul core-dimension error
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(cut_starting_weights(method_to_dict(dimsim4), 3)))
        with pytest.raises(MethodFileError,
                           match=r"'Q' has shape \(4, 3\), expected \(4, 5\)"):
            load_method(path)

    def test_wrong_shape_rejected_at_construction(self, dimsim4):
        # a 3-row Q used to construct and fail at the first step ("state
        # has 3 blocks, method wants 4")
        for Q, Qhat, name in ((dimsim4.Q[:3], dimsim4.Qhat, "Q"),
                              (dimsim4.Q, dimsim4.Qhat[:, :3], "Qhat")):
            with pytest.raises(ValueError,
                               match=f"starting weights {name} have shape"):
                ImexGlmMethod(name="cut", c=dimsim4.c, U=dimsim4.U,
                              v=dimsim4.v, A=dimsim4.A, B=dimsim4.B,
                              Ahat=dimsim4.Ahat, Bhat=dimsim4.Bhat,
                              Q=Q, Qhat=Qhat)

    def test_legacy_file_with_p_and_q_loads_bitwise(self, dimsim4, dimsim5,
                                                    euler_glm, tmp_path):
        for m in (dimsim4, dimsim5, euler_glm):
            d = method_to_dict(m)
            assert "p" not in d and "q" not in d
            path = tmp_path / f"{m.name}.json"
            path.write_text(json.dumps(cut_starting_weights(d, m.r + 1)))
            m2 = load_method(path)
            assert m2.name == m.name
            for attr in ("c", "U", "v", "A", "B", "Ahat", "Bhat", "Q", "Qhat"):
                assert np.array_equal(getattr(m2, attr), getattr(m, attr)), attr

    def test_constructed_pairs_carry_degree_r(self):
        c = np.array([0.0, 0.5, 1.0])
        m = imex_dimsim("three", c, np.tril(np.full((3, 3), 0.5), -1),
                        np.eye(3) * 0.5, np.array([0.0, 0.0, 1.0]))
        assert m.Q.shape == m.Qhat.shape == (3, 4)
        with pytest.raises(TypeError):
            imex_dimsim("three", c, m.A, m.Ahat, m.v, p=2)


class TestPairRecord:
    def test_views_share_the_pair_blocks(self, dimsim4, dimsim5, euler_glm,
                                         coarse_query):
        from imexglm.stability import optimize_explicit_component
        round_trip = method_from_dict(json.loads(json.dumps(
            method_to_dict(dimsim5))))
        optimized = optimize_explicit_component(
            dimsim4.implicit, dimsim4.c, dimsim4.v, q=coarse_query, budget=3,
            seed_matrix=dimsim4.A).method
        for m in (dimsim4, dimsim5, euler_glm, resolve_method("ark4"),
                  resolve_method("ark5"), round_trip, optimized):
            e = np.ones((m.r, 1))
            assert np.array_equal(m.V, e * m.v), m.name
            for t, A, B in ((m.explicit, m.A, m.B),
                            (m.implicit, m.Ahat, m.Bhat)):
                assert np.array_equal(t.U, m.U), m.name
                assert np.array_equal(t.V, m.V), m.name
                assert np.array_equal(t.c, m.c), m.name
                assert np.array_equal(t.A, A) and np.array_equal(t.B, B)
                assert not t.V.flags.writeable

    def test_v_sets_the_number_of_values(self, dimsim4):
        # V is built from v, so a v of the wrong length is a shape error
        with pytest.raises(ValueError, match="block shapes"):
            ImexGlmMethod(name="short-v", c=dimsim4.c, U=dimsim4.U,
                          v=dimsim4.v[:-1], A=dimsim4.A, B=dimsim4.B,
                          Ahat=dimsim4.Ahat, Bhat=dimsim4.Bhat,
                          Q=dimsim4.Q, Qhat=dimsim4.Qhat)


class TestAdditiveRkPair:
    def test_one_value_blocks(self):
        c = np.array([0.0, 1.0])
        A, b = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5])
        Ah, bh = np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([0.5, 0.5])
        m = additive_rk_pair("trapezoid", c, A, b, Ah, bh)
        assert (m.s, m.r) == (2, 1)
        assert np.array_equal(m.Q, [[1.0, 0.0]]) and np.array_equal(m.Qhat, m.Q)
        for t, bt in ((m.explicit, b), (m.implicit, bh)):
            assert np.array_equal(t.U, np.ones((2, 1)))
            assert np.array_equal(t.V, [[1.0]])
            assert np.array_equal(t.B, bt[None, :])
        assert np.array_equal(m.v, [1.0])
        assert np.array_equal(m.Q, [[1.0, 0.0]])
        assert np.array_equal(m.Qhat, [[1.0, 0.0]])

    def test_is_additive_rk_reads_the_data(self, dimsim4, euler_glm):
        assert resolve_method("ark4").is_additive_rk
        assert resolve_method("ark5").is_additive_rk
        assert not dimsim4.is_additive_rk
        # one value, but its Qhat = [[1, -1]] starts from y0 - h g
        assert euler_glm.r == 1 and not euler_glm.is_additive_rk
