import json

import numpy as np
import pytest

from imexglm.integrator import StartingConfig
from imexglm.methods import (bundled_ark_path, builtin_imex_euler,
                             load_ark_method, resolve_method)
from imexglm.tableau import (ImexGlmMethod, MethodFileError, additive_rk_pair,
                             save_method, validate_method)


class TestBuiltinCoefficients:
    def test_all_builtins_validate(self, dimsim4, dimsim5, euler_glm):
        for m in (dimsim4, dimsim5, euler_glm):
            report = validate_method(m)
            assert report.passed, report.summary()

    def test_order4_spot_values(self, dimsim4):
        assert dimsim4.lam == 0.572816062482135
        assert dimsim4.c[1] == pytest.approx(1.0 / 3.0)
        # q_{i1} = c_i - sum_j a_ij
        assert dimsim4.Q[1, 1] == 0.074436267358921
        assert dimsim4.Q[1, 1] == pytest.approx(1.0 / 3.0 - dimsim4.A[1, 0],
                                                abs=1e-15)
        assert dimsim4.Qhat[0, 1] == pytest.approx(-dimsim4.lam, abs=1e-15)

    def test_order5_spot_values(self, dimsim5):
        assert dimsim5.lam == 0.278053841136452
        assert dimsim5.s == 5 and dimsim5.p == 5
        assert np.allclose(dimsim5.c, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert dimsim5.v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_euler_structure(self, euler_glm):
        assert euler_glm.s == 1 and euler_glm.p == 1
        assert np.array_equal(euler_glm.Q, [[1.0, 0.0]])
        assert np.array_equal(euler_glm.Qhat, [[1.0, -1.0]])
        assert euler_glm.A[0, 0] == 0.0 and euler_glm.Ahat[0, 0] == 1.0


class TestArkLoading:
    def test_bundled_files_load(self):
        for order, sigma in ((4, 6), (5, 8)):
            path = bundled_ark_path(order)
            assert path.exists()
            m = load_ark_method(path)
            assert isinstance(m, ImexGlmMethod) and m.is_additive_rk
            assert m.s == sigma
            assert m.B[0].sum() == pytest.approx(1.0, abs=1e-13)
            assert m.Bhat[0].sum() == pytest.approx(1.0, abs=1e-13)
        # the 6-stage pair is stiffly accurate: weights equal last stage row
        m4 = load_ark_method(bundled_ark_path(4))
        assert np.allclose(m4.Bhat[0], m4.Ahat[-1], atol=1e-13)

    def test_bundled_order_guard(self):
        with pytest.raises(ValueError):
            bundled_ark_path(3)

    def test_row_sum_mismatch_names_stage(self, tmp_path):
        d = {
            "name": "broken",
            "sigma": 2,
            "c": ["0", "1"],
            "A_explicit": [["0", "0"], ["0.5", "0"]],
            "b_explicit": ["0.5", "0.5"],
            "A_implicit": [["0", "0"], ["0", "1"]],
            "b_implicit": ["0", "1"],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MethodFileError, match="stage 1"):
            load_ark_method(path)

    def test_triangularity_enforced(self, tmp_path):
        d = {
            "sigma": 2,
            "c": ["0", "1"],
            "A_explicit": [["0", "1"], ["0", "0"]],
            "b_explicit": ["0.5", "0.5"],
            "A_implicit": [["0", "0"], ["0", "1"]],
            "b_implicit": ["0", "1"],
        }
        path = tmp_path / "upper.json"
        path.write_text(json.dumps(d))
        with pytest.raises(MethodFileError, match="strictly lower"):
            load_ark_method(path)

    def test_non_triangular_pair_rejected(self):
        c, b = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        lower = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="explicit A must be strictly"):
            additive_rk_pair("diagonal", c, A_explicit=np.diag([0.0, 1.0]),
                             b_explicit=b, A_implicit=lower, b_implicit=b)
        with pytest.raises(ValueError, match="implicit A must be lower"):
            additive_rk_pair("upper", c, A_explicit=lower, b_explicit=b,
                             A_implicit=np.array([[0.5, 0.5], [0.5, 0.5]]),
                             b_implicit=b)
        one = np.ones((1, 1))
        with pytest.raises(ValueError, match="explicit A must be strictly"):
            additive_rk_pair("one-stage", np.array([1.0]), A_explicit=one,
                             b_explicit=np.ones(1), A_implicit=one,
                             b_implicit=np.ones(1))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"sigma": 2, "c": ["0", "1"]}))
        with pytest.raises(MethodFileError, match="missing"):
            load_ark_method(path)

    def test_coefficients_are_readonly(self):
        m = load_ark_method(bundled_ark_path(4))
        with pytest.raises(ValueError):
            m.c[0] = 0.5


class TestResolveMethod:
    def test_builtin_names(self):
        assert isinstance(resolve_method("dimsim4"), ImexGlmMethod)
        assert isinstance(resolve_method("imex-euler"), ImexGlmMethod)

    def test_ark_file_dispatch(self):
        m = resolve_method(str(bundled_ark_path(5)))
        assert isinstance(m, ImexGlmMethod) and m.is_additive_rk

    def test_ark_aliases(self):
        m = resolve_method("ark4")
        assert m.is_additive_rk and m.s == 6
        assert resolve_method("ark5").s == 8

    def test_glm_file_dispatch(self, tmp_path):
        path = tmp_path / "euler.json"
        save_method(builtin_imex_euler(), path)
        m = resolve_method(str(path))
        assert isinstance(m, ImexGlmMethod)
        assert m.name == "imex-euler"

    def test_unknown_name(self):
        with pytest.raises(MethodFileError, match="not a builtin"):
            resolve_method("dimsim7")

    def test_pairs_compare_and_hash_by_identity(self):
        # array fields have no truth value, so a pair (and a StartingConfig
        # holding one) compares and hashes as the object it is
        m = resolve_method("ark4")
        assert m == m and m != resolve_method("ark4")
        assert len({m, m, resolve_method("dimsim4")}) == 2
        cfg = StartingConfig(scheme=m)
        assert cfg == StartingConfig(scheme=m) and hash(cfg) == hash(
            StartingConfig(scheme=m))
        assert StartingConfig() != StartingConfig()
