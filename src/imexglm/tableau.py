"""General linear method tableaus for IMEX pairs of DIMSIM type.

A method with s internal stages and r external values is held as the
coefficient blocks (A, U, B, V) plus abscissae c.  An IMEX pair is one
record, ImexGlmMethod: an explicit part (A, B) with A strictly lower
triangular and an implicit part (Ahat, Bhat) with Ahat lower triangular,
over one U, one V = e v^T (stored as v) and one c, with starting weights
Q and Qhat of shape (r, r + 1).  The DIMSIM class has order p = stage
order q = r = s, U = I, V = e v^T and a constant implicit diagonal; an
additive RK pair is the one-value case r = 1, U = e, V = [[1]], with the
weight vectors as B and Bhat (additive_rk_pair).  load_method reads both
method file formats: GLM pairs (method_to_dict) and additive RK tables
(ark_method_from_dict, marked by a `sigma` field).

The B block is not free: once (A, c, v) are chosen it is pinned by the
order conditions

    B = B0 - A B1 - V B2 + V A,

where B0, B1, B2 are quadrature-type matrices built from the nodal basis
phi_j(x) = prod_{k != j} (x - c_k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import NamedTuple

import numpy as np


class DistinctNodesError(ValueError):
    """Raised when abscissae contain (near-)duplicate entries."""


class MethodFileError(ValueError):
    """Raised when a method file is missing fields or has ragged shapes."""


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GlmTableau:
    """One component (explicit or implicit) of a general linear method."""

    A: np.ndarray  # (s, s) stage coupling
    U: np.ndarray  # (s, r) external -> stage
    B: np.ndarray  # (r, s) stage -> external
    V: np.ndarray  # (r, r) external propagation
    c: np.ndarray  # (s,) abscissae

    def __post_init__(self):
        for name in ("A", "U", "B", "V", "c"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        self._check_shapes()

    @classmethod
    def _over(cls, A, U, B, V, c) -> GlmTableau:
        """A tableau over read-only blocks that no other caller holds
        (ImexGlmMethod's own copies), taken as they are."""
        t = object.__new__(cls)
        for name, a in zip(("A", "U", "B", "V", "c"), (A, U, B, V, c)):
            object.__setattr__(t, name, a)
        t._check_shapes()
        return t

    def _check_shapes(self):
        s, r = self.A.shape[0], self.V.shape[0]
        if self.A.shape != (s, s) or self.U.shape != (s, r) \
                or self.V.shape != (r, r):
            raise ValueError("inconsistent tableau block shapes")
        if self.B.shape != (r, s) or self.c.shape != (s,):
            raise ValueError("inconsistent tableau block shapes")

    @property
    def s(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True, eq=False)
class ImexGlmMethod:
    """IMEX pair: explicit (A, B) and implicit (Ahat, Bhat) parts over one
    U, one V = e v^T and one c, plus starting weights.  Pairs compare and
    hash by identity, since their fields are arrays.

    V is built from v, so the parts cannot disagree on U, V or c; explicit
    and implicit are read-only GlmTableau views for code that takes one
    tableau.  Q and Qhat weigh the r + 1 scaled derivatives the starting
    procedure forms: column k weights h^k d^k/dt^k of the nonstiff (Q) and
    stiff (Qhat) contributions to the initial external vector.
    """

    name: str
    c: np.ndarray          # (s,) abscissae
    U: np.ndarray          # (s, r) external -> stage
    v: np.ndarray          # (r,) V = e v^T
    A: np.ndarray          # (s, s) explicit, strictly lower triangular
    B: np.ndarray          # (r, s) explicit stage -> external
    Ahat: np.ndarray       # (s, s) implicit, lower triangular
    Bhat: np.ndarray       # (r, s) implicit stage -> external
    Q: np.ndarray          # (r, r + 1)
    Qhat: np.ndarray       # (r, r + 1)
    explicit: GlmTableau = field(init=False, repr=False, compare=False)
    implicit: GlmTableau = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("c", "U", "v", "A", "B", "Ahat", "Bhat", "Q", "Qhat"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        V = np.outer(np.ones(self.v.size), self.v)
        V.setflags(write=False)
        # the views share the pair's read-only blocks and check their shapes
        object.__setattr__(self, "explicit",
                           GlmTableau._over(self.A, self.U, self.B, V, self.c))
        object.__setattr__(self, "implicit",
                           GlmTableau._over(self.Ahat, self.U, self.Bhat, V, self.c))
        # the stepper and the stability code read only the lower triangles
        if np.triu(self.A).any():
            raise ValueError(f"{self.name}: explicit A must be strictly lower triangular")
        if np.triu(self.Ahat, 1).any():
            raise ValueError(f"{self.name}: implicit A must be lower triangular")
        for name, W in (("Q", self.Q), ("Qhat", self.Qhat)):
            if W.shape != (self.r, self.r + 1):
                raise ValueError(f"{self.name}: starting weights {name} have shape "
                                 f"{W.shape}, expected (r, r + 1) with r = {self.r}")

    @property
    def s(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.v.size

    @property
    def V(self) -> np.ndarray:
        """(r, r) external propagation e v^T."""
        return self.explicit.V

    @property
    def lam(self) -> float:
        """Constant diagonal of the implicit stage matrix."""
        return float(self.Ahat[0, 0])

    @property
    def is_additive_rk(self) -> bool:
        """One external value whose starting weights vanish past column 0:
        an additive RK pair.  Its start is y^[0] = y0 itself, with no f or g
        evaluation, and that value is the solution at the end of a step."""
        return self.r == 1 and not (self.Q[:, 1:].any() or self.Qhat[:, 1:].any())


class NodalPolynomialTable(NamedTuple):
    """Values and integrals of the nodal basis phi_j over the abscissae.

    phi_norm[j]          phi_j(c_j)
    value_shift[i, j]    phi_j(1 + c_i)
    integral_shift[i, j] int_0^{1+c_i} phi_j(x) dx
    integral_node[i, j]  int_0^{c_i}   phi_j(x) dx
    """

    phi_norm: np.ndarray
    value_shift: np.ndarray
    integral_shift: np.ndarray
    integral_node: np.ndarray


def nodal_polynomials(c) -> NodalPolynomialTable:
    """Tabulate phi_j(x) = prod_{k != j}(x - c_k) at the points the order
    conditions need.

    Polynomials are expanded to monomial coefficients and integrated
    analytically; no quadrature is involved.
    """
    c = np.asarray(c, dtype=float)
    s = c.size
    spread = max(1.0, float(np.max(np.abs(c)))) if s else 1.0
    for i in range(s):
        for j in range(i + 1, s):
            if abs(c[i] - c[j]) <= 1e-12 * spread:
                raise DistinctNodesError(
                    f"abscissae c[{i}]={c[i]!r} and c[{j}]={c[j]!r} coincide"
                )

    phi_norm = np.empty(s)
    value_shift = np.empty((s, s))
    integral_shift = np.empty((s, s))
    integral_node = np.empty((s, s))
    for j in range(s):
        # monomial form, highest power first; s = 1 gives the constant 1
        coeffs = np.atleast_1d(np.poly(np.delete(c, j)))
        anti = np.polyint(coeffs)          # antiderivative vanishing at 0
        phi_norm[j] = np.polyval(coeffs, c[j])
        value_shift[:, j] = np.polyval(coeffs, 1.0 + c)
        integral_shift[:, j] = np.polyval(anti, 1.0 + c)
        integral_node[:, j] = np.polyval(anti, c)
    return NodalPolynomialTable(phi_norm, value_shift, integral_shift, integral_node)


def dimsim_b_relation(c, v):
    """The map A -> B = B0 - A B1 - V B2 + V A of the order conditions for
    a DIMSIM with abscissae c and V = e v^T.  The parts that do not depend
    on A are computed once, so a search over A pays two products per B."""
    c = np.asarray(c, dtype=float)
    tab = nodal_polynomials(c)
    B0 = tab.integral_shift / tab.phi_norm
    B1 = tab.value_shift / tab.phi_norm
    V = np.outer(np.ones(c.size), v)
    VB2 = V @ (tab.integral_node / tab.phi_norm)
    return lambda A: B0 - A @ B1 - VB2 + V @ A


def dimsim_b_matrix(A, c, v) -> np.ndarray:
    """Coefficient block B pinned by the order conditions for a DIMSIM
    with stage matrix A, abscissae c and rank-one V = e v^T.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    s = c.size
    if A.shape != (s, s) or v.shape != (s,):
        raise ValueError("A must be (s, s) and v length s to match c")
    return dimsim_b_relation(c, v)(A)


def starting_weight_matrix(A, c, p) -> np.ndarray:
    """Weights Q with columns q_0 = e and q_k = c^k/k! - A c^{k-1}/(k-1)!.

    Row i gives the derivative expansion the i-th external value carries;
    shape (s, p + 1).
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    s = c.size
    Q = np.empty((s, p + 1))
    Q[:, 0] = 1.0
    for k in range(1, p + 1):
        Q[:, k] = c**k / factorial(k) - A @ (c ** (k - 1)) / factorial(k - 1)
    return Q


@dataclass
class ValidationCheck:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.residual) and self.residual <= self.tol)


@dataclass
class MethodValidationReport:
    method: str
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [ch for ch in self.checks if not ch.passed]

    def summary(self) -> str:
        lines = [f"method {self.method}: {'OK' if self.passed else 'FAILED'}"]
        for ch in self.checks:
            mark = "pass" if ch.passed else "FAIL"
            lines.append(f"  [{mark}] {ch.name}: residual {ch.residual:.3e} (tol {ch.tol:.1e})")
        return "\n".join(lines)


STRUCTURAL_TOL = 1e-12
ORDER_CONDITION_TOL = 1e-8


def validate_method(m: ImexGlmMethod, tol: float = STRUCTURAL_TOL) -> MethodValidationReport:
    """Check structural and order-condition consistency of an IMEX pair.

    Structural residuals (implicit diagonal, U = I, preconsistency) are
    held to `tol`; the recomputed-B checks use the looser
    ORDER_CONDITION_TOL since published coefficients carry about 15 digits
    and the B relation amplifies their rounding.  Triangularity is not
    reported, since ImexGlmMethod rejects a pair without it, and nor is
    agreement of the two parts on U, V and c, which it stores once.
    """
    rep = MethodValidationReport(method=m.name)
    add = rep.checks.append
    s, r = m.s, m.r
    A, Ah = m.A, m.Ahat

    add(ValidationCheck("square family (r = s)", float(abs(r - s)), 0.0))
    diag = np.diag(Ah)
    add(ValidationCheck("implicit diagonal constant", float(np.ptp(diag)), tol))
    add(ValidationCheck("implicit diagonal positive", float(max(0.0, -diag.min())), 0.0))

    add(ValidationCheck("U = I", float(np.abs(m.U - np.eye(s, r)).max()), tol))
    add(ValidationCheck("preconsistency sum(v) = 1", float(abs(m.v.sum() - 1.0)), tol))

    cs = m.c
    mono = float(max(0.0, -np.diff(cs).min())) if s > 1 else 0.0
    add(ValidationCheck("abscissae increasing", mono, 0.0))
    add(ValidationCheck("c starts at 0", float(abs(cs[0])), tol))
    if s > 1:
        add(ValidationCheck("c ends at 1", float(abs(cs[-1] - 1.0)), tol))

    try:
        B_ref = dimsim_b_matrix(A, cs, m.v)
        Bh_ref = dimsim_b_matrix(Ah, cs, m.v)
        add(ValidationCheck("explicit B solves order conditions",
                            float(np.abs(m.B - B_ref).max()), ORDER_CONDITION_TOL))
        add(ValidationCheck("implicit B solves order conditions",
                            float(np.abs(m.Bhat - Bh_ref).max()), ORDER_CONDITION_TOL))
    except ValueError:
        # coincident abscissae, or a pair outside the square family (an
        # additive RK pair has r = 1 < s)
        add(ValidationCheck("explicit B solves order conditions", np.inf, ORDER_CONDITION_TOL))
        add(ValidationCheck("implicit B solves order conditions", np.inf, ORDER_CONDITION_TOL))

    for label, Qm, Am in (("Q", m.Q, A), ("Qhat", m.Qhat, Ah)):
        # the weights have s rows; a pair with r != s cannot carry them
        want = starting_weight_matrix(Am, cs, r)
        res = float(np.abs(Qm - want).max()) if Qm.shape == want.shape else np.inf
        add(ValidationCheck(f"starting weights {label}", res, tol))
    add(ValidationCheck("Q column 0 all ones", float(np.abs(m.Q[:, 0] - 1.0).max()), tol))
    add(ValidationCheck("Qhat column 0 all ones", float(np.abs(m.Qhat[:, 0] - 1.0).max()), tol))
    return rep


# ---------------------------------------------------------------------------
# serialization: decimal strings with >= 17 significant digits so that
# write -> read round-trips binary64 exactly

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_array(a) -> list:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return [_fmt(x) for x in a]
    return [[_fmt(x) for x in row] for row in a]


def _read_json_object(path) -> dict:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MethodFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise MethodFileError(f"{path}: expected a JSON object")
    return d


def _parse_array(obj, shape, what: str) -> np.ndarray:
    try:
        a = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MethodFileError(f"field {what!r} is not numeric") from exc
    if a.shape != shape:
        raise MethodFileError(f"field {what!r} has shape {a.shape}, expected {shape}")
    return a


# the method file's array fields, in file order
_FILE_ARRAYS = ("c", "A", "Ahat", "B", "Bhat", "v", "Q", "Qhat")


def method_to_dict(m: ImexGlmMethod) -> dict:
    """The method file's fields.  The file stores no U: method_from_dict
    rebuilds U = I, so a pair with another U (an additive RK pair has
    U = e) is refused."""
    if not np.array_equal(m.U, np.eye(m.s, m.r)):
        raise ValueError(f"{m.name}: a method file holds only pairs with "
                         "U = I, V = e v^T")
    d = {"name": m.name, "s": m.s, "r": m.r}
    d.update((k, _fmt_array(getattr(m, k))) for k in _FILE_ARRAYS)
    return d


def method_from_dict(d: dict) -> ImexGlmMethod:
    """A GLM pair from a parsed method file.  Other keys are ignored, so
    a file that still carries the p and q of older versions loads."""
    required = ["name", "s", "r", *_FILE_ARRAYS]
    missing = [k for k in required if k not in d]
    if missing:
        raise MethodFileError(f"method file missing fields: {missing}")
    try:
        s, r = int(d["s"]), int(d["r"])
    except (TypeError, ValueError) as exc:
        raise MethodFileError("s and r must be integers") from exc
    shapes = ((s,), (s, s), (s, s), (r, s), (r, s), (r,), (r, r + 1), (r, r + 1))
    arrays = {k: _parse_array(d[k], shape, k) for k, shape in zip(_FILE_ARRAYS, shapes)}
    try:
        return ImexGlmMethod(name=str(d["name"]), U=np.eye(s, r), **arrays)
    except ValueError as exc:
        raise MethodFileError(str(exc)) from exc


_ARK_ABSCISSAE_TOL = 1e-10


def ark_method_from_dict(d: dict, source) -> ImexGlmMethod:
    """An additive RK pair, as a one-value GLM pair, from the parsed JSON
    object of an ARK coefficient file; source (the file's path) names the
    file in errors and gives the default name.

    Numbers may be decimal strings or plain JSON numbers.  The stated
    abscissae must match the row sums of both coupling matrices; a mismatch
    is rejected naming the offending stage, since silently inconsistent
    stage times is the classic transcription failure for these tables.
    """
    required = ["sigma", "c", "A_explicit", "b_explicit", "A_implicit", "b_implicit"]
    missing = [k for k in required if k not in d]
    if missing:
        raise MethodFileError(f"{source}: ARK file missing fields: {missing}")
    try:
        sigma = int(d["sigma"])
    except (TypeError, ValueError) as exc:
        raise MethodFileError("sigma must be an integer") from exc

    c = _parse_array(d["c"], (sigma,), "c")
    Ae = _parse_array(d["A_explicit"], (sigma, sigma), "A_explicit")
    be = _parse_array(d["b_explicit"], (sigma,), "b_explicit")
    Ai = _parse_array(d["A_implicit"], (sigma, sigma), "A_implicit")
    bi = _parse_array(d["b_implicit"], (sigma,), "b_implicit")

    try:
        m = additive_rk_pair(str(d.get("name", Path(source).stem)),
                             c, Ae, be, Ai, bi)
    except ValueError as exc:
        raise MethodFileError(f"{source}: {exc}") from exc
    for label, A in (("explicit", Ae), ("implicit", Ai)):
        rowsum = A.sum(axis=1)
        bad = np.nonzero(np.abs(rowsum - c) > _ARK_ABSCISSAE_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise MethodFileError(
                f"{label} abscissae mismatch at stage {i}: "
                f"row sum {rowsum[i]!r} vs c[{i}]={c[i]!r}"
            )
    return m


def save_method(m: ImexGlmMethod, path) -> None:
    d = method_to_dict(m)      # before opening, so a refusal writes nothing
    with open(path, "w") as fh:
        json.dump(d, fh, indent=1)
        fh.write("\n")


def load_method(path) -> ImexGlmMethod:
    """Read a method file: an additive RK pair if it has a `sigma` field,
    a GLM pair otherwise."""
    d = _read_json_object(path)
    return ark_method_from_dict(d, path) if "sigma" in d else method_from_dict(d)


def imex_dimsim(name: str, c, A, Ahat, v) -> ImexGlmMethod:
    """Assemble an IMEX DIMSIM pair from its free parameters.

    B blocks and starting weights are derived from (A, c, v); use this for
    constructed methods.  Published methods keep their printed coefficients.
    """
    c = np.asarray(c, dtype=float)
    return ImexGlmMethod(
        name=name, c=c, U=np.eye(c.size), v=v,
        A=A, B=dimsim_b_matrix(A, c, v),
        Ahat=Ahat, Bhat=dimsim_b_matrix(Ahat, c, v),
        Q=starting_weight_matrix(A, c, c.size),
        Qhat=starting_weight_matrix(Ahat, c, c.size),
    )


def additive_rk_pair(name: str, c, A_explicit, b_explicit, A_implicit,
                     b_implicit) -> ImexGlmMethod:
    """An additive (IMEX) Runge-Kutta pair as a one-value GLM pair:
    U = e, V = [[1]], B = b_explicit^T, Bhat = b_implicit^T, v = [1], and
    Q = Qhat = [[1, 0]], which makes the starting procedure the identity
    (ImexGlmMethod.is_additive_rk)."""
    Q = np.array([[1.0, 0.0]])
    return ImexGlmMethod(
        name=name, c=c, U=np.ones((len(c), 1)), v=np.ones(1),
        A=A_explicit, B=np.asarray(b_explicit)[None, :],
        Ahat=A_implicit, Bhat=np.asarray(b_implicit)[None, :],
        Q=Q, Qhat=Q,
    )
