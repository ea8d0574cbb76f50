"""Linear stability machinery for IMEX GLM pairs.

The coupled stability matrix on the split scalar test problem
y' = xi y + xihat y (w = h xi nonstiff, what = h xihat stiff) is

    M(w, what) = V + (w B + what Bhat) (I - w A - what Ahat)^{-1} U,

and a nonstiff value w belongs to the constrained region S_alpha when
rho(M(w, what)) < 1 for every stiff value what in a sector of half-angle
alpha around the negative real axis.  Sector membership is probed on a
finite grid of magnitudes and angles (StabilityQuery); region boundaries
are traced by bisection on vertical lines in the upper half-plane and
areas by the trapezoidal rule, doubled by conjugation symmetry.

Every search runs in batched decisions, each over points x stiff points.
The leftmost real-axis crossing decides all its seeds and doublings at
once, then bisects several levels per decision; all lines are bisected in
lockstep, one decision per level over compact arrays of the lines still
open.  rho(M) < 1 is decided without
eigenvalues or per-point linear solves.  For a fixed stiff point,

    Q(z; v) = det(E) det(zI - M) = det [[E, -U], [-W, zI - V]],

with E = I - wA - what*Ahat and W = wB + what*Bhat, is a polynomial of
degree <= s in the line variable v (w, or what on the implicit component)
and r in z (Jackiewicz, General Linear Methods for ODEs, 2009).  Its
coefficients are interpolated once per region: E is lower triangular, so
det(E) is the product of its diagonal and E^{-1} U a forward substitution,
and each stiff point's coefficients are scaled by a power of two (exact)
so that the Schur-Cohn products cannot overflow however large |what| is.
Q has degree <= s in what too, so when the grid's rings |what| = rho hold
many angles (_RING_MIN_ANGLES: the default query, not the optimizer's
coarse one nor the boundary rays) the set-up evaluates Q at s + 1 points
per ring and interpolates it to the ring's grid points, with det(E) still
set per point.
A decision evaluates them at every v with one matmul and runs the
Schur-Cohn test on the resulting polynomials in z, in place, in one
workspace.  Points where E is singular, so that the leading coefficient
det(E) vanishes, count as unstable.

Most of a large decision's w fail at a few stiff points, and one failure
decides.  So once a batch is large (_SCREEN_MIN_COEFFS: the dimsim pairs'
line decisions on the default query and larger queries, never the
optimizer's coarse query), every w is first tested at the 16 stiff points
that failed most often in the decider's earlier full tests, and only the
survivors are tested on the whole grid.  The counts are those of the
unscreened test, plus the number of w the screen alone put outside.

optimize_explicit_component scores each distinct candidate once: a
candidate met again (each Nelder-Mead polish starts at a point already
scored) reuses its area and counts, but still counts against the budget.

All of this is numpy alone; only optimize_explicit_component imports
scipy.optimize, on its first call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tableau import (
    GlmTableau,
    ImexGlmMethod,
    MethodValidationReport,
    ValidationCheck,
    dimsim_b_relation,
    starting_weight_matrix,
)

DEFAULT_STIFF_MAGNITUDES = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)


class SingularStabilityError(RuntimeError):
    """I - wA - what*Ahat (or I - zA) is singular at the requested point."""


@dataclass(frozen=True)
class StabilityQuery:
    """Grid and bisection parameters for constrained-region computations.

    A query is hashable, so its layout (rings, stiff_grid) is computed once
    per sector half-angle and shared, as read-only arrays."""

    stiff_magnitudes: tuple = DEFAULT_STIFF_MAGNITUDES
    n_angles: int = 33
    alpha: float = math.pi / 2
    tol: float = 1e-3
    y_top: float = 8.0
    n_lines: int = 30

    def __post_init__(self):
        object.__setattr__(self, "stiff_magnitudes", tuple(self.stiff_magnitudes))
        # a NaN or non-positive tol or y_top traces an empty region, and an
        # infinite one a bisection that never closes
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("bisection tolerance must be positive and finite")
        if not (math.isfinite(self.y_top) and self.y_top > 0):
            raise ValueError("y_top must be positive and finite")
        if 0.0 not in self.stiff_magnitudes:
            raise ValueError("stiff magnitude grid must contain 0")
        if self.n_angles < 1 or self.n_lines < 2:
            raise ValueError("need at least one angle and two vertical lines")

    def angles(self) -> np.ndarray:
        return np.linspace(-math.pi / 2, math.pi / 2, self.n_angles)

    def rings(self, alpha: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The stiff grid's layout: its nonzero magnitudes rho and its
        angles theta with |theta| <= alpha, for alpha in [0, pi/2]."""
        return _layout(self, self.alpha if alpha is None else alpha)[:2]

    def stiff_grid(self, alpha: float | None = None) -> np.ndarray:
        """Stiff test values -rho e^{i theta} with |theta| <= alpha, plus 0."""
        return _layout(self, self.alpha if alpha is None else alpha)[2]


@functools.lru_cache(maxsize=64)
def _layout(q: StabilityQuery, alpha: float):
    """(mags, th, grid) of q.rings and q.stiff_grid, read-only.  An alpha
    outside [0, pi/2] (with 1e-12 slack) would leave only what = 0 on the
    grid, or be taken as pi/2, so it is refused."""
    if not -1e-12 <= alpha <= math.pi / 2 + 1e-12:
        raise ValueError(f"sector half-angle alpha={alpha!r} outside [0, pi/2]")
    th = q.angles()
    th = th[np.abs(th) <= alpha + 1e-12]
    mags = np.array([m for m in q.stiff_magnitudes if m > 0.0])
    return tuple(map(_read_only, (mags, th, _ring_points(mags, th))))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ring_points(mags: np.ndarray, th: np.ndarray) -> np.ndarray:
    """0, then -rho e^{i theta} over mags x th, magnitude by magnitude."""
    pts = (-mags[:, None] * np.exp(1j * th[None, :])).ravel()
    return np.concatenate(([0.0 + 0.0j], pts))


# the optimizer's query, coarse so a 2000-evaluation budget takes minutes
COARSE_QUERY = StabilityQuery(stiff_magnitudes=(0.0, 1e-2, 1.0, 100.0),
                              n_angles=9, tol=5e-3, y_top=8.0, n_lines=12)


def glm_stability_matrix(t: GlmTableau, z: complex) -> np.ndarray:
    """M(z) = V + z B (I - zA)^{-1} U for a single tableau."""
    s = t.s
    try:
        X = np.linalg.solve(np.eye(s) - z * t.A, t.U.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularStabilityError(f"I - zA singular at z={z}") from exc
    return t.V + z * t.B @ X


def imex_stability_matrix(m: ImexGlmMethod, w: complex, what: complex) -> np.ndarray:
    """M(w, what) = V + (wB + what*Bhat)(I - wA - what*Ahat)^{-1} U."""
    try:
        return _pair_matrices_batch(m, w, [what])[0]
    except np.linalg.LinAlgError as exc:
        raise SingularStabilityError(f"I - wA - what*Ahat singular at ({w}, {what})") from exc


def spectral_radius(M) -> float:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    if M.shape[0] > 16:
        raise ValueError("dense eigenvalue path is sized for matrices <= 16x16")
    return float(np.abs(np.linalg.eigvals(M)).max())


def _pair_blocks(m: ImexGlmMethod, w, whats):
    """E = I - wA - what*Ahat and W = wB + what*Bhat over the stiff values:
    E of shape (P, s, s) for a scalar w, (L, P, s, s) for w of shape (L,)."""
    w = np.asarray(w, dtype=complex)[..., None, None, None]
    whats = np.asarray(whats, dtype=complex).ravel()[:, None, None]
    return np.eye(m.s) - w * m.A - whats * m.Ahat, w * m.B + whats * m.Bhat


def _pair_matrices_batch(m: ImexGlmMethod, w, whats: np.ndarray) -> np.ndarray:
    """Stacked M(w, what) over the stiff values, one LAPACK call: shape
    (P, r, r) for a scalar w, (L, P, r, r) for w of shape (L,)."""
    E, W = _pair_blocks(m, w, whats)
    U = np.broadcast_to(m.U.astype(complex), E.shape[:-1] + (m.r,))
    return m.V + W @ np.linalg.solve(E, U)


def _block_charpoly(E: np.ndarray, W: np.ndarray, U: np.ndarray,
                    V: np.ndarray) -> np.ndarray:
    """det [[E, -U], [-W, zI - V]] for each (E, W) of a stack, as
    coefficients in z, highest degree first, interpolated at the (r + 1)th
    roots of unity.  Unlike det(E) det(zI - M) it needs no inverse of E."""
    s, r = E.shape[-1], V.shape[-1]
    z = np.exp(2j * np.pi * np.arange(r + 1) / (r + 1))[:, None, None]
    K = np.zeros(E.shape[:-2] + (r + 1, s + r, s + r), dtype=complex)
    K[..., :s, :s] = E[..., None, :, :]
    K[..., :s, s:] = -U
    K[..., s:, :s] = -W[..., None, :, :]
    K[..., s:, s:] = z * np.eye(r) - V
    return np.fft.fft(np.linalg.det(K), axis=-1)[..., ::-1] / (r + 1)


def _pair_charpolys(m: ImexGlmMethod, w, whats) -> np.ndarray:
    """det(E) det(zI - M(w, what)) as coefficients in z, highest degree
    first, stacked (..., P, r + 1) as in _pair_matrices_batch.

    E = I - wA - what*Ahat is lower triangular (ImexGlmMethod holds A
    strictly lower and Ahat lower triangular), so det(E) is the product of
    its diagonal and E^{-1} U comes from forward substitution, one einsum
    per row over the whole stack.  Where E is singular (a diagonal entry is
    an exact 0) M does not exist; there the polynomial is the block
    determinant of _block_charpoly, with its leading coefficient det(E) set
    to an exact 0 so the point decides unstable and is tallied singular."""
    E, W = _pair_blocks(m, w, whats)
    U, V = m.U.astype(complex), m.V
    diag = np.diagonal(E, axis1=-2, axis2=-1)
    det = diag.prod(axis=-1)
    ok = det != 0.0
    X = np.empty(E.shape[:-1] + (m.r,), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(m.s):
            row = U[i] - np.einsum("...j,...jk->...k", E[..., i, :i], X[..., :i, :])
            np.divide(row, diag[..., i, None], out=X[..., i, :])
        Q = _charpoly(V + W @ X) * det[..., None]
    if not ok.all():
        Q[~ok] = _block_charpoly(E[~ok], W[~ok], U, V)
        Q[~ok, 0] = 0.0
    return Q


def _ring_charpolys(m: ImexGlmMethod, w, mags: np.ndarray,
                    th: np.ndarray) -> np.ndarray:
    """_pair_charpolys(m, w, _ring_points(mags, th)) from s + 1 samples on
    each ring |what| = rho of mags.

    E and W are affine in what, so Q has degree <= s in what as well.  On
    a ring it is a polynomial in u = what / rho, fixed by its values at
    s + 1 points of the ring's arc u = -exp(i theta), |theta| <= max |th|
    (th is symmetric): the Chebyshev angles max |th| cos(pi k / s).  The
    grid's values are the samples' Lagrange sums, one (angles x samples)
    matrix for every ring and line node, applied in one matmul; its rows
    sum to at most 3.3 in magnitude on the built-in pairs (s <= 8).  On the
    arc Re(what) <= 0, so the samples stay as far from the poles
    what = 1 / ahat_ii (ahat_ii > 0) as the grid itself.  Samples on the
    whole ring pass near them: at the (s + 1)th roots of -1, dimsim5's
    coefficients at rho = 3.16 lose 2.5 digits against _pair_charpolys.

    The leading coefficient det(E) = prod(1 - what ahat_ii) (A strictly
    lower triangular) is set per point, bitwise as _pair_charpolys gives
    it, so flat leading rows and singular points read as they do there."""
    n = m.s + 1
    u = -np.exp(1j * np.abs(th).max() * np.cos(np.pi * np.arange(n) / m.s))
    others = ~np.eye(n, dtype=bool)
    num = np.where(others, (-np.exp(1j * th))[:, None, None] - u, 1.0)
    den = np.where(others, u[:, None] - u, 1.0)
    interp = num.prod(axis=-1) / den.prod(axis=-1)
    Q = _pair_charpolys(m, w, np.concatenate(([0.0], (mags[:, None] * u).ravel())))
    ring = Q[..., 1:, :].reshape(Q.shape[:-2] + (mags.size, n, Q.shape[-1]))
    out = np.concatenate([Q[..., :1, :], (interp @ ring).reshape(
        Q.shape[:-2] + (-1, Q.shape[-1]))], axis=-2)
    grid = _ring_points(mags, th)
    out[..., 0] = (1.0 - grid[:, None] * np.diagonal(m.Ahat)).prod(axis=-1)
    return out


def max_rho_over_stiff_grid(m: ImexGlmMethod, w: complex,
                            q: StabilityQuery | None = None,
                            alpha: float | None = None,
                            return_detail: bool = False):
    """max over the stiff grid of rho(M(w, what)), by eigenvalues.

    Singular grid points count as unstable (rho = +inf) and are tallied;
    pass return_detail=True to also get that tally.
    """
    q = q or StabilityQuery()
    grid = q.stiff_grid(alpha)
    n_singular = 0
    try:
        Ms = _pair_matrices_batch(m, w, grid)
        rhos = np.abs(np.linalg.eigvals(Ms)).max(axis=1)
    except np.linalg.LinAlgError:
        # some grid point is exactly singular; redo pointwise so the rest
        # of the grid still contributes
        vals = []
        for wh in grid:
            try:
                vals.append(spectral_radius(imex_stability_matrix(m, w, wh)))
            except SingularStabilityError:
                n_singular += 1
                vals.append(np.inf)
        rhos = np.array(vals)
    worst = float(rhos.max())
    if return_detail:
        return worst, n_singular
    return worst


def _charpoly(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(zI - M), highest degree first, for each matrix
    of a stack (..., r, r): Newton's identities on the power sums tr(M^k),
    with tr(XY) = sum(X * Y^T) so only M^2 .. M^ceil(r/2) are formed."""
    r = M.shape[-1]
    powers = [M]
    while len(powers) < (r + 1) // 2:
        powers.append(powers[-1] @ M)
    sums = [np.trace(M, axis1=-2, axis2=-1)]
    for k in range(2, r + 1):
        X, Y = powers[(k + 1) // 2 - 1], powers[k // 2 - 1]
        sums.append((X * np.swapaxes(Y, -1, -2)).sum(axis=(-2, -1)))
    coef = [np.ones_like(sums[0])]
    for k in range(1, r + 1):
        coef.append(-sum(coef[j] * sums[k - 1 - j] for j in range(k)) / k)
    return np.stack(coef, axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _schur_cohn(a: np.ndarray) -> np.ndarray:
    """Whether every zero of a[0] z^r + ... + a[r] lies in the open unit
    disk, for each polynomial of a stack with its coefficients on axis 0.

    The Schur-Cohn reduction p <- (conj(a_0) p - a_r p*) / z keeps every
    zero in the open unit disk iff |a_0| > |a_r| at each of its r steps
    (Marden, Geometry of Polynomials, 1966; Miller 1971), so a vanishing
    leading coefficient fails at once.

    The reduction overwrites a in place and needs one workspace of a's
    size: conj(a_0) in its last slab, a_r times the conjugated reversed
    coefficients in the others.  No step allocates, and each reduced
    coefficient takes its operands in the order of
    conj(a_0) * a[:-1] - a_r * conj(a[:0:-1]), so it is bitwise the value
    of that expression.  The last reduction, whose one coefficient no test
    reads, is skipped.
    """
    work = np.empty_like(a)
    lead_conj, rev = work[-1], work[:-1]
    mags = np.empty((2,) + a.shape[1:])
    step = np.empty(a.shape[1:], dtype=bool)
    stable = np.ones(a.shape[1:], dtype=bool)
    for deg in range(a.shape[0] - 1, 0, -1):   # a[:deg + 1] is the polynomial
        lead, const = a[0], a[deg]
        np.abs(lead, out=mags[0])
        np.abs(const, out=mags[1])
        np.greater(mags[0], mags[1], out=step)
        stable &= step
        if deg == 1:
            break
        # the dropped last term, conj(lead) const - const conj(lead), is 0
        np.conjugate(lead, out=lead_conj)
        np.conjugate(a[deg:0:-1], out=rev[:deg])
        np.multiply(const, rev[:deg], out=rev[:deg])
        np.multiply(lead_conj, a[:deg], out=a[:deg])
        np.subtract(a[:deg], rev[:deg], out=a[:deg])
    return stable


# Interpolation nodes of the line polynomials lie on this circle.  Any
# radius from 1 to 4 gives the same decisions on the built-in methods.
_NODE_RADIUS = 2.0

# A decision whose full stack would hold at least _SCREEN_MIN_COEFFS
# coefficients, L w values x P stiff points x (r + 1), is screened: every w
# is first tested at the _HOT_POINTS stiff points that failed most often in
# the decider's earlier full tests, and only the w that pass there get the
# full grid.  One unstable stiff point puts w outside, so the screen only
# rejects w that the full test rejects, and the survivors are decided as a
# batch of their own would be.  (BLAS may round a matmul column differently
# with the batch's width, so a w at rho = 1 within rounding can decide
# differently in different batches, screened or not; on every batch of the
# tested areas both versions agree.)
#
# The threshold is measured, on one core at P = 232 (the default query): a
# screened batch of 29 bisection midpoints is faster for dimsim4 and
# dimsim5 (34,000 and 40,000 coefficients), one of 15 about breaks even,
# and ark4's lines (r = 1: 13,500) gain nothing, so the count includes
# r + 1.  Thresholds from 15,000 to 30,000 gave the same default-query
# areas within noise; 10,000 slowed ark4's default-query decisions by a
# fifth.  8, 16 and 32 hot points were within noise of each other.
_HOT_POINTS = 16
_SCREEN_MIN_COEFFS = 20000

# A pair grid with at least _RING_MIN_ANGLES (s + 1) angles per magnitude
# is set up per ring (_ring_charpolys): s + 1 samples per ring in place of
# one per grid point, plus one small interpolation matmul.  Measured on one
# core, the set-up breaks even at about 7 angles for dimsim4 and dimsim5 on
# the default magnitudes (8 to 9 on the coarse query's three) and at about
# 14 for ark4, whose r = 1 leaves little per point to save (over 17 on
# three magnitudes).  Near 2 (s + 1) angles the rings take 0.5-0.9 of the
# dimsim set-up time and 0.9-1.2 of ark4's; on the default query's 33
# angles, 0.28 (dimsim4), 0.25 (dimsim5) and 0.82 (ark4).
_RING_MIN_ANGLES = 2


@functools.cache
def _line_nodes(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The line variable's interpolation nodes of _stability_decider, 0 and
    then R exp(i pi (2q + 1) / s), q < s, and the FFT's scale s v_1^k,
    k < s, shaped to divide its (s, P, r + 1) output; read-only."""
    nodes = _NODE_RADIUS * np.exp(1j * np.pi * (2 * np.arange(s) + 1) / s)
    scale = (s * nodes[0] ** np.arange(s))[:, None, None]
    return _read_only(np.concatenate(([0.0], nodes))), _read_only(scale)


def _stability_decider(m: ImexGlmMethod, q: StabilityQuery, alpha: float,
                       component: str):
    """Batched membership test for the coupled region or a pure component.

    Returns (inside, counts): inside(ws) -> bool[L] decides rho(M) < 1 at
    every stiff grid point for all L values ws in one call.  The explicit
    component is M(w, 0) and the implicit one M(0, z), the matrices of
    glm_stability_matrix since the pair shares (U, V, c).

    Per stiff point, Q(z; v) = det(E) det(zI - M) has degree <= s in the
    line variable v, so its coefficients are found here once: the constant
    term is Q(0) itself, the others come from (Q(v_q) - Q(0)) / v_q at s
    nodes v_q = R exp(i pi (2q + 1) / s) by one FFT.  The half-step turn
    keeps the nodes off the positive real axis, where the implicit poles
    what = 1/lambda lie.  A decision is then one matmul of the powers of v
    against them and the Schur-Cohn test; a point whose leading
    coefficient det(E) is 0 is singular and counts as unstable.

    The values Q(v_q) come per ring: on a pair grid with at least
    _RING_MIN_ANGLES (s + 1) angles per magnitude, from s + 1 samples in
    what on each ring (_ring_charpolys), otherwise from every grid point
    (_pair_charpolys).

    A large batch is screened at the hot stiff points first (see
    _SCREEN_MIN_COEFFS).  counts tallies calls, points decided, singular
    points and the w that the screen alone decided outside.
    """
    if component == "pair":
        mags, th, grid = _layout(q, alpha)
    elif component in ("explicit", "implicit"):
        grid = np.zeros(1, dtype=complex)
    else:
        raise ValueError(f"unknown region component {component!r}")
    s, r, P = m.s, m.r, grid.size
    v, scale = _line_nodes(s)
    if component == "implicit":
        Q = _pair_charpolys(m, 0.0, v)[:, None]
    elif component == "pair" and th.size >= _RING_MIN_ANGLES * (s + 1):
        Q = _ring_charpolys(m, v, mags, th)
    else:
        Q = _pair_charpolys(m, v, grid)
    # Q: (s + 1, P, r + 1); the line coefficients of degree 1..s from an FFT
    D = np.fft.fft((Q[1:] - Q[0]) / v[1:, None, None], axis=0)
    D /= scale
    # coefficient-major layout: row j * P + p holds z^(r - j) at point p
    C = np.concatenate([Q[:1], D]).transpose(2, 1, 0)
    # a power of two per stiff point brings its largest coefficient into
    # [1/2, 1): exact, and it keeps the Schur-Cohn products, which square
    # the coefficients' magnitude at every step, from overflowing
    _, e = np.frexp(np.abs(C).max(axis=(0, 2)))
    C = (C * np.ldexp(1.0, -e)[:, None]).reshape(-1, s + 1)
    counts = {"decisions": 0, "matrices": 0, "singular": 0, "screened": 0}
    # det(E) does not depend on w when A is strictly lower triangular, so on
    # the pair and explicit components every leading row is (det E, 0, ...,
    # 0) and reads det E exactly at any finite w; singular points are then
    # counted from those rows, screened or not, without evaluating them
    flat = not C[:P, 1:].any()
    n_singular = int(np.count_nonzero(C[:P, 0] == 0.0))
    # the screen's state: failures per stiff point in the full tests so far,
    # and the rows of C at the _HOT_POINTS points that failed most often
    fails = np.zeros(P, dtype=np.int64)
    hot_rows = C[:0]

    def inside(ws) -> np.ndarray:
        ws = np.asarray(ws, dtype=complex).ravel()
        L = ws.size
        vt = np.vander(ws, s + 1, increasing=True).T
        counts["decisions"] += 1
        counts["matrices"] += L * P
        if flat:
            counts["singular"] += n_singular * L
            if L * C.shape[0] >= _SCREEN_MIN_COEFFS:
                return screened(vt)
        a = (C @ vt).reshape(r + 1, P, -1)
        if not flat:
            counts["singular"] += int(np.count_nonzero(a[0] == 0.0))
        return _schur_cohn(a).all(axis=0)

    def screened(vt) -> np.ndarray:
        nonlocal hot_rows
        L = vt.shape[1]
        ok = np.ones(L, dtype=bool)
        if hot_rows.size:
            ok = _schur_cohn((hot_rows @ vt).reshape(r + 1, -1, L)).all(axis=0)
            counts["screened"] += L - int(np.count_nonzero(ok))
        live = np.flatnonzero(ok)
        if live.size:
            stable = _schur_cohn((C @ vt[:, live]).reshape(r + 1, P, -1))
            ok[live] = stable.all(axis=0)
            fails[:] += live.size - np.count_nonzero(stable, axis=1)
            hot = np.argsort(-fails, kind="stable")[:_HOT_POINTS]
            hot = hot[fails[hot] > 0]
            hot_rows = C.reshape(r + 1, P, -1)[:, hot].reshape(-1, s + 1)
        return ok

    return inside, counts


def _bisect_lines(inside, xs: np.ndarray, q: StabilityQuery):
    """boundary_intersection for every x of xs, one decision per level
    over the lines still active.  Returns (y_bot, x inside) per line.

    The active lines' x and brackets are kept as compact arrays in
    ascending line order; a line's y_bot is written back when its bracket
    closes."""
    start = inside(xs.astype(complex))
    ys = np.zeros_like(xs)
    if not q.y_top > q.tol:
        return ys, start
    idx = np.flatnonzero(start)
    x = xs[idx]
    bot = np.zeros_like(x)
    top = np.full_like(x, q.y_top)
    while idx.size:
        mid = 0.5 * (bot + top)
        ok = inside(x + 1j * mid)
        bot = np.where(ok, mid, bot)
        top = np.where(ok, top, mid)
        live = top - bot > q.tol
        if not live.all():
            ys[idx[~live]] = bot[~live]
            idx, x, bot, top = idx[live], x[live], bot[live], top[live]
    return ys, start


class Intersection(NamedTuple):
    y: float
    inside: bool


def boundary_intersection(m: ImexGlmMethod, x: float,
                          q: StabilityQuery | None = None,
                          alpha: float | None = None,
                          component: str = "pair") -> Intersection:
    """Largest stable ordinate above x on a vertical line, by bisection.

    Starts from y_bot = 0, y_top = y_*, halves until the gap is below tol,
    and returns y_bot.  If x itself is not inside the region the result is
    (0, inside=False).
    """
    q = q or StabilityQuery()
    alpha = q.alpha if alpha is None else alpha
    inside, _ = _stability_decider(m, q, alpha, component)
    ys, start = _bisect_lines(inside, np.array([float(x)]), q)
    return Intersection(float(ys[0]), bool(start[0]))


@dataclass
class RegionBoundary:
    """Upper-half boundary trace of a stability region."""

    xs: np.ndarray
    ys: np.ndarray          # y >= 0, same length as xs
    x_b: float              # leftmost real-axis crossing (or cap if unbounded)
    alpha: float
    component: str = "pair"
    unbounded: bool = False
    counts: dict = field(default_factory=dict)   # see AreaResult

    def mirrored(self) -> np.ndarray:
        """(x, y_upper, y_lower) rows, lower half by conjugation symmetry."""
        return np.column_stack([self.xs, self.ys, -self.ys])


@dataclass
class AreaResult:
    area: float             # area_total: both half-planes, by symmetry
    area_upper: float
    area_total: float
    x_b: float
    alpha: float
    component: str = "pair"
    flagged_empty: bool = False
    unbounded: bool = False
    decisions: int = 0      # batched rho < 1 decisions, one per batch
    matrices: int = 0       # (w, what) points decided, one matrix M each,
                            # with the crossing search's unused ladder
                            # points and bisection branches
    singular: int = 0       # singular points met (counted unstable)
    screened: int = 0       # w decided outside by the hot-point screen alone


# Bisection levels of the real-axis crossing decided per batch.  A batch
# holds up to 2**depth - 1 midpoints; at 232 stiff points three levels cost
# about as much as three one-point decisions, four cost more.
_CROSSING_DEPTH = 3


def _leftmost_crossing(inside, tol: float, x_cap: float):
    """Leftmost real-axis point of the region, bisected to tol.

    Returns (x_b, unbounded) or None when no inside seed exists near the
    origin (empty region).  The origin itself sits on the boundary for any
    preconsistent method (rho(V) = 1), so seeding starts just left of it.

    The search makes batched decisions and returns, bit for bit, what a
    one-point search returns.  One decision covers the ladder -tol 2^k >= -x_cap: the seeds
    -tol 4^k are its even rungs, the first inside one is a, and the
    doublings 2^k a are the rungs past a, of which the first outside one
    (> -x_cap) is b; without one the region is unbounded.  [b, a] is then
    bisected _CROSSING_DEPTH levels per decision, every midpoint of those
    levels decided at once.
    """
    ladder, x = [], -tol
    while x >= -x_cap:
        ladder.append(x)
        x *= 2.0
    if not ladder:
        return None
    ok = inside(ladder)
    seeds = np.flatnonzero(ok[::2])
    if not seeds.size:
        return None
    k = 2 * int(seeds[0])
    a = ladder[k]
    outside = [x for x, x_ok in zip(ladder[k + 1:], ok[k + 1:])
               if x > -x_cap and not x_ok]
    if not outside:
        return -x_cap, True
    b = outside[0]
    while a - b > tol:
        # the brackets of the next levels in heap order: bracket n splits
        # at mids[n] into 2n + 1 (mid inside) and 2n + 2 (mid outside);
        # one within tol, or below one, is not split
        brackets, mids = [(a, b)], {}
        for n in range(2 ** _CROSSING_DEPTH - 1):
            if brackets[n] is None or brackets[n][0] - brackets[n][1] <= tol:
                brackets += [None, None]
                continue
            hi, lo = brackets[n]
            mids[n] = 0.5 * (hi + lo)
            brackets += [(mids[n], lo), (hi, mids[n])]
        ok = dict(zip(mids, inside(list(mids.values()))))
        n = 0
        while n in ok:
            n = 2 * n + (1 if ok[n] else 2)
        a, b = brackets[n]
    return a, False


def region_boundary_points(m: ImexGlmMethod,
                           q: StabilityQuery | None = None,
                           alpha: float | None = None,
                           component: str = "pair") -> RegionBoundary:
    """Trace the upper boundary on n_lines vertical lines in [x_b, 0]."""
    q = q or StabilityQuery()
    alpha = q.alpha if alpha is None else alpha
    inside, counts = _stability_decider(m, q, alpha, component)
    found = _leftmost_crossing(inside, q.tol, x_cap=4.0 * q.y_top)
    if found is None:
        return RegionBoundary(np.array([0.0]), np.array([0.0]), 0.0, alpha,
                              component, unbounded=False, counts=counts)
    x_b, unbounded = found
    xs = np.linspace(x_b, 0.0, q.n_lines)
    ys, _ = _bisect_lines(inside, xs, q)
    return RegionBoundary(xs, ys, x_b, alpha, component, unbounded, counts)


def constrained_region_area(m: ImexGlmMethod,
                            q: StabilityQuery | None = None,
                            alpha: float | None = None,
                            component: str = "pair",
                            workers: int = 1) -> tuple[AreaResult, RegionBoundary]:
    """Area of the constrained region S_alpha by the trapezoidal rule.

    The boundary is sampled on n_lines vertical lines between the leftmost
    real-axis crossing x_b and the origin; the upper-half trapezoid sum is
    reported alongside its doubling (conjugation symmetry).  workers is
    accepted for old callers and ignored: the lines are bisected in
    lockstep on one thread.
    """
    q = q or StabilityQuery()
    alpha = q.alpha if alpha is None else alpha
    boundary = region_boundary_points(m, q, alpha, component)
    empty = boundary.xs.size == 1 or boundary.x_b >= -q.tol
    upper = 0.0 if empty else float(np.trapezoid(boundary.ys, boundary.xs))
    res = AreaResult(2.0 * upper, upper, 2.0 * upper, boundary.x_b, alpha,
                     component, flagged_empty=empty,
                     unbounded=boundary.unbounded, **boundary.counts)
    return res, boundary


# ---------------------------------------------------------------------------
# stability property reports

def _charpoly_tail_residual(M: np.ndarray) -> float:
    """max |c_k|, k >= 2, of det(wI - M).

    For a method with inherited RK stability the polynomial collapses to
    w^{s-1}(w - R), so every coefficient past the trace vanishes; this
    residual measures that property without the eigenvalue splitting that
    a defective zero cluster suffers under coefficient rounding.
    """
    if M.shape[0] < 2:
        return 0.0
    return float(np.abs(_charpoly(M)[2:]).max())


def check_L_stability(t: GlmTableau, name: str = "",
                      seed: int = 0) -> MethodValidationReport:
    """A- and L-stability sampling report for an implicit tableau.

    (a) rho(M(iy)) <= 1 + 1e-12 for |y| in {10^k, k = -2..4} and on 200
    seeded random left-half-plane points; (b) rho(M(-10^k)) decreasing for
    k = 2..8 and rho(M(-1e8)) < 1e-5.  (b) can fail for two reasons.  A
    table that is L-stable in exact arithmetic but rounded to 15 digits
    keeps a floor near 1e-4 from its split defective zero eigenvalue
    (dimsim4: 2.3e-4 at z = -1e8 in 50-digit arithmetic).  A table that is
    not L-stable has a floor of its own (dimsim5: 0.053 in 50-digit
    arithmetic).  The report states residuals so either floor is visible.
    """
    rep = MethodValidationReport(method=name or "L-stability")
    axis_tol = 1e-12
    worst_axis = 0.0
    for k in range(-2, 5):
        for sgn in (1.0, -1.0):
            rho = spectral_radius(glm_stability_matrix(t, 1j * sgn * 10.0**k))
            worst_axis = max(worst_axis, rho - 1.0)
    rep.checks.append(ValidationCheck("imaginary axis rho <= 1", worst_axis, axis_tol))

    rng = np.random.default_rng(seed)
    worst_lhp = 0.0
    for _ in range(200):
        mag = 10.0 ** rng.uniform(-2.0, 4.0)
        ang = rng.uniform(math.pi / 2 + 1e-3, 3 * math.pi / 2 - 1e-3)
        z = mag * complex(math.cos(ang), math.sin(ang))
        try:
            rho = spectral_radius(glm_stability_matrix(t, z))
        except SingularStabilityError:
            rho = np.inf
        worst_lhp = max(worst_lhp, rho - 1.0)
    rep.checks.append(ValidationCheck("random left half-plane rho <= 1", worst_lhp, axis_tol))

    decay = [spectral_radius(glm_stability_matrix(t, -10.0**k)) for k in range(2, 9)]
    worst_rise = max(0.0, float(np.max(np.diff(decay))))
    rep.checks.append(ValidationCheck("rho(M(-10^k)) decreasing, k=2..8", worst_rise, 0.0))
    rep.checks.append(ValidationCheck("rho(M(-1e8)) < 1e-5", decay[-1], 1e-5))
    return rep


@dataclass
class IrksSample:
    z: complex
    small_magnitudes: np.ndarray   # the s-1 smallest |eigenvalue|
    R_empirical: complex           # the remaining eigenvalue
    charpoly_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.small_magnitudes.size == 0 or \
            float(self.small_magnitudes.max()) < self.threshold


@dataclass
class IrksReport:
    method: str
    threshold: float
    samples: list[IrksSample] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.samples)

    @property
    def worst_small_magnitude(self) -> float:
        vals = [float(s.small_magnitudes.max()) for s in self.samples
                if s.small_magnitudes.size]
        return max(vals) if vals else 0.0

    @property
    def worst_charpoly_residual(self) -> float:
        return max((s.charpoly_residual for s in self.samples), default=0.0)


IRKS_EIGENVALUE_TOL = 1e-6


def default_irks_samples(n: int = 20, seed: int = 0) -> list[complex]:
    """n left-half-plane sample points at O(0.1)..O(100) magnitudes."""
    fixed = [-1.0 + 0.0j, -1.0 + 2.0j, -0.1 + 0.0j]
    rng = np.random.default_rng(seed)
    out = list(fixed[:n])
    while len(out) < n:
        mag = 10.0 ** rng.uniform(-1.0, 2.0)
        ang = rng.uniform(math.pi / 2 + 1e-3, 3 * math.pi / 2 - 1e-3)
        out.append(mag * complex(math.cos(ang), math.sin(ang)))
    return out


def check_irks(t: GlmTableau, samples=None, name: str = "",
               threshold: float = IRKS_EIGENVALUE_TOL) -> IrksReport:
    """Inherited-RK-stability report: at each sampled z the s-1 smallest
    eigenvalue magnitudes of M(z) should vanish, leaving one eigenvalue as
    the empirical stability function R(z).

    Each sample also carries the characteristic-polynomial tail residual,
    which verifies the same property linearly in the coefficient error
    (the raw eigenvalue magnitudes scale like residual^(1/(s-1)) around a
    defective zero, i.e. much worse than the data's own precision).
    """
    samples = default_irks_samples() if samples is None else list(samples)
    rep = IrksReport(method=name or "irks", threshold=threshold)
    for z in samples:
        M = glm_stability_matrix(t, z)
        ev = np.linalg.eigvals(M)
        order = np.argsort(np.abs(ev))
        rep.samples.append(IrksSample(
            z=complex(z),
            small_magnitudes=np.abs(ev[order[:-1]]),
            R_empirical=complex(ev[order[-1]]),
            charpoly_residual=_charpoly_tail_residual(M),
            threshold=threshold,
        ))
    return rep


# ---------------------------------------------------------------------------
# explicit-component construction by area maximization

@dataclass
class OptimizeExplicitResult:
    method: ImexGlmMethod
    A: np.ndarray
    area: float
    seed_area: float | None
    n_evaluations: int
    failed: bool = False
    decisions: int = 0      # summed AreaResult counts over all evaluations
    matrices: int = 0
    singular: int = 0
    screened: int = 0
    best_area_trace: list = field(default_factory=list)  # best area after each evaluation


def _candidate_key(params: np.ndarray) -> bytes:
    """The key under which optimize_explicit_component keeps a scored
    candidate: its parameters' exact bits."""
    return params.tobytes()


def optimize_explicit_component(implicit: GlmTableau, c, v,
                                q: StabilityQuery | None = None,
                                budget: int = 2000,
                                seed_matrix=None,
                                rng_seed: int = 0,
                                alpha: float | None = None) -> OptimizeExplicitResult:
    """Search the s(s-1)/2 strictly-lower entries of the explicit A to
    maximize the constrained-region area, holding (implicit, c, v) fixed.

    Multi-start random sampling followed by Nelder-Mead polish of the best
    candidates; every candidate's B block is rebuilt from the order
    conditions.  The seed (when given) is evaluated first and the result
    never falls below it.  Deterministic for a fixed rng_seed.

    A candidate met again (each polish starts its simplex at a start-pool
    point already scored) is scored once: the repeat reuses its area and
    counts, but still counts against the budget, adds its counts to the
    totals again and appends to best_area_trace, so the result is the one
    re-scoring would give.
    """
    from scipy.optimize import differential_evolution, minimize
    q = q or StabilityQuery()
    alpha = q.alpha if alpha is None else alpha
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    s = c.size
    n_free = s * (s - 1) // 2
    lower = np.tril_indices(s, k=-1)

    b_of = dimsim_b_relation(c, v)
    U = np.eye(s)
    Qhat = starting_weight_matrix(implicit.A, c, s)

    def explicit_A(params: np.ndarray) -> np.ndarray:
        A = np.zeros((s, s))
        A[lower] = params
        return A

    def build(params: np.ndarray) -> ImexGlmMethod:
        A = explicit_A(params)
        return ImexGlmMethod(
            name="optimized-explicit", c=c, U=U, v=v,
            A=A, B=b_of(A), Ahat=implicit.A, Bhat=implicit.B,
            Q=starting_weight_matrix(A, c, s), Qhat=Qhat,
            p=s, q=s,
        )

    state = {"n": 0, "best_area": -1.0, "best_params": None}
    counts = {"decisions": 0, "matrices": 0, "singular": 0, "screened": 0}
    trace = []
    scored = {}     # candidate key -> (area, its AreaResult counts)

    def score(params: np.ndarray):
        try:
            res, _ = constrained_region_area(build(params), q, alpha)
        except (np.linalg.LinAlgError, SingularStabilityError):
            return 0.0, {}
        return (0.0 if res.flagged_empty else res.area,
                {key: getattr(res, key) for key in counts})

    def area_of(params: np.ndarray) -> float:
        if state["n"] >= budget:
            return 0.0
        state["n"] += 1
        key = _candidate_key(params)
        if key not in scored:
            scored[key] = score(params)
        a, got = scored[key]
        for k, n in got.items():
            counts[k] += n
        if a > state["best_area"]:
            state["best_area"] = a
            state["best_params"] = np.array(params, dtype=float)
        trace.append(state["best_area"])
        return a

    seed_area = None
    start_pool = []
    if seed_matrix is not None:
        seed_params = np.asarray(seed_matrix, dtype=float)[lower]
        seed_area = area_of(seed_params)
        start_pool.append((seed_area, seed_params))

    rng = np.random.default_rng(rng_seed)

    def polish(params, maxfev):
        minimize(
            lambda p: -area_of(p), params, method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-5},
        )

    if n_free > 0 and seed_matrix is not None:
        # local improvement around the seed: probe, polish, basin-hop
        n_probe = min(max(budget // 5, 1), max(budget - state["n"], 0))
        for _ in range(n_probe):
            if state["n"] >= budget:
                break
            params = rng.normal(0.0, 1.5, size=n_free)
            start_pool.append((area_of(params), params))
        start_pool.sort(key=lambda t: -t[0])
        for _, params in [t for t in start_pool[:3] if t[0] > 0.0]:
            remaining = budget - state["n"]
            if remaining < 2 * n_free:
                break
            polish(params, min(remaining, max(budget // 8, 2 * n_free)))
        sigmas = (0.5, 0.2, 0.08)
        hop = 0
        while budget - state["n"] >= 3 * n_free and state["best_params"] is not None:
            step = rng.normal(0.0, sigmas[hop % len(sigmas)], size=n_free)
            polish(state["best_params"] + step,
                   min(budget - state["n"], max(budget // 10, 2 * n_free)))
            hop += 1
    elif n_free > 0:
        # global phase from scratch: differential evolution over a box
        # large enough to contain known good tableaus, then local polish
        de_budget = max(int(budget * 0.8), 8 * n_free)
        generations = max(1, de_budget // (8 * n_free) - 1)
        differential_evolution(
            lambda p: -area_of(p), bounds=[(-3.5, 3.5)] * n_free,
            seed=rng_seed, popsize=8, maxiter=generations, tol=1e-8,
            mutation=(0.3, 1.2), recombination=0.8, init="sobol",
            polish=False, updating="deferred")
        hop = 0
        while budget - state["n"] >= 3 * n_free and state["best_params"] is not None:
            step = (0.0 if hop == 0
                    else rng.normal(0.0, 0.1, size=n_free))
            polish(state["best_params"] + step,
                   min(budget - state["n"], max(budget // 8, 2 * n_free)))
            hop += 1

    if state["best_params"] is None or state["best_area"] <= 0.0:
        params = (seed_params if seed_matrix is not None
                  else np.zeros(n_free))
        return OptimizeExplicitResult(
            method=build(params), A=explicit_A(params),
            area=0.0, seed_area=seed_area, n_evaluations=state["n"],
            failed=True, best_area_trace=trace, **counts,
        )
    best = state["best_params"]
    return OptimizeExplicitResult(
        method=build(best), A=explicit_A(best),
        area=state["best_area"], seed_area=seed_area,
        n_evaluations=state["n"], failed=False,
        best_area_trace=trace, **counts,
    )
