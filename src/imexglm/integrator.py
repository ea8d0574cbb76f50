"""Fixed-step IMEX time stepping: GLM steps, stage solves, the starting
procedure, and one whole-interval driver, integrate, for GLMs and additive
RK pairs alike.

One GLM step advances the external vector y^[n-1] (r blocks of length d)
through s stages

    Y_i = h sum_{j<i} a_ij f(Y_j) + h sum_{j<=i} ahat_ij g(Y_j) + sum_j u_ij y_j,
    y_i^[n] = h sum_j (b_ij f(Y_j) + bhat_ij g(Y_j)) + sum_j v_ij y_j,

with f/g evaluated at t + c_i h.  This is one partitioned product, and an
additive RK pair is the one-value GLM pair with r = 1, U = e, V = 1 and
the weight vectors as B and Bhat (tableau.additive_rk_pair), so glm_step
steps both through one stage sweep over a per-step work array

    W = [y_1, ..., y_r, F_1, G_1, F_2, G_2, ..., F_s, G_s]    (r + 2s rows),

F_j = f(Y_j), G_j = g(Y_j).  Stage i reads the contiguous rows before F_i,
W[:r+2(i-1)]: its right-hand side is one product of the coefficient row
[u_i1 .. u_ir, h a_i1, h ahat_i1, .., h a_i,i-1, h ahat_i,i-1] with them,
and the update is one product [V | h B, h Bhat interleaved] @ W.  The
coefficient rows depend only on (method, h) and are built once per run
(StiffSolverCache.stage_rows).  integrate steps a GLM from the external
vector of the starting procedure and reads the solution off its last
stage; it steps an additive RK pair (ImexGlmMethod.is_additive_rk) from
the one-block state y0 and reads the solution off that block.

A linear stiff part g = J y + b(t) is given once, as (stiff_matrix,
stiff_forcing); its diagonally implicit stage solves then share one solver
of I - gamma*J, gamma = h*lambda, since the diagonal is constant for this
method class.  Each stage evaluates the forcing b once, into the shifted
right-hand side R_i + gamma*b of its solve (R_i is the row product above),
and takes its stiff value from that solve, G_i = (Y_i - R_i) / gamma, so
an implicit stage forms no product with J; G_i = J Y_i + b is formed only
at gamma = 0 stages.  integrate hands the problem's prepare_times hook,
if it has one, the stage times of each block of PREPARE_STEPS steps before
stepping through it, and the starting procedure hands it all its times in
one block; the hook is a hint only, and a time it was not given is
evaluated alone.  J may be a dense numpy array, a scipy.sparse matrix,
or an operator with @ and tocsc() (problems.KroneckerSum, the PDE
benchmarks' Laplacian).  The solver comes from the problem's stiff_solver
factory when it has one (the fast-diagonalization Laplacian solve of both
PDE benchmarks); otherwise I - gamma*J is factored, by SuperLU for a J
with tocsc() and LAPACK LU for dense J.  SuperLU and LAPACK
(scipy.sparse.linalg, scipy.linalg) are imported on the first
factorization, and scipy.sparse only for a J with tocsc(), so a run whose
solves all come from stiff_solver loads no scipy module and a dense run
never loads scipy.sparse.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, NamedTuple

import numpy as np

from .tableau import ImexGlmMethod, additive_rk_pair


class StageSolveError(RuntimeError):
    """Implicit stage solve failed (Newton stall, divergence, or singular
    iteration matrix)."""

    def __init__(self, msg, stage=None, residual=None):
        super().__init__(msg)
        self.stage = stage
        self.residual = residual


class IntegrationError(RuntimeError):
    """A step produced non-finite values or a stage solve failed."""


@dataclass
class SemiDiscreteProblem:
    """Split ODE system y' = f(t, y) + g(t, y), f nonstiff and g stiff.

    A linear stiff part g = J y + b(t) is given as stiff_matrix J (constant:
    a dense array, a scipy.sparse matrix, or an operator with @ and tocsc(),
    such as problems.KroneckerSum) and stiff_forcing(t) -> b(t), or None for
    b = 0; g and g_jacobian are then built from them; stiff_solver, if
    given, maps gamma to a solve of (I - gamma*J) y = r and stands in for
    factoring that matrix.  A nonlinear g is given as g and g_jacobian(t, y)
    instead.

    prepare_times(times), if given, is a hint: integrate and the RK4
    reference call it block by block (prepare_stage_times) with the exact
    stage times of their next steps, and initialize_external once with the
    starter's, so that a problem can evaluate its time-dependent data for
    all of them in one pass.  f, g and
    stiff_forcing must still accept any time, a time not prepared being
    evaluated alone, and their results must not depend on the hint.
    """

    name: str
    d: int
    t0: float
    tF: float
    y0: np.ndarray
    f: Callable[[float, np.ndarray], np.ndarray]
    g: Callable[[float, np.ndarray], np.ndarray] | None = None
    g_jacobian: Callable[[float, np.ndarray], object] | None = None
    stiff_matrix: object = None
    stiff_forcing: Callable[[float], np.ndarray] | None = None
    stiff_solver: Callable[[float], Callable[[np.ndarray], np.ndarray]] | None = None
    exact: Callable[[float], np.ndarray] | None = None
    stiff_scale: float | None = None  # rough spectral bound of the full RHS
    prepare_times: Callable[[list], None] | None = None

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.d,):
            raise ValueError(f"y0 must have shape ({self.d},)")
        J, b = self.stiff_matrix, self.stiff_forcing
        if J is None:
            if (self.g is None or self.g_jacobian is None or b is not None
                    or self.stiff_solver is not None):
                raise ValueError("give g and g_jacobian, or stiff_matrix with "
                                 "an optional stiff_forcing and stiff_solver")
            return
        if self.g is not None or self.g_jacobian is not None:
            raise ValueError("give either stiff_matrix or g and g_jacobian, not both")
        # plain attributes, so a caller may rebind g on the instance
        self.g = (lambda t, y: J @ y) if b is None else (lambda t, y: J @ y + b(t))
        self.g_jacobian = lambda t, y: J

    def rhs(self, t, y):
        return self.f(t, y) + self.g(t, y)


@dataclass
class ExternalState:
    """The r external blocks at time t, plus the last stage of the step
    that produced them (a GLM's solution readout, valid since c_s = 1)."""

    t: float
    h: float
    blocks: np.ndarray                 # (r, d)
    last_stage: np.ndarray | None = None

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=float)
        if self.blocks.ndim != 2:
            raise ValueError("blocks must be a (r, d) array")
        if not np.isfinite(self.blocks).all():
            raise IntegrationError(f"non-finite external state at t={self.t}")

    @property
    def r(self) -> int:
        return self.blocks.shape[0]


def imex_euler_ark() -> ImexGlmMethod:
    """IMEX Euler as a 2-stage additive RK pair (forward/backward Euler)."""
    return additive_rk_pair(
        "imex-euler-ark", [0.0, 1.0],
        A_explicit=[[0.0, 0.0], [1.0, 0.0]], b_explicit=[1.0, 0.0],
        A_implicit=[[0.0, 0.0], [0.0, 1.0]], b_implicit=[0.0, 1.0],
    )


@dataclass(frozen=True)
class StartingConfig:
    """Starting micro-step tau and the auxiliary scheme that generates the
    r-1 micro-solutions: an additive RK pair, by default IMEX Euler
    (imex-euler-ark); methods.resolve_method gives one by name."""

    tau_ratio: float = 0.5             # tau as a fraction of h
    scheme: ImexGlmMethod = field(default_factory=imex_euler_ark)


# ---------------------------------------------------------------------------
# stage coefficient rows and implicit stage solves

class StageRows(NamedTuple):
    """Coefficient rows of one (method, h) for the stage sweep over
    W = [y_1..y_r, F_1, G_1, ..., F_s, G_s] (see the module docstring)."""

    stage: tuple        # s rows; row i: [U_i | h a_ij, h ahat_ij for j < i]
    update: np.ndarray  # (r, r + 2s): [V | h B, h Bhat interleaved]
    gamma: tuple        # h * ahat_ii, the stage solves' shifts
    dt: tuple           # c_i * h, the stage time offsets


def stage_rows(m: ImexGlmMethod, h: float) -> StageRows:
    """Build the StageRows of a GLM pair."""
    U, V, A, Ah, B, Bh = m.U, m.V, m.A, m.Ahat, m.B, m.Bhat
    s, r = U.shape
    C = np.zeros((s, r + 2 * s))
    C[:, :r], C[:, r::2], C[:, r + 1::2] = U, h * A, h * Ah
    update = np.empty((r, r + 2 * s))
    update[:, :r], update[:, r::2], update[:, r + 1::2] = V, h * B, h * Bh
    return StageRows(stage=tuple(C[i, :r + 2 * i] for i in range(s)),
                     update=update,
                     gamma=tuple(h * float(Ah[i, i]) for i in range(s)),
                     dt=tuple(float(c) * h for c in m.c))


class StiffSolverCache:
    """Per-run reuse of stage solvers and stage coefficient rows.

    For linear g the iteration matrix I - gamma*J is constant in time, so
    one solver per distinct gamma = h*ahat_ii serves every stage of every
    step (the DIMSIM diagonal is constant, giving a single gamma per run).
    The solver is the problem's stiff_solver(gamma) when it has one;
    otherwise I - gamma*J is factored, dense matrices by LAPACK LU and
    sparse ones or operators (through J.tocsc()) by SuperLU.  The StageRows
    of each (method, h) are built on first use too.
    """

    def __init__(self, prob: SemiDiscreteProblem):
        self.prob = prob
        self._fact = {}
        self._rows = {}

    def factorization(self, gamma: float):
        key = float(gamma)
        if key not in self._fact:
            prob = self.prob
            self._fact[key] = (_factorize(prob.stiff_matrix, gamma, prob.d)
                               if prob.stiff_solver is None
                               else prob.stiff_solver(gamma))
        return self._fact[key]

    def stage_rows(self, m, h: float) -> StageRows:
        # keyed on id(m); the entry holds m, so the id cannot be reused
        key = (id(m), float(h))
        if key not in self._rows:
            self._rows[key] = (m, stage_rows(m, h))
        return self._rows[key][1]


def splu(A, **options):
    """scipy.sparse.linalg.splu, imported on the first sparse factorization."""
    from scipy.sparse.linalg import splu
    return splu(A, **options)


def _factorize(J, gamma: float, d: int):
    if hasattr(J, "tocsc"):
        # a scipy.sparse J, or an operator that assembles one
        # (problems.KroneckerSum)
        from scipy import sparse
        M = (sparse.identity(d, format="csc") - gamma * J.tocsc()).tocsc()
        try:
            # minimum degree on A^T + A suits the structurally symmetric
            # stencils better than the default COLAMD
            lu = splu(M, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise StageSolveError(f"singular iteration matrix (gamma={gamma})") from exc
        return lu.solve
    from scipy.linalg import lu_factor, lu_solve
    M = np.eye(d) - gamma * np.asarray(J)
    try:
        fact = lu_factor(M)
    except np.linalg.LinAlgError as exc:
        raise StageSolveError(f"singular iteration matrix (gamma={gamma})") from exc
    return lambda rhs: lu_solve(fact, rhs)


def _stage(gamma, rhs, prob, t_stage, cache, predictor=None,
           stage_index=None):
    """Solve Y = rhs + gamma * g(t_stage, Y); return (Y, g(t_stage, Y)).

    For linear g = J y + b and gamma != 0 the solve fixes the stage value,
    G = (Y - rhs) / gamma, so no product with J is formed; J Y + b is
    formed only at gamma = 0 stages.  The forcing b is evaluated once per
    stage.  rhs itself is never handed to the solver, so it is intact for
    G."""
    J, forcing = prob.stiff_matrix, prob.stiff_forcing
    b = None if J is None or forcing is None else forcing(t_stage)
    if gamma != 0.0 and not np.isfinite(rhs).all():
        raise StageSolveError("non-finite stage right-hand side",
                              stage=stage_index)
    if J is None:
        Y = rhs if gamma == 0.0 else _newton_solve(gamma, rhs, prob, t_stage,
                                                   predictor, stage_index)
        return Y, prob.g(t_stage, Y)
    if gamma == 0.0:
        G = J @ rhs
        if b is not None:
            G += b
        return rhs, G
    if b is None:
        shifted = rhs.copy()
    else:
        shifted = gamma * b
        shifted += rhs
    Y = np.asarray(cache.factorization(gamma)(shifted))
    G = Y - rhs
    G /= gamma
    return Y, G


# modified Newton on a nonlinear g: residual tolerance relative to
# max(1, |rhs|), and iterations before a stage solve is reported stalled
NEWTON_TOL = 1e-12
MAX_NEWTON = 25
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps


def _newton_solve(gamma, rhs, prob, t_stage, predictor, stage_index):
    """Modified Newton for nonlinear g, J frozen at the stage predictor.

    The residual y - gamma g(y) - rhs is accepted at NEWTON_TOL *
    max(1, |rhs|), or at its rounding floor if that is larger.  The floor
    is set by the terms that cancel inside gamma g(y) near the solution,
    of size |gamma J y| (for a linear g = J y + b exactly so): on a very
    stiff g it exceeds NEWTON_TOL * |rhs|, although |gamma g(y)| =
    |y - rhs| stays small.  On the nonlinear Prothero-Robinson problem
    (lambda = -1e2 .. -1e8) the floor stays below eps |gamma J y|; the
    test allows 8 eps |gamma J y|."""
    y = np.array(rhs if predictor is None else predictor, dtype=float)
    J = prob.g_jacobian(t_stage, y)
    solve = _factorize(J, gamma, prob.d)
    rhs_tol = NEWTON_TOL * max(1.0, float(np.linalg.norm(rhs)))
    res_norm = np.inf
    for _ in range(MAX_NEWTON):
        res = y - gamma * prob.g(t_stage, y) - rhs
        res_norm = float(np.linalg.norm(res))
        tol = max(rhs_tol,
                  _ROUNDING_FLOOR * abs(gamma) * float(np.linalg.norm(J @ y)))
        if not np.isfinite(res_norm):
            raise StageSolveError("Newton iteration diverged (non-finite residual)",
                                  stage=stage_index, residual=res_norm)
        if res_norm <= tol:
            return y
        y = y - solve(res)
    raise StageSolveError(
        f"Newton stalled after {MAX_NEWTON} iterations "
        f"(residual {res_norm:.3e}, tol {tol:.3e})",
        stage=stage_index, residual=res_norm)


# ---------------------------------------------------------------------------
# one step, of a GLM or of an additive RK pair (the one-value case)

def glm_step(m: ImexGlmMethod, prob: SemiDiscreteProblem,
             state: ExternalState,
             cache: StiffSolverCache | None = None) -> ExternalState:
    """Advance the external vector by one step of size state.h: fill the F
    and G rows of the work array W stage by stage, then update."""
    cache = cache or StiffSolverCache(prob)
    h, t = state.h, state.t
    rows = cache.stage_rows(m, h)
    r, width = rows.update.shape
    if state.r != r:
        raise ValueError(f"state has {state.r} blocks, method wants {r}")
    W = np.empty((width, prob.d))
    W[:r] = state.blocks
    Y = W[0]
    for i, coef in enumerate(rows.stage):
        k = coef.size      # r + 2i: stage i reads W[:k] and writes F, G at k
        t_i = t + rows.dt[i]
        Y, W[k + 1] = _stage(rows.gamma[i], coef @ W[:k], prob, t_i, cache,
                             predictor=Y, stage_index=i)
        W[k] = prob.f(t_i, Y)
    return ExternalState(t=t + h, h=h, blocks=rows.update @ W, last_stage=Y)


def ark_step(mrk: ImexGlmMethod, prob: SemiDiscreteProblem, y, t, h,
             cache: StiffSolverCache | None = None) -> np.ndarray:
    """One additive-RK step from (t, y) to t + h: a glm_step on the
    one-block state."""
    state = ExternalState(t, h, y[None])
    return glm_step(mrk, prob, state, cache).blocks[0]


# ---------------------------------------------------------------------------
# starting procedure

def derivative_weights(r: int) -> np.ndarray:
    """Finite-difference weights on nodes {0..r-1}: row k satisfies
    tau^k x^(k)(t0) = tau * sum_j D[k-1, j] x'(t0 + j tau) + O(tau^{r+1}),
    from the Vandermonde moment system.  Row 1 is e_1 exactly, so the
    first-derivative term consumes f(y0) directly.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > 12:
        warnings.warn(f"derivative weights for r={r} are badly conditioned",
                      RuntimeWarning, stacklevel=2)
    nodes = np.arange(r, dtype=float)
    Vm = np.vander(nodes, r, increasing=True).T        # Vm[m, j] = j^m
    rhs = np.diag([float(factorial(k)) for k in range(r)])
    D = np.linalg.solve(Vm, rhs).T                     # row k-1: weights for x^(k)
    D[0] = 0.0
    D[0, 0] = 1.0                                      # exact e_1, not 1e-16 noise
    return D


def rescaling_matrix(h: float, tau: float, r: int) -> np.ndarray:
    """diag((h/tau)^k, k = 1..r)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return np.diag((h / tau) ** np.arange(1, r + 1))


def initialize_external(m: ImexGlmMethod, prob: SemiDiscreteProblem, h: float,
                        start: StartingConfig | None = None,
                        cache: StiffSolverCache | None = None) -> ExternalState:
    """Bootstrap the external vector at t0.

    Runs r-1 micro-steps of size tau with the auxiliary scheme, reconstructs
    scaled derivatives of the two split parts from the micro right-hand-side
    values, and combines them with the method's starting weights:

        y^[0] = 1_r (x) y0 + tau (Q_d R D (x) I) F + tau (Qhat_d R D (x) I) G,

    where Q_d holds the derivative columns k = 1..r, R = diag((h/tau)^k)
    rescales micro-derivatives to step-size powers, and D are the
    finite-difference weights.
    """
    start = start or StartingConfig()
    if not getattr(start.scheme, "is_additive_rk", False):
        raise TypeError("starting scheme must be an additive RK pair")
    cache = cache or StiffSolverCache(prob)
    r = m.r
    tau = start.tau_ratio * h
    if not 0.0 < tau <= h:
        raise ValueError(f"starting micro-step tau={tau} outside (0, h]")

    t0, y0 = prob.t0, prob.y0
    if prob.prepare_times is not None:
        # the nodes t0 + j tau and the micro-steps' stage times, as glm_step
        # forms them, in one block
        nodes = [t0 + j * tau for j in range(r)]
        offsets = cache.stage_rows(start.scheme, tau).dt
        prob.prepare_times(nodes + [t + dt for t in nodes[:-1] for dt in offsets])
    ys = [y0]
    for j in range(r - 1):
        ys.append(ark_step(start.scheme, prob, ys[-1], t0 + j * tau, tau,
                           cache))
    # f and g at one node in turn, so they share the problem's evaluation
    # of that time
    Fs, Gs = np.empty((2, r, prob.d))
    for j in range(r):
        Fs[j] = prob.f(t0 + j * tau, ys[j])
        Gs[j] = prob.g(t0 + j * tau, ys[j])

    D = derivative_weights(r)
    R = rescaling_matrix(h, tau, r)
    Wf = m.Q[:, 1:r + 1] @ R @ D
    Wg = m.Qhat[:, 1:r + 1] @ R @ D
    blocks = y0[None, :] + tau * (Wf @ Fs + Wg @ Gs)
    return ExternalState(t=t0, h=h, blocks=blocks, last_stage=None)


# ---------------------------------------------------------------------------
# the whole-interval driver

# steps per prepare_times block: it keeps an Allen-Cahn n = 40 table under
# 1 MB, and blocks of 16 and 64 steps time the same
PREPARE_STEPS = 32


def prepare_stage_times(prob: SemiDiscreteProblem, k: int, n_steps: int,
                        t: float, h: float, offsets) -> None:
    """At every PREPARE_STEPS-th step k of n_steps, starting at time t, hand
    prob.prepare_times (if any) the stage times t + dt, dt in offsets, of
    the block of steps from k, on the steppers' own clock t <- t + h, so
    that each time is the float a stage will ask for."""
    if prob.prepare_times is None or k % PREPARE_STEPS:
        return
    times = []
    for _ in range(min(PREPARE_STEPS, n_steps - k)):
        times.extend([t + dt for dt in offsets])
        t = t + h
    prob.prepare_times(times)


@dataclass
class IntegrationResult:
    t: float
    y: np.ndarray
    n_steps: int
    h: float
    t_readout: float                   # time the readout y approximates
    state: ExternalState
    start_seconds: float               # wall clock of the starting procedure
    step_seconds: float                # wall clock of the n_steps steps
    trajectory: list = field(default_factory=list)


def integrate(m: ImexGlmMethod, prob: SemiDiscreteProblem,
              n_steps: int, start: StartingConfig | None = None,
              record_trajectory: bool = False) -> IntegrationResult:
    """n_steps glm_steps over [t0, tF], from the starting procedure's
    external vector for a GLM and from the one-block state y0 for an
    additive RK pair (m.is_additive_rk), whose start is the identity.

    A GLM's readout is Y_s of the final step, which approximates
    y(tF - h + c_s h): y(tF) for the abscissa layout c_s = 1 used by the
    built-in methods.  t_readout on the result records that time so
    first-order comparators with c_s = 0 can be scored against the right
    instant.  An additive RK pair's readout is its block, at t_readout = t.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    h = (prob.tF - prob.t0) / n_steps
    cache = StiffSolverCache(prob)
    ark = m.is_additive_rk
    readout = (lambda st: st.blocks[0]) if ark else (lambda st: st.last_stage)
    t_start = time.perf_counter()
    if ark:
        state = ExternalState(prob.t0, h, prob.y0[None])
    else:
        try:
            state = initialize_external(m, prob, h, start, cache)
        except (StageSolveError, IntegrationError) as exc:
            raise IntegrationError(f"starting procedure failed: {exc}") from exc
    t_step = time.perf_counter()
    offsets = cache.stage_rows(m, h).dt
    traj = []
    for n in range(n_steps):
        prepare_stage_times(prob, n, n_steps, state.t, h, offsets)
        try:
            state = glm_step(m, prob, state, cache)
        except (StageSolveError, IntegrationError) as exc:
            raise IntegrationError(
                f"step {n + 1}/{n_steps} at t={state.t:.6g} failed: {exc}") from exc
        if record_trajectory:
            traj.append((state.t, readout(state).copy()))
    t_end = time.perf_counter()
    t_read = state.t if ark else state.t - h + float(m.c[-1]) * h
    return IntegrationResult(t=state.t, y=readout(state), n_steps=n_steps,
                             h=h, t_readout=t_read, state=state,
                             start_seconds=t_step - t_start,
                             step_seconds=t_end - t_step, trajectory=traj)
