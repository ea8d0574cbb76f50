"""Benchmark problems: two 2D semilinear PDEs on the unit square with
time-dependent Dirichlet data, plus the split linear test equation.

Both PDEs are discretized with second-order central differences on a
uniform interior grid, boundary values injected from the known analytic
solution at whatever time the right-hand side is evaluated.  The stiff
split part is diffusion, linear g = J y + b(t): each problem gives the
constant J as stiff_matrix and the Dirichlet boundary term b as
stiff_forcing.  J is a multiple of the five-point Dirichlet Laplacian,
which the 1D sine basis diagonalizes exactly, so each problem also gives
stiff_solver (shifted_laplacian_solver): a diagonally implicit stage solve
(I - gamma*J) y = r costs four small dense matmuls and one diagonal scaling
per stage, with nothing to factor.

The Laplacian and Burgers' central-difference divergence are sums of one
1D difference matrix T applied along each grid axis, scale*(T (x) I +
I (x) T), and are kept in that form (KroneckerSum): a product with a field
is two small BLAS matmuls on the grid-shaped field, and no sparse matrix is
built.  So assembling and integrating either PDE, and its RK4 reference,
load no scipy module; KroneckerSum.tocsc() assembles the sparse matrix,
importing scipy.sparse, only for a solver that factors J.

The boundary data lives on the ring of 4(n-1) boundary nodes next to the
interior, and one scatter (Grid2D.scatter_ring) adds it into the interior
layout, for the Laplacian forcing and for Burgers' convective closure
alike.  Burgers evaluates its ring in one vectorized call (Grid2D.ring).
Allen-Cahn's solution u = 2 + sin 2pi(x-t) cos 3pi(y-t) is a product of
one-axis factors, so its ring and its manufactured source come from four
trig lines on the grid axes (_allen_cahn_stage_data): the ring is
2 + S[i] P[j], bit for bit Grid2D.ring(u, t), and the source is a rank-5
matmul L^T R.

Each PDE's time-dependent data (Burgers' ring; Allen-Cahn's ring and the
L, R factors of its source) comes from one function of an array of times,
and sits in a table keyed on exact times (_TimeTable).  The problem's
prepare_times hook fills the table with a block of times in one vectorized
call: integrate and reference_solution hand it the stage times of their
next steps, and the starter all of its times, so stiff_forcing(t) and
f(t, .) of every stage, and a step's last stage (c_s = 1) and the next
step's first (c_1 = 0), share one evaluation.  A time outside the table (a
direct call) is evaluated alone through the same function, as a
one-element array, so the hook changes speed and never a result.  The
table holds one block: at most about 0.7 MB at n = 40 (161 times for
ark4).  Allen-Cahn's source L^T R and Burgers' convective closure are
formed once per stage time, on f's first request of it, and kept until f
asks for another time.  The Laplacian forcing is scattered afresh on each
call: the problem hands it out writable, and a copy of a shared one would
cost as much as the scatter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .integrator import SemiDiscreteProblem, StageSolveError, prepare_stage_times


class ReferenceFailureError(RuntimeError):
    """Fine-step explicit reference integration went unstable."""


@dataclass
class Grid2D:
    """Uniform interior grid on the unit square, dx = dy = 1/n.

    Interior nodes (x_i, y_j) = (i/n, j/n) for i, j = 1..n-1, flattened
    row-major with i (the x index) varying slowest.
    """

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need n >= 4")
        self.dx = 1.0 / self.n
        # axis nodes k/n, k = 0..n: the boundary lines 0, 1 and coords between
        self.axis = np.arange(self.n + 1) / self.n
        self.coords = self.axis[1:-1]
        X, Y = np.meshgrid(self.coords, self.coords, indexing="ij")
        self.X = X.ravel()
        self.Y = Y.ravel()
        # boundary ring: the sides x=0, x=1, y=0, y=1, each along coords, as
        # axis indices (ring_i, ring_j), and the flat index of the interior
        # node next to each ring node
        m = self.n - 1
        j, first, last = np.arange(m), np.zeros(m, int), np.full(m, self.n)
        self.ring_i = np.concatenate([first, last, j + 1, j + 1])
        self.ring_j = np.concatenate([j + 1, j + 1, first, last])
        self.ring_x, self.ring_y = self.axis[self.ring_i], self.axis[self.ring_j]
        self.ring_index = np.concatenate([j, (m - 1) * m + j, j * m, j * m + m - 1])

    @property
    def m(self) -> int:
        return (self.n - 1) ** 2

    def evaluate(self, fn, t: float) -> np.ndarray:
        """Flatten fn(t, x, y) over the interior nodes.  fn sees x as a
        column and y as a row, so separable factors are computed once per
        grid line and broadcast."""
        out = np.asarray(fn(t, self.coords[:, None], self.coords), dtype=float)
        shape = (self.n - 1, self.n - 1)
        if out.shape != shape:  # constant or one-variable field
            out = np.broadcast_to(out, shape)  # read-only, but ravel copies it
        return out.ravel()

    def ring(self, fn, t) -> np.ndarray:
        """fn(t, x, y) in one call over the 4(n-1) boundary nodes that
        neighbor the interior: the sides x=0, x=1, y=0, y=1 in turn, each
        ordered along coords.  A column of times t gives one row per time."""
        return np.asarray(fn(t, self.ring_x, self.ring_y), dtype=float)

    def scatter_ring(self, ring, scale: float) -> np.ndarray:
        """Add each ring value into the interior node next to it, then
        multiply by scale: side x=0 lands on the first row (i = 1), x=1 on
        the last row, y=0 on the first column and y=1 on the last, summed
        in that order at the corners."""
        b = np.bincount(self.ring_index, weights=ring, minlength=self.m)
        b *= scale
        return b

    def node_rows(self, field):
        """(i, j, x, y, value) tuples for CSV output."""
        field = np.asarray(field).ravel()
        if field.size != self.m:
            raise ValueError(f"field has {field.size} entries, grid has {self.m}")
        k = 0
        for i in range(1, self.n):
            for j in range(1, self.n):
                yield i, j, i * self.dx, j * self.dx, field[k]
                k += 1


class KroneckerSum:
    """scale * (T (x) I + I (x) T): the 1D operator T applied along each
    axis of the (n-1) x (n-1) interior grid, in its row-major flattening.

    T (x) I acts on the x index (rows of the grid-shaped field Y) and
    I (x) T on the y index (its columns), so op @ y is sT Y + Y sT^T with
    sT = scale*T: two small BLAS matmuls on the field, no sparse matrix.
    Scalar multiples scale the operator; tocsc() assembles the sparse
    matrix, for a solver that factors it.
    """

    __array_ufunc__ = None  # numpy defers scalar * op to __rmul__

    def __init__(self, T, scale: float = 1.0):
        self.T = np.asarray(T, dtype=float)
        self.scale = float(scale)
        self._sT = self.scale * self.T
        # a C-ordered copy: BLAS multiplies by it faster than by the view sT.T
        self._sTt = np.ascontiguousarray(self._sT.T)

    def __mul__(self, c):
        return KroneckerSum(self.T, float(c) * self.scale)

    __rmul__ = __mul__

    def __matmul__(self, y):
        Y = y.reshape(self._sT.shape)
        Z = self._sT @ Y
        Z += Y @ self._sTt
        return Z.ravel()

    def sum(self, axis: int):
        """Row sums (axis=1) or column sums (axis=0), as of the assembled
        matrix."""
        t = self.T.sum(axis=axis)
        return self.scale * (t[:, None] + t).ravel()

    def tocsc(self):
        from scipy import sparse
        T = sparse.csr_matrix(self.T)
        I = sparse.identity(T.shape[0], format="csr")
        return (self.scale * (sparse.kron(T, I) + sparse.kron(I, T))).tocsc()


def _tridiagonal(m: int, lower: float, diag: float, upper: float) -> np.ndarray:
    return (np.diag(np.full(m - 1, lower), -1) + np.diag(np.full(m, diag))
            + np.diag(np.full(m - 1, upper), 1))


def five_point_laplacian(grid: Grid2D) -> KroneckerSum:
    """Interior five-point Laplacian, Dirichlet terms excluded (they enter
    through Grid2D.scatter_ring): the second difference along each axis."""
    return KroneckerSum(_tridiagonal(grid.n - 1, 1.0, -2.0, 1.0), 1.0 / grid.dx ** 2)


def central_divergence(grid: Grid2D) -> KroneckerSum:
    """Second-order central d/dx + d/dy, boundary closure excluded (it
    enters through Grid2D.scatter_ring)."""
    return KroneckerSum(_tridiagonal(grid.n - 1, -1.0, 0.0, 1.0), 1.0 / (2.0 * grid.dx))


def shifted_laplacian_solver(grid: Grid2D, coef: float):
    """Fast-diagonalization solver factory for I - gamma*coef*L, with L the
    five_point_laplacian of grid (Lynch, Rice & Thomas, Numer. Math. 6,
    1964).

    The sine matrix S_jk = sqrt(2/n) sin(pi j k / n) is symmetric and
    orthonormal and diagonalizes the 1D second difference with eigenvalues
    lambda_k = -4 sin^2(pi k / 2n) / dx^2, so for a right-hand side R,
    shaped (n-1, n-1) in the grid's row-major order, the solution is
    S ((S R S) * D) S with D_kl = 1 / (1 - gamma*coef*(lambda_k + lambda_l)).
    Returns gamma -> solve; a zero or non-finite 1 - gamma*coef*(...) raises
    StageSolveError.
    """
    n = grid.n
    k = np.arange(1, n)
    S = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    lam = -4.0 * np.sin(np.pi * k / (2 * n)) ** 2 / grid.dx ** 2
    lam_sum = coef * (lam[:, None] + lam)
    shape = (n - 1, n - 1)

    def factory(gamma: float):
        denom = 1.0 - gamma * lam_sum
        if not (np.isfinite(denom).all() and denom.all()):
            raise StageSolveError(f"singular iteration matrix (gamma={gamma})")
        D = 1.0 / denom

        def solve(rhs):
            return (S @ ((S @ rhs.reshape(shape) @ S) * D) @ S).ravel()

        return solve

    return factory


class _TimeTable:
    """Time-dependent fields at a block of exact times.

    evaluate(times) maps a 1D array of times to a tuple of arrays with one
    row per time.  prepare(times) makes the table hold exactly those times
    (one block): the rows it already holds are kept, copied off the old
    block so that it can be freed, and the others come from one evaluate
    call.  table(t) returns the tuple of rows at t; a time the table does
    not hold is prepared alone, as a one-element array, so a miss costs an
    evaluation and never changes a result.  The rows are read-only, since
    every caller shares them.
    """

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.rows = {}

    def prepare(self, times):
        held, rows, new = self.rows, {}, []
        for t in dict.fromkeys(times):
            if t in held:
                rows[t] = tuple(map(_read_only, map(np.copy, held[t])))
            else:
                new.append(t)
        if new:
            fields = tuple(map(_read_only, self.evaluate(np.array(new, dtype=float))))
            rows.update(zip(new, zip(*fields)))
        self.rows = rows

    def __call__(self, t):
        row = self.rows.get(t)
        if row is None:
            self.prepare((t,))
            row = self.rows[t]
        return row


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass
class PdeBenchmark:
    """A discretized PDE benchmark: grid, analytic solution, and the
    assembled split problem."""

    name: str
    grid: Grid2D
    exact_field: Callable[[float], np.ndarray]
    boundary_value: Callable       # u(t, x, y) on boundary segments
    problem: SemiDiscreteProblem


# ---------------------------------------------------------------------------
# Allen-Cahn with manufactured forcing

def _allen_cahn_fields(alpha: float, beta: float):
    def u(t, x, y):
        return 2.0 + np.sin(2 * np.pi * (x - t)) * np.cos(3 * np.pi * (y - t))

    def source(t, x, y):
        """u_t - alpha*Lap(u) - beta*(u - u^3), fused: with S, C the sine and
        cosine of 2pi(x-t) and P, Q the cosine and sine of 3pi(y-t),
        u = 2 + SP, u_t = -2pi CP + 3pi SQ and Lap(u) = -13pi^2 SP."""
        ax, ay = 2 * np.pi * (x - t), 3 * np.pi * (y - t)
        S, C = np.sin(ax), np.cos(ax)
        P, Q = np.cos(ay), np.sin(ay)
        SP = S * P
        uu = 2.0 + SP
        return (-2 * np.pi * C * P + 3 * np.pi * S * Q
                + 13.0 * np.pi ** 2 * alpha * SP - beta * (uu - uu * uu * uu))

    return u, source


def _allen_cahn_stage_data(grid: Grid2D, alpha: float, beta: float):
    """times -> (rings, L, R): the boundary ring of u and the factors of the
    interior source of _allen_cahn_fields at each time of a 1D array, from
    one-axis factors, one row per time.

    With S = sin 2pi(x-t) and P = cos 3pi(y-t) on the n+1 axis nodes, the
    ring is 2 + S[i] P[j] at each ring node's axis indices, bit for bit
    grid.ring(u, t).  On the interior, with C = cos 2pi(x-t) and
    Q = sin 3pi(y-t) as well, -beta(u - u^3) = beta(6 + 11X + 6X^2 + X^3)
    for X = S (x) P, and a power of an outer product is the outer product
    of the powers, so the source is the rank-5 product L^T R with
    L = [6b, (11b + 13pi^2 a)S - 2pi C, 6b S^2, b S^3, 3pi S] and
    R = [1, P, P^2, P^3, Q]: one (n-1) x 5 by 5 x (n-1) matmul per time.
    Each entry is computed as for one time alone, so a row does not depend
    on the other times of the array.
    """
    x, ring_i, ring_j = grid.axis, grid.ring_i, grid.ring_j
    m = grid.n - 1
    sp = 11.0 * beta + 13.0 * np.pi ** 2 * alpha

    def at(times):
        d = x - times[:, None]
        ax, ay = 2 * np.pi * d, 3 * np.pi * d
        S, P = np.sin(ax), np.cos(ay)
        rings = S[:, ring_i]
        rings *= P[:, ring_j]
        rings += 2.0
        S, P = S[:, 1:-1], P[:, 1:-1]
        C, Q = np.cos(ax[:, 1:-1]), np.sin(ay[:, 1:-1])
        L, R = np.empty((2, len(times), 5, m))
        L[:, 0], R[:, 0] = 6.0 * beta, 1.0
        np.multiply(S, sp, out=L[:, 1])
        L[:, 1] -= 2 * np.pi * C
        np.multiply(S, S, out=L[:, 2])
        np.multiply(L[:, 2], beta, out=L[:, 3])
        L[:, 3] *= S
        L[:, 2] *= 6.0 * beta
        np.multiply(S, 3 * np.pi, out=L[:, 4])
        R[:, 1] = P
        np.multiply(P, P, out=R[:, 2])
        np.multiply(R[:, 2], P, out=R[:, 3])
        R[:, 4] = Q
        return rings, L, R

    return at


def allen_cahn_problem(n: int = 40, alpha: float = 0.01, beta: float = 3.0,
                       t_final: float = 0.5) -> SemiDiscreteProblem:
    """Allen-Cahn equation u_t = alpha*Lap(u) + beta*(u - u^3) + s(t,x,y)
    on the unit square, forced so that the traveling wave
    u = 2 + sin(2pi(x-t))cos(3pi(y-t)) is the solution.  Diffusion is the
    stiff implicit part; reaction and forcing stay explicit.
    """
    return allen_cahn_benchmark(n, alpha, beta, t_final).problem


def allen_cahn_benchmark(n: int = 40, alpha: float = 0.01, beta: float = 3.0,
                         t_final: float = 0.5) -> PdeBenchmark:
    grid = Grid2D(n)
    u, _ = _allen_cahn_fields(alpha, beta)
    data_at = _TimeTable(_allen_cahn_stage_data(grid, alpha, beta))
    forcing_scale = alpha / grid.dx ** 2

    # the source at the last time f was called at: a step's last stage
    # (c_s = 1) and the next step's first (c_1 = 0) share it
    source = {}

    def f(t, v):
        if t not in source:
            source.clear()
            _, L, R = data_at(t)
            source[t] = (L.T @ R).ravel()
        return beta * (v - v * v * v) + source[t]

    prob = SemiDiscreteProblem(
        name=f"allen-cahn-n{n}", d=grid.m, t0=0.0, tF=t_final,
        y0=grid.evaluate(u, 0.0), f=f,
        stiff_matrix=alpha * five_point_laplacian(grid),
        stiff_solver=shifted_laplacian_solver(grid, alpha),
        stiff_forcing=lambda t: grid.scatter_ring(data_at(t)[0], forcing_scale),
        prepare_times=data_at.prepare,
        exact=lambda t: grid.evaluate(u, t),
        stiff_scale=alpha * 8.0 * n ** 2)
    return PdeBenchmark(name=prob.name, grid=grid,
                        exact_field=prob.exact, boundary_value=u, problem=prob)


# ---------------------------------------------------------------------------
# 2D viscous Burgers with a traveling-front solution

def burgers_problem(n: int = 50, nu: float = 0.1,
                    t_final: float = 1.0) -> SemiDiscreteProblem:
    """Conservative-form 2D Burgers u_t + (u^2/2)_x + (u^2/2)_y = nu*Lap(u)
    with the exact traveling front u = 1/(1 + exp((x + y - t)/(2 nu))).
    Diffusion implicit, convection explicit via central differences.
    """
    return burgers_benchmark(n, nu, t_final).problem


def burgers_benchmark(n: int = 50, nu: float = 0.1,
                      t_final: float = 1.0) -> PdeBenchmark:
    grid = Grid2D(n)

    def u(t, x, y):
        return 1.0 / (1.0 + np.exp((x + y - t) / (2.0 * nu)))

    # f = -div(u^2)/2: the -1/2 is folded into the operator and the closure
    # scale, which changes no bits since it is a power of two
    div = -0.5 * central_divergence(grid)
    rings = _TimeTable(lambda times: (grid.ring(u, times[:, None]),))
    forcing_scale = nu / grid.dx ** 2
    # central-difference closure of the divergence of the flux w = u^2: its
    # ring values enter with - on the sides x=0, y=0 and + on x=1, y=1; it
    # is scattered on f's first call at a time and kept until the next one
    flux_signs = np.repeat([-1.0, 1.0, -1.0, 1.0], n - 1)
    flux_scale = -0.5 / (2.0 * grid.dx)
    closure = {}

    def f(t, v):
        if t not in closure:
            closure.clear()
            (ring,) = rings(t)
            closure[t] = grid.scatter_ring(flux_signs * ring ** 2, flux_scale)
        return div @ (v * v) + closure[t]

    prob = SemiDiscreteProblem(
        name=f"burgers-n{n}", d=grid.m, t0=0.0, tF=t_final,
        y0=grid.evaluate(u, 0.0), f=f,
        stiff_matrix=nu * five_point_laplacian(grid),
        stiff_solver=shifted_laplacian_solver(grid, nu),
        stiff_forcing=lambda t: grid.scatter_ring(rings(t)[0], forcing_scale),
        prepare_times=rings.prepare,
        exact=lambda t: grid.evaluate(u, t),
        stiff_scale=nu * 8.0 * n ** 2)
    return PdeBenchmark(name=prob.name, grid=grid,
                        exact_field=prob.exact, boundary_value=u, problem=prob)


# ---------------------------------------------------------------------------
# split linear test equation

def dahlquist_split_problem(xi, xihat, y0=1.0, t_final: float = 1.0) -> SemiDiscreteProblem:
    """y' = xi*y + xihat*y with f = xi*y, g = xihat*y.  Complex parameters
    are carried in real form: z acts as the 2x2 block [[Re, -Im], [Im, Re]]
    on (Re y, Im y)."""
    xi, xihat = complex(xi), complex(xihat)
    y0 = complex(y0)
    if xi.imag == 0.0 and xihat.imag == 0.0 and y0.imag == 0.0:
        a, b = xi.real, xihat.real
        return SemiDiscreteProblem(
            name="dahlquist", d=1, t0=0.0, tF=t_final,
            y0=np.array([y0.real]),
            f=lambda t, y: a * y, stiff_matrix=np.array([[b]]),
            exact=lambda t: np.array([y0.real * np.exp((a + b) * t)]),
            stiff_scale=abs(b))

    def block(z):
        return np.array([[z.real, -z.imag], [z.imag, z.real]])

    Mf, Mg = block(xi), block(xihat)

    def exact(t):
        y = y0 * np.exp((xi + xihat) * t)
        return np.array([y.real, y.imag])

    return SemiDiscreteProblem(
        name="dahlquist-complex", d=2, t0=0.0, tF=t_final,
        y0=np.array([y0.real, y0.imag]),
        f=lambda t, y: Mf @ y, stiff_matrix=Mg,
        exact=exact, stiff_scale=abs(xihat))


# ---------------------------------------------------------------------------
# norms, error fields, references

def l2_error(u, u_ref) -> float:
    """Euclidean norm of the difference (no grid weighting)."""
    u = np.asarray(u, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u.shape != u_ref.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {u_ref.shape}")
    return float(np.linalg.norm(u - u_ref))


def error_field(u, u_ref, grid: Grid2D) -> np.ndarray:
    """Per-node |u - u_ref| over the interior grid (flattened)."""
    u = np.asarray(u).ravel()
    u_ref = np.asarray(u_ref).ravel()
    if u.shape != u_ref.shape or u.size != grid.m:
        raise ValueError("field shapes do not match the grid")
    return np.abs(u - u_ref)


def write_field_csv(grid: Grid2D, field, path) -> None:
    with open(path, "w") as fh:
        fh.write("i,j,x,y,value\n")
        for i, j, x, y, v in grid.node_rows(field):
            fh.write(f"{i},{j},{x:.17g},{y:.17g},{v:.17g}\n")


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_solution(prob: SemiDiscreteProblem, n_ref: int) -> np.ndarray:
    """Fine-step classical RK4 on the unsplit right-hand side.

    Explicit, so n_ref must clear the stiff stability bound; a safe choice
    is n_ref >= 4 * (tF - t0) * stiff_scale.  Blow-up past norm 1e12 raises
    with instructions to raise n_ref.
    """
    if prob.stiff_scale is not None:
        bound = 4.0 * (prob.tF - prob.t0) * prob.stiff_scale
        if n_ref < bound:
            warnings.warn(
                f"n_ref={n_ref} below the documented stability bound "
                f"{bound:.0f} for {prob.name}", RuntimeWarning, stacklevel=2)
    h = (prob.tF - prob.t0) / n_ref
    y = prob.y0.copy()
    t = prob.t0
    check_every = max(1, n_ref // 64)
    offsets = (0.0, 0.5 * h, h)          # _rk4_step's stage times from t
    for k in range(n_ref):
        prepare_stage_times(prob, k, n_ref, t, h, offsets)
        y = _rk4_step(prob.rhs, t, y, h)
        t = t + h                        # k4's time, so the next k1 reuses it
        if k % check_every == 0 and not (np.isfinite(y).all()
                                         and np.linalg.norm(y) < 1e12):
            raise ReferenceFailureError(
                f"reference RK4 unstable on {prob.name} at t={t:.4g} "
                f"with n_ref={n_ref}; increase n_ref")
    if not np.isfinite(y).all() or np.linalg.norm(y) >= 1e12:
        raise ReferenceFailureError(
            f"reference RK4 unstable on {prob.name}; increase n_ref")
    return y


DEFAULT_REFERENCE_STEPS = {"allen-cahn": 5000, "burgers": 20000, "dahlquist": 10000}
