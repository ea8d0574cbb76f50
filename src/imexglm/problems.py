"""Benchmark problems: two 2D semilinear PDEs on the unit square with
time-dependent Dirichlet data, plus the split linear test equation.

Both PDEs are discretized with second-order central differences on a
uniform interior grid, boundary values injected from the known analytic
solution at whatever time the right-hand side is evaluated.  The stiff
split part is diffusion, linear g = J y + b(t): each problem gives the
constant sparse J as stiff_matrix and the Dirichlet boundary term b as
stiff_forcing.  J is a multiple of the five-point Dirichlet Laplacian,
which the 1D sine basis diagonalizes exactly, so each problem also gives
stiff_solver (shifted_laplacian_solver): a diagonally implicit stage solve
(I - gamma*J) y = r costs four small dense matmuls and one diagonal scaling
per stage, with nothing to factor.

The boundary data is evaluated in one vectorized call over the ring of
4(n-1) boundary nodes next to the interior (Grid2D.ring), and one scatter
(Grid2D.scatter_ring) adds it into the interior layout, for the Laplacian
forcing and for Burgers' convective closure alike.  Each time-dependent
field (the boundary ring, the Allen-Cahn source) sits behind a one-slot
memo keyed on the exact time, so the forcing and f of one stage share an
evaluation, as do a step's last stage (c_s = 1) and the next step's first
(c_1 = 0).  The Allen-Cahn source is fused: its trig lines are computed
once per call and shared by u, u_t and Lap(u).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .integrator import SemiDiscreteProblem, StageSolveError


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
        self.coords = np.arange(1, self.n) / self.n
        X, Y = np.meshgrid(self.coords, self.coords, indexing="ij")
        self.X = X.ravel()
        self.Y = Y.ravel()
        # boundary ring: the sides x=0, x=1, y=0, y=1, each along coords,
        # and the flat index of the interior node next to each ring node
        m = self.n - 1
        edge, j = np.zeros(m), np.arange(m)
        self.ring_x = np.concatenate([edge, edge + 1.0, self.coords, self.coords])
        self.ring_y = np.concatenate([self.coords, self.coords, edge, edge + 1.0])
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

    def ring(self, fn, t: float) -> np.ndarray:
        """fn(t, x, y) in one call over the 4(n-1) boundary nodes that
        neighbor the interior: the sides x=0, x=1, y=0, y=1 in turn, each
        ordered along coords."""
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


def _second_difference(n: int) -> sparse.csr_matrix:
    m = n - 1
    return sparse.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                        offsets=[-1, 0, 1], format="csr")


def five_point_laplacian(grid: Grid2D) -> sparse.csr_matrix:
    """Interior five-point Laplacian, Dirichlet terms excluded (they enter
    through Grid2D.scatter_ring)."""
    m = grid.n - 1
    D2 = _second_difference(grid.n)
    I = sparse.identity(m, format="csr")
    return (sparse.kron(D2, I) + sparse.kron(I, D2)).tocsr() / grid.dx ** 2


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


def _central_difference_x(grid: Grid2D):
    """Sparse second-order central d/dx and d/dy on the flattened field; the
    boundary closure is added by Grid2D.scatter_ring."""
    m = grid.n - 1
    D1 = sparse.diags([-np.ones(m - 1), np.ones(m - 1)], offsets=[-1, 1], format="csr")
    I = sparse.identity(m, format="csr")
    Dx = sparse.kron(D1, I).tocsr() / (2.0 * grid.dx)
    Dy = sparse.kron(I, D1).tocsr() / (2.0 * grid.dx)
    return Dx, Dy


def _memo_on_time(field_at):
    """One-slot memo of t -> field_at(t), matched on exact equality of t.
    The cached array is made read-only, since every caller shares it."""
    last_t, last = None, None

    def cached(t):
        nonlocal last_t, last
        if last is None or t != last_t:
            last = field_at(t)
            last.flags.writeable = False
            last_t = t
        return last

    return cached


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
                + 13.0 * np.pi ** 2 * alpha * SP - beta * (uu - uu ** 3))

    return u, source


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
    u, source = _allen_cahn_fields(alpha, beta)
    ring_at = _memo_on_time(lambda t: grid.ring(u, t))
    source_at = _memo_on_time(lambda t: grid.evaluate(source, t))
    forcing_scale = alpha / grid.dx ** 2

    def f(t, v):
        return beta * (v - v ** 3) + source_at(t)

    prob = SemiDiscreteProblem(
        name=f"allen-cahn-n{n}", d=grid.m, t0=0.0, tF=t_final,
        y0=grid.evaluate(u, 0.0), f=f,
        stiff_matrix=alpha * five_point_laplacian(grid),
        stiff_solver=shifted_laplacian_solver(grid, alpha),
        stiff_forcing=lambda t: grid.scatter_ring(ring_at(t), forcing_scale),
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

    Dx, Dy = _central_difference_x(grid)
    Dsum = (Dx + Dy).tocsr()
    ring_at = _memo_on_time(lambda t: grid.ring(u, t))
    forcing_scale = nu / grid.dx ** 2
    # central-difference closure of the divergence of the flux w = u^2: its
    # ring values enter with - on the sides x=0, y=0 and + on x=1, y=1
    flux_signs = np.repeat([-1.0, 1.0, -1.0, 1.0], n - 1)
    flux_scale = 1.0 / (2.0 * grid.dx)

    def f(t, v):
        closure = grid.scatter_ring(flux_signs * ring_at(t) ** 2, flux_scale)
        return -0.5 * (Dsum @ (v ** 2) + closure)

    prob = SemiDiscreteProblem(
        name=f"burgers-n{n}", d=grid.m, t0=0.0, tF=t_final,
        y0=grid.evaluate(u, 0.0), f=f,
        stiff_matrix=nu * five_point_laplacian(grid),
        stiff_solver=shifted_laplacian_solver(grid, nu),
        stiff_forcing=lambda t: grid.scatter_ring(ring_at(t), forcing_scale),
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
    for k in range(n_ref):
        y = _rk4_step(prob.rhs, t, y, h)
        t = prob.t0 + (k + 1) * h
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
