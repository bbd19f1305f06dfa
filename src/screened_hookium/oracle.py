"""Independent numerical verification machinery.

A finite-difference eigensolver for the reduced radial problem, a fixed-step
integrator for the confluent Heun equation, and adaptive quadrature.  Nothing
here reuses the analytic solution formulas beyond the potential definition,
so agreement with the closed forms is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from .atom import AtomParameters, relative_potential
from .errors import ConvergenceError, DomainError
from .heun import HeunParameters

__all__ = [
    "RadialGrid",
    "OracleEigenpair",
    "default_grid",
    "radial_eigensolve",
    "integrate_heun_ode",
    "quadrature",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid; r_min is a small positive offset, never exactly 0."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min < self.r_max:
            raise DomainError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_points < 100:
            raise DomainError(f"n_points must be >= 100, got {self.n_points}")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)

    def refined(self) -> "RadialGrid":
        """Grid with exactly half the spacing (for Richardson extrapolation)."""
        return replace(self, n_points=2 * self.n_points - 1)


def default_grid(b: float = 1.0) -> RadialGrid:
    """r_min = 1e-6 b, r_max = 10 b, 4000 points; generous for Gaussian decay."""
    return RadialGrid(r_min=1e-6 * b, r_max=10.0 * b, n_points=4000)


@dataclass(frozen=True)
class OracleEigenpair:
    """One numerically computed bound state of the relative radial problem.

    u = r R is the reduced wavefunction, normalized to unit integral of u^2 dr
    on the grid; node_count counts interior sign changes.  grid_warning is set
    when the two-grid Richardson step finds the discretization too coarse to
    trust.
    """

    eigenvalue: float
    u_values: np.ndarray
    node_count: int
    grid: RadialGrid
    grid_warning: bool = False


def _count_sign_changes(u: np.ndarray) -> int:
    peak = np.max(np.abs(u))
    if peak == 0.0:
        return 0
    signs = np.sign(u[np.abs(u) > 1e-8 * peak])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _solve_on_grid(atom: AtomParameters, l_r: int, grid: RadialGrid, n_states: int):
    """Eigenpairs of -u'' + W u = k^2 u on the interior nodes, Dirichlet ends.

    W = r^2/b^4 + g/(r^2 + d^2) + l(l+1)/r^2 = 2 V_rel + centrifugal term;
    E_r = k^2 / 2.
    """
    r = grid.points()
    h = grid.h
    inner = r[1:-1]
    w = 2.0 * relative_potential(inner, atom) + l_r * (l_r + 1) / inner**2
    diag = 2.0 / h**2 + w
    off = np.full(inner.size - 1, -1.0 / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))
    energies = vals / 2.0
    u_full = np.zeros((r.size, n_states))
    u_full[1:-1, :] = vecs
    for j in range(n_states):
        norm = math.sqrt(np.trapezoid(u_full[:, j] ** 2, r))
        u_full[:, j] /= norm
    return energies, u_full, r


def radial_eigensolve(
    atom: AtomParameters,
    l_r: int,
    grid: RadialGrid | None = None,
    n_states: int = 3,
    richardson: bool = True,
    coarse_tol: float = 1e-2,
) -> list[OracleEigenpair]:
    """Lowest eigenpairs of the relative radial problem, eigenvalues ascending.

    With richardson=True (default) the solve is repeated on the half-spacing
    grid and the reported eigenvalues are the h^2-extrapolated combination
    (4 E_fine - E_coarse)/3; eigenfunctions stay on the requested grid.  A
    relative two-grid disagreement beyond coarse_tol flags the result.
    """
    if l_r < 0:
        raise DomainError(f"l_r must be nonnegative, got {l_r}")
    if n_states < 1:
        raise DomainError(f"n_states must be >= 1, got {n_states}")
    if grid is None:
        grid = default_grid(atom.b)
    energies, u_full, r = _solve_on_grid(atom, l_r, grid, n_states)
    warning = False
    if richardson:
        fine_e, _, _ = _solve_on_grid(atom, l_r, grid.refined(), n_states)
        change = np.abs(fine_e - energies) / np.maximum(np.abs(fine_e), 1e-30)
        warning = bool((change > coarse_tol).any())
        energies = (4.0 * fine_e - energies) / 3.0
    pairs = []
    for j in range(n_states):
        pairs.append(
            OracleEigenpair(
                eigenvalue=float(energies[j]),
                u_values=u_full[:, j],
                node_count=_count_sign_changes(u_full[1:-1, j]),
                grid=grid,
                grid_warning=warning,
            )
        )
    return pairs


def _frobenius_start(params: HeunParameters, order: int = 6) -> list[float]:
    """Local Taylor coefficients of the regular solution at xi = 0.

    Derived directly from the ODE in its regularized form
    xi(xi-1) f'' + [alpha xi(xi-1) + (beta+1)(xi-1) + (gamma+1) xi] f'
    + [mu(xi-1) + nu xi] f = 0, independent of the series module:

    a_{n+1} = { a_n [n(n + beta + gamma + 1 - alpha) - mu]
                + a_{n-1} [alpha(n-1) + mu + nu] } / ((n+1)(n + beta + 1)).
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    mu, nu = params.mu, params.nu
    a = [1.0, -mu / (beta + 1.0)]
    for n in range(1, order):
        nxt = (
            a[n] * (n * (n + beta + gamma + 1.0 - alpha) - mu)
            + a[n - 1] * (alpha * (n - 1.0) + mu + nu)
        ) / ((n + 1.0) * (n + beta + 1.0))
        a.append(nxt)
    return a


def _rk4_heun(params: HeunParameters, xi_end: float, steps: int) -> float:
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    mu, nu = params.mu, params.nu

    taylor = _frobenius_start(params)
    sign = 1.0 if xi_end > 0 else -1.0
    xi0 = sign * min(0.01, abs(xi_end) / 2.0)
    f = 0.0
    fp = 0.0
    for i, c in enumerate(taylor):
        f += c * xi0**i
        if i > 0:
            fp += i * c * xi0 ** (i - 1)

    def deriv(x: float, y0: float, y1: float) -> tuple[float, float]:
        p = alpha + (beta + 1.0) / x + (gamma + 1.0) / (x - 1.0)
        q = mu / x + nu / (x - 1.0)
        return y1, -(p * y1 + q * y0)

    h = (xi_end - xi0) / steps
    x = xi0
    for _ in range(steps):
        k1a, k1b = deriv(x, f, fp)
        k2a, k2b = deriv(x + 0.5 * h, f + 0.5 * h * k1a, fp + 0.5 * h * k1b)
        k3a, k3b = deriv(x + 0.5 * h, f + 0.5 * h * k2a, fp + 0.5 * h * k2b)
        k4a, k4b = deriv(x + h, f + h * k3a, fp + h * k3b)
        f += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        fp += h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        x += h
    return f


def integrate_heun_ode(params: HeunParameters, xi_end: float, steps: int = 4000) -> float:
    """Regular Heun solution at xi_end by direct fixed-step RK4 integration.

    Starts from f(0) = 1, f'(0) = -mu/(beta+1) via a short local Taylor
    launch; integration must pass a step-halving agreement check at 1e-9.
    Used solely to cross-check the power-series evaluation.
    """
    if not -1.0 < xi_end < 1.0:
        raise DomainError(f"xi_end must lie in (-1, 1), got {xi_end}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if xi_end == 0.0:
        return 1.0
    coarse = _rk4_heun(params, xi_end, steps)
    fine = _rk4_heun(params, xi_end, 2 * steps)
    if abs(fine - coarse) > 1e-9 * max(1.0, abs(fine)):
        raise ConvergenceError(
            f"step-halving disagreement {abs(fine - coarse):.3e} at xi = {xi_end}"
        )
    return fine


def _quad_finite(f, a: float, b: float, tol: float) -> float:
    out = quad(f, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1)
    if len(out) > 3:
        raise ConvergenceError(f"quadrature on [{a}, {b}] did not converge: {out[3]}")
    return out[0]


def quadrature(f, a: float, b_end: float, tol: float = 1e-10) -> float:
    """Adaptive integral of a smooth f over [a, b_end], b_end = math.inf allowed.

    The error target is absolute-or-relative, whichever is larger.  A
    semi-infinite range is truncated by segment doubling: integration stops
    once two consecutive segments contribute below tol relative to the
    running estimate (Gaussian-decay integrands collapse fast).
    """
    if not math.isinf(b_end):
        return _quad_finite(f, a, b_end, tol)
    total = 0.0
    lo = a
    hi = max(1.0, 2.0 * abs(a) + 1.0)
    quiet = 0
    for _ in range(64):
        segment = _quad_finite(f, lo, hi, tol)
        total += segment
        if abs(segment) <= tol * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
        lo, hi = hi, 2.0 * hi
    raise ConvergenceError("semi-infinite cutoff search exceeded 64 doublings")
