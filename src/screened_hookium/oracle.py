"""Independent numerical verification machinery.

A Laguerre discrete-variable-representation (DVR) eigensolver for the
reduced radial problem, a fixed-step integrator for the confluent Heun
equation, and adaptive quadrature.  Nothing here reuses the analytic solution
formulas beyond the potential definition, so agreement with the closed forms
is a genuine cross-check.  Only `quadrature` needs scipy, which it imports
when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom import AtomParameters, relative_potential
from .errors import ConvergenceError, DomainError
from .heun import HeunParameters

__all__ = [
    "OracleEigenpair",
    "radial_eigensolve",
    "radial_eigensolve_class",
    "integrate_heun_ode",
    "quadrature",
]


@dataclass(frozen=True)
class OracleEigenpair:
    """One numerically computed bound state of the relative radial problem.

    u = r R is the reduced wavefunction, unit-normalized, given by its values
    u_values at the DVR radii; sum(weights * f**2) is the exact integral of
    f**2 dr for every f in the span of the basis.  node_count counts sign
    changes in the classically allowed region.  basis_change is the relative
    eigenvalue change when the basis size is doubled.
    """

    eigenvalue: float
    node_count: int
    radii: np.ndarray
    weights: np.ndarray
    u_values: np.ndarray
    basis_change: float


def _oscillator_functions(l_r: int, b: float, r: np.ndarray, n_basis: int) -> np.ndarray:
    """Reduced oscillator eigenfunctions chi_n(r), n < n_basis, unit-normalized in dr.

    chi_n = sqrt(2r)/b * x^(alpha/2) e^(-x/2) p_n(x), x = r^2/b^2, where p_n
    are the orthonormal Laguerre polynomials for the weight x^alpha e^-x,
    alpha = l_r + 1/2, built by their three-term recurrence.
    """
    alpha = l_r + 0.5
    x = (r / b) ** 2
    chi = np.empty((n_basis, r.size))
    chi[0] = np.sqrt(2.0 * r) / b * np.exp(
        0.5 * (alpha * np.log(x) - x - math.lgamma(alpha + 1.0)))
    prev = np.zeros_like(r)
    for n in range(n_basis - 1):
        chi[n + 1] = ((2 * n + alpha + 1.0 - x) * chi[n] - math.sqrt(n * (n + alpha)) * prev
                      ) / math.sqrt((n + 1) * (n + 1 + alpha))
        prev = chi[n]
    return chi


def _dvr_geometry(l_r: int, b: float, n_basis: int):
    """Laguerre-node radii r_k, basis map T and coupling-free Hamiltonian H0 of the DVR.

    The nodes x_k and the orthogonal T come from the Laguerre Jacobi matrix
    (Golub-Welsch); H0 = T^T diag(eps_n) T, kinetic plus oscillator, with the
    oscillator energies eps_n = (2n + l_r + 3/2)/b^2, which already hold
    r^2/(2 b^4).  The signs of T's columns are arbitrary and cancel in c = T v.
    """
    alpha = l_r + 0.5
    n = np.arange(n_basis)
    off = -np.sqrt(n[1:] * (n[1:] + alpha))
    x, t = np.linalg.eigh(np.diag(2.0 * n + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    r = b * np.sqrt(x)
    eps = (2.0 * n + l_r + 1.5) / b**2
    return r, t, (t.T * eps) @ t


# A stacked eigensolve holds several arrays of couplings x n_basis^2 doubles;
# the couplings of a large class are split so that each stays near 8 MB.
_STACK_ENTRIES = 1 << 20


def _dvr_eigh(h0: np.ndarray, r: np.ndarray, d: float, couplings: np.ndarray):
    """Eigenvalues and eigenvectors of H = H0 + diag(V_int(r_k)), one stacked
    `np.linalg.eigh` per chunk of couplings, yielded chunk by chunk."""
    n = r.size
    k = np.arange(n)
    diagonal = 0.5 * couplings[:, None] / (r**2 + d**2)
    step = max(1, _STACK_ENTRIES // n**2)
    for start in range(0, couplings.size, step):
        part = diagonal[start:start + step]
        h = np.zeros((part.shape[0], n, n))
        h[:, k, k] = part
        h += h0  # the same sums, element for element, as H0 + diag(V_int)
        yield np.linalg.eigh(h)


def radial_eigensolve_class(
    b: float, d: float, l_r: int, couplings, n_states, n_basis: int = 24
) -> list[list[OracleEigenpair]]:
    """`radial_eigensolve` for several couplings g of one (b, d, l_r), in one stacked solve.

    n_states holds the number of states wanted for each coupling.  The node
    geometry, H0 = T^T diag(eps) T and the oscillator tables depend on (b, l_r,
    n_basis) only, so they are built once per basis size, and every
    coupling's H is diagonalised in one stacked `np.linalg.eigh`, at n_basis
    and again at 2 n_basis (in a few stacks for very large classes).
    Returns one list of eigenpairs per coupling.
    """
    couplings = np.asarray(couplings, dtype=float).reshape(-1)
    n_states = [int(m) for m in n_states]
    if l_r < 0:
        raise DomainError(f"l_r must be nonnegative, got {l_r}")
    if len(n_states) != couplings.size:
        raise DomainError(f"need one n_states per coupling, got {len(n_states)} for {couplings.size}")
    for m in n_states:
        if not 1 <= m <= n_basis <= 300:
            raise DomainError(f"need 1 <= n_states <= n_basis <= 300, got {m} and {n_basis}")
    atoms = [AtomParameters(b=b, d=d, g=float(g)) for g in couplings]
    r, t, h0 = _dvr_geometry(l_r, b, n_basis)
    solved = list(_dvr_eigh(h0, r, d, couplings))
    energies = [e for chunk, _ in solved for e in chunk]
    vecs = [v for _, chunk in solved for v in chunk]
    r2, _, h0_2 = _dvr_geometry(l_r, b, 2 * n_basis)
    larger = [e for chunk, _ in _dvr_eigh(h0_2, r2, d, couplings) for e in chunk]
    at_nodes = _oscillator_functions(l_r, b, r, n_basis)
    weights = 1.0 / np.sum(at_nodes**2, axis=0)  # Christoffel numbers in dr
    # Count sign changes only where V < E.  Where V > E, u'' = 2(V - E)u
    # bends u away from zero, so the forbidden tails hold no node (only the
    # truncation ripple), and a barrier between two allowed stretches holds
    # at most one, which the signs on either side still count.
    fine = np.linspace(0.0, r[-1], 8 * n_basis + 1)[1:]
    at_fine = _oscillator_functions(l_r, b, fine, n_basis)
    centrifugal = l_r * (l_r + 1) / (2.0 * fine**2)
    out = []
    for atom, m, e, v, e2 in zip(atoms, n_states, energies, vecs, larger):
        e, e2 = e[:m], e2[:m]
        change = np.abs(e2 - e) / np.maximum(np.abs(e2), 1e-300)
        coeffs = t @ v[:, :m]  # oscillator coefficients, free of T's column signs
        u_nodes = coeffs.T @ at_nodes
        u_fine = coeffs.T @ at_fine
        well = relative_potential(fine, atom) + centrifugal
        pairs = []
        for j in range(m):
            signs = np.sign(u_fine[j, well < e[j]])
            pairs.append(OracleEigenpair(
                eigenvalue=float(e[j]),
                node_count=int(np.count_nonzero(signs[1:] != signs[:-1])),
                radii=r, weights=weights, u_values=u_nodes[j], basis_change=float(change[j])))
        out.append(pairs)
    return out


def radial_eigensolve(
    atom: AtomParameters, l_r: int, n_states: int = 3, n_basis: int = 24
) -> list[OracleEigenpair]:
    """Lowest eigenpairs of the relative radial problem, eigenvalues ascending.

    Solved in an n_basis-point generalised Gauss-Laguerre DVR.  An exact
    state of class N lies in the span of the first N + 1 oscillator functions
    and so does V R = (E - H0) R, so E is an eigenvalue for every
    n_basis >= N + 1.  The solve is repeated at 2 n_basis for basis_change.
    This is `radial_eigensolve_class` with the one coupling atom.g.
    """
    return radial_eigensolve_class(atom.b, atom.d, l_r, [atom.g], [n_states], n_basis)[0]


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
    from scipy.integrate import quad  # the only scipy use; loaded on first call

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
