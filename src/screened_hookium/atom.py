"""Physical model of the confined two-electron atom and its exact solutions.

Two electrons bound harmonically to a nucleus of mass M (atomic units
hbar = m = e = 1), interacting through the screened, regularized pair
potential g / (r12^2 + 2 d^2).  The collective-coordinate transform separates
the Hamiltonian into free center-of-mass, harmonic pseudorelative and
nontrivial relative parts; the relative radial problem reduces to a confluent
Heun equation whose polynomial truncations yield closed-form eigenstates at
special couplings g.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.hermite import hermgauss

from . import heun
from .errors import ConsistencyError, DomainError, TerminationError

__all__ = [
    "AtomParameters",
    "QuantumNumbers",
    "PolynomialSolution",
    "Symmetry",
    "jacobi_transform",
    "pair_potential",
    "relative_potential",
    "quantized_energy",
    "heun_parameters",
    "termination_matrix",
    "solve_g",
    "radial_solution",
    "normalize_radial",
    "radial_ode_residual",
    "classify_symmetry",
    "assemble_total_energy",
]


class Symmetry(enum.Enum):
    """Spatial exchange symmetry of the pair state (fixed by the parity of l_r)."""

    SINGLET = "singlet"
    TRIPLET = "triplet"


@dataclass(frozen=True)
class AtomParameters:
    """Model parameters, atomic units throughout.

    b: harmonic confinement length, d: screening length of the pair
    interaction, g: its coupling constant, M: nucleus mass (math.inf encodes
    the static-nucleus limit exactly).
    """

    b: float
    d: float
    g: float = 0.0
    M: float = math.inf

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise DomainError(f"confinement length b must be positive, got {self.b}")
        if not self.d > 0:
            raise DomainError(f"screening length d must be positive, got {self.d}")
        if not self.M > 0:
            raise DomainError(f"nucleus mass M must be positive, got {self.M}")

    @property
    def d_over_b(self) -> float:
        return self.d / self.b


@dataclass(frozen=True)
class QuantumNumbers:
    """The six quantum numbers of a separated eigenstate plus the CM wavevector.

    (n_s, l_s, m_s) label the pseudorelative oscillator, (n_r, l_r, m_r) the
    relative motion; m_s and m_r do not enter any energy.
    """

    n_s: int = 0
    l_s: int = 0
    m_s: int = 0
    n_r: int = 0
    l_r: int = 0
    m_r: int = 0
    K: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("n_s", "l_s", "m_s", "n_r", "l_r"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be a nonnegative integer")
        if abs(self.m_r) > self.l_r:
            raise DomainError(f"|m_r| = {abs(self.m_r)} exceeds l_r = {self.l_r}")
        if len(self.K) != 3:
            raise DomainError("K must be a 3-vector")

    def total_energy(self, atom: AtomParameters, energy_r: float) -> float:
        return assemble_total_energy(self.K, atom.M, atom.b, self.n_s, self.l_s, energy_r)


def jacobi_transform(r1, r2, r3, M: float):
    """Collective coordinates (R, S, r) of the three-particle configuration.

    R = (r1 + r2 + M r3)/(2 + M),  S = (r1 + r2 - 2 r3)/sqrt(2),
    r = (r1 - r2)/sqrt(2).  The potential arguments satisfy
    |S + r|/sqrt(2) = |r1 - r3|, |S - r|/sqrt(2) = |r2 - r3| and
    sqrt(2) |r| = |r1 - r2|.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    if math.isinf(M):
        big_r = r3.copy()
    else:
        big_r = (r1 + r2 + M * r3) / (2.0 + M)
    s = (r1 + r2 - 2.0 * r3) / math.sqrt(2.0)
    rel = (r1 - r2) / math.sqrt(2.0)
    return big_r, s, rel


def pair_potential(r12, atom: AtomParameters):
    """Screened, regularized electron-electron interaction g / (r12^2 + 2 d^2)."""
    return atom.g / (np.asarray(r12, dtype=float) ** 2 + 2.0 * atom.d**2)


def relative_potential(r, atom: AtomParameters):
    """Potential of the relative-motion Hamiltonian.

    V(r) = r^2/(2 b^4) + (1/2) g/(r^2 + d^2); the second term is the pair
    potential evaluated at separation sqrt(2) r.
    """
    r = np.asarray(r, dtype=float)
    return r**2 / (2.0 * atom.b**4) + 0.5 * atom.g / (r**2 + atom.d**2)


def quantized_energy(N: int, l_r: int, b: float = 1.0) -> float:
    """Relative-motion energy (7 + 2 l_r + 4 N) / (2 b^2) of the class-N solutions.

    N >= 1 indexes the polynomial degree of the truncated series, not a
    principal quantum number.
    """
    if N < 1:
        raise DomainError(f"termination class N must be >= 1, got {N}")
    if l_r < 0:
        raise DomainError(f"l_r must be nonnegative, got {l_r}")
    if not b > 0:
        raise DomainError(f"b must be positive, got {b}")
    return (7.0 + 2.0 * l_r + 4.0 * N) / (2.0 * b**2)


def heun_parameters(atom: AtomParameters, l_r: int, energy_r: float) -> heun.HeunParameters:
    """Map the radial problem at energy E_r onto confluent Heun parameters.

    alpha = (d/b)^2, beta = l_r + 1/2, gamma = 1, delta = -k^2 d^2/4,
    eta = 1/2 + (k^2 d^2 - g)/4 with k^2 = 2 E_r.  The accessory parameters
    are recomputed directly as

        mu = (g - k^2 d^2)/4 + (l_r + 3/2)(d^2/(2 b^2) - 1)
        nu = 3/2 + l_r + d^2/b^2 - g/4

    and must agree with the conversion identities to 1e-12 relative; a
    mismatch signals a parameterization-convention bug and raises.
    """
    if l_r < 0:
        raise DomainError(f"l_r must be nonnegative, got {l_r}")
    k2d2 = 2.0 * energy_r * atom.d**2
    alpha = (atom.d / atom.b) ** 2
    params = heun.HeunParameters(
        alpha=alpha,
        beta=0.5 + l_r,
        gamma=1.0,
        delta=-0.25 * k2d2,
        eta=0.5 + 0.25 * (k2d2 - atom.g),
    )
    mu_direct = 0.25 * (atom.g - k2d2) + (l_r + 1.5) * (0.5 * alpha - 1.0)
    nu_direct = 1.5 + l_r + alpha - 0.25 * atom.g
    for got, want, name in ((params.mu, mu_direct, "mu"), (params.nu, nu_direct, "nu")):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise ConsistencyError(
                f"Heun parameterizations disagree for {name}: {got!r} vs {want!r}"
            )
    return params


# A coupling truncates the series when its mu lies within this distance of a
# root, relative to the largest root: eigenvalues of the Jacobi matrix are
# accurate to a few ulps of its norm.
_ROOT_TOL = 1e-10

# Stand-in for a ratio of consecutive coefficients that is exactly zero.
_TINY = 1e-150


def _truncation_bands(N: int, l_r: int, alpha: float, mu: float):
    """Bands (diagonal, superdiagonal, subdiagonal) of `termination_matrix`."""
    k = np.arange(N + 1, dtype=float)
    diag = k * alpha + mu - k * (k + l_r + 2.5)
    sup = k[1:] * (k[1:] + 0.5 + l_r)
    sub = (N + 1 - k[1:]) * alpha
    return diag, sup, sub


def termination_matrix(N: int, l_r: int, d_over_b: float, mu: float) -> np.ndarray:
    """The (N+1) x (N+1) tridiagonal truncation matrix, evaluated at mu.

    With alpha = (d/b)^2, row k carries diagonal k alpha + mu - k(k + l_r + 5/2),
    superdiagonal (k+1)(k + 3/2 + l_r) and subdiagonal (N + 1 - k) alpha.  Its
    determinant vanishes exactly at the accessory parameters mu that truncate
    the series at degree N, and its null vector there holds the series
    coefficients v_0 ... v_N.
    """
    if N < 1:
        raise DomainError(f"termination class N must be >= 1, got {N}")
    diag, sup, sub = _truncation_bands(N, l_r, d_over_b**2, mu)
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


def _mu_shift(N: int, l_r: int, alpha: float) -> float:
    """The constant c in mu = g/4 - c for class (N, l_r)."""
    return 0.25 * (7 + 2 * l_r + 4 * N) * alpha - (l_r + 1.5) * (0.5 * alpha - 1.0)


def _mu_roots(N: int, l_r: int, alpha: float) -> np.ndarray:
    """Ascending accessory parameters mu at which the series truncates at degree N.

    sub_k * super_{k-1} = (N + 1 - k) alpha k (k + 1/2 + l_r) > 0, so the
    truncation matrix is diagonally similar to a symmetric Jacobi matrix with
    off-diagonal sqrt(sub_k super_{k-1}) (Golub & Welsch 1969).  Its mu roots
    are minus the eigenvalues of the mu-free part: real and simple.
    """
    diag, sup, sub = _truncation_bands(N, l_r, alpha, 0.0)
    # numpy has no tridiagonal eigensolver; the dense one keeps scipy out.
    off = np.sqrt(sup * sub)
    return np.sort(-np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)))


def solve_g(N: int, l_r: int, b: float = 1.0, d: float = 1.0) -> np.ndarray:
    """All couplings g admitting a degree-N polynomial solution, ascending.

    mu is affine in g (mu = g/4 - c), so the N+1 couplings are the
    eigenvalues of the symmetric Jacobi form of the truncation matrix,
    mapped back to g.
    """
    if N < 1:
        raise DomainError(f"termination class N must be >= 1, got {N}")
    if l_r < 0:
        raise DomainError(f"l_r must be nonnegative, got {l_r}")
    if not (b > 0 and d > 0):
        raise DomainError(f"b and d must be positive, got b={b}, d={d}")
    alpha = (d / b) ** 2
    return 4.0 * (_mu_roots(N, l_r, alpha) + _mu_shift(N, l_r, alpha))


def _null_vector(diag: np.ndarray, sup: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Null vector (v_0 = 1) of a tridiagonal matrix that is singular to rounding.

    Forward ratios v_k / v_{k-1} follow from rows 0 .. k-1, backward ratios
    v_{k-1} / v_k from rows N .. k.  Each direction is accurate where the
    wanted solution dominates it, so the two are joined at the row whose
    residual, left out of both, is smallest relative to its terms (a twisted
    factorisation, Parlett & Dhillon).  A ratio that vanishes exactly is
    replaced by a tiny number, as in Lentz's continued-fraction method, so
    the next one stays finite.  The components are accumulated in
    log-magnitude, so none overflows unless the result itself does.
    """
    n = diag.size
    fwd = np.empty(n - 1)  # fwd[k-1] = v_k / v_{k-1}
    bwd = np.empty(n - 1)  # bwd[k-1] = v_{k-1} / v_k
    fwd[0] = _nonzero(-diag[0] / sup[0])
    for k in range(1, n - 1):
        fwd[k] = _nonzero(-(diag[k] + sub[k - 1] / fwd[k - 1]) / sup[k])
    bwd[-1] = _nonzero(-diag[-1] / sub[-1])
    for k in range(n - 2, 0, -1):
        bwd[k - 1] = _nonzero(-(diag[k] + sup[k] / bwd[k]) / sub[k - 1])
    # Row j's terms with v_j = 1: sub v_{j-1}, diag, sup v_{j+1}.
    lower = np.concatenate([[0.0], sub / fwd])
    upper = np.concatenate([sup / bwd, [0.0]])
    residual = np.abs(lower + diag + upper) / (np.abs(lower) + np.abs(diag) + np.abs(upper))
    j = int(np.argmin(residual))
    steps = np.concatenate([fwd[:j], 1.0 / bwd[j:]])
    return np.concatenate(
        [[1.0], np.cumprod(np.sign(steps)) * np.exp(np.cumsum(np.log(np.abs(steps))))]
    )


def _nonzero(x: float) -> float:
    return x if x != 0.0 else _TINY


@dataclass(frozen=True)
class PolynomialSolution:
    """One exact radial eigenfunction

        R(r) = C (r/d)^{l_r} (1 + z) P(z) exp(-r^2 / 2 b^2),   z = (r/d)^2,

    where P(z) = sum_n v_n (-z)^n truncates at degree N and C is the stored
    `normalization` (1.0 until `normalize_radial` fixes it).
    """

    N: int
    l_r: int
    energy_r: float
    g_root: float
    coefficients: heun.SeriesCoefficients
    n_r: int
    normalization: float
    atom: AtomParameters

    def polynomial_coefficients(self) -> np.ndarray:
        """Coefficients of P in z, ascending: (-1)^n v_n."""
        vs = self.coefficients.values[: self.N + 1]
        return np.array([(-1.0) ** n * v for n, v in enumerate(vs)])

    def radial(self, r):
        """Radial wavefunction at r (scalar or array)."""
        r = np.asarray(r, dtype=float)
        b, d = self.atom.b, self.atom.d
        z = (r / d) ** 2
        poly = npoly.polyval(z, self.polynomial_coefficients())
        val = (
            self.normalization
            * (r / d) ** self.l_r
            * (1.0 + z)
            * poly
            * np.exp(-(r**2) / (2.0 * b**2))
        )
        return val if val.ndim else float(val)

    @property
    def symmetry(self) -> Symmetry:
        return classify_symmetry(self.l_r)


def radial_solution(N: int, l_r: int, g_root: float, b: float = 1.0, d: float = 1.0) -> PolynomialSolution:
    """Construct the exact degree-N radial solution at a coupling root.

    Fails with TerminationError unless mu(g) is one of the N+1 truncation
    roots.  The coefficients v_0 = 1, v_1 ... v_N are the null vector of the
    truncation matrix at mu(g).  At fixed E_r the node count strictly
    decreases as g grows (Sturm comparison), and P has at most N positive
    zeros, so the i-th root in ascending order has n_r = N - i.  The
    returned solution carries normalization 1; `normalize_radial` makes it
    unit-norm.
    """
    energy_r = quantized_energy(N, l_r, b)
    model = AtomParameters(b=b, d=d, g=float(g_root), M=math.inf)
    alpha = model.d_over_b**2
    mu = 0.25 * model.g - _mu_shift(N, l_r, alpha)
    roots = _mu_roots(N, l_r, alpha)
    i = int(np.argmin(np.abs(roots - mu)))
    if abs(roots[i] - mu) > _ROOT_TOL * max(1.0, float(np.abs(roots).max())):
        raise TerminationError(
            f"series does not truncate at degree {N} for g = {g_root} "
            f"(nearest root g = {4.0 * (roots[i] + _mu_shift(N, l_r, alpha))})"
        )
    values = _null_vector(*_truncation_bands(N, l_r, alpha, mu))
    return PolynomialSolution(
        N=N,
        l_r=l_r,
        energy_r=energy_r,
        g_root=float(g_root),
        coefficients=heun.SeriesCoefficients(
            tuple(values.tolist()), heun_parameters(model, l_r, energy_r)
        ),
        n_r=N - i,
        normalization=1.0,
        atom=model,
    )


def _half_line_gauss(n: int, b: float):
    """Nodes r >= 0 and weights w of the half-line Gauss-Hermite rule.

    sum w_i f(r_i) = int_0^oo f(r) exp(-r^2/b^2) dr exactly for every even
    polynomial f of degree < 2n: the n-point Hermite rule is symmetric, so the
    half line takes its nonnegative nodes, with half weight at r = 0.
    """
    x, w = hermgauss(n)
    keep = x >= 0.0
    return b * x[keep], b * np.where(x[keep] == 0.0, 0.5, 1.0) * w[keep]


def _radial_norm2(pz: np.ndarray, l_r: int, b: float, d: float) -> float:
    """int_0^oo [(r/d)^l_r (1 + z) P(z)]^2 exp(-r^2/b^2) r^2 dr with z = (r/d)^2.

    P has ascending coefficients pz in z; the integrand is an even polynomial
    of degree 4 deg(P) + 2 l_r + 6 times the Gaussian, so the Gauss rule with
    2 deg(P) + l_r + 4 nodes is exact.
    """
    r, w = _half_line_gauss(2 * pz.size + l_r + 2, b)
    z = (r / d) ** 2
    return float(w @ ((r / d) ** l_r * (1.0 + z) * npoly.polyval(z, pz) * r) ** 2)


def normalize_radial(sol: PolynomialSolution) -> PolynomialSolution:
    """Rescale so that the radial norm integral of R^2 r^2 equals 1 (idempotent).

    The norm integral is a polynomial times a Gaussian, which the half-line
    Gauss-Hermite rule integrates exactly.  Raises DomainError when it is not
    finite and positive in floating point (it overflows for large classes).
    """
    norm2 = _radial_norm2(sol.polynomial_coefficients(), sol.l_r, sol.atom.b, sol.atom.d)
    if not (math.isfinite(norm2) and norm2 > 0.0):
        raise DomainError(
            f"radial norm integral is {norm2!r} for N = {sol.N}, l_r = {sol.l_r}, "
            f"d/b = {sol.atom.d_over_b!r} (g = {sol.g_root!r}): cannot normalize"
        )
    return replace(sol, normalization=1.0 / math.sqrt(norm2))


def radial_ode_residual(sol: PolynomialSolution, radii) -> np.ndarray:
    """Residual of the radial equation at each radius, relative to its largest term.

    R = Q(r) exp(-r^2/2b^2) with Q polynomial, so all derivatives reduce to
    exact polynomial algebra; the only floating error is evaluation roundoff.
    Checks  R'' + (2/r) R' + (k^2 - r^2/b^4 - g/(r^2+d^2) - l(l+1)/r^2) R = 0.
    """
    b, d, g = sol.atom.b, sol.atom.d, sol.atom.g
    l = sol.l_r
    k2 = 2.0 * sol.energy_r
    pz = sol.polynomial_coefficients()
    q = np.zeros(2 * pz.size - 1)
    q[::2] = pz / d ** (2.0 * np.arange(pz.size))
    q = npoly.polymul(q, np.array([1.0, 0.0, 1.0 / d**2]))
    q = np.concatenate([np.zeros(l), q]) * (sol.normalization / d**l)
    q1 = npoly.polyder(q)
    q2 = npoly.polyder(q, 2)

    r = np.asarray(radii, dtype=float)
    envelope = np.exp(-(r**2) / (2.0 * b**2))
    q_r = npoly.polyval(r, q)
    q1_r = npoly.polyval(r, q1)
    q2_r = npoly.polyval(r, q2)
    big_r = q_r * envelope
    big_r1 = (q1_r - r / b**2 * q_r) * envelope
    big_r2 = (q2_r - 2.0 * r / b**2 * q1_r + (r**2 / b**4 - 1.0 / b**2) * q_r) * envelope

    terms = np.stack(
        [
            big_r2,
            2.0 / r * big_r1,
            k2 * big_r,
            -(r**2) / b**4 * big_r,
            -g / (r**2 + d**2) * big_r,
            -l * (l + 1) / r**2 * big_r,
        ]
    )
    residual = terms.sum(axis=0)
    scale = np.abs(terms).max(axis=0)
    return residual / scale


def classify_symmetry(l_r: int) -> Symmetry:
    """Even l_r pairs with singlet spin, odd l_r with triplet (Pauli principle)."""
    if l_r < 0:
        raise DomainError(f"l_r must be nonnegative, got {l_r}")
    return Symmetry.SINGLET if l_r % 2 == 0 else Symmetry.TRIPLET


def assemble_total_energy(K, M: float, b: float, n_s: int, l_s: int, energy_r: float) -> float:
    """Total energy E_R + E_S + E_r of a separated eigenstate.

    E_R = |K|^2 / (2 M (1 + 2/M)) (zero in the static-nucleus limit) and
    E_S = (1 + 2/M)^{1/2} (3 + 4 n_s + 2 l_s) / (2 b^2).
    """
    if n_s < 0 or l_s < 0:
        raise DomainError("n_s and l_s must be nonnegative")
    if not (M > 0 and b > 0):
        raise DomainError(f"M and b must be positive, got M={M}, b={b}")
    k_vec = np.asarray(K, dtype=float)
    ksq = float(k_vec @ k_vec)
    energy_cm = ksq / (2.0 * M * (1.0 + 2.0 / M))
    energy_s = math.sqrt(1.0 + 2.0 / M) * (3.0 + 4.0 * n_s + 2.0 * l_s) / (2.0 * b**2)
    return energy_cm + energy_s + energy_r
