"""The closed-form two-electron ground state in the static-nucleus limit.

The node-less member of the degree-1, l_r = 0 class assembles into an explicit
pair wavefunction whose one-body density has a closed form; the density
normalization (integral = 2 electrons) fixes the overall constant.  The pair
factors carry only even powers of the separation, so there is no coalescence
cusp.  Every l_r = 0 class has a numeric density from an exact Gauss rule,
since |Psi|^2 is a polynomial times Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .atom import (
    AtomParameters,
    PolynomialSolution,
    _half_line_gauss,
    _radial_norm2,
    assemble_total_energy,
    normalize_radial,
    quantized_energy,
    solve_class,
)
from .errors import ConsistencyError, DomainError

__all__ = [
    "GroundState",
    "DensityProfile",
    "ground_state",
    "wavefunction",
    "density_closed_form",
    "density_numeric",
    "density_profile",
    "density_profile_numeric",
    "normalization_constant",
]


@dataclass(frozen=True)
class GroundState:
    """Exact N = 1 singlet ground state (static nucleus, K = 0, n_s = l_s = 0)."""

    atom: AtomParameters
    v1: float
    g_root: float
    normalization: float
    energy_total: float


@dataclass(frozen=True)
class DensityProfile:
    """Sampled one-body density on an ascending radial grid."""

    radii: np.ndarray
    values: np.ndarray
    normalization: float
    kind: str = "closed-form"


def ground_state(b: float = 1.0, d: float = 1.0) -> GroundState:
    """Construct the node-less degree-1 ground state for confinement shape (b, d).

    The i-th coupling in ascending order has n_r = N - i nodes, so the
    node-less member is the largest coupling of the class.
    """
    sol = solve_class(1, 0, b=b, d=d)[-1]
    v1 = sol.coefficients[1]
    norm = normalization_constant(sol.atom, v1)
    total = assemble_total_energy(
        (0.0, 0.0, 0.0), math.inf, b, 0, 0, quantized_energy(1, 0, b)
    )
    return GroundState(atom=sol.atom, v1=v1, g_root=sol.g_root, normalization=norm, energy_total=total)


def wavefunction(gs: GroundState, r1, r2) -> float:
    """Pair wavefunction at electron positions r1, r2 (3-vectors).

    Psi = [1/(2 pi^{5/4})] [N/(b d)^{3/2}] (1 + r12^2/2d^2) (1 - v1 r12^2/2d^2)
          exp(-(r1^2 + r2^2)/2b^2).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    b, d = gs.atom.b, gs.atom.d
    u2 = float(np.sum((r1 - r2) ** 2))
    radial2 = float(np.sum(r1**2) + np.sum(r2**2))
    pref = gs.normalization / (2.0 * math.pi**1.25 * (b * d) ** 1.5)
    return (
        pref
        * (1.0 + u2 / (2.0 * d**2))
        * (1.0 - gs.v1 * u2 / (2.0 * d**2))
        * math.exp(-radial2 / (2.0 * b**2))
    )


def _density_bracket(v1: float, t: float, y2):
    """Polynomial factor of the closed-form density; y2 = (r1/d)^2, t = d/b."""
    f1 = (
        12.0 * (1.0 - v1)
        + 10.0 * (1.0 + v1 * (v1 - 4.0)) * y2
        + 21.0 * v1 * (v1 - 1.0) * y2**2
        + 9.0 * v1**2 * y2**3
    )
    f2 = 10.0 + v1 * (10.0 * (v1 - 4.0) + 70.0 * (v1 - 1.0) * y2 + 63.0 * v1 * y2**2)
    return (
        945.0 * v1**2
        + 32.0 * t**6 * f1
        + 24.0 * t**4 * f2
        + 16.0 * t**8 * (2.0 + y2) ** 2 * (v1 * y2 - 2.0) ** 2
        + 840.0 * v1 * t**2 * (3.0 * v1 * y2 + v1 - 1.0)
    )


def _density_closed(atom: AtomParameters, v1: float, ncal: float, r1):
    r1 = np.asarray(r1, dtype=float)
    b, d = atom.b, atom.d
    t = d / b
    y2 = (r1 / d) ** 2
    val = (
        ncal**2
        / b**3
        * np.exp(-(r1**2) / b**2)
        / (512.0 * math.pi)
        * (b / d) ** 11
        * _density_bracket(v1, t, y2)
    )
    return val if val.ndim else float(val)


def density_closed_form(gs: GroundState, r1):
    """Closed-form one-body density at radius r1 (scalar or array)."""
    return _density_closed(gs.atom, gs.v1, gs.normalization, r1)


def normalization_constant(atom: AtomParameters, v1: float) -> float:
    """The constant N making the one-body density integrate to 2 electrons.

    Psi factors into the pseudorelative oscillator ground state and the
    radial function of P(z) = 1 - v1 z, so N is that radial normalization
    (an exact Gauss-Hermite rule, see `normalize_radial`) times d^{3/2}.  It
    is guarded by integrating the paper's closed-form density, a second and
    independent formula: 4 pi r^2 rho is an even polynomial of degree 10 times
    exp(-r^2/b^2), so the 6-node half-line Gauss-Hermite rule is exact.  A
    relative disagreement beyond 1e-10 raises.
    """
    rule = _half_line_gauss(6, atom.b)
    ncal = atom.d**1.5 / math.sqrt(_radial_norm2(np.array([1.0, -v1]), 0, atom.d, rule))
    r, w = rule
    # The rule's weight function is the Gaussian, so divide it out of rho.
    rho = _density_closed(atom, v1, ncal, r) * np.exp(r**2 / atom.b**2)
    check = float(w @ (4.0 * math.pi * r**2 * rho))
    if abs(check - 2.0) > 1e-10 * 2.0:
        raise ConsistencyError(
            f"radial-route normalization disagrees with the closed-form density: integral = {check!r}"
        )
    return ncal


def density_profile(
    gs: GroundState, r_max: float | None = None, n_points: int = 400
) -> DensityProfile:
    """Sampled closed-form density, default grid uniform on [0, 6b]."""
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    if r_max is None:
        r_max = 6.0 * gs.atom.b
    radii = np.linspace(0.0, r_max, n_points)
    values = density_closed_form(gs, radii)
    return DensityProfile(radii=radii, values=values, normalization=gs.normalization)


def density_numeric(sol: PolynomialSolution, r1):
    """One-body density of an l_r = 0 pair state of any class at r1 (scalar or array).

    |Psi|^2 integrated over the second electron is a polynomial in cos theta
    and r2 times exp(-r2^2/b^2), so a tensor rule is exact: Gauss-Legendre
    in cos theta and the half-line Gauss-Hermite rule in r2.  The solution
    is normalized internally, so passing an unnormalized one is fine.
    """
    if sol.l_r != 0:
        raise DomainError("numeric density is implemented for l_r = 0 states only")
    sol = normalize_radial(sol)
    b, d = sol.atom.b, sol.atom.d
    r1 = np.asarray(r1, dtype=float)
    cos_t, w_t = np.polynomial.legendre.leggauss(sol.N + 2)
    r2, w2 = _half_line_gauss(2 * sol.N + 4, b)
    x1 = r1[..., None, None]
    z = (x1**2 + r2[:, None] ** 2 - 2.0 * x1 * r2[:, None] * cos_t) / (2.0 * d**2)
    q = ((1.0 + z) * npoly.polyval(z, sol.polynomial_coefficients())) ** 2
    val = (
        (math.pi * b**2) ** -1.5
        * sol.normalization**2
        * np.exp(-(r1**2) / b**2)
        * ((q @ w_t) @ (w2 * r2**2))
    )
    return val if val.ndim else float(val)


def density_profile_numeric(
    sol: PolynomialSolution, r_max: float | None = None, n_points: int = 100
) -> DensityProfile:
    """Sampled Gauss-rule density for an l_r = 0 state of any class.

    Marked kind="numeric" to distinguish it from the closed form, which only
    covers the degree-1 ground state.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    if r_max is None:
        r_max = 6.0 * sol.atom.b
    sol = normalize_radial(sol)
    radii = np.linspace(0.0, r_max, n_points)
    return DensityProfile(
        radii=radii,
        values=density_numeric(sol, radii),
        normalization=sol.normalization * sol.atom.d**1.5,
        kind="numeric",
    )
