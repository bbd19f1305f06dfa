"""Closed-form spectra in the two limiting regimes of the pair interaction.

For d -> 0 the interaction becomes inverse-square and the relative problem
maps onto an isotropic oscillator with a shifted angular index; for d -> oo
it becomes (a constant minus) a quadratic, gently renormalizing the oscillator
strength.  Both limits admit simple degeneracy conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atom import AtomParameters
from .errors import DomainError

__all__ = [
    "LimitSpectrumEntry",
    "small_d_energy",
    "small_d_degeneracy_g",
    "large_d_energy",
    "large_d_degenerate",
    "gamma_renorm",
    "small_d_spectrum",
    "large_d_spectrum",
]


@dataclass(frozen=True)
class LimitSpectrumEntry:
    """One relative-motion level in a limiting regime."""

    n_r: int
    l_r: int
    energy: float


def small_d_energy(n_r: int, l_r: int, g: float, b: float = 1.0) -> float:
    """Inverse-square-limit level (1 + 2 n_r + sqrt(g + (l_r + 1/2)^2)) / b^2."""
    if n_r < 0 or l_r < 0:
        raise DomainError("n_r and l_r must be nonnegative")
    if not math.isfinite(g):
        raise DomainError(f"coupling g must be finite, got {g}")
    if not (b > 0 and math.isfinite(b)):
        raise DomainError(f"confinement length b must be positive and finite, got {b}")
    arg = g + (l_r + 0.5) ** 2
    if not arg >= 0.0:
        raise DomainError(
            f"g = {g} < -(l_r + 1/2)^2 lies in the fall-to-center regime"
        )
    return (1.0 + 2.0 * n_r + math.sqrt(arg)) / b**2


def small_d_degeneracy_g(n_r: int, l_r: int, n_rp: int, l_rp: int) -> float | None:
    """Coupling that makes the two small-d levels degenerate, if one exists.

    g = [(dl^2 - 4 dn^2) / (16 dn^2)] [(l_r + l_r' + 1)^2 - 4 dn^2] with
    dl = l_r - l_r', dn = n_r - n_r'.  The formula arises from squaring twice,
    so the candidate is verified by direct energy comparison and discarded
    (None) when spurious or outside the allowed-g domain.  dn = 0 admits no
    finite-g degeneracy between distinct states.
    """
    dn = n_r - n_rp
    if dn == 0:
        return None
    dl = l_r - l_rp
    g = ((dl**2 - 4.0 * dn**2) / (16.0 * dn**2)) * ((l_r + l_rp + 1) ** 2 - 4.0 * dn**2)
    try:
        e1 = small_d_energy(n_r, l_r, g)
        e2 = small_d_energy(n_rp, l_rp, g)
    except DomainError:
        return None
    if abs(e1 - e2) > 1e-12 * max(1.0, abs(e1)):
        return None
    return g


def gamma_renorm(atom: AtomParameters) -> float:
    """Oscillator-strength renormalization 1 - g b^4 / d^4 of the large-d limit."""
    return 1.0 - atom.g * atom.b**4 / atom.d**4


def large_d_energy(n_r: int, l_r: int, atom: AtomParameters) -> float:
    """Weak-screening-limit level g/(2 d^2) + sqrt(gamma) (3 + 4 n_r + 2 l_r)/(2 b^2)."""
    if n_r < 0 or l_r < 0:
        raise DomainError("n_r and l_r must be nonnegative")
    if not math.isfinite(atom.g):
        raise DomainError(f"coupling g must be finite, got {atom.g}")
    gam = gamma_renorm(atom)
    if not gam > 0.0:
        raise DomainError(f"unbound regime: 1 - g b^4/d^4 = {gam} <= 0")
    return atom.g / (2.0 * atom.d**2) + math.sqrt(gam) * (3.0 + 4.0 * n_r + 2.0 * l_r) / (
        2.0 * atom.b**2
    )


def large_d_degenerate(n_r: int, l_r: int, n_rp: int, l_rp: int) -> bool:
    """True iff 2(n_r - n_r') + (l_r - l_r') = 0 (the large-d levels coincide)."""
    return 2 * (n_r - n_rp) + (l_r - l_rp) == 0


def _enumerate(levels: int, energy_of):
    candidates = [
        LimitSpectrumEntry(n_r=n_r, l_r=l_r, energy=energy_of(n_r, l_r))
        for n_r in range(levels + 2)
        for l_r in range(2 * levels + 10)
    ]
    candidates.sort(key=lambda e: (e.energy, e.l_r, e.n_r))
    return candidates[:levels]


def small_d_spectrum(g: float, b: float = 1.0, levels: int = 8) -> list[LimitSpectrumEntry]:
    """Lowest small-d levels, ascending (ties broken by l_r then n_r)."""
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    return _enumerate(levels, lambda n, l: small_d_energy(n, l, g, b))


def large_d_spectrum(atom: AtomParameters, levels: int = 8) -> list[LimitSpectrumEntry]:
    """Lowest large-d levels, ascending (ties broken by l_r then n_r)."""
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    return _enumerate(levels, lambda n, l: large_d_energy(n, l, atom))
