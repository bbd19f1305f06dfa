"""Adaptive-quadrature one-body density, the independent reference for the Gauss rule.

This is the package's former `density_numeric`, kept unchanged: exact
Gauss-Legendre in cos theta inside an adaptive semi-infinite quadrature in
r2, one nested integral per radius.  It shares only `normalize_radial` and
the polynomial coefficients with the package's tensor Gauss rule.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from screened_hookium import oracle
from screened_hookium.atom import PolynomialSolution, normalize_radial
from screened_hookium.errors import DomainError


def density_numeric(sol: PolynomialSolution, r1: float) -> float:
    """One-body density of an l_r = 0 pair state by quadrature (no closed form).

    Works for any termination class N: the inner angular integral is exact
    Gauss-Legendre (the integrand is polynomial in cos theta), the outer radial
    integral adaptive.  The solution is normalized internally, so passing an
    unnormalized one is fine.
    """
    if sol.l_r != 0:
        raise DomainError("numeric density is implemented for l_r = 0 states only")
    sol = normalize_radial(sol)
    b, d = sol.atom.b, sol.atom.d
    amp2 = sol.normalization**2
    poly = sol.polynomial_coefficients()
    nodes, weights = np.polynomial.legendre.leggauss(sol.N + 4)

    def shell(r2: float) -> float:
        u2 = r1**2 + r2**2 - 2.0 * r1 * r2 * nodes
        z = u2 / (2.0 * d**2)
        q = (1.0 + z) ** 2 * npoly.polyval(z, poly) ** 2
        angular = float(weights @ q)
        return angular * r2**2 * math.exp(-(r1**2 + r2**2) / b**2)

    outer = oracle.quadrature(shell, 0.0, math.inf, tol=1e-12)
    return (math.pi * b**2) ** -1.5 * amp2 * outer
