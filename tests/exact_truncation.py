"""Exact-rational oracle for the truncation problem, independent of the package.

The class-(N, l_r) couplings are the roots, in the accessory parameter mu, of
the determinant of the (N+1) x (N+1) tridiagonal truncation matrix with

    diagonal  k alpha + mu - k (k + l_r + 5/2),
    super     (k+1) (k + 3/2 + l_r),
    sub       (N + 1 - k) alpha,                        alpha = (d/b)^2,

and mu = (g - (7 + 2 l_r + 4 N) alpha)/4 + (l_r + 3/2)(alpha/2 - 1).  Floats
are dyadic rationals, so every quantity below is exact until the final ratio
is rounded to a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

HALF = Fraction(1, 2)


def exact_alpha_mu(N: int, l_r: int, g: float, b: float, d: float) -> tuple[Fraction, Fraction]:
    """(alpha, mu) in exact rationals for the coupling g of class (N, l_r)."""
    alpha = Fraction(d) ** 2 / Fraction(b) ** 2
    mu = (Fraction(g) - (7 + 2 * l_r + 4 * N) * alpha) / 4 + (l_r + 3 * HALF) * (alpha / 2 - 1)
    return alpha, mu


def determinant_polynomial(N: int, l_r: int, alpha: Fraction) -> list[Fraction]:
    """Exact coefficients (ascending in mu) of the truncation determinant.

    D_k = diag_k D_{k-1} - sub_k super_{k-1} D_{k-2}; the result is monic of
    degree N + 1.
    """

    def mul_affine(p: list[Fraction], shift: Fraction) -> list[Fraction]:
        out = [Fraction(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            out[i + 1] += c
            out[i] += c * shift
        return out

    d_prev2 = [Fraction(1)]
    d_prev = [Fraction(0), Fraction(1)]  # mu + 0
    for k in range(1, N + 1):
        shift = k * alpha - Fraction(k) * (k + l_r + 5 * HALF)
        sub_super = (N + 1 - k) * alpha * k * (Fraction(k) + l_r + HALF)
        nxt = mul_affine(d_prev, shift)
        for i, c in enumerate(d_prev2):
            nxt[i] -= sub_super * c
        d_prev2, d_prev = d_prev, nxt
    return d_prev


def relative_newton_steps(poly: list[Fraction], mus: list[Fraction]) -> list[float]:
    """|D(mu) / D'(mu)| / max(1, |mu|) at each mu, exact up to the final rounding.

    Runs on integers: with the coefficients over a common denominator and
    mu = a / q, q^M D(mu) and q^(M-1) D'(mu) are integer Horner sums.
    """
    common = math.lcm(*(c.denominator for c in poly))
    coeffs = [c.numerator * (common // c.denominator) for c in poly]
    steps = []
    for mu in mus:
        a, q = mu.numerator, mu.denominator
        value, slope, q_power = coeffs[-1], 0, 1
        for c in reversed(coeffs[:-1]):
            slope = slope * a + value
            q_power *= q
            value = value * a + c * q_power
        if slope == 0:
            steps.append(0.0 if value == 0 else math.inf)
        else:
            steps.append(abs(value / (slope * q)) / max(1.0, abs(float(mu))))
    return steps


def exact_trace(N: int, l_r: int, alpha: Fraction) -> Fraction:
    """Sum of the N+1 roots mu: minus the mu-free part of the matrix trace."""
    return sum(Fraction(k) * (k + l_r + 5 * HALF) - k * alpha for k in range(N + 1))


def row_residual(N: int, l_r: int, alpha: Fraction, mu: Fraction, values) -> float:
    """Largest componentwise relative residual |(M v)_k| / sum_j |M_kj v_j|.

    Runs on integers: the matrix entries over one common denominator, the
    float components of v over another.
    """
    diag = [k * alpha + mu - k * (k + l_r + 5 * HALF) for k in range(N + 1)]
    sub = [(N + 1 - k) * alpha for k in range(N + 1)]
    sup = [(k + 1) * (k + 3 * HALF + l_r) for k in range(N + 1)]
    common = math.lcm(*(x.denominator for x in diag + sub + sup))
    diag, sub, sup = ([x.numerator * (common // x.denominator) for x in row] for row in (diag, sub, sup))
    ratios = [float(x).as_integer_ratio() for x in values]
    v_common = max(q for _, q in ratios)
    v = [p * (v_common // q) for p, q in ratios] + [0]
    worst = 0.0
    for k in range(N + 1):
        terms = (sub[k] * v[k - 1] if k else 0, diag[k] * v[k], sup[k] * v[k + 1])
        scale = sum(abs(t) for t in terms)
        if scale:
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def positive_zero_count(p_ascending) -> tuple[int, int]:
    """(lower, upper) bounds on the number of positive zeros of P(z).

    upper is Descartes' count of sign changes in the coefficients.  lower
    counts the sign changes of P, evaluated exactly, between points that
    separate the float approximations of its positive zeros; it falls short
    of the true count only where those approximations are too coarse to
    separate two zeros.
    """
    p = [float(c) for c in p_ascending]
    signs = [c > 0 for c in p if c != 0]
    upper = sum(a != b for a, b in zip(signs, signs[1:]))
    scale = abs(p[0] / p[-1]) ** (1.0 / (len(p) - 1))
    w = np.roots([c * scale**n for n, c in enumerate(p)][::-1])
    zeros = np.sort(scale * w[(np.abs(w.imag) <= 1e-6 * np.abs(w)) & (w.real > 0)].real)
    if zeros.size:
        points = np.concatenate([[0.5 * zeros[0]], np.sqrt(zeros[1:] * zeros[:-1]), [2.0 * zeros[-1]]])
    else:
        points = [1.0]
    ratios = [c.as_integer_ratio() for c in p]
    common = max(q for _, q in ratios)
    coeffs = [a * (common // q) for a, q in ratios]
    values = [v for v in (_exact_sign(coeffs, z) for z in points) if v]
    lower = sum(a != b for a, b in zip(values, values[1:]))
    return lower, upper


def _exact_sign(coeffs: list[int], z: float) -> int:
    """Sign of sum_n c_n z^n for integer c_n (ascending), in exact arithmetic."""
    num, den = float(z).as_integer_ratio()
    acc, den_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * den_power
        den_power *= den
    return (acc > 0) - (acc < 0)
