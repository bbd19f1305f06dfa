"""Exact-arithmetic check that a coupling g is a root of its truncation determinant.

The class-(N, l_r) couplings are the roots, in the accessory parameter mu, of
the determinant of the (N+1) x (N+1) tridiagonal truncation matrix with

    diagonal  k alpha + mu - k (k + l_r + 5/2),
    sub*super (N + 1 - k) alpha k (k + 1/2 + l_r),      alpha = (d/b)^2,

and mu = (g - (7 + 2 l_r + 4 N) alpha)/4 + (l_r + 3/2)(alpha/2 - 1).

The determinant D_N(mu) and its derivative follow the three-term recurrence
D_k = diag_k D_{k-1} - subsup_k D_{k-2}.  Everything is exact: d, b and g are
floats, hence dyadic rationals, and the recurrence runs on integers scaled by
a common denominator, so no rounding enters until the final Newton step
D_N / D_N' is formed.  This file deliberately shares no code with the package.
"""

from __future__ import annotations

from fractions import Fraction

# A root fails when its Newton step, relative to max(1, |mu|), exceeds this.
ROOT_STEP_TOL = 1e-9


def exact_mu(N: int, l_r: int, g: float, b: float, d: float) -> tuple[Fraction, Fraction]:
    """(alpha, mu) in exact rationals for the coupling g of class (N, l_r)."""
    alpha = Fraction(d) ** 2 / Fraction(b) ** 2
    mu = (Fraction(g) - (7 + 2 * l_r + 4 * N) * alpha) / 4 + Fraction(2 * l_r + 3, 2) * (alpha / 2 - 1)
    return alpha, mu


def relative_newton_step(N: int, l_r: int, g: float, b: float, d: float) -> float:
    """|D_N(mu) / D_N'(mu)| / max(1, |mu|) in exact arithmetic (inf if D_N' = 0 != D_N)."""
    alpha, mu = exact_mu(N, l_r, g, b, d)
    a, c = alpha.numerator, alpha.denominator
    p, q = mu.numerator, mu.denominator
    # With S = 2 c q, S * diag_k and S^2 * subsup_k are integers, and
    # Dt_k = S^(k+1) D_k obeys the same recurrence with those coefficients.
    s = 2 * c * q
    det_prev, det = 1, 2 * c * p  # Dt_{-1}, Dt_0
    der_prev, der = 0, s  # Dt'_{-1}, Dt'_0
    for k in range(1, N + 1):
        diag = 2 * q * k * a + 2 * c * p - c * q * k * (2 * k + 2 * l_r + 5)
        subsup = 2 * c * q * q * a * (N + 1 - k) * k * (2 * k + 1 + 2 * l_r)
        det_prev, det, der_prev, der = (
            det,
            diag * det - subsup * det_prev,
            der,
            diag * der + s * det - subsup * der_prev,
        )
    if der == 0:
        return 0.0 if det == 0 else float("inf")
    return abs(det / der) / max(1.0, abs(float(mu)))


def root_is_exact(N: int, l_r: int, g: float, b: float, d: float) -> bool:
    return relative_newton_step(N, l_r, g, b, d) <= ROOT_STEP_TOL


def root_set_is_complete(N: int, l_r: int, gs: list[float], b: float, d: float) -> bool:
    """The N+1 roots sum to the exact trace: no root is missing or found twice.

    The roots in mu are the eigenvalues of minus the mu-free part of the
    truncation matrix, so their sum is sum_k k (k + l_r + 5/2) - alpha k.
    """
    if len(gs) != N + 1:
        return False
    alpha = Fraction(d) ** 2 / Fraction(b) ** 2
    want = sum(Fraction(k) * (k + l_r) + Fraction(5 * k, 2) - k * alpha for k in range(N + 1))
    mus = [exact_mu(N, l_r, g, b, d)[1] for g in gs]
    scale = sum(max(1.0, abs(float(m))) for m in mus)
    return abs(float(sum(mus) - want)) <= 1e-8 * scale


def reference_step(N: int, l_r: int, g: float, b: float, d: float) -> float:
    """The same Newton step with plain Fraction arithmetic (slow; self-test only)."""
    alpha, mu = exact_mu(N, l_r, g, b, d)
    half = Fraction(1, 2)
    det_prev, det, der_prev, der = Fraction(1), mu, Fraction(0), Fraction(1)
    for k in range(1, N + 1):
        diag = k * alpha + mu - k * (k + l_r + 5 * half)
        subsup = (N + 1 - k) * alpha * k * (k + half + l_r)
        det_prev, det, der_prev, der = det, diag * det - subsup * det_prev, der, diag * der + det - subsup * der_prev
    return abs(float(det / der)) / max(1.0, abs(float(mu)))


def self_test() -> list[str]:
    """Known cases; returns the list of failures (empty when the checker is sound)."""
    problems = []
    step = relative_newton_step(24, 0, 1533.86901, 1.0, 1.0)
    if not ROOT_STEP_TOL < step < 1e-5:
        problems.append(f"N=24 wrong root g=1533.86901 not flagged as expected (step {step:.3e})")
    for g in (12.0, 26.0):
        step = relative_newton_step(1, 0, g, 1.0, 1.0)
        if step != 0.0:
            problems.append(f"N=1 exact root g={g} rejected (step {step:.3e})")
    if not root_set_is_complete(1, 0, [12.0, 26.0], 1.0, 1.0):
        problems.append("N=1 root set {12, 26} not recognised as complete")
    if root_set_is_complete(1, 0, [12.0, 12.0], 1.0, 1.0):
        problems.append("N=1 duplicated root {12, 12} recognised as complete")
    for case in ((24, 0, 1533.86901, 1.0, 1.0), (7, 3, 812.25, 0.7, 0.7 * 0.3)):
        fast, slow = relative_newton_step(*case), reference_step(*case)
        if fast != slow:
            problems.append(f"scaled-integer and Fraction recurrences disagree at {case}: {fast} vs {slow}")
    return problems
