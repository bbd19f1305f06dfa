"""Forward-recurrence reference for the confluent Heun power series.

The package builds a truncated series from the null vector of the truncation
matrix; the tests compare it with this second route, the three-term
recurrence

    A_n v_n = B_n v_{n-1} + C_n v_{n-2},   v_0 = 1,  v_{-1} = 0,

    A_n = 1 + beta/n
    B_n = 1 + (beta + gamma - alpha - 1)/n
            + [eta - (beta + gamma - alpha + alpha*beta - beta*gamma)/2] / n^2
    C_n = [delta + alpha((beta + gamma)/2 + n - 1)] / n^2,

and with its sum inside the unit disc, where the series converges.
"""

from __future__ import annotations

from itertools import islice

from screened_hookium.errors import DomainError


def recurrence_coefficients(params, n: int) -> tuple[float, float, float]:
    """(A_n, B_n, C_n) for n >= 1."""
    if n < 1:
        raise DomainError(f"recurrence index must be >= 1, got {n}")
    a, b, c = params.alpha, params.beta, params.gamma
    a_n = 1.0 + b / n
    b_n = 1.0 + (b + c - a - 1.0) / n + (params.eta - 0.5 * (b + c - a + a * b - b * c)) / n**2
    c_n = (params.delta + a * (0.5 * (b + c) + n - 1.0)) / n**2
    return a_n, b_n, c_n


def _forward(params):
    """Yield v_0, v_1, ... without end."""
    v_prev2, v_prev = 0.0, 1.0
    yield v_prev
    n = 1
    while True:
        a_n, b_n, c_n = recurrence_coefficients(params, n)
        v_prev2, v_prev = v_prev, (b_n * v_prev + c_n * v_prev2) / a_n
        yield v_prev
        n += 1


def series_coefficients(params, n_max: int) -> list[float]:
    """v_0 ... v_{n_max} by the forward recurrence."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    return list(islice(_forward(params), n_max + 1))


def evaluate(params, xi: float, tol: float = 1e-14, max_terms: int = 2000) -> tuple[float, bool]:
    """Sum the series at |xi| < 1; returns (value, converged).

    Partial sums are accumulated in compensated arithmetic until two
    successive terms fall below `tol` relative to the sum, or `max_terms`
    is exhausted (reported through the converged flag).
    """
    if abs(xi) >= 1.0:
        raise DomainError(f"|xi| = {abs(xi)} >= 1 lies outside the disc of convergence")
    acc = 0.0
    comp = 0.0
    power = 1.0
    small_run = 0
    for n, v in enumerate(islice(_forward(params), max_terms + 1)):
        term = v * power
        # Kahan-compensated accumulation
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        power *= xi
        if n >= 2 and abs(term) <= tol * abs(acc):
            small_run += 1
            if small_run >= 2:
                return acc, True
        else:
            small_run = 0
    return acc, False
