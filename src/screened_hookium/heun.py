"""Confluent Heun power series: recurrence, termination detection, evaluation.

The equation handled here is

    f'' + (alpha + (beta + 1)/xi + (gamma + 1)/(xi - 1)) f'
        + (mu/xi + nu/(xi - 1)) f = 0,

whose regular solution at xi = 0 is the power series sum_n v_n xi^n with
v_0 = 1 and a three-term recurrence for the v_n.  The series converges for
|xi| < 1; for special parameter values it truncates to a polynomial, which is
the case the rest of the package builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "HeunParameters",
    "SeriesCoefficients",
    "recurrence_coefficients",
    "series_coefficients",
    "termination_degree",
    "evaluate",
]

# Relative size below which a trailing coefficient counts as vanished, when
# `evaluate` probes a parameter set for truncation.  Parameters that truncate
# exactly are known only to rounding, and the forward recurrence inflates
# that error by its condition number, hence the slack.
TERMINATION_TOL = 1e-10

# How many coefficients to inspect when probing for termination.
_PROBE_TERMS = 128


@dataclass(frozen=True)
class HeunParameters:
    """Parameter set (alpha, beta, gamma, delta, eta) of the confluent Heun equation.

    The accessory parameters (mu, nu) of the equivalent equation form above
    are derived accessors.  The linear conversion between the two
    parameterizations is fixed here once; the physics-side constructor
    (`atom.heun_parameters`) re-derives (mu, nu) independently and refuses to
    hand out a parameter set for which the two routes disagree.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    eta: float

    @property
    def mu(self) -> float:
        a, b, c = self.alpha, self.beta, self.gamma
        return 0.5 * (a - b - c + a * b - b * c) - self.eta

    @property
    def nu(self) -> float:
        a, b, c = self.alpha, self.beta, self.gamma
        return 0.5 * (a + b + c + a * c + b * c) + self.delta + self.eta


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients v_0 ... v_n of the power series, with their parameters.

    v_0 = 1 always; the fictitious v_{-1} = 0 is never stored.
    """

    values: tuple[float, ...]
    params: HeunParameters

    def __len__(self) -> int:
        return len(self.values)


def recurrence_coefficients(params: HeunParameters, n: int) -> tuple[float, float, float]:
    """Coefficients (A_n, B_n, C_n) of the recurrence A_n v_n = B_n v_{n-1} + C_n v_{n-2}.

    A_n = 1 + beta/n
    B_n = 1 + (beta + gamma - alpha - 1)/n
            + [eta - (beta + gamma - alpha + alpha*beta - beta*gamma)/2] / n^2
    C_n = [delta + alpha((beta + gamma)/2 + n - 1)] / n^2
    """
    if n < 1:
        raise DomainError(f"recurrence index must be >= 1, got {n}")
    a, b, c = params.alpha, params.beta, params.gamma
    a_n = 1.0 + b / n
    b_n = 1.0 + (b + c - a - 1.0) / n + (params.eta - 0.5 * (b + c - a + a * b - b * c)) / n**2
    c_n = (params.delta + a * (0.5 * (b + c) + n - 1.0)) / n**2
    return a_n, b_n, c_n


def series_coefficients(params: HeunParameters, n_max: int) -> SeriesCoefficients:
    """Forward recurrence for v_0 ... v_{n_max}."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    values = [1.0]
    v_prev2 = 0.0
    for n in range(1, n_max + 1):
        a_n, b_n, c_n = recurrence_coefficients(params, n)
        if a_n == 0.0:
            # impossible for beta > -1; defensive against exotic parameters
            raise DomainError(f"recurrence pivot A_{n} vanished (beta = {params.beta})")
        values.append((b_n * values[-1] + c_n * v_prev2) / a_n)
        v_prev2 = values[-2]
    return SeriesCoefficients(tuple(values), params)


def termination_degree(coeffs: SeriesCoefficients, tol: float = TERMINATION_TOL) -> int | None:
    """Degree N at which the series truncates to a polynomial, or None.

    N qualifies when v_{N+1} has collapsed relative to the earlier
    coefficients *and* C_{N+2} vanishes, i.e.

        delta + alpha * ((beta + gamma)/2 + N + 1) = 0,

    which cuts the only feed-in to all later coefficients.  Needs at least
    two stored coefficients beyond the candidate degree.
    """
    p = coeffs.params
    vs = coeffs.values
    for n_cand in range(len(vs) - 2):
        scale = max(abs(v) for v in vs[: n_cand + 1])
        if scale == 0.0 or abs(vs[n_cand + 1]) > tol * scale:
            continue
        t = p.delta + p.alpha * (0.5 * (p.beta + p.gamma) + n_cand + 1)
        t_scale = abs(p.delta) + abs(p.alpha) * (0.5 * (abs(p.beta) + abs(p.gamma)) + n_cand + 1)
        if abs(t) <= 1e-9 * max(1.0, t_scale):
            return n_cand
    return None


def _horner(coeffs_ascending, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs_ascending):
        acc = acc * x + c
    return acc


def evaluate(
    params: HeunParameters,
    xi: float,
    tol: float = 1e-14,
    max_terms: int = 2000,
) -> tuple[float, bool]:
    """Sum the power series at xi; returns (value, converged).

    A terminated series is evaluated as an exact polynomial at any real xi.
    Otherwise |xi| < 1 is required and partial sums are accumulated in
    compensated arithmetic until the relative tail drops below `tol` or
    `max_terms` is exhausted (reported through the converged flag).
    """
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    probe = series_coefficients(params, min(max_terms, _PROBE_TERMS) + 2)
    degree = termination_degree(probe)
    if degree is not None:
        return _horner(probe.values[: degree + 1], xi), True

    if abs(xi) >= 1.0:
        raise DomainError(
            f"|xi| = {abs(xi)} >= 1 lies outside the disc of convergence of a "
            "non-terminating series"
        )

    values = list(probe.values)
    acc = 0.0
    comp = 0.0
    power = 1.0
    small_run = 0
    v_prev2 = values[-2] if len(values) >= 2 else 0.0
    for n in range(max_terms + 1):
        if n == len(values):
            a_n, b_n, c_n = recurrence_coefficients(params, n)
            values.append((b_n * values[-1] + c_n * v_prev2) / a_n)
            v_prev2 = values[-2]
        term = values[n] * power
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
