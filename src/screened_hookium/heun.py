"""Parameters of the confluent Heun equation.

The equation handled here is

    f'' + (alpha + (beta + 1)/xi + (gamma + 1)/(xi - 1)) f'
        + (mu/xi + nu/(xi - 1)) f = 0,

whose regular solution at xi = 0 is a power series sum_n v_n xi^n with
v_0 = 1.  For special parameter values the series truncates to a polynomial,
which is the case the rest of the package builds on; `atom` finds its
coefficients as the null vector of the truncation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HeunParameters"]


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
